"""The benchmark's CLI goldens replayed as a unit test.

Variants 0-7 of every ``probe-mix`` slot and variants 0-5 of ``ingest`` are
built from the benchmark's own input generator and run; each input's sha
and each output digest must equal the ones committed in
``perfbench/goldens/``.  The probe-mix digest covers the exit code, the
bytes of stdout and the bytes of the ``--matching`` file, so a change to
one byte of CLI output fails here, before any benchmark runs.
"""

import functools
import sys

import pytest

@pytest.mark.parametrize("workload, variants", [("probe-mix", 8), ("ingest", 6)])
def test_cli_and_ingest_ops_match_goldens(workloads, workload, variants, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # probe ops write their files under the cwd
    goldens = workloads.load_goldens(workloads.golden_path(workload, smoke=False))
    factory = workloads.OpFactory(workload, smoke=False)
    keys = []
    for slot in workloads.SLOTS[workload]:
        for variant in range(variants):
            op = factory.build(slot, variant)
            golden = goldens[op.key]
            assert op.input_sha == golden["input_sha256"], op.key
            assert op.digest(op.run()) == golden["output"], op.key
            keys.append(op.key)
    assert len(keys) == variants * len(workloads.SLOTS[workload])


def test_probe_and_c0_ops_build_no_point_and_call_no_canonicalize(workloads, tmp_path,
                                                                   monkeypatch):
    """The package's own producers build their point sets as arrays:
    replaying variants 0-1 of every ``probe-mix`` slot and one
    ``c0-gap-11`` op, no ``MetricPair.point`` and no ``canonicalize`` call
    comes from ``cli``, ``probes`` or ``geodesics``.  Each name the two are
    bound to in the package is counted, as the benchmark's tracer binds its
    hooks, and every output still equals its golden."""
    import pdmetric
    import pdmetric.diagram
    from pdmetric.spaces import MetricPair

    callers = []

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            callers.append((fn.__name__, sys._getframe(1).f_globals["__name__"]))
            return fn(*args, **kwargs)
        return wrapper

    canonicalize = pdmetric.diagram.canonicalize
    for name, module in list(sys.modules.items()):
        if name == "pdmetric" or name.startswith("pdmetric."):
            for key, value in list(vars(module).items()):
                if value is canonicalize:
                    monkeypatch.setattr(module, key, counted(canonicalize))
    monkeypatch.setattr(MetricPair, "point", counted(MetricPair.point))
    pair = pdmetric.PlaneDiagonal()
    pdmetric.canonicalize([pair.point(0.0, 1.0)], pair)  # the counting itself works
    assert callers == [("point", __name__), ("canonicalize", __name__)]

    monkeypatch.chdir(tmp_path)  # probe ops write their files under the cwd
    ops = [workloads.OpFactory("probe-mix", smoke=False).build(slot, variant)
           for slot in workloads.SLOTS["probe-mix"] for variant in range(2)]
    ops.append(workloads.OpFactory("dense-solve", smoke=False).build("c0-gap-11", 0))
    for op in ops:
        golden = workloads.load_goldens(workloads.golden_path(
            "dense-solve" if op.slot == "c0-gap-11" else "probe-mix", smoke=False))[op.key]
        assert op.input_sha == golden["input_sha256"], op.key
        assert op.digest(op.run()) == golden["output"], op.key
    inside = {"pdmetric.cli", "pdmetric.probes", "pdmetric.geodesics"}
    assert [c for c in callers if c[1] in inside] == []
