"""The benchmark's per-layer hooks still find every function they wrap.

A refactor that renames or removes a hooked function (for example
``candidate_thresholds`` or ``DiagramPath.at``) would otherwise report
that layer as absent in traced benchmark runs without failing anything.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_hook_family_is_installed(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == {}
        families = {family for _, family, _, _ in tracing.HOOKS}
        assert sorted(f for f in families if tracer.installed.get(f, 0) < 1) == []
    finally:
        tracer.uninstall()


def test_tracer_counts_every_bottleneck_decision(monkeypatch):
    """The search's must-match decisions run through the hooked name
    ``pdmetric.matching.augmented_matching``, so the traced
    ``kernels.feasibility_calls`` counts them next to the cold LB run and
    the witness run that the first read of ``pairs`` makes; the tracer
    reads them, so it counts that run too."""
    import numpy as np

    import pdmetric.matching as pm
    from pdmetric import PlaneDiagonal, canonicalize

    pair = PlaneDiagonal(1, "sup")
    rng = np.random.default_rng(3)

    def draw():
        b = rng.uniform(0.0, 100.0, 60)
        g = rng.uniform(0.0, 10.0, 60)
        return canonicalize([pair.point(x, x + y) for x, y in zip(b.tolist(), g.tolist())], pair)

    s, t = draw(), draw()
    kinds = []  # True for a must-match decision, False for a cold augmented run
    kernel = pm.augmented_matching

    def counting(Q, ax, ay, r, decide=False):
        kinds.append(decide)
        return kernel(Q, ax, ay, r, decide=decide)

    with monkeypatch.context() as patch:
        patch.setattr(pm, "augmented_matching", counting)
        want = pm.bottleneck(s, t, pair)
        assert kinds.count(True) > 2 and kinds.count(False) == 1
        want[1].pairs
    assert kinds.count(True) > 2 and kinds.count(False) == 2

    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        got = pm.bottleneck(s, t, pair)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert got == want
    metrics, absent = tracer.metrics()
    assert "kernels.feasibility_calls" not in absent
    assert metrics["kernels.feasibility_calls"]["value"] == len(kinds)
    assert metrics["matching.solves"]["value"] == 1
