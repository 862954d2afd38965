"""The benchmark's CLI goldens replayed as a unit test.

Variants 0-7 of every ``probe-mix`` slot and variants 0-5 of ``ingest`` are
built from the benchmark's own input generator and run; each input's sha
and each output digest must equal the ones committed in
``perfbench/goldens/``.  The probe-mix digest covers the exit code, the
bytes of stdout and the bytes of the ``--matching`` file, so a change to
one byte of CLI output fails here, before any benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ untouched
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


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
