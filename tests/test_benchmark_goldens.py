"""The benchmark's Wasserstein goldens replayed as a unit test.

Every W_p op of the ``dense-solve`` workload (each finite-p slot, both
variants) is built from the benchmark's own input generator and solved;
its value's ``float.hex`` must equal the digest committed in
``perfbench/goldens/dense-solve.json``.  A kernel change that moves one bit
of a distance fails here, before any benchmark runs.
"""

import importlib.util
import math
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


def test_dense_solve_wasserstein_ops_match_goldens(workloads):
    goldens = workloads.load_goldens(workloads.golden_path("dense-solve", smoke=False))
    factory = workloads.OpFactory("dense-solve", smoke=False)
    keys = []
    for slot, _, p, _ in workloads.DENSE_SLOTS:
        if p is None or math.isinf(p):
            continue
        for variant in range(workloads.POOL["dense-solve"]):
            op = factory.build(slot, variant)
            golden = goldens[op.key]
            assert op.input_sha == golden["input_sha256"], op.key
            assert op.digest(op.run()) == golden["output"], op.key
            keys.append(op.key)
    assert len(keys) == 14
