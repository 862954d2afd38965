"""The benchmark's ``dense-solve`` goldens replayed as a unit test.

Every op of the ``dense-solve`` workload (each slot, both variants: the
W_p solves, the bottleneck solves and the c0 gap) is built from the
benchmark's own input generator and run; its digest (the value's
``float.hex``, and the verdict for the c0 gap) must equal the one committed
in ``perfbench/goldens/dense-solve.json``.  A kernel or search change that
moves one bit of a distance fails here, before any benchmark runs.
"""

import math


def replay_dense_solve(workloads, wanted):
    """Run every ``dense-solve`` op whose slot passes ``wanted`` (a predicate
    on its p: None for the c0 gap) against its golden; return their keys."""
    goldens = workloads.load_goldens(workloads.golden_path("dense-solve", smoke=False))
    factory = workloads.OpFactory("dense-solve", smoke=False)
    keys = []
    for slot, _, p, _ in workloads.DENSE_SLOTS:
        if not wanted(p):
            continue
        for variant in range(workloads.POOL["dense-solve"]):
            op = factory.build(slot, variant)
            golden = goldens[op.key]
            assert op.input_sha == golden["input_sha256"], op.key
            assert op.digest(op.run()) == golden["output"], op.key
            keys.append(op.key)
    return keys


def test_dense_solve_wasserstein_ops_match_goldens(workloads):
    keys = replay_dense_solve(workloads, lambda p: p is not None and not math.isinf(p))
    assert len(keys) == 14


def test_dense_solve_bottleneck_and_c0_ops_match_goldens(workloads):
    keys = replay_dense_solve(workloads, lambda p: p is None or math.isinf(p))
    assert len(keys) == 18
    assert sum(key.startswith("c0-gap-11") for key in keys) == 2
