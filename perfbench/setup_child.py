"""Set-up probe run in a fresh interpreter by ``run.py``, which times it.

It imports pdmetric, builds the spaces of the run's first pass and runs the
workload's warm-up op once.  Usage:
``python3 perfbench/setup_child.py WORKLOAD SEED [--smoke]``
"""

import sys

import workloads as wl


def main() -> int:
    workload, seed, smoke = sys.argv[1], int(sys.argv[2]), "--smoke" in sys.argv[3:]
    wl.use_checkout_src()
    import pdmetric  # noqa: F401  (the import is part of what is timed)

    factory = wl.OpFactory(workload, smoke)
    plan = next(wl.plan_rounds(workload, seed))[0]
    factory.build_spaces(plan)
    slot = wl.WARMUP_SLOT[workload]
    factory.build(slot, dict(plan)[slot]).run()
    return 0


if __name__ == "__main__":
    sys.exit(main())
