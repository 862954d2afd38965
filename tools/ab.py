"""Paired in-process A/B timer: one benchmark workload's ops, run by two
source trees of pdmetric in one process.

    python3 tools/ab.py PARENT_SRC CHANGE_SRC [--workload dense-solve] [--best 5] [--smoke]
                        [--slots SUBSTR] [--gc]
    python3 tools/ab.py PARENT_SRC CHANGE_SRC --memory [--workload dense-solve] [--smoke]

PARENT_SRC and CHANGE_SRC are ``src`` directories, such as ``src`` of this
checkout and ``src`` of a ``git archive`` of the parent commit.  Each tree's
``pdmetric`` modules are imported once and swapped into ``sys.modules``
before each of its ops runs.  The ops are those of ``perfbench/workloads.py``
(imported read-only, every slot and variant of the workload), built once per
tree.  Each op runs ``--best`` times on each tree, interleaved: parent and
change alternate which runs first from one run to the next.  An op's time is
its best run.  ``--slots SUBSTR`` keeps only the slots whose name contains
SUBSTR (``--slots=-W``, the W_p slots of ``dense-solve``), so those can take
more runs in the same time.

It prints, per slot, the parent's and the change's ms (summed over the
slot's variants), the ratio change / parent of those sums and the range of
the per-variant ratios, then the totals.  With ``--gc`` a second table
follows: per slot, the garbage collections of generations 0 and 2 that
``gc.get_stats()`` counts around the timed runs of the slot's ops, summed
over its variants and runs, on each tree, then their totals.  It exits 1
if any op's output digest differs between the two trees, naming the op.
A paired best-of-N in one process resolves gains far below the
benchmark's run-to-run spread; it does not replace the benchmark's gates.

With ``--memory`` each op instead runs once per tree under ``tracemalloc``,
untimed, and the table holds, per slot, the largest traced peak (MiB) of the
slot's variants on each tree and their ratio, then the largest over all
slots.  Only allocations that Python's allocators see are traced, so a peak
is the op's own memory above what it started with, not the process RSS.
The digests are checked as above.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import sys
import time
import tracemalloc
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _is_pdmetric(name: str) -> bool:
    return name == "pdmetric" or name.startswith("pdmetric.")


def install(modules: dict) -> None:
    """Make ``modules`` the ``pdmetric`` modules that imports see."""
    for name in [n for n in sys.modules if _is_pdmetric(n)]:
        del sys.modules[name]
    sys.modules.update(modules)


def load_tree(src: str) -> dict:
    """Import ``pdmetric`` (and its CLI) from the directory src; returns its
    modules by name."""
    install({})
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    try:
        package = importlib.import_module("pdmetric")
        importlib.import_module("pdmetric.cli")
    finally:
        sys.path.remove(src)
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        raise SystemExit(f"ab: pdmetric was not imported from {src}")
    return {n: m for n, m in sys.modules.items() if _is_pdmetric(n)}


def load_workloads():
    """``perfbench/workloads.py`` as a module, with no bytecode written."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def collections() -> tuple[int, int]:
    """The garbage collections of generations 0 and 2 so far."""
    stats = gc.get_stats()
    return stats[0]["collections"], stats[2]["collections"]


def best_times(trees, ops, keys, best):
    """Each op's best time (s) per tree over ``best`` interleaved runs, the
    output digest of its first run on each tree, and the generation 0 and
    2 collections taken during its runs on each tree."""
    times = {key: [float("inf"), float("inf")] for key in keys}
    digests = {key: [None, None] for key in keys}
    collected = {key: [(0, 0), (0, 0)] for key in keys}
    runs = 0
    for rep in range(best):
        for key in keys:
            for side in ((0, 1) if runs % 2 == 0 else (1, 0)):
                install(trees[side])
                op = ops[side][key]
                before = collections()
                t0 = time.perf_counter()
                res = op.run()
                dt = time.perf_counter() - t0
                after = collections()
                times[key][side] = min(times[key][side], dt)
                gen0, gen2 = collected[key][side]
                collected[key][side] = (gen0 + after[0] - before[0], gen2 + after[1] - before[1])
                if rep == 0:
                    digests[key][side] = op.digest(res)
            runs += 1
    return times, digests, collected


def traced_peaks(trees, ops, keys):
    """Each op's traced peak (bytes) per tree over one untimed run under
    ``tracemalloc``, and that run's output digest.  Every op first runs
    once untraced on both trees, so neither tree's peak holds what the
    first call into a shared module allocates once for the process."""
    peaks = {key: [0, 0] for key in keys}
    digests = {key: [None, None] for key in keys}
    for key in keys:
        for side in (0, 1):
            install(trees[side])
            ops[side][key].run()
    for key in keys:
        for side in (0, 1):
            install(trees[side])
            op = ops[side][key]
            tracemalloc.start()
            try:
                res = op.run()
                peaks[key][side] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            digests[key][side] = op.digest(res)
    return peaks, digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="src directory of the parent tree")
    ap.add_argument("change", help="src directory of the changed tree")
    ap.add_argument("--workload", default="dense-solve",
                    choices=("dense-solve", "probe-mix", "ingest"))
    ap.add_argument("--best", type=int, default=5, help="runs per op and tree; the best counts")
    ap.add_argument("--smoke", action="store_true", help="the workloads' tiny smoke sizes")
    ap.add_argument("--memory", action="store_true",
                    help="traced peak memory of one untimed run per op instead of times")
    ap.add_argument("--slots", default="", metavar="SUBSTR",
                    help="only the slots whose name contains SUBSTR")
    ap.add_argument("--gc", action="store_true",
                    help="also print the gen0 and gen2 collections around the timed runs")
    args = ap.parse_args(argv)
    if args.best < 1:
        ap.error("--best must be at least 1")
    if args.gc and args.memory:
        ap.error("--gc counts around timed runs; it does not go with --memory")

    wl = load_workloads()
    slots = [slot for slot in wl.SLOTS[args.workload] if args.slots in slot]
    if not slots:
        ap.error(f"no {args.workload} slot contains {args.slots!r}")
    keys = [(slot, v) for slot in slots for v in range(wl.POOL[args.workload])]
    trees = [load_tree(args.parent), load_tree(args.change)]
    ops = []
    for modules in trees:
        install(modules)
        factory = wl.OpFactory(args.workload, args.smoke)
        ops.append({key: factory.build(*key) for key in keys})
        warm = factory.build(wl.WARMUP_SLOT[args.workload], 0)
        warm.run()

    if args.memory:
        measured, digests = traced_peaks(trees, ops, keys)
        # a slot's peak is the largest of its variants', not their sum
        unit, scale, combine, last = "MiB", 1.0 / (1 << 20), max, "max"
    else:
        measured, digests, collected = best_times(trees, ops, keys, args.best)
        unit, scale, combine, last = "ms", 1e3, sum, "total"
    print(f"{'slot':<16} {'parent ' + unit:>10} {'change ' + unit:>10} {'ratio':>7}  variant ratios")
    total = [0.0, 0.0]
    for slot in slots:
        values = [measured[key] for key in keys if key[0] == slot]
        a, b = (combine(v[side] for v in values) * scale for side in (0, 1))
        ratios = [v[1] / v[0] for v in values]
        total = [combine((total[0], a)), combine((total[1], b))]
        print(f"{slot:<16} {a:10.2f} {b:10.2f} {b / a:7.3f}  {min(ratios):.3f}-{max(ratios):.3f}")
    print(f"{last:<16} {total[0]:10.2f} {total[1]:10.2f} {total[1] / total[0]:7.3f}")
    if args.gc:
        print(f"{'slot':<16} {'parent gen0':>11} {'parent gen2':>11} {'change gen0':>11} "
              f"{'change gen2':>11}")
        for slot in slots + ["total"]:
            # each op's (parent gen0, parent gen2, change gen0, change gen2);
            # the total row takes every op
            rows = [sum(collected[key], ()) for key in keys if slot in (key[0], "total")]
            print(f"{slot:<16} " + " ".join(f"{sum(column):11d}" for column in zip(*rows)))
    differ = [key for key in keys if digests[key][0] != digests[key][1]]
    for slot, variant in differ:
        print(f"ab: {slot}/{variant}: output {digests[(slot, variant)][1]} != parent "
              f"{digests[(slot, variant)][0]}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
