"""Record the output digest of every pool input, from the program as it is.

Run from the repository root:

    python3 perfbench/record_goldens.py [--smoke] [--out DIR]

Goldens define what a correct output is, so refreshing them is a change
of the benchmark, never part of a change that claims a speed-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import workloads as wl


def record(workload: str, smoke: bool) -> dict:
    factory = wl.OpFactory(workload, smoke)
    pd = factory.spaces.pd
    by_input, entries = {}, {}
    for slot in wl.SLOTS[workload]:
        t0 = time.perf_counter()
        for variant in range(wl.POOL[workload]):
            op = factory.build(slot, variant)
            if op.input_sha not in by_input:
                res = op.run()
                by_input[op.input_sha] = op.digest(res)
                if workload == "ingest":
                    d, _, d2, cs, _ = res
                    pair = factory.spaces.plane["sup"]
                    if not (d2 == d and pd.parse_diagram(cs, "csv", pair) == d):
                        raise SystemExit(f"ingest variant {variant}: round trip broken")
            entries[op.key] = {"input_sha256": op.input_sha, "output": by_input[op.input_sha]}
        print(f"{workload} {slot}: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return {"workload": workload, "smoke": smoke, "recorded_with": wl.environment(0),
            "entries": entries}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", default=None, help="directory (default: perfbench/goldens)")
    args = ap.parse_args(argv)
    wl.use_checkout_src()
    for workload in wl.WORKLOADS:
        path = wl.golden_path(workload, args.smoke, args.out)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        data = record(workload, args.smoke)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
