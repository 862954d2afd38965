"""Self-test of the benchmark on tiny inputs.

Run from the repository root:

    python3 perfbench/selftest.py

It records goldens for the tiny (smoke) sizes into ``.perfbench_out/``,
then checks that

- every metric named in ``BENCHMARK.json`` is emitted with its unit, by
  every workload, untraced and traced, and no other metric is;
- the traced and untraced outputs agree and nothing fails;
- a deliberately corrupted golden is reported as a failure;
- run from a directory holding only the benchmark, it exits non-zero
  without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(".perfbench_out", "selftest")
SEED = 5


def run_bench(workload, trace, goldens, cwd=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    if goldens is not None:
        cmd += ["--goldens", os.path.abspath(goldens)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd,
                          check=False)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main() -> int:
    problems = []
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    good = os.path.join(WORK, "goldens")
    shutil.rmtree(WORK, ignore_errors=True)
    subprocess.run([sys.executable, os.path.join(HERE, "record_goldens.py"), "--smoke",
                    "--out", good], check=True, capture_output=True, timeout=170)

    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            proc = run_bench(workload, trace, good)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            detail, result = parse(proc)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics/units differ: "
                                f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            bad_values = [k for k, v in result["metrics"].items()
                          if isinstance(v["value"], bool)
                          or not isinstance(v["value"], (int, float))]
            if bad_values:
                problems.append(f"{label}: non-numeric values {bad_values}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: failures {detail['failures'][:5]}")
            if trace and not detail.get("traced_outputs_equal"):
                problems.append(f"{label}: traced outputs differ from untraced ones")

    # corrupt the golden of the warm-up slot, which every pass runs
    bad = os.path.join(WORK, "corrupted")
    shutil.copytree(good, bad)
    for workload in wl.WORKLOADS:
        path = wl.golden_path(workload, True, bad)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        slot = wl.WARMUP_SLOT[workload]
        for key, entry in data["entries"].items():
            if key.startswith(slot + "/"):
                entry["output"] = "0" + entry["output"][1:] if entry["output"][0] != "0" \
                    else "1" + entry["output"][1:]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        proc = run_bench(workload, 0, bad)
        if proc.returncode != 0:
            problems.append(f"{workload} corrupted golden: exit {proc.returncode}")
            continue
        _, result = parse(proc)
        if result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: a corrupted golden was not reported as a failure")

    # a directory holding only the benchmark, without the program
    bare = os.path.join(WORK, "bare")
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = run_bench("ingest", 0, None, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
