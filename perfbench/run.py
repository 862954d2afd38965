"""pdmetric benchmark: one seeded, golden-checked workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload dense-solve --seed 1 --seconds 12 --trace 0

One caller (this process, one thread) runs the workload's ops closed-loop.
A pass runs one op per slot of the workload and a round runs every pool
input once (``workloads.plan_rounds``).  A run holds whole rounds: it stops
after the first round that ends with at least ``--seconds`` of pass time.
Every op's output is checked against the golden recorded for its input,
and a few tiny seeded instances are checked against ``brute_force_dp``
outside the timed phase.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one round
untraced and then the same round traced, checks that both give identical
outputs, and reports the per-layer metrics and the tracing overhead.  The last line
of stdout is the result object; the line before it carries the details
(environment, tail percentile and sample count, absent layers, failures),
which are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads as wl

SETUP_SPAWNS = 5
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))


class OpResult:
    __slots__ = ("key", "slot", "input_sha", "latency", "output", "error")

    def __init__(self, op, latency, output, error):
        self.key = op.key
        self.slot = op.slot
        self.input_sha = op.input_sha
        self.latency = latency
        self.output = output
        self.error = error


def run_phase(factory, rounds, seconds, tracer=None):
    """Run whole rounds until ``seconds`` of pass time have elapsed, or the
    finite ``rounds`` run out; returns (results, elapsed, rounds run,
    passes run)."""
    results, done, elapsed, passes = [], [], 0.0, 0
    for plans in rounds:
        for plan in plans:
            ops = [factory.build(slot, variant) for slot, variant in plan]  # untimed
            t_pass = time.perf_counter()
            for op in ops:
                if tracer is not None:
                    tracer.op = len(results)
                    tracer.active = True
                t0 = time.perf_counter()
                try:
                    res, error = op.run(), None
                except Exception as e:  # an op that raises is a failed op
                    res, error = None, f"{type(e).__name__}: {e}"
                latency = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
                output = None
                if error is None:
                    try:
                        output = op.digest(res)
                    except Exception as e:
                        error = f"digest {type(e).__name__}: {e}"
                results.append(OpResult(op, latency, output, error))
            elapsed += time.perf_counter() - t_pass
            passes += 1
        done.append(plans)
        if elapsed >= seconds:
            break
    return results, elapsed, done, passes


def check_goldens(results, goldens, label, failures):
    """Count ops whose output differs from the golden of their input."""
    failed = 0
    for res in results:
        golden = goldens.get(res.key)
        if res.error is not None:
            problem = res.error
        elif golden is None:
            problem = "no golden recorded"
        elif golden["input_sha256"] != res.input_sha:
            problem = "input differs from the one the golden was recorded for"
        elif golden["output"] != res.output:
            problem = f"output {res.output} != golden {golden['output']}"
        else:
            continue
        failed += 1
        failures.append(f"{label} {res.key}: {problem}")
    return failed


def tail(latencies_ms, round_ops):
    """(value, percentile): the highest percentile with ten ops of one round
    beyond it.  The rank is fixed by the size of a round, so a run of k
    rounds reports the same percentile, with 10k ops beyond it, whatever k
    the program's speed gives."""
    xs = sorted(latencies_ms)
    rounds = len(xs) // round_ops
    return xs[rounds * (round_ops - 10) - 1], 100.0 * (round_ops - 10) / round_ops


def measure_setup(workload, seed, smoke):
    """Median wall time of fresh interpreters doing import + spaces + warm-up."""
    cmd = [sys.executable, os.path.join(HERE, "setup_child.py"), workload, str(seed)]
    if smoke:
        cmd.append("--smoke")
    times, errors = [], []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30, check=False)
        except subprocess.TimeoutExpired:
            times.append(time.perf_counter() - t0)
            errors.append("set-up probe did not finish within 30 s")
            break
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            errors.append(f"set-up probe exited {proc.returncode}: {proc.stderr[-1000:]}")
    return statistics.median(times), times, errors


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    ap.add_argument("--goldens", default=None, help="directory of golden files (self-test)")
    args = ap.parse_args(argv)

    wl.use_checkout_src()
    golden_file = wl.golden_path(args.workload, args.smoke, args.goldens)
    goldens = wl.load_goldens(golden_file)
    os.makedirs(OUT_DIR, exist_ok=True)
    factory = wl.OpFactory(args.workload, args.smoke)
    rounds = wl.plan_rounds(args.workload, args.seed)
    first_round = next(rounds)
    round_ops = sum(len(plan) for plan in first_round)
    first = first_round[0]
    factory.build_spaces(first)
    warm = wl.WARMUP_SLOT[args.workload]
    failures = []
    checks = []  # (label, ok) of the checks made outside the timed ops
    try:
        factory.build(warm, dict(first)[warm]).run()
        checks.append(("warm-up", True))
    except Exception as e:  # counted like a failed op
        checks.append(("warm-up", False))
        failures.append(f"warm-up {warm}: {type(e).__name__}: {e}")

    def all_rounds():
        yield first_round
        yield from rounds

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "smoke": args.smoke}
    if args.trace == 0:
        setup_s, setup_runs, setup_errors = measure_setup(args.workload, args.seed, args.smoke)
        detail["setup_runs_s"] = setup_runs
        failures.extend(setup_errors)
        checks.append(("set-up probes", not setup_errors))
    if args.workload in ("dense-solve", "probe-mix"):
        for label, ok, info in wl.brute_force_checks(args.seed):
            checks.append((label, ok))
            if not ok:
                failures.append(f"{label}: solver {info} (brute force)")
    checks_failed = sum(not ok for _, ok in checks)

    # a traced run replays exactly one round, so its counts repeat exactly
    results, elapsed, done, passes = run_phase(
        factory, all_rounds() if args.trace == 0 else [first_round], args.seconds)
    failed = checks_failed + check_goldens(results, goldens, "untraced", failures)
    attempted = len(checks) + len(results)
    ops_per_s = len(results) / elapsed
    detail.update(rounds=len(done), passes=passes, ops=len(results), timed_s=elapsed,
                  checks=len(checks), checks_failed=checks_failed)

    if args.trace == 0:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lat_ms = [r.latency * 1000.0 for r in results]
        tail_ms, tail_pct = tail(lat_ms, round_ops)
        by_slot = {}
        for r in results:
            by_slot.setdefault(r.slot, []).append(r.latency * 1000.0)
        detail.update(tail_percentile=tail_pct, tail_samples=len(lat_ms),
                      slot_median_ms={k: statistics.median(v) for k, v in by_slot.items()},
                      fail_frac=failed / attempted)
        metrics = {
            "op_ms_p50": metric(statistics.median(lat_ms), "ms"),
            "op_ms_tail": metric(tail_ms, "ms"),
            "ops_per_s": metric(ops_per_s, "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "ok_frac": metric(1.0 - failed / attempted, "ratio"),
            "setup_s": metric(setup_s, "s"),
        }
    else:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_elapsed, _, _ = run_phase(factory, done, 0.0, tracer)
        finally:
            tracer.uninstall()
        failed += check_goldens(traced, goldens, "traced", failures)
        attempted += len(traced)
        differ = [r.key for r, t in zip(results, traced)
                  if (r.output, r.error) != (t.output, t.error)]
        if len(traced) != len(results) or differ:
            failed += max(len(differ), 1)
            failures.append(f"traced outputs differ from untraced ones: {differ[:10]}")
        metrics, absent = tracer.metrics()
        traced_ops_per_s = len(traced) / traced_elapsed
        metrics["trace.untraced_ops_per_s"] = metric(ops_per_s, "1/s")
        metrics["trace.traced_ops_per_s"] = metric(traced_ops_per_s, "1/s")
        metrics["trace.overhead"] = metric(ops_per_s / traced_ops_per_s, "ratio")
        spans_file = os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.jsonl")
        tracer.write_spans(spans_file)
        detail.update(traced_outputs_equal=not differ and len(traced) == len(results),
                      absent=absent, spans=len(tracer.spans), spans_dropped=tracer.dropped,
                      spans_file=spans_file)

    detail["env"] = wl.environment(args.seed)
    detail["failures"] = failures[:50]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out_file = os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    op_log = [[r.key, r.latency, r.output, r.error] for r in results]
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result, "ops": op_log}, fh, indent=1,
                  sort_keys=True)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
