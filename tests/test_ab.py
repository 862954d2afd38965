"""The paired A/B timer in tools/ab.py on the smoke sizes of the benchmark workloads."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab.py"
SRC = ROOT / "src"


def run_ab(parent, change, cwd, *extra):
    return subprocess.run([sys.executable, str(TOOL), str(parent), str(change), "--smoke",
                           "--best", "2", *extra], cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def test_ab_times_every_slot_of_one_tree_against_itself(workloads, tmp_path):
    res = run_ab(SRC, SRC, tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    lines = res.stdout.splitlines()
    slots = [line.split()[0] for line in lines[1:-1]]
    assert slots == list(workloads.SLOTS["dense-solve"])
    assert lines[-1].split()[0] == "total"
    for line in lines[1:]:
        parent_ms, change_ms, ratio = map(float, line.split()[1:4])
        assert parent_ms > 0.0 and change_ms > 0.0 and ratio > 0.0


def test_ab_memory_traces_every_slot_of_one_tree_against_itself(workloads, tmp_path):
    """``--memory`` prints each slot's traced peak in MiB on both trees,
    then the largest of them."""
    res = run_ab(SRC, SRC, tmp_path, "--memory")
    assert (res.returncode, res.stderr) == (0, "")
    lines = res.stdout.splitlines()
    assert lines[0].split()[1:5] == ["parent", "MiB", "change", "MiB"]
    rows = [line.split() for line in lines[1:-1]]
    assert [row[0] for row in rows] == list(workloads.SLOTS["dense-solve"])
    # the ratio is taken of the unrounded peaks, so both are above 0
    assert all(float(row[3]) > 0.0 for row in rows)
    peaks = [(float(row[1]), float(row[2])) for row in rows]
    last = lines[-1].split()
    assert last[0] == "max"
    assert (float(last[1]), float(last[2])) == tuple(map(max, zip(*peaks)))


def test_ab_fails_on_a_tree_whose_output_differs(tmp_path):
    """A tree whose c0 gap reads one more than the parent's exits 1 and
    names both c0 ops; the other ops still agree."""
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    with open(changed / "pdmetric" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write("\n_gap = c0_truncation_gap\n\n\n"
                 "def c0_truncation_gap(m):\n"
                 "    gap, report = _gap(m)\n"
                 "    return gap + 1.0, report\n")
    res = run_ab(SRC, changed, tmp_path)
    assert res.returncode == 1
    named = [line.split(":")[1].strip() for line in res.stderr.splitlines()]
    assert named == ["c0-gap-11/0", "c0-gap-11/1"]


def test_ab_slots_times_only_the_slots_whose_name_holds_the_text(workloads, tmp_path):
    """``--slots=-W`` keeps the seven W_p slots of ``dense-solve``, in
    workload order; a text no slot holds is a usage error."""
    res = run_ab(SRC, SRC, tmp_path, "--slots=-W")
    assert (res.returncode, res.stderr) == (0, "")
    lines = res.stdout.splitlines()
    slots = [line.split()[0] for line in lines[1:-1]]
    assert slots == [s for s in workloads.SLOTS["dense-solve"] if "-W" in s]
    assert len(slots) == 7 and lines[-1].split()[0] == "total"
    res = run_ab(SRC, SRC, tmp_path, "--slots", "no-such-slot")
    assert res.returncode == 2 and "no dense-solve slot contains 'no-such-slot'" in res.stderr


def test_ab_gc_counts_collections_around_the_timed_runs(workloads, tmp_path):
    """``--gc`` follows the timing table of ``ingest`` with each tree's
    gen0 and gen2 collections per slot, then their totals; it does not go
    with ``--memory``."""
    res = run_ab(SRC, SRC, tmp_path, "--workload", "ingest", "--gc")
    assert (res.returncode, res.stderr) == (0, "")
    lines = res.stdout.splitlines()
    slots = list(workloads.SLOTS["ingest"])
    at = len(slots) + 2  # the timing table: header, slots, total
    assert [line.split()[0] for line in lines[1:at]] == slots + ["total"]
    assert lines[at].split() == ["slot", "parent", "gen0", "parent", "gen2", "change", "gen0",
                                 "change", "gen2"]
    rows = [line.split() for line in lines[at + 1:]]
    assert [row[0] for row in rows] == slots + ["total"]
    counts = [list(map(int, row[1:])) for row in rows]
    assert all(len(row) == 4 and min(row) >= 0 for row in counts)
    assert counts[-1] == [sum(column) for column in zip(*counts[:-1])]
    res = run_ab(SRC, SRC, tmp_path, "--gc", "--memory")
    assert res.returncode == 2 and "--gc counts around timed runs" in res.stderr
