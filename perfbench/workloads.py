"""Seeded inputs, timed operations and output digests of the three workloads.

Inputs come from a fixed pool: every (slot, variant) pair of a workload is
generated from its own fixed seed, and its output digest is recorded in
``goldens/<workload>.json``, so every output a run produces has a recorded
golden to be checked against.  The benchmark's ``--seed`` orders the pool
(see ``plan_rounds``) and draws the tiny brute-force instances.

Operations reach the program only through the top-level ``pdmetric`` API
and ``pdmetric.cli.main``, looked up at call time, so the traced run's
hooks see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

WORKLOADS = ("dense-solve", "probe-mix", "ingest")
# variants per slot; a round (POOL x slots ops) must hold more than 20 ops,
# so that its tail percentile, ten ops from the top, lies above the median
POOL = {"dense-solve": 2, "probe-mix": 16, "ingest": 30}
MASTER_SEED = 20_220_519
INF = math.inf
GRID_SHARE = 0.2
WORK_DIR = os.path.join(".perfbench_out", "work")

# name, space, p (None: the c0 gap), n points per diagram (c0: m)
DENSE_SLOTS = (
    ("sup-B-50", "sup", INF, 50),
    ("sup-B-100", "sup", INF, 100),
    ("sup-B-200", "sup", INF, 200),
    ("sup-W1-50", "sup", 1.0, 50),
    ("sup-W2-50", "sup", 2.0, 50),
    ("sup-W1-100", "sup", 1.0, 100),
    ("sup-W2-100", "sup", 2.0, 100),
    ("euc-B-50", "euclidean", INF, 50),
    ("euc-B-100", "euclidean", INF, 100),
    ("euc-W2-100", "euclidean", 2.0, 100),
    ("half-B-50", "half", INF, 50),
    ("half-B-100", "half", INF, 100),
    ("half-W2-100", "half", 2.0, 100),
    ("finite-B-40", "finite", INF, 40),
    ("finite-W2-40", "finite", 2.0, 40),
    ("c0-gap-11", "c0", None, 11),
)
PROBE_SLOTS = (
    "cauchy-chain",
    "adversary",
    "isolated-bound",
    "dense-family",
    "vanishing-pair",
    "eps-net-half-line",
    "eps-net-strip",
    "geodesic-json",
    "geodesic-csv",
    "dist-matching",
)
INGEST_SLOTS = ("ingest",)
SLOTS = {
    "dense-solve": tuple(s[0] for s in DENSE_SLOTS),
    "probe-mix": PROBE_SLOTS,
    "ingest": INGEST_SLOTS,
}
# the smallest op of each workload, run once before timing and in set-up
WARMUP_SLOT = {"dense-solve": "sup-B-50", "probe-mix": "cauchy-chain", "ingest": "ingest"}

# full sizes and the tiny sizes of the self-test's smoke run
SIZES = {
    False: {"dense": {50: 50, 100: 100, 200: 200, 40: 40, 11: 11}, "adversary": 60,
            "trials": 200, "nmax": 50, "geo_n": (10, 21), "steps": 10, "rows": 20_000},
    True: {"dense": {50: 4, 100: 5, 200: 6, 40: 6, 11: 3}, "adversary": 5,
           "trials": 5, "nmax": 5, "geo_n": (3, 6), "steps": 3, "rows": 200},
}
SPACE_JSON = '{"dim": 2, "kind": "EuclideanPlaneDiagonal", "norm": "sup"}'


def use_checkout_src() -> None:
    """Import pdmetric from ``src/`` of the current directory, or exit 2."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "pdmetric", "__init__.py")):
        sys.stderr.write("perfbench: src/pdmetric not found; run from the repository root\n")
        sys.exit(2)
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)


def sha256(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def _rng(workload: str, slot: str, variant: int) -> np.random.Generator:
    wi = WORKLOADS.index(workload)
    si = SLOTS[workload].index(slot)
    return np.random.default_rng([MASTER_SEED, wi, si, variant])


def plan_rounds(workload: str, seed: int):
    """Endless sequence of rounds.  A round is ``POOL[workload]`` passes that
    run every variant of every slot exactly once, so each round runs the
    same inputs whatever the seed; a pass is a list of (slot, variant), one
    per slot.  The seed orders the variants within a round and the slots
    within a pass."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    slots = list(SLOTS[workload])
    size = POOL[workload]
    while True:
        order = {slot: rng.permutation(size).tolist() for slot in slots}
        yield [[(slot, order[slot][i]) for slot in
                (slots[j] for j in rng.permutation(len(slots)).tolist())]
               for i in range(size)]


# -- raw input generation (numbers and texts only) --------------------------


def _plane_coords(rng, n):
    b = rng.uniform(0.0, 100.0, n)
    g = rng.uniform(0.0, 10.0, n)
    grid = rng.random(n) < GRID_SHARE
    b[grid] = np.round(b[grid])
    g[grid] = np.round(g[grid])
    return [(x, x + y) for x, y in zip(b.tolist(), g.tolist())]


def _half_coords(rng, n):
    v = rng.uniform(0.0, 10.0, n)
    grid = rng.random(n) < GRID_SHARE
    v[grid] = np.round(v[grid])
    return [(x,) for x in v.tolist()]


def _finite_matrix(rng, k):
    c = rng.uniform(0.0, 100.0, (k, 2))
    grid = rng.random(k) < GRID_SHARE
    c[grid] = np.round(c[grid])
    return np.abs(c[:, None, :] - c[None, :, :]).max(axis=-1)


def _finite_entries(rng, k):
    mults = rng.integers(0, 4, k - 1)  # index k - 1 is A
    return [((float(i),), int(m)) for i, m in enumerate(mults.tolist()) if m]


def _diagram_json(coords) -> str:
    return json.dumps({"points": [{"coords": list(c)} for c in coords]})


def dense_raw(slot: str, variant: int, smoke: bool) -> dict:
    _, space, p, n = next(s for s in DENSE_SLOTS if s[0] == slot)
    n = SIZES[smoke]["dense"][n]
    rng = _rng("dense-solve", slot, variant if space != "c0" else 0)
    raw = {"slot": slot, "space": space, "p": p, "n": n}
    if space in ("sup", "euclidean"):
        raw["a"] = [(c, 1) for c in _plane_coords(rng, n)]
        raw["b"] = [(c, 1) for c in _plane_coords(rng, n)]
    elif space == "half":
        raw["a"] = [(c, 1) for c in _half_coords(rng, n)]
        raw["b"] = [(c, 1) for c in _half_coords(rng, n)]
    elif space == "finite":
        raw["matrix"] = _finite_matrix(rng, n)
        raw["a"] = _finite_entries(rng, n)
        raw["b"] = _finite_entries(rng, n)
    return raw


def probe_argv(slot: str, variant: int, smoke: bool) -> list[str]:
    size = SIZES[smoke]
    rng = _rng("probe-mix", slot, variant)
    seed = str(int(rng.integers(2**31)))
    if slot == "cauchy-chain":
        return ["probe", "cauchy-chain", "--jobs", "1"]
    if slot == "adversary":
        return ["probe", "adversary", "--candidates", str(size["adversary"]),
                "--seed", seed, "--jobs", "1"]
    if slot in ("isolated-bound", "dense-family"):
        return ["probe", slot, "--trials", str(size["trials"]), "--seed", seed, "--jobs", "1"]
    if slot == "vanishing-pair":
        return ["probe", "vanishing-pair", "--nmax", str(size["nmax"]), "--jobs", "1"]
    if slot.startswith("eps-net-"):
        return ["probe", "eps-net", "--scenario", slot[len("eps-net-"):], "--jobs", "1"]
    # geodesic and dist share the variant's diagram pair
    rng = np.random.default_rng([MASTER_SEED, 1, 99, variant])
    lo, hi = size["geo_n"]
    sigma = _diagram_json(_plane_coords(rng, int(rng.integers(lo, hi))))
    tau = _diagram_json(_plane_coords(rng, int(rng.integers(lo, hi))))
    if slot == "dist-matching":
        return ["dist", sigma, tau, "--space", SPACE_JSON,
                "--matching", os.path.join(WORK_DIR, "matching.json")]
    fmt = "csv" if slot == "geodesic-csv" else "json"
    return ["geodesic", sigma, tau, "--space", SPACE_JSON, "--steps", str(size["steps"]),
            "--format", fmt]


def ingest_text(variant: int, smoke: bool) -> str:
    rows = SIZES[smoke]["rows"]
    rng = _rng("ingest", "ingest", variant)
    n_dup = rows // 10
    n_uniq = rows - n_dup
    b = rng.uniform(0.0, 100.0, n_uniq)
    g = rng.uniform(0.0, 10.0, n_uniq)
    g[rng.random(n_uniq) < 0.1] = 0.0  # on the diagonal
    lines = [f"{x!r},{x + y!r}" for x, y in zip(b.tolist(), g.tolist())]
    lines.extend(lines[i] for i in rng.integers(0, n_uniq, n_dup).tolist())
    order = rng.permutation(len(lines)).tolist()
    return "birth,death\n" + "\n".join(lines[i] for i in order) + "\n"


# -- operations -------------------------------------------------------------


class Op:
    """One prepared operation: ``run()`` is timed, ``digest(result)`` is not."""

    def __init__(self, slot, variant, input_sha, run, digest):
        self.slot = slot
        self.variant = variant
        self.input_sha = input_sha
        self.run = run
        self.digest = digest

    @property
    def key(self) -> str:
        return f"{self.slot}/{self.variant}"


def _raw_sha(raw: dict) -> str:
    def enc(entries):
        return [[[float(c).hex() for c in coords], m] for coords, m in entries]

    obj = {k: raw[k] for k in ("slot", "space", "n")}
    obj["p"] = None if raw["p"] is None else str(raw["p"])
    if "a" in raw:
        obj["a"], obj["b"] = enc(raw["a"]), enc(raw["b"])
    if "matrix" in raw:
        obj["matrix"] = sha256(np.ascontiguousarray(raw["matrix"]).tobytes())
    return sha256(json.dumps(obj, sort_keys=True))


class Spaces:
    """The metric pairs a run builds once, before any op is timed."""

    def __init__(self):
        import pdmetric as pd

        self.pd = pd
        self.plane = {"sup": pd.PlaneDiagonal(1, pd.SUP),
                      "euclidean": pd.PlaneDiagonal(1, pd.EUCLIDEAN)}
        self.half = pd.HalfLineOrigin()
        self._finite = {}

    def pair_for(self, raw: dict):
        space = raw["space"]
        if space in self.plane:
            return self.plane[space]
        if space == "half":
            return self.half
        if space == "finite":
            key = sha256(np.ascontiguousarray(raw["matrix"]).tobytes())
            if key not in self._finite:
                k = raw["matrix"].shape[0]
                self._finite[key] = self.pd.FiniteExplicit(raw["matrix"], [k - 1])
            return self._finite[key]
        return None


def _dense_op(spaces: Spaces, slot, variant, smoke) -> Op:
    pd = spaces.pd
    raw = dense_raw(slot, variant, smoke)
    p, n = raw["p"], raw["n"]
    if raw["space"] == "c0":
        def run():
            return pd.c0_truncation_gap(n)

        def digest(res):
            gap, report = res
            return f"{gap.hex()}:{report.verdict.value}"
    else:
        pair = spaces.pair_for(raw)
        xs = [(pair.point(*c), m) for c, m in raw["a"]]
        ys = [(pair.point(*c), m) for c, m in raw["b"]]

        def run():
            sigma = pd.canonicalize(xs, pair)
            tau = pd.canonicalize(ys, pair)
            if math.isinf(p):
                return pd.bottleneck(sigma, tau, pair)
            return pd.wasserstein(sigma, tau, p, pair)

        def digest(res):
            return res[0].hex()
    return Op(slot, variant, _raw_sha(raw), run, digest)


def _probe_op(slot, variant, smoke) -> Op:
    import pdmetric.cli

    argv = probe_argv(slot, variant, smoke)
    matching_path = argv[-1] if slot == "dist-matching" else None

    def run():
        if matching_path is not None and os.path.exists(matching_path):
            os.remove(matching_path)  # never read a previous op's file
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = pdmetric.cli.main(argv)
            except SystemExit as e:  # argparse rejects bad argv this way
                code = e.code
        matching = None
        if matching_path is not None:
            with open(matching_path, encoding="utf-8") as fh:
                matching = fh.read()
        return code, out.getvalue(), matching

    def digest(res):
        code, stdout, matching = res
        text = f"{code}:{sha256(stdout)}"
        if matching is not None:
            text += f":{sha256(matching)}"
        return text

    return Op(slot, variant, sha256(json.dumps(argv)), run, digest)


def _ingest_op(spaces: Spaces, text: str, variant) -> Op:
    pd = spaces.pd
    pair = spaces.plane["sup"]

    def run():
        d = pd.parse_diagram(text, "csv", pair)
        js = pd.write_diagram(d, "json", pair)
        d2 = pd.parse_diagram(js, "json", pair)
        cs = pd.write_diagram(d2, "csv", pair)
        union = pd.canonicalize(list(d.points) + list(d2.points), pair)
        return d, js, d2, cs, union

    def digest(res):
        d, js, d2, cs, union = res
        roundtrip = "roundtrip-ok" if d2 == d else "roundtrip-BROKEN"
        union_sha = sha256(pd.write_diagram(union, "csv", pair))
        return f"{sha256(js)}:{sha256(cs)}:{union_sha}:{roundtrip}"

    return Op("ingest", variant, sha256(text), run, digest)


class OpFactory:
    """Builds prepared ops for one workload."""

    def __init__(self, workload: str, smoke: bool):
        self.workload = workload
        self.smoke = smoke
        self.spaces = Spaces()
        if workload == "probe-mix":
            os.makedirs(WORK_DIR, exist_ok=True)

    def build_spaces(self, plan) -> None:
        """Build the pass's finite metric pairs (an O(k^3) validation each)."""
        if self.workload == "dense-solve":
            for slot, variant in plan:
                raw = dense_raw(slot, variant, self.smoke)
                if raw["space"] == "finite":
                    self.spaces.pair_for(raw)

    def build(self, slot: str, variant: int) -> Op:
        if self.workload == "dense-solve":
            return _dense_op(self.spaces, slot, variant, self.smoke)
        if self.workload == "probe-mix":
            return _probe_op(slot, variant, self.smoke)
        return _ingest_op(self.spaces, ingest_text(variant, self.smoke), variant)


# -- reference checks against exhaustive enumeration -------------------------


BRUTE_FORCE_CHECKS = 12


def brute_force_checks(seed: int):
    """Seeded tiny instances (n + m <= 10), solver value against
    ``brute_force_dp``; yields (label, ok, detail)."""
    import pdmetric as pd

    rng = np.random.default_rng([int(seed), 77])
    spaces = Spaces()
    kinds = ("sup", "euclidean", "half", "finite")
    exps = (INF, 1.0, 2.0)
    for i in range(BRUTE_FORCE_CHECKS):
        kind, p = kinds[i % len(kinds)], exps[(i // len(kinds)) % len(exps)]
        n, m = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        if kind == "finite":
            k = 7
            raw = {"space": kind, "matrix": _finite_matrix(rng, k)}
            pair = spaces.pair_for(raw)
            a = [(pair.point(*c), 1) for c, _ in _finite_entries(rng, k)][:n]
            b = [(pair.point(*c), 1) for c, _ in _finite_entries(rng, k)][:m]
        else:
            pair = spaces.pair_for({"space": kind})
            gen = _half_coords if kind == "half" else _plane_coords
            a = [(pair.point(*c), 1) for c in gen(rng, n)]
            b = [(pair.point(*c), 1) for c in gen(rng, m)]
        label = f"brute/{kind}/p={p}/{n}+{m}"
        try:
            sigma, tau = pd.canonicalize(a, pair), pd.canonicalize(b, pair)
            if math.isinf(p):
                ours = pd.bottleneck(sigma, tau, pair)[0]
            else:
                ours = pd.wasserstein(sigma, tau, p, pair)[0]
            ref = pd.brute_force_dp(sigma, tau, p, pair)[0]
        except Exception as e:  # reported as a failed check
            yield label, False, f"{type(e).__name__}: {e}"
            continue
        yield label, ours == ref, f"{ours.hex()} vs {ref.hex()}"


# -- goldens -----------------------------------------------------------------


def golden_path(workload: str, smoke: bool, directory: str | None = None) -> str:
    base = directory or os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")
    suffix = "-smoke" if smoke else ""
    return os.path.join(base, f"{workload}{suffix}.json")


def load_goldens(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


# -- environment ---------------------------------------------------------------


def _commit() -> str:
    """HEAD of a git checkout in the current directory, read without running
    git (which would search parent directories), else "unknown"."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(".git", *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    """Versions, kernel and machine facts recorded with every result."""
    import importlib.metadata
    import platform
    import subprocess

    import pdmetric

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        numba = subprocess.run([sys.executable, "-c", "import numba"], timeout=60, check=False,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0
    except subprocess.TimeoutExpired:
        numba = "import timed out"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "numba_imports": numba,
        "kernel_numba_enabled": getattr(pdmetric, "NUMBA_ENABLED", "absent"),
        "nproc": len(os.sched_getaffinity(0)),  # what ``nproc`` prints
        "commit": _commit(),
        "seed": seed,
    }
