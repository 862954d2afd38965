"""Kernel-level checks: feasibility vs direct enumeration, assignment vs
scipy, the matching's identity with the frozen scalar reference kernel and
the assignment's optimal cost against the frozen Hungarian kernel."""

import importlib.machinery
import importlib.util
import math
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

import reference_kernels as ref
from pdmetric import PlaneDiagonal, _kernels, canonicalize, matching
from pdmetric._kernels import augmented_matching, solve_assignment


def random_instance(rng, n, m, hi=6):
    # small integer grids create plenty of cost ties
    Q = rng.integers(0, hi, (n, m)).astype(np.float64)
    ax = rng.integers(0, hi, n).astype(np.float64)
    ay = rng.integers(0, hi, m).astype(np.float64)
    Q = np.minimum(Q, ax[:, None] + ay[None, :])
    return Q, ax, ay


def brute_bottleneck(Q, ax, ay):
    """Smallest achievable max cost over all augmented bijections."""
    n, m = Q.shape
    best = math.inf
    for k in range(min(n, m) + 1):
        for left in combinations(range(n), k):
            rest = [i for i in range(n) if i not in left]
            for perm in permutations(range(m), k):
                costs = [Q[i, j] for i, j in zip(left, perm)]
                costs.extend(ax[i] for i in rest)
                used = set(perm)
                costs.extend(ay[j] for j in range(m) if j not in used)
                best = min(best, max(costs, default=0.0))
    return best


def check_matching_valid(ml, Q, ax, ay, r):
    """Every left node matched, rights distinct, every edge admissible."""
    n, m = Q.shape
    assert not np.any(ml < 0)
    assert len(set(ml.tolist())) == len(ml)
    for u, v in enumerate(ml):
        if u < n:
            if v < m:
                assert Q[u, v] <= r
            else:
                assert v == m + u and ax[u] <= r
        else:
            if v < m:
                assert v == u - n and ay[v] <= r
            else:
                assert v >= m  # slot-to-slot, always admissible


def test_feasibility_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(0, 5))
        m = int(rng.integers(0, 5))
        Q, ax, ay = random_instance(rng, n, m)
        rstar = brute_bottleneck(Q, ax, ay)
        cands = sorted(set([0.0, rstar]) | set(Q.ravel()) | set(ax) | set(ay))
        for r in cands:
            ml = augmented_matching(Q, ax, ay, float(r))
            feasible = not np.any(ml < 0)
            assert feasible == (r >= rstar), (Q, ax, ay, r, rstar)
            if feasible:
                check_matching_valid(ml, Q, ax, ay, r)


def test_assignment_matches_scipy():
    from scipy.optimize import linear_sum_assignment
    rng = np.random.default_rng(11)
    for _ in range(80):
        nn = int(rng.integers(1, 9))
        cost = rng.uniform(0.0, 10.0, (nn, nn))
        if rng.integers(0, 2):
            cost = np.round(cost)  # force ties
        row_of_col = solve_assignment(cost)
        assert sorted(row_of_col.tolist()) == list(range(nn))
        ours = float(cost[row_of_col, np.arange(nn)].sum())
        ri, ci = linear_sum_assignment(cost)
        ref = float(cost[ri, ci].sum())
        assert math.isclose(ours, ref, rel_tol=1e-12, abs_tol=1e-12)


def test_matching_identical_to_scalar_reference():
    """Same match array as the scalar kernel at every candidate threshold,
    plus one below and one above them all, on tie-heavy instances."""
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(2000):
        n = int(rng.integers(0, 13))
        m = int(rng.integers(0, 13))
        hi = int(rng.integers(1, 8))
        Q, ax, ay = random_instance(rng, n, m, hi)
        cands = np.unique(np.concatenate(([-1.0, 0.0, 2.0 * hi], Q.ravel(), ax, ay)))
        for r in cands.tolist():
            got = augmented_matching(Q, ax, ay, r)
            want = ref.augmented_matching(Q, ax, ay, r)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (Q, ax, ay, r)
            checked += 1
    assert checked > 10_000


def assert_decision_valid(partner, Q, ax, ay, r):
    """``partner`` is a must-match decision at r: one int64 entry per point
    that must be matched (distance to A > r), left points first; each holds
    a partner point at cost <= r or -1, and no point is the partner of two
    points of the same side.  A must-match point with no edge leaves every
    entry -1, and a failing left side leaves the right one -1."""
    need_x, need_y = np.flatnonzero(ax > r), np.flatnonzero(ay > r)
    assert partner.dtype == np.int64 and partner.shape == (len(need_x) + len(need_y),)
    x, y = partner[: len(need_x)], partner[len(need_x) :]
    below = Q <= r
    if not (below[need_x].any(axis=1).all() and below[:, need_y].any(axis=0).all()):
        assert np.all(partner < 0)
    elif np.any(x < 0):
        assert np.all(y < 0)
    for u, v in zip(need_x.tolist(), x.tolist()):
        assert v < 0 or Q[u, v] <= r
    for k, u in zip(need_y.tolist(), y.tolist()):
        assert u < 0 or Q[u, k] <= r
    for side in (x[x >= 0], y[y >= 0]):
        assert len(set(side.tolist())) == len(side)


def test_must_match_decision_equals_cold_answer():
    """At every candidate threshold, plus one below and one above them all,
    the must-match decision answers as the cold augmented kernel does, on
    tie-heavy instances."""
    rng = np.random.default_rng(41)
    checked = feasible = 0
    for _ in range(2000):
        n = int(rng.integers(0, 9))
        m = int(rng.integers(0, 9))
        hi = int(rng.integers(1, 7))
        Q, ax, ay = random_instance(rng, n, m, hi)
        if n and rng.integers(0, 3) == 0:  # repeated points, as multiplicities give
            rows = rng.integers(0, n, n)
            Q, ax = Q[rows], ax[rows]
        cands = np.unique(np.concatenate(([-1.0, 0.0, 2.0 * hi], Q.ravel(), ax, ay)))
        for r in cands.tolist():
            partner = augmented_matching(Q, ax, ay, r, decide=True)
            assert_decision_valid(partner, Q, ax, ay, r)
            ok = not np.any(partner < 0)
            assert ok == (not np.any(augmented_matching(Q, ax, ay, r) < 0)), (Q, ax, ay, r)
            feasible += ok
            checked += 1
    assert checked > 10_000 and 0.2 < feasible / checked < 0.8


def exact_sum(cost, row_of_col):
    """The exact sum of the entries an assignment picks."""
    return sum(map(Fraction, cost[row_of_col, np.arange(len(cost))].tolist()), Fraction(0))


def assert_same_sum_as_reference(cost):
    """A permutation whose exact sum equals the scalar Hungarian kernel's
    on a matrix of integers and halves, whose sums are exact in float;
    within 1e-12 of it on any other matrix."""
    got = solve_assignment(cost)
    want = ref.solve_assignment(cost)
    assert got.dtype == want.dtype
    assert sorted(got.tolist()) == list(range(len(cost)))
    if np.array_equal(2 * cost, np.round(2 * cost)):
        assert exact_sum(cost, got) == exact_sum(cost, want), cost
    else:
        assert math.isclose(exact_sum(cost, got), exact_sum(cost, want), rel_tol=1e-12), cost


def test_assignment_sums_equal_the_scalar_reference(monkeypatch):
    """The optimal cost of the scalar Hungarian kernel, on square matrices
    with integer ties, on augmented Wasserstein cost matrices (free
    slot-to-slot block, repeated point-to-slot costs) and on the reduced
    matrices ``wasserstein`` builds.  Ties allow many optimal
    permutations, and the compiled kernel need not return the reference's."""
    rng = np.random.default_rng(31)
    for k in range(2000):
        if k % 2:
            nn = int(rng.integers(0, 13))
            cost = rng.integers(0, int(rng.integers(1, 6)), (nn, nn)).astype(np.float64)
        else:
            n = int(rng.integers(0, 7))
            m = int(rng.integers(0, 7))
            Q, ax, ay = random_instance(rng, n, m, 5)
            p = float(rng.choice([1.0, 2.0, 2.5]))
            nn = n + m
            cost = np.zeros((nn, nn))
            cost[:n, :m] = Q**p
            cost[:n, m:] = (ax**p)[:, None]
            cost[n:, :m] = (ay**p)[None, :]
        assert_same_sum_as_reference(cost)

    # all-equal matrices, repeated rows (as the augmented slot rows are),
    # negative and -0.0 entries
    for k in range(900):
        nn = int(rng.integers(0, 13))
        if k % 3 == 0:
            cost = np.full((nn, nn), float(rng.choice([0.0, -0.0, 1.0, -2.5, 3.0])))
        elif k % 3 == 1:
            rows = rng.integers(0, 4, (int(rng.integers(1, 4)), nn)).astype(np.float64)
            cost = rows[rng.integers(0, len(rows), nn)]
        else:
            cost = rng.integers(-3, 3, (nn, nn)).astype(np.float64)
            cost[cost == 0.0] = rng.choice([0.0, -0.0], int((cost == 0.0).sum()))
        assert_same_sum_as_reference(cost)

    # the reduced W1/W2 matrices ``wasserstein`` builds for grid-tied
    # plane diagrams of n = m = N / 2 points: k x k with k = max(n, m);
    # the exact pass overwrites them, so each is copied first
    costs = []

    def recording(cost):
        costs.append(cost.copy())
        return solve_assignment(cost)

    monkeypatch.setattr(matching, "solve_assignment", recording)
    pair = PlaneDiagonal(1, "sup")

    def grid_diagram(k):
        births = rng.integers(0, 20, k).tolist()
        gaps = rng.integers(1, 6, k).tolist()
        return canonicalize([pair.point(float(b), float(b + g)) for b, g in zip(births, gaps)],
                            pair)

    for N in (40, 60, 100):
        sigma, tau = grid_diagram(N // 2), grid_diagram(N // 2)
        for p in (1.0, 2.0):
            matching.wasserstein(sigma, tau, p, pair)
    assert [c.shape[0] for c in costs] == [20, 20, 30, 30, 50, 50]
    for cost in costs:
        assert_same_sum_as_reference(cost)


def test_witness_at_benchmark_size_costs_no_more_than_the_reference(workloads, monkeypatch):
    """On the 14 W_p instances (k = 49-100) of one ``dense-solve`` round of
    the benchmark, captured from its own ops, the witness's exact sum of
    cost powers is at most that of the scalar Hungarian kernel's
    assignment, read as ``wasserstein`` reads one: a pair is matched when
    its entry is below the sum of its powers to A and Q < d(x, A) + d(y, A)."""
    solves = []
    cost_data, solve = matching._cost_data, solve_assignment

    def recording_cost_data(*args):
        solves.append([cost_data(*args)])
        return solves[-1][0]

    def recording(cost):
        solves[-1].append(cost.copy())
        return solve(cost)

    monkeypatch.setattr(matching, "_cost_data", recording_cost_data)
    monkeypatch.setattr(matching, "solve_assignment", recording)
    factory = workloads.OpFactory("dense-solve", smoke=False)
    witnesses = []
    for slot, _, p, _ in workloads.DENSE_SLOTS:
        if p is not None and not math.isinf(p):
            for variant in range(workloads.POOL["dense-solve"]):
                witnesses.append((p, factory.build(slot, variant).run()[1]))
    assert len(solves) == len(witnesses) == 14
    sizes = [len(W) for _, W in solves]
    assert min(sizes) == 49 and max(sizes) == 100
    for ((Q, ax, ay), W), (p, witness) in zip(solves, witnesses):
        n, m = Q.shape
        s = matching._power_scale(p, Q, ax, ay)

        def power(c):
            return Fraction((c / s) ** p)

        axp, ayp = (ax / s) ** p, (ay / s) ** p
        matched = [(u, v) for v, u in enumerate(ref.solve_assignment(W)[:m].tolist())
                   if u < n and W[u, v] < axp[u] + ayp[v] and Q[u, v] < ax[u] + ay[v]]
        xs, ys = {u for u, _ in matched}, {v for _, v in matched}
        total = sum((power(Q.item(u, v)) for u, v in matched), Fraction(0))
        total += sum(power(c) for u, c in enumerate(ax.tolist()) if u not in xs)
        total += sum(power(c) for v, c in enumerate(ay.tolist()) if v not in ys)
        assert sum((power(q.cost) for q in witness.pairs), Fraction(0)) <= total


def test_the_assignment_kernel_is_scipys_compiled_routine_alone():
    """``import pdmetric`` loads scipy's compiled ``linear_sum_assignment``
    from its own extension file, scipy/optimize/_lsap, and does not import
    ``scipy.optimize``."""
    code = ("import sys, pdmetric\n"
            "from pdmetric._kernels import _linear_sum_assignment as f\n"
            "print('scipy.optimize' in sys.modules, type(f).__name__, f.__self__.__file__)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    imported, kind, path = run.stdout.split()
    assert imported == "False" and kind == "builtin_function_or_method"
    path = Path(path)
    assert path.parent.parts[-2:] == ("scipy", "optimize")
    assert path.name in ["_lsap" + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]


def test_a_missing_kernel_file_is_an_import_error_naming_it(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent.so"])
    with pytest.raises(ImportError, match=r"scipy[/\\]optimize[/\\]_lsap\.absent\.so"):
        _kernels._load_lsap()
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)  # no scipy at all
    with pytest.raises(ImportError, match=r"scipy[/\\]optimize[/\\]_lsap\.absent\.so"):
        _kernels._load_lsap()
