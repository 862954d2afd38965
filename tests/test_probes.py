"""Probe behavior on hand-built scenarios, plus their refusal paths."""

import collections
import copy
import math
import time
import tracemalloc

import numpy as np
import pytest

from pdmetric import (
    CoverageGap,
    EmptyAnnulus,
    EpsNet,
    FiniteExplicit,
    MetricPair,
    NotCauchy,
    PlaneDiagonal,
    PreconditionViolated,
    SpaceMismatch,
    TooLarge,
    Verdict,
    approximate_from_family,
    bottleneck,
    canonicalize,
    cauchy_chain_limit,
    dense_family,
    empty_diagram,
    greedy_eps_net,
    isolated_point_bound,
    net_growth_probe,
    separability_adversary,
    vanishing_pair_demo,
)

from conftest import (
    halfline,
    plane_sup,
    random_finite_diagram,
    random_finite_pair,
)


# -- isolated point bound --------------------------------------------------------


def test_isolated_point_bound_example():
    matrix = [
        [0.0, 4.0, 3.0],
        [4.0, 0.0, 5.0],
        [3.0, 5.0, 0.0],
    ]
    pair = FiniteExplicit(matrix, [2])
    s = canonicalize([pair.point(0)], pair)
    t = canonicalize([pair.point(1)], pair)
    eps, dist, report = isolated_point_bound(pair, s, t)
    assert eps == 3.0
    assert dist == 4.0
    assert report.verdict is Verdict.WITNESSED
    assert report.witnesses["differing_points"] == [0, 1]


def test_isolated_point_bound_random():
    rng = np.random.default_rng(53)
    done = 0
    while done < 20:
        pair = random_finite_pair(rng)
        s = random_finite_diagram(pair, rng)
        t = random_finite_diagram(pair, rng)
        if s == t or s.size + t.size > 14:
            continue
        eps, dist, report = isolated_point_bound(pair, s, t)
        assert report.verdict is Verdict.WITNESSED, (pair.matrix, s, t, eps, dist)
        done += 1


def test_isolated_point_bound_preconditions():
    matrix = [[0.0, 1.0], [1.0, 0.0]]
    pair = FiniteExplicit(matrix, [1])
    s = canonicalize([pair.point(0)], pair)
    with pytest.raises(PreconditionViolated):
        isolated_point_bound(pair, s, s)
    plane = plane_sup()
    d = empty_diagram(plane)
    with pytest.raises(PreconditionViolated):
        isolated_point_bound(plane, d, d)


def test_isolated_point_bound_refuses_another_space():
    pair = FiniteExplicit([[0.0, 4.0, 3.0], [4.0, 0.0, 5.0], [3.0, 5.0, 0.0]], [2])
    hl = halfline()
    s = canonicalize([hl.point(5.0)], hl)  # no index 5 in the 3-point space
    t = canonicalize([pair.point(0)], pair)
    with pytest.raises(SpaceMismatch):
        isolated_point_bound(pair, s, t)
    with pytest.raises(SpaceMismatch):
        isolated_point_bound(pair, t, s)


# -- vanishing pairs --------------------------------------------------------------


def test_vanishing_pair_demo():
    pair = plane_sup()
    x = pair.point(0.0, 4.0)
    tail = [pair.point(1.0 / n, 4.0 + 1.0 / n) for n in range(1, 60)]
    report = vanishing_pair_demo(pair, x, tail, n_max=50, target=0.05)
    assert report.verdict is Verdict.WITNESSED
    ns, dists = zip(*report.numeric_trace)
    assert list(ns) == [float(n) for n in range(1, 51)]
    assert all(d > 0.0 for d in dists)
    assert dists[-1] < 0.05
    # every step obeys its single-swap bound
    for (_, d), (_, b) in zip(report.numeric_trace, report.witnesses["single_swap_bounds"]):
        assert d <= b


@pytest.mark.parametrize("wrong", [0.6, 0.0], ids=["above-bound", "zero"])
def test_vanishing_pair_refutes_a_distance_its_check_rejects(wrong, monkeypatch):
    """A first distance above its single-swap bound (0.5), or not positive,
    makes the report REFUTED though the final distance is still below the
    target."""
    import pdmetric.probes as probes

    solve, calls = probes.bottleneck, []

    def patched(sigma, tau, pair):
        calls.append(None)
        value, matching = solve(sigma, tau, pair)
        return (wrong if len(calls) == 1 else value), matching

    monkeypatch.setattr(probes, "bottleneck", patched)
    pair = plane_sup()
    x = pair.point(0.0, 4.0)
    tail = [pair.point(1.0 / n, 4.0 + 1.0 / n) for n in range(1, 60)]
    report = vanishing_pair_demo(pair, x, tail, n_max=50, target=0.05)
    assert report.numeric_trace[0] == (1.0, wrong)
    assert report.witnesses["final_distance"] < 0.05
    assert report.verdict is Verdict.REFUTED


def test_vanishing_pair_preconditions():
    pair = plane_sup()
    x = pair.point(0.0, 4.0)
    short = [pair.point(1.0, 5.0)]
    with pytest.raises(PreconditionViolated):
        vanishing_pair_demo(pair, x, short, n_max=5)
    with_dup = [x] + [pair.point(1.0 / n, 4.0) for n in range(1, 10)]
    with pytest.raises(PreconditionViolated):
        vanishing_pair_demo(pair, x, with_dup, n_max=5)
    with pytest.raises(PreconditionViolated):
        vanishing_pair_demo(pair, x, short, n_max=0)
    # a nan target is no bound to check against; inf is (every pair is below it)
    tail = [pair.point(1.0 / n, 4.0) for n in range(1, 10)]
    with pytest.raises(PreconditionViolated, match="target"):
        vanishing_pair_demo(pair, x, tail, n_max=5, target=math.nan)
    report = vanishing_pair_demo(pair, x, tail, n_max=5, target=math.inf)
    assert report.verdict is Verdict.WITNESSED


def test_vanishing_pair_refuses_the_last_pair_before_any_solve(monkeypatch):
    # solve N compares N + 1 points with N + 1, so n_max = 5000 ends above
    # the 10,000-point cap
    import pdmetric.probes as probes

    def no_solve(*args, **kwargs):
        raise AssertionError("bottleneck called before the size check")

    monkeypatch.setattr(probes, "bottleneck", no_solve)
    pair = plane_sup()
    x = pair.point(0.0, 4.0)
    n = np.arange(1, 5002)
    tail = pair._points(np.column_stack([1.0 / n, 4.0 + 1.0 / n]))
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="5001 \\+ 5001 points"):
        vanishing_pair_demo(pair, x, tail, n_max=5000)
    assert time.perf_counter() - start < 1.0


# -- Cauchy chains -----------------------------------------------------------------


def test_cauchy_constant_sequence():
    pair = plane_sup()
    s = canonicalize([pair.point(0.0, 4.0), pair.point(1.0, 3.0)], pair)
    limit, report = cauchy_chain_limit([s] * 8, pair)
    assert limit == s
    assert report.verdict is Verdict.WITNESSED
    assert report.witnesses["unresolved_trajectories"] == 0


def test_cauchy_converging_sequence():
    pair = plane_sup()
    diags = [canonicalize([pair.point(0.0, 4.0 + 2.0**-k)], pair) for k in range(26)]
    limit, report = cauchy_chain_limit(diags, pair)
    assert report.verdict is Verdict.WITNESSED
    target = canonicalize([pair.point(0.0, 4.0)], pair)
    assert bottleneck(limit, target, pair)[0] <= 1e-6


def test_cauchy_absorbing_sequence():
    pair = plane_sup()
    diags = [
        canonicalize([pair.point(2.0**-k, 2.0 * 2.0**-k)], pair) for k in range(26)
    ]
    limit, report = cauchy_chain_limit(diags, pair)
    assert limit.is_empty
    assert report.verdict is Verdict.WITNESSED


def test_cauchy_probe_solves_a_repeated_stage_pair_or_limit_check_once(monkeypatch):
    """In the three CLI scenarios, with every diagram a distinct object, no
    pair of objects is solved twice but a step between two distinct stages:
    the envelope keeps only its distance, so the step solves it once more
    for its matching.  A step that repeats while the stage index repeats
    keeps its matching, and a repeated stage's limit check its distance."""
    import pdmetric.probes as probes
    from pdmetric.cli import _CAUCHY_SCENARIOS, _cauchy_sequence

    pair = plane_sup()
    solves = collections.Counter()

    def counted(sigma, tau, pair):
        solves[id(sigma), id(tau)] += 1
        return bottleneck(sigma, tau, pair)

    monkeypatch.setattr(probes, "bottleneck", counted)
    for name in _CAUCHY_SCENARIOS:
        seq = [copy.copy(d) for d in _cauchy_sequence(name, pair)]
        solves.clear()
        _, report = cauchy_chain_limit(seq, pair)
        idxs = [idx for _, idx, _ in report.witnesses["stages"]]
        assert len(idxs) > len(set(idxs)), name  # some stage index repeats
        steps = {(id(seq[i]), id(seq[j])) for i, j in zip(idxs, idxs[1:]) if i < j}
        assert max(solves.values()) <= 2, name
        assert {ij for ij, k in solves.items() if k == 2} <= steps, name


def test_cauchy_slow_sampling_is_inconclusive():
    pair = plane_sup()
    diags = [canonicalize([pair.point(0.0, 4.0 + 2.0**-k)], pair) for k in range(11)]
    limit, report = cauchy_chain_limit(diags, pair)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.witnesses["unresolved_trajectories"] >= 1


def test_cauchy_rejects_non_cauchy():
    pair = plane_sup()
    a = canonicalize([pair.point(0.0, 4.0)], pair)
    b = canonicalize([pair.point(0.0, 8.0)], pair)
    with pytest.raises(NotCauchy):
        cauchy_chain_limit([a, b] * 5, pair)


def test_cauchy_input_validation():
    pair = plane_sup()
    with pytest.raises(PreconditionViolated):
        cauchy_chain_limit([], pair)
    hl = halfline()
    d = canonicalize([hl.point(1.0)], hl)
    with pytest.raises(SpaceMismatch):
        cauchy_chain_limit([d] * 5, pair)


# -- eps nets ----------------------------------------------------------------------


def test_greedy_eps_net_halfline():
    hl = halfline()
    samples = [hl.point(float(v)) for v in np.arange(0.05, 3.0, 0.05)]
    net = greedy_eps_net(hl, 1.0, 2.0, 0.25, samples)
    assert net.region == (1.0, 2.0)
    # centers pairwise >= epsilon apart
    for i, c in enumerate(net.centers):
        for c2 in net.centers[i + 1 :]:
            assert hl.dist(c, c2) >= 0.25
    # every in-region sample is within epsilon of some center
    for s in samples:
        if 1.0 <= hl.dist_to_A(s) < 2.0:
            assert min(hl.dist(s, c) for c in net.centers) < 0.25


def test_greedy_eps_net_errors():
    hl = halfline()
    samples = [hl.point(5.0)]
    with pytest.raises(EmptyAnnulus):
        greedy_eps_net(hl, 1.0, 2.0, 0.25, samples)
    with pytest.raises(PreconditionViolated):
        greedy_eps_net(hl, 2.0, 1.0, 0.25, samples)
    with pytest.raises(PreconditionViolated):
        greedy_eps_net(hl, 1.0, 2.0, 0.0, samples)
    # nan fails the positivity check too: no sample is ever within nan of a
    # center, so the insertion loop would never stop
    inside = [hl.point(1.25), hl.point(1.5)]
    for eps in (-1.0, math.nan):
        with pytest.raises(PreconditionViolated, match="epsilon must be positive"):
            greedy_eps_net(hl, 1.0, 2.0, eps, inside)


def test_net_growth_refuted_on_spreading_strip():
    pair = plane_sup()
    gap = 3.0

    def batch(extent):
        return [
            pair.point(float(b), float(b) + gap)
            for b in np.arange(0.0, extent, 0.5)
        ]

    net, report = net_growth_probe(
        pair, 1.0, 2.0, 1.0, [batch(4.0), batch(8.0), batch(16.0)]
    )
    assert report.verdict is Verdict.REFUTED
    sizes = report.witnesses["sizes"]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_net_growth_inconclusive_when_saturating():
    hl = halfline()

    def batch(step):
        return [hl.point(float(v)) for v in np.arange(step, 3.0, step)]

    net, report = net_growth_probe(
        hl, 1.0, 2.0, 0.25, [batch(0.2), batch(0.1), batch(0.05)]
    )
    assert report.verdict is Verdict.INCONCLUSIVE
    with pytest.raises(PreconditionViolated):
        net_growth_probe(hl, 1.0, 2.0, 0.25, [])


# -- dense families -----------------------------------------------------------------


def build_halfline_family(n=2):
    hl = halfline()
    radius = 1.0 / n
    eps = radius / 2.0
    samples = [hl.point(float(v)) for v in np.arange(eps / 2.0, n + 1.0, eps / 2.0)]
    net = greedy_eps_net(hl, radius / 2.0, float(n) + 0.5, eps, samples)
    fam = dense_family(hl, n, net, validation_samples=samples)
    return hl, fam


def test_dense_family_snap():
    hl, fam = build_halfline_family(2)
    assert fam.radius == 0.5
    sigma = canonicalize([hl.point(0.7), hl.point(1.5), hl.point(0.2)], hl)
    tau, d = approximate_from_family(sigma, fam)
    assert d <= fam.radius
    # the sub-radius point was dropped, the others snapped to centers
    assert tau.size <= 2
    for p in tau.iter_points():
        assert p in fam.centers


def test_dense_family_coverage_gap():
    hl, fam = build_halfline_family(2)
    sigma = canonicalize([hl.point(40.0)], hl)
    with pytest.raises(CoverageGap):
        approximate_from_family(sigma, fam)
    # the message names the first uncovered row among those kept: 0.1 lies
    # within 1/n of A and is dropped, 1.0 is covered
    sigma = canonicalize([hl.point(0.1), hl.point(1.0), (hl.point(40.0), 2), hl.point(50.0)], hl)
    with pytest.raises(CoverageGap) as gap:
        approximate_from_family(sigma, fam)
    assert str(gap.value) == "(40.0) is 37.625 from the nearest center, beyond 0.5"


def test_dense_family_preconditions():
    hl = halfline()
    samples = [hl.point(float(v)) for v in np.arange(0.1, 3.0, 0.1)]
    coarse = greedy_eps_net(hl, 0.25, 2.5, 0.8, samples)
    with pytest.raises(PreconditionViolated):
        dense_family(hl, 2, coarse)  # 0.8 > 1/2
    narrow = greedy_eps_net(hl, 1.0, 1.5, 0.25, samples)
    with pytest.raises(PreconditionViolated):
        dense_family(hl, 2, narrow)  # region misses [1/2, 2)
    with pytest.raises(PreconditionViolated):
        fine = greedy_eps_net(hl, 0.25, 2.5, 0.25, samples)
        dense_family(hl, 0, fine)
    with pytest.raises(PreconditionViolated, match="net has no centers"):
        dense_family(hl, 2, EpsNet(0.25, (), (0.25, 2.5)))


def test_dense_family_validation_catches_gap():
    hl = halfline()
    # a net built from clustered samples misses most of the annulus
    cluster = [hl.point(0.6), hl.point(0.61)]
    net = greedy_eps_net(hl, 0.5, 2.5, 0.5, cluster)
    probe_samples = [hl.point(1.8)]
    with pytest.raises(CoverageGap):
        dense_family(hl, 2, net, validation_samples=probe_samples)


def test_nearest_center_blocks_keep_first_minimum_ties(monkeypatch):
    """Blocks of three rows give the unblocked argmin: among equally near
    centers the first one wins, on an integer grid full of ties."""
    import pdmetric.spaces
    from pdmetric.probes import _nearest

    rng = np.random.default_rng(8)
    for pair in (plane_sup(), PlaneDiagonal(1, "euclidean"), halfline()):
        xs = rng.integers(0, 6, (40, pair.dim)).astype(float)
        C = rng.integers(0, 6, (9, pair.dim)).astype(float)
        full = pair.pairwise_dist(xs, C)
        want = full.argmin(axis=1)
        monkeypatch.setattr(pdmetric.spaces, "_BLOCK_BYTES", 8 * len(C) * 3)
        idx, dist = _nearest(pair, xs, C)
        assert idx.tolist() == want.tolist()
        assert dist.tolist() == full[np.arange(len(xs)), want].tolist()
        assert [len(a) for a in _nearest(pair, xs[:0], C)] == [0, 0]


def test_nearest_center_memory_is_bounded():
    """4000 samples against 1500 centers: the nearest-center search peaks
    far below the 46 MiB of the whole distance matrix."""
    from pdmetric.probes import _nearest

    pair = plane_sup()
    rng = np.random.default_rng(9)
    b = rng.uniform(0.0, 100.0, (5500, 1))
    X = np.hstack([b, b + rng.uniform(0.0, 10.0, (5500, 1))])
    xs, C = X[:4000], X[4000:]
    tracemalloc.start()
    try:
        idx, _ = _nearest(pair, xs, C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idx.tolist() == pair.pairwise_dist(xs, C).argmin(axis=1).tolist()
    assert peak < 6 << 20


def test_dense_family_space_mismatch():
    hl, fam = build_halfline_family(2)
    pair = plane_sup()
    sigma = canonicalize([pair.point(0.0, 2.0)], pair)
    with pytest.raises(SpaceMismatch):
        approximate_from_family(sigma, fam)


# -- separability adversary -----------------------------------------------------------


def test_adversary_defeats_candidate_list():
    pair = plane_sup()
    xs = [pair.point(3.0 * i, 3.0 * i + 3.0) for i in range(4)]
    candidates = [
        canonicalize([xs[0]], pair),          # contains x_0: dropped
        empty_diagram(pair),                  # keeps x_1
        canonicalize([pair.point(3.0 * 2, 3.0 * 2 + 3.2)], pair),  # near x_2: dropped
        canonicalize([pair.point(50.0, 53.0)], pair),              # far: keeps x_3
    ]
    tau, report = separability_adversary(pair, candidates, 1.0, 2.0, 1.0, xs)
    assert report.verdict is Verdict.WITNESSED
    kept = set(tau.iter_points())
    assert xs[1] in kept and xs[3] in kept
    assert xs[0] not in kept and xs[2] not in kept
    for _, d in report.numeric_trace:
        assert d >= 0.5


def test_adversary_refutes_a_distance_below_half_epsilon(monkeypatch):
    """A candidate whose distance to tau is below epsilon / 2 makes the
    report REFUTED; unpatched, both distances are 1.5."""
    import pdmetric.probes as probes

    solve, calls = probes.bottleneck, []

    def patched(tau, sigma, pair):
        calls.append(None)
        value, matching = solve(tau, sigma, pair)
        return (0.25 if len(calls) == 2 else value), matching

    monkeypatch.setattr(probes, "bottleneck", patched)
    pair = plane_sup()
    xs = [pair.point(0.0, 3.0), pair.point(5.0, 8.0)]
    _, report = separability_adversary(
        pair, [empty_diagram(pair), empty_diagram(pair)], 1.0, 2.0, 1.0, xs)
    assert report.numeric_trace == ((0.0, 1.5), (1.0, 0.25))
    assert report.verdict is Verdict.REFUTED


def test_adversary_preconditions():
    pair = plane_sup()
    xs = [pair.point(0.0, 3.0), pair.point(5.0, 8.0)]
    cands = [empty_diagram(pair), empty_diagram(pair)]
    with pytest.raises(PreconditionViolated):
        separability_adversary(pair, cands, 1.0, 2.0, 1.5, xs)  # eps > delta
    with pytest.raises(PreconditionViolated):
        separability_adversary(pair, cands, 1.0, 2.0, 1.0, xs[:1])  # too few points
    off = [pair.point(0.0, 0.5), pair.point(5.0, 8.0)]
    with pytest.raises(PreconditionViolated):
        separability_adversary(pair, cands, 1.0, 2.0, 1.0, off)  # outside annulus
    close = [pair.point(0.0, 3.0), pair.point(0.2, 3.2)]
    with pytest.raises(PreconditionViolated):
        separability_adversary(pair, cands, 1.0, 2.0, 1.0, close)  # not separated
    hl = halfline()
    foreign = [canonicalize([hl.point(1.5)], hl), empty_diagram(pair)]
    with pytest.raises(SpaceMismatch):
        separability_adversary(pair, foreign, 1.0, 2.0, 1.0, xs)


def first_close_pair_message(pair, xs, epsilon):
    """The refusal of an unblocked check: the first pair i < j in row-major
    order closer than epsilon."""
    X = pair.coords_matrix(xs)
    between = pair.pairwise_dist(X, X)
    i, j = np.argwhere(np.triu(between < epsilon, 1))[0]
    return f"points {i} and {j} are {float(between[i, j])} apart, below {epsilon}"


def test_adversary_reports_the_first_close_pair_across_blocks(monkeypatch):
    """With two rows per block the refusal names the pair an unblocked check
    names: a close pair whose smaller index comes later, or lies in the
    block's lower triangle, is not reported first."""
    import pdmetric.spaces

    pair = plane_sup()
    xs = [pair.point(3.0 * i, 3.0 * i + 3.0) for i in range(9)]
    xs[5] = pair.point(6.2, 9.2)  # close to x_2
    xs[7] = pair.point(12.1, 15.1)  # close to x_4
    xs[3] = pair.point(0.3, 3.3)  # close to x_0, in a later block than x_0
    cands = [empty_diagram(pair)] * len(xs)
    want = first_close_pair_message(pair, xs, 1.0)
    assert want.startswith("points 0 and 3 ")
    monkeypatch.setattr(pdmetric.spaces, "_BLOCK_BYTES", 8 * len(xs) * 2)
    with pytest.raises(PreconditionViolated) as e:
        separability_adversary(pair, cands, 1.0, 2.0, 1.0, xs)
    assert str(e.value) == want
    xs[3] = pair.point(9.0, 12.0)
    want = first_close_pair_message(pair, xs, 1.0)
    assert want.startswith("points 2 and 5 ")
    with pytest.raises(PreconditionViolated) as e:
        separability_adversary(pair, cands, 1.0, 2.0, 1.0, xs)
    assert str(e.value) == want


def test_adversary_separation_check_memory_is_bounded():
    """1500 points whose last two are close: the check scans every row
    block before it refuses, with a peak far below the 25 MiB that the
    whole 1500 x 1500 matrix and its mask take."""
    pair = plane_sup()
    k = 1500
    xs = [pair.point(3.0 * i, 3.0 * i + 3.0) for i in range(k - 1)]
    xs.append(pair.point(3.0 * (k - 2) + 0.5, 3.0 * (k - 2) + 3.5))
    cands = [empty_diagram(pair)] * k
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionViolated, match=f"points {k - 2} and {k - 1} "):
            separability_adversary(pair, cands, 1.0, 2.0, 1.0, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


def huge_dense_family_case():
    hl, fam = build_halfline_family(2)
    huge = canonicalize([(hl.point(1.5), 10**12)], hl)
    return lambda: approximate_from_family(huge, fam)


def huge_adversary_case():
    pair = plane_sup()
    # the candidate's point is far from x, so every copy of it would be tested
    huge = canonicalize([(pair.point(0.0, 6.0), 10**12)], pair)
    return lambda: separability_adversary(pair, [huge], 1.0, 2.0, 1.0, [pair.point(3.0, 6.0)])


@pytest.mark.parametrize("case", [
    pytest.param(huge_dense_family_case, id="dense-family"),
    pytest.param(huge_adversary_case, id="adversary"),
])
def test_probes_refuse_huge_multiplicity_before_expansion(case):
    """A probe visits each distinct point once, so one point of
    multiplicity 10^12 reaches the solver's size cap at once, with no copy
    of it built."""
    run = case()
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(TooLarge):
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 1 << 20


# -- one batch query per point set ------------------------------------------------------


def worked_examples():
    """Every probe that reads distances, on the worked examples above; a
    refusal is kept as its type and message."""
    pair, hl = plane_sup(), halfline()
    fin = FiniteExplicit([[0.0, 4.0, 3.0], [4.0, 0.0, 5.0], [3.0, 5.0, 0.0]], [2])
    x = pair.point(0.0, 4.0)
    tail = [pair.point(1.0 / n, 4.0 + 1.0 / n) for n in range(1, 60)]
    samples = [hl.point(float(v)) for v in np.arange(0.05, 3.0, 0.05)]
    strip = [pair.point(float(b), float(b) + 3.0) for b in np.arange(0.0, 16.0, 0.5)]
    xs = [pair.point(3.0 * i, 3.0 * i + 3.0) for i in range(4)]
    candidates = [
        canonicalize([xs[0]], pair),
        empty_diagram(pair),
        canonicalize([pair.point(3.0 * 2, 3.0 * 2 + 3.2)], pair),
        canonicalize([pair.point(50.0, 53.0)], pair),
    ]
    close = [pair.point(0.0, 3.0), pair.point(5.0, 8.0), pair.point(0.2, 3.2)]
    sigma = canonicalize([hl.point(0.7), hl.point(1.5), hl.point(0.2)], hl)

    def chain(point):
        return lambda: cauchy_chain_limit([canonicalize([point(k)], pair) for k in range(26)], pair)

    runs = {
        "isolated": lambda: isolated_point_bound(
            fin, canonicalize([fin.point(0)], fin), canonicalize([fin.point(1)], fin)),
        "vanishing": lambda: vanishing_pair_demo(pair, x, tail, n_max=50, target=0.05),
        "cauchy-converging": chain(lambda k: pair.point(0.0, 4.0 + 2.0**-k)),
        "cauchy-absorbing": chain(lambda k: pair.point(2.0**-k, 2.0 * 2.0**-k)),
        "cauchy-slow": lambda: cauchy_chain_limit(
            [canonicalize([pair.point(0.0, 4.0 + 2.0**-k)], pair) for k in range(11)], pair),
        "eps-net": lambda: greedy_eps_net(hl, 1.0, 2.0, 0.25, samples),
        "net-growth": lambda: net_growth_probe(
            pair, 1.0, 2.0, 1.0, [strip[:8], strip[:16], strip]),
        "dense-family": lambda: build_halfline_family(2)[1],
        "validation-gap": lambda: dense_family(
            hl, 2, greedy_eps_net(hl, 0.5, 2.5, 0.5, [hl.point(0.6)]), [hl.point(1.8)]),
        "snap": lambda: approximate_from_family(sigma, build_halfline_family(2)[1]),
        "coverage-gap": lambda: approximate_from_family(
            canonicalize([hl.point(40.0)], hl), build_halfline_family(2)[1]),
        "adversary": lambda: separability_adversary(pair, candidates, 1.0, 2.0, 1.0, xs),
        "not-separated": lambda: separability_adversary(
            pair, candidates[:3], 1.0, 2.0, 1.0, close),
    }
    out = {}
    for name, run in runs.items():
        try:
            out[name] = run()
        except (CoverageGap, PreconditionViolated) as e:
            out[name] = (type(e).__name__, str(e))
    return out


def test_probes_make_no_scalar_queries(monkeypatch):
    """The probes ask the pair one batch query per point set: with the
    scalar dist and dist_to_A refusing every call, each worked example
    gives the same reports, values and refusals."""
    expected = worked_examples()

    def refuse(*args):
        raise AssertionError("a probe made a scalar distance query")

    monkeypatch.setattr(MetricPair, "dist", refuse)
    monkeypatch.setattr(MetricPair, "dist_to_A", refuse)
    assert worked_examples() == expected
    assert expected["validation-gap"][0] == "CoverageGap"
    assert expected["coverage-gap"][0] == "CoverageGap"
    assert expected["not-separated"] == (
        "PreconditionViolated", "points 0 and 2 are 0.20000000000000018 apart, below 1.0")


# -- report serialization ---------------------------------------------------------------


def test_report_to_json():
    pair = plane_sup()
    xs = [pair.point(0.0, 3.0)]
    tau, report = separability_adversary(
        pair, [empty_diagram(pair)], 1.0, 2.0, 1.0, xs
    )
    obj = report.to_json()
    assert obj["verdict"] == "WITNESSED"
    assert obj["witnesses"]["tau"] == [{"coords": [0.0, 3.0], "mult": 1}]
    assert obj["witnesses"]["kept_points"] == [[0.0, 3.0]]
    assert obj["trace"] == [[0.0, 1.5]]
