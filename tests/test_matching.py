"""Solver behavior: frozen examples, oracle agreement, metric axioms,
p-norm structure, and the serialization of matchings."""

import math
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmetric.matching

from pdmetric import (
    BASEPOINT,
    BasepointTag,
    FiniteExplicit,
    Matching,
    ParseError,
    PlaneDiagonal,
    QuotientOf,
    TooLarge,
    bottleneck,
    brute_force_dp,
    candidate_thresholds,
    canonicalize,
    empty_diagram,
    feasible_at_threshold,
    geodesic_between,
    matching_from_json,
    matching_to_json,
    total_persistence,
    wasserstein,
)
from pdmetric._kernels import augmented_matching
from pdmetric.matching import p_norm
from reference_kernels import augmented_wasserstein, cold_bottleneck

from conftest import (
    halfline,
    plane_euclidean,
    plane_sup,
    random_finite_diagram,
    random_finite_pair,
    random_halfline_diagram,
    random_plane_diagram,
)


# -- frozen examples -----------------------------------------------------------


def test_bottleneck_plane_example():
    pair = plane_sup()
    s = canonicalize([pair.point(0.0, 10.0), pair.point(2.0, 4.0)], pair)
    t = canonicalize([pair.point(1.0, 11.0)], pair)
    value, matching = bottleneck(s, t, pair)
    assert value == 1.0
    assert matching.value == 1.0
    assert max(q.cost for q in matching.pairs) == 1.0


def test_wasserstein_plane_example():
    pair = plane_sup()
    s = canonicalize([pair.point(0.0, 10.0), pair.point(2.0, 4.0)], pair)
    t = canonicalize([pair.point(1.0, 11.0)], pair)
    # optimal: (0,10)-(1,11) costs 1, (2,4) dies at cost 1
    assert wasserstein(s, t, 1.0, pair)[0] == 2.0
    assert wasserstein(s, t, 2.0, pair)[0] == math.sqrt(2.0)


def test_wasserstein_halfline_example():
    pair = halfline()
    s = canonicalize([pair.point(3.0), pair.point(4.0)], pair)
    t = canonicalize([pair.point(5.0)], pair)
    # match 4 with 5 (cost 1), send 3 to the origin (cost 3)
    assert wasserstein(s, t, 1.0, pair)[0] == 4.0
    assert bottleneck(s, t, pair)[0] == 3.0


def test_far_pair_routes_through_A():
    pair = plane_sup()
    s = canonicalize([pair.point(0.0, 2.0)], pair)
    t = canonicalize([pair.point(10.0, 12.0)], pair)
    value, matching = bottleneck(s, t, pair)
    assert value == 1.0
    # the quotient route is reported as its two explicit A-assignments
    assert len(matching.pairs) == 2
    assert all(
        isinstance(q.left, BasepointTag) or isinstance(q.right, BasepointTag)
        for q in matching.pairs
    )
    assert wasserstein(s, t, 1.0, pair)[0] == 2.0


def test_candidate_thresholds_and_feasibility():
    pair = plane_sup()
    s = canonicalize([pair.point(0.0, 4.0)], pair)
    t = canonicalize([pair.point(1.0, 5.0)], pair)
    assert candidate_thresholds(s, t, pair) == [0.0, 1.0, 2.0]
    ok, witness = feasible_at_threshold(s, t, pair, 1.0)
    assert ok and witness.value <= 1.0
    ok, witness = feasible_at_threshold(s, t, pair, 0.5)
    assert not ok and witness is None

    empty = empty_diagram(pair)
    assert feasible_at_threshold(s, empty, pair, 1.9)[0] is False
    assert feasible_at_threshold(s, empty, pair, 2.0)[0] is True
    assert feasible_at_threshold(s, empty, pair, -1.0)[0] is False


def test_bottleneck_evaluates_each_threshold_once(monkeypatch):
    """The search opens with a cold augmented run at LB, decides every
    later threshold with the must-match rule and never twice, and the
    first read of the witness's pairs adds at most one cold augmented run,
    at the returned value; over these 80 instances it makes fewer kernel
    calls than the plain binary search (174 calls)."""
    import pdmetric.matching as pm

    calls = []  # (threshold, kind): "cold" augmented run or must-match "decision"
    kernel = pm.augmented_matching

    def counting(Q, ax, ay, r, decide=False):
        calls.append((r, "decision" if decide else "cold"))
        return kernel(Q, ax, ay, r, decide=decide)

    def lb_threshold(s, t, pair):
        # no point can do better than its distance to A or cheapest partner
        Q, ax, ay = pm._cost_data(s, t, pair)
        per_x = [min([ax[i], *Q[i]]) for i in range(len(ax))]
        per_y = [min([ay[j], *Q[:, j]]) for j in range(len(ay))]
        return float(max(per_x + per_y, default=0.0))

    monkeypatch.setattr(pm, "augmented_matching", counting)
    rng = np.random.default_rng(17)
    total = 0
    for pair in (plane_sup(), plane_euclidean()):
        for _ in range(40):
            s = random_plane_diagram(pair, rng, max_points=8)
            t = random_plane_diagram(pair, rng, max_points=8)
            calls.clear()
            value, witness = bottleneck(s, t, pair)
            searched = len(calls)
            witness.pairs
            total += len(calls)
            assert value in candidate_thresholds(s, t, pair)
            assert calls[0] == (lb_threshold(s, t, pair), "cold")
            if value != calls[0][0]:  # LB was infeasible: decisions, then the witness
                assert calls[searched:] == [(value, "cold")]
                decisions = [r for r, _ in calls[:searched]]
                assert all(kind == "decision" for _, kind in calls[1:searched])
            else:
                assert len(calls) == 1 and calls[0][0] == value
                decisions = [calls[0][0]]
            assert len(decisions) == len(set(decisions)), calls
    assert total < 174


def test_bottleneck_decides_the_thresholds_of_plain_halving(monkeypatch):
    """After a failed cold run at LB, the search decides exactly the
    thresholds of plain halving over the candidates in (LB, UB]: a feasible
    one becomes the upper end, an infeasible one the lower.  The expected
    sequence comes from ``candidate_thresholds`` and the cold kernel."""
    import pdmetric.matching as pm

    calls = []  # (threshold, decide) of every kernel call the solve makes
    kernel = pm.augmented_matching

    def recording(Q, ax, ay, r, decide=False):
        calls.append((r, decide))
        return kernel(Q, ax, ay, r, decide=decide)

    monkeypatch.setattr(pm, "augmented_matching", recording)
    rng = np.random.default_rng(20)
    past_lb = 0
    for pair in (plane_sup(), plane_euclidean()):
        for _ in range(60):
            s = random_plane_diagram(pair, rng, max_points=8)
            t = random_plane_diagram(pair, rng, max_points=8)
            Q, ax, ay = pm._cost_data(s, t, pair)
            lb = max([min([a, *row]) for a, row in zip(ax.tolist(), Q.tolist())]
                     + [min([a, *col]) for a, col in zip(ay.tolist(), Q.T.tolist())],
                     default=0.0)
            ub = max(ax.tolist() + ay.tolist(), default=0.0)
            want = [(lb, False)]
            if np.any(augmented_matching(Q, ax, ay, lb) < 0):
                past_lb += 1
                cands = [c for c in candidate_thresholds(s, t, pair) if lb < c <= ub]
                lo, hi = 0, len(cands) - 1
                while lo < hi:
                    mid = (lo + hi) // 2
                    want.append((cands[mid], True))
                    if np.any(augmented_matching(Q, ax, ay, cands[mid]) < 0):
                        lo = mid + 1
                    else:
                        hi = mid
            calls.clear()
            bottleneck(s, t, pair)
            assert calls == want, (pair.norm, s, t)
    assert past_lb > 20


def bottleneck_cases(seed):
    """Tie-heavy and float draws over every pair kind of ``reference_cases``
    (one per draw), with the empty diagram on either side."""
    rng = np.random.default_rng(seed)
    cases = []
    for grid in (False, True):
        for s, t, _, pair in reference_cases(rng, grid):
            if not cases or cases[-1][0] is not s:
                cases.append((s, t, pair))
    s, _, pair = cases[0]
    e = empty_diagram(pair)
    return cases + [(e, e, pair), (s, e, pair), (e, s, pair)]


def test_bottleneck_witness_is_built_once_on_first_read(monkeypatch):
    """A solve whose witness is not read runs no cold augmented run after
    its decisions; the first read of ``pairs`` runs the kernel at most
    once, a second read not at all, and both reads give one tuple."""
    import pdmetric.matching as pm

    calls = []  # (threshold, kind), as in the test above
    kernel = pm.augmented_matching

    def counting(Q, ax, ay, r, decide=False):
        calls.append((r, "decision" if decide else "cold"))
        return kernel(Q, ax, ay, r, decide=decide)

    monkeypatch.setattr(pm, "augmented_matching", counting)
    searched_past_lb = 0
    for s, t, pair in bottleneck_cases(33):
        calls.clear()
        value, witness = bottleneck(s, t, pair)
        kinds = [kind for _, kind in calls]
        assert kinds[0] == "cold" and "cold" not in kinds[1:], calls
        searched = len(calls)
        first = witness.pairs
        past_lb = value != calls[0][0]
        assert calls[searched:] == ([(value, "cold")] if past_lb else [])
        assert witness.pairs is first and len(calls) == searched + past_lb
        searched_past_lb += past_lb
    assert searched_past_lb > 50


def test_bottleneck_value_is_the_witness_largest_cost():
    """The value read from the search equals, to the bit, the largest cost
    of the witness built later (0.0 for no pairs)."""
    for s, t, pair in bottleneck_cases(34):
        value, witness = bottleneck(s, t, pair)
        assert value.hex() == max((q.cost for q in witness.pairs), default=0.0).hex()


def test_deferred_witness_compares_hashes_and_pickles_as_a_built_one():
    """An unread witness equals, hashes and prints as the witness built
    from its pairs by the constructor, pickles to one, and stays frozen."""
    import copy
    import dataclasses
    import pickle

    for s, t, pair in bottleneck_cases(35)[::7]:
        _, want = cold_bottleneck(s, t, pair)
        _, got = bottleneck(s, t, pair)
        assert hash(got) == hash(want) and got == want and not got != want
        built = Matching(want.pairs, want.value, want.p)
        assert repr(got) == repr(built) == repr(want)
        for witness in (bottleneck(s, t, pair)[1], got):  # unread, then read
            data = pickle.dumps(witness)
            assert b"_build" not in data  # the pickle holds the pairs, not the cost data
            back = pickle.loads(data)
            assert type(back) is Matching and back == want and hash(back) == hash(want)
            assert copy.copy(witness) == want
        assert got != (want.pairs, want.value, want.p)
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.value = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del got.p


def test_witness_drops_its_cost_data_once_read(monkeypatch):
    """Until ``pairs`` is read the witness keeps the cost matrix Q alive;
    then Q is freed, both when the LB run's matching is the witness and
    when the witness comes from one more cold run."""
    import weakref

    import pdmetric.matching as pm

    kernel = pm.augmented_matching
    seen = []

    def capturing(Q, ax, ay, r, decide=False):
        seen.append(weakref.ref(Q))
        return kernel(Q, ax, ay, r, decide=decide)

    monkeypatch.setattr(pm, "augmented_matching", capturing)
    witness_runs = set()
    for s, t, pair in bottleneck_cases(36)[:60]:
        seen.clear()
        _, witness = bottleneck(s, t, pair)
        searched = len(seen)
        q_ref = seen[0]
        assert q_ref() is not None
        witness.pairs
        assert q_ref() is None
        witness_runs.add(len(seen) - searched)
    assert witness_runs == {0, 1}


def test_overflowing_cost_powers_raise_too_large(monkeypatch):
    def kernel(cost):
        raise AssertionError("the assignment kernel ran")

    pair, half = plane_sup(), halfline()
    huge = canonicalize([pair.point(0.0, 1e200)], pair)
    empty = empty_diagram(pair)
    # a power of a distance to A, on either side, overflows; then only a
    # pair's power (its route through A, 1.8e154); last, an instance whose
    # small power also underflows, and which is not scaled since its
    # largest cost exceeds 1.  TooLarge comes before the kernel runs.
    far = [canonicalize([pair.point(b, b + 1.8e154)], pair) for b in (0.0, 1e160)]
    cases = [(huge, empty, pair), (empty, huge, pair), (*far, pair),
             (canonicalize([half.point(1e-200)], half), canonicalize([half.point(1e200)], half),
              half)]
    with monkeypatch.context() as patch:
        patch.setattr(pdmetric.matching, "solve_assignment", kernel)
        for s, t, space in cases:
            with pytest.raises(TooLarge):
                wasserstein(s, t, 2.0, space)
    with pytest.raises(TooLarge):
        brute_force_dp(huge, empty, 2.0, pair)
    # each power is finite, their sum is not
    with pytest.raises(TooLarge):
        p_norm([1e154, 1e154], 2.0)
    with pytest.raises(TooLarge):
        matching_from_json({"pairs": [{"left": [0.0, 1e200], "right": "A", "cost": 5e199}],
                            "p": 2.0}, pair)
    # the same diagrams stay solvable where the powers fit
    assert wasserstein(huge, empty, 1.0, pair)[0] == 5e199
    assert bottleneck(huge, empty, pair)[0] == 5e199


def test_an_overflowing_sum_of_powers_to_A_is_no_error():
    """Two points 1.3e154 from the diagonal and about 1e140 apart: each
    power to A fits the float range at p = 2, their sum does not, and the
    pair is matched with no overflow warning."""
    pair = plane_sup()
    s = canonicalize([pair.point(0.0, 2.6e154)], pair)
    t = canonicalize([pair.point(1.0, 2.6e154 + 1e140)], pair)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, matching = wasserstein(s, t, 2.0, pair)
    assert [(q.left, q.right) for q in matching.pairs] == [(s.points[0][0], t.points[0][0])]
    assert value == matching.pairs[0].cost == pair.dist(s.points[0][0], t.points[0][0])


def test_underflowing_cost_powers_keep_their_weight():
    """At p = 400 the powers of the small costs underflow to 0.  Scaled by
    the largest cost they keep their weight, so W_p stays positive and at
    least the bottleneck distance, and solver and oracle agree."""
    pair = halfline()
    s = canonicalize([pair.point(0.1), pair.point(0.3)], pair)
    t = canonicalize([pair.point(0.12), pair.point(0.2)], pair)
    value = wasserstein(s, t, 400.0, pair)[0]
    assert value > 0.0
    assert value >= bottleneck(s, t, pair)[0]
    assert value == brute_force_dp(s, t, 400.0, pair)[0]
    # the one rule also serves p_norm and total_persistence
    assert p_norm([1e-200], 2.0) == 1e-200
    assert total_persistence(canonicalize([pair.point(1e-200)], pair), 2.0, pair) == 1e-200


def test_costs_are_never_scaled_down():
    """The power of the cost 5e-7 is subnormal at p = 50, but the largest
    cost, 1e6, exceeds 1: dividing by it would send every power below 0.6
    to 0 or a subnormal and tie all pairings of the small points.  The value
    is the unscaled augmented solve's, and the witness's exact sum of cost
    powers is the least over every matching."""
    pair = plane_sup()
    s = canonicalize([pair.point(b, d) for b, d in
                      ((0.0, 2e6), (0.0, 1e-6), (0.8, 1.3), (0.6, 1.6), (0.7, 0.9))], pair)
    t = canonicalize([pair.point(b, d) for b, d in
                      ((0.2, 2e6 + 0.2), (0.5, 1.1), (0.7, 1.2), (0.8, 1.2))], pair)
    value, witness = wasserstein(s, t, 50.0, pair)
    assert value.hex() == augmented_wasserstein(s, t, 50.0, pair)[0].hex()

    def exact(costs):
        return sum(Fraction(float(c)) ** 50 for c in costs)

    xs, ys = list(s.iter_points()), list(t.iter_points())
    ax, ay = [pair.dist_to_A(x) for x in xs], [pair.dist_to_A(y) for y in ys]
    least = min(
        exact([min(pair.dist(xs[i], ys[j]), ax[i] + ay[j]) for i, j in zip(left, right)]
              + [ax[i] for i in range(len(xs)) if i not in left]
              + [ay[j] for j in range(len(ys)) if j not in right])
        for k in range(len(ys) + 1)
        for left in combinations(range(len(xs)), k)
        for right in permutations(range(len(ys)), k))
    assert exact(q.cost for q in witness.pairs) == least


def test_empty_diagrams():
    pair = plane_sup()
    empty = empty_diagram(pair)
    for p in (1.0, 2.0, math.inf):
        value, matching = wasserstein(empty, empty, p, pair)
        assert value == 0.0
        assert matching.pairs == ()
    s = canonicalize([pair.point(0.0, 4.0)], pair)
    assert bottleneck(s, empty, pair)[0] == 2.0
    assert wasserstein(empty, s, 1.0, pair)[0] == 2.0


def test_identity_is_exact_zero():
    rng = np.random.default_rng(3)
    pair = plane_sup()
    for _ in range(20):
        s = random_plane_diagram(pair, rng)
        for p in (1.0, 2.0, math.inf):
            assert wasserstein(s, s, p, pair)[0] == 0.0


def test_p_validation():
    pair = plane_sup()
    s = empty_diagram(pair)
    with pytest.raises(ValueError):
        wasserstein(s, s, 0.5, pair)
    with pytest.raises(ValueError):
        brute_force_dp(s, s, 0.5, pair)
    # one rule everywhere: -inf and nan used to pass as the bottleneck value
    s = canonicalize([pair.point(0.0, 4.0)], pair)
    t = canonicalize([pair.point(1.0, 6.0)], pair)
    for p in (0.5, 0.0, -1.0, -math.inf, math.nan):
        for solve in (lambda: wasserstein(s, t, p, pair), lambda: brute_force_dp(s, t, p, pair),
                      lambda: total_persistence(s, p, pair)):
            with pytest.raises(ValueError, match="p must be >= 1"):
                solve()
        with pytest.raises(ParseError):
            matching_from_json({"pairs": [], "p": p}, pair)
    assert wasserstein(s, t, math.inf, pair)[0] == brute_force_dp(s, t, math.inf, pair)[0] == 2.0
    assert total_persistence(s, math.inf, pair) == 2.0


def test_too_large():
    pair = plane_sup()
    # one point over the cap of 10,000, counted with multiplicity
    s = canonicalize([(pair.point(0.0, 4.0), 5000), (pair.point(1.0, 5.0), 1)], pair)
    t = canonicalize([(pair.point(2.0, 6.0), 4999), (pair.point(3.0, 7.0), 1)], pair)
    with pytest.raises(TooLarge):
        bottleneck(s, t, pair)
    with pytest.raises(TooLarge):
        wasserstein(s, t, 2.0, pair)
    big = canonicalize([(pair.point(0.0, 4.0), 11)], pair)
    with pytest.raises(TooLarge):
        brute_force_dp(big, t, 1.0, pair)


@pytest.mark.parametrize("solve", [
    pytest.param(bottleneck, id="bottleneck"),
    pytest.param(lambda s, t, pair: wasserstein(s, t, 2.0, pair), id="wasserstein"),
    pytest.param(lambda s, t, pair: feasible_at_threshold(s, t, pair, 1.0), id="feasible"),
    pytest.param(candidate_thresholds, id="candidates"),
    pytest.param(geodesic_between, id="geodesic"),
    pytest.param(lambda s, t, pair: brute_force_dp(s, t, 1.0, pair), id="brute_force"),
])
def test_huge_multiplicity_is_refused_before_expansion(solve):
    """The size cap counts a point's copies from its multiplicity, so one
    point of multiplicity 10^12 is refused without building any copy."""
    pair = plane_sup()
    huge = canonicalize([(pair.point(0.0, 1.0), 10**12)], pair)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            solve(huge, empty_diagram(pair), pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_solve_holds_one_n_by_m_array(monkeypatch):
    """On the plane at n = m = 600, _cost_data builds Q in the pairwise
    distance matrix, and wasserstein fills its assignment matrix from Q a
    row block at a time: each peaks at one 600 x 600 array plus two
    blocks of the row-block budget, not at three or four such arrays."""
    from pdmetric.diagram import _canonical
    from pdmetric.spaces import _BLOCK_BYTES

    pair, n = plane_sup(), 600
    rng = np.random.default_rng(6)
    sigma, tau = (_canonical(np.column_stack([b, b + rng.uniform(0.0, 10.0, n)]), [1] * n, pair)
                  for b in rng.uniform(0.0, 100.0, (2, n)))
    bound = 8 * n * n + 2 * _BLOCK_BYTES
    peaks = []

    def kernel(cost):
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return np.arange(len(cost))

    tracemalloc.start()
    try:
        cost = pdmetric.matching._cost_data(sigma, tau, pair)
        peaks.append(tracemalloc.get_traced_memory()[1])
        monkeypatch.setattr(pdmetric.matching, "_cost_data", lambda *args: cost)
        monkeypatch.setattr(pdmetric.matching, "solve_assignment", kernel)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        wasserstein(sigma, tau, 2.0, pair)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2 and max(peaks) < bound, (peaks, bound)


def test_multiplicity_expansion():
    pair = plane_sup()
    s = canonicalize([(pair.point(0.0, 4.0), 3)], pair)
    t = canonicalize([(pair.point(0.0, 4.0), 1)], pair)
    # two copies must die at cost 2 each
    assert wasserstein(s, t, 1.0, pair)[0] == 4.0
    assert bottleneck(s, t, pair)[0] == 2.0


# -- oracle agreement ----------------------------------------------------------


def spaces_and_generators():
    rng = np.random.default_rng(91)
    yield plane_sup(), lambda pair: random_plane_diagram(pair, rng, max_points=4)
    yield plane_euclidean(), lambda pair: random_plane_diagram(pair, rng, max_points=4)
    yield halfline(), lambda pair: random_halfline_diagram(pair, rng, max_points=4)
    # integer grids: Euclidean pair costs are square roots, and matchings
    # that tie in the reals may round apart
    yield plane_euclidean(), lambda pair: grid_plane_diagram(pair, rng, max_points=5)
    # points of persistence 2e8 within 10 of each other: each pair's cost
    # power is tiny next to its distances to A, and the solve must still
    # find the cheapest pairing
    yield plane_sup(), lambda pair: canonicalize(
        [pair.point(b, b + 2e8) for b in rng.uniform(0.0, 10.0, 5).tolist()], pair)


def test_solvers_match_brute_force():
    for pair, gen in spaces_and_generators():
        for _ in range(25):
            s = gen(pair)
            t = gen(pair)
            for p in (1.0, 2.0, 3.0):
                ours, matching = wasserstein(s, t, p, pair)
                ref = brute_force_dp(s, t, p, pair)[0]
                assert ours == ref, (pair.kind, p, s, t)
                assert_witness_rule(matching, s, t, pair)
            ours = bottleneck(s, t, pair)[0]
            ref = brute_force_dp(s, t, math.inf, pair)[0]
            assert ours == ref, (pair.kind, s, t)


def test_solvers_match_brute_force_finite_pairs():
    rng = np.random.default_rng(17)
    for _ in range(10):
        pair = random_finite_pair(rng)
        s = random_finite_diagram(pair, rng)
        t = random_finite_diagram(pair, rng)
        if s.size + t.size > 10:
            continue
        for p in (1.0, 2.0):
            assert wasserstein(s, t, p, pair)[0] == brute_force_dp(s, t, p, pair)[0]
        assert bottleneck(s, t, pair)[0] == brute_force_dp(s, t, math.inf, pair)[0]


# -- the reduced assignment against the augmented reference ---------------------


def assert_witness_rule(matching, sigma, tau, pair):
    """Pairs come in the documented order: each x in left index order with
    its partner, or with A (followed by the (A, y) half of a pair split
    through A), then the remaining (A, y) pairs in ascending y index.  A
    point-to-point pair costs less than its route through A."""
    xs, ys = list(sigma.iter_points()), list(tau.iter_points())
    pairs = list(matching.pairs)

    def split(x, y):  # the pair's quotient cost is its route through A
        return pair.dist(x, y) >= pair.dist_to_A(x) + pair.dist_to_A(y)

    k = 0
    for i, x in enumerate(xs):
        q = pairs[k]
        k += 1
        assert q.left == x
        if q.right is not BASEPOINT:
            assert q.cost < pair.dist_to_A(x) + pair.dist_to_A(q.right)
        elif i + 1 < len(xs) and pairs[k].left is BASEPOINT:  # a split half
            assert split(x, pairs[k].right)
            k += 1
    assert all(q.left is BASEPOINT for q in pairs[k:])
    tail = [ys.index(q.right) for q in pairs[k:]]
    # the last x's split half, if it has one, precedes the ascending rest
    assert tail == sorted(tail) or (split(xs[-1], ys[tail[0]]) and tail[1:] == sorted(tail[1:]))
    rights = [ys.index(q.right) for q in pairs if q.right is not BASEPOINT]
    assert sorted(rights) == [ys.index(y) for y in ys]


def grid_plane_diagram(pair, rng, max_points=12):
    k = int(rng.integers(0, max_points + 1))
    births, gaps = rng.integers(0, 20, k).tolist(), rng.integers(0, 8, k).tolist()
    return canonicalize([pair.point(float(b), float(b + g)) for b, g in zip(births, gaps)], pair)


def grid_finite_pair(rng):
    coords = rng.integers(0, 10, (int(rng.integers(4, 9)), 2))
    matrix = np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=-1)
    return FiniteExplicit(matrix.astype(np.float64), [len(coords) - 1])


def grid_halfline_diagram(pair, rng, max_points=12):
    k = int(rng.integers(0, max_points + 1))
    return canonicalize([pair.point(float(v)) for v in rng.integers(0, 20, k).tolist()], pair)


def reference_cases(rng, grid):
    """(sigma, tau, p, pair) draws: random floats, or integer grids on which
    every cost power is exact, so a tie between matchings is exact."""
    sup, euc, half = plane_sup(), plane_euclidean(), halfline()
    quotient = QuotientOf(PlaneDiagonal(1, "sup"))
    plane = partial(random_plane_diagram, max_points=12, scale=20.0, gap=10.0)
    every_p = (1.0, 2.0, 3.5)
    for _ in range(50 if grid else 70):
        if grid:
            draws = [(grid_finite_pair(rng), random_finite_diagram, (1.0, 2.0)),
                     (sup, grid_plane_diagram, (1.0, 2.0)),
                     (half, grid_halfline_diagram, (1.0, 2.0))]
        else:
            # W1 on the half-line ties in the reals on every draw: a pair
            # saves 2 min(x, y) over sending both to A, so many matchings are
            # optimal, and which one a solver returns decides the last bit of
            # the rounded sum (see CHANGES.md); the grid cases cover it
            draws = [(random_finite_pair(rng), random_finite_diagram, every_p),
                     (sup, plane, every_p), (euc, plane, every_p), (quotient, plane, every_p),
                     (half, partial(random_halfline_diagram, max_points=12), (2.0, 3.5))]
        for pair, draw, exps in draws:
            sigma, tau = draw(pair, rng), draw(pair, rng)
            for p in exps:
                yield sigma, tau, p, pair


@pytest.mark.parametrize("grid", [False, True], ids=["floats", "grids"])
def test_reduced_assignment_matches_augmented_reference(grid):
    """``wasserstein`` solves the max(n, m)^2 reduced instance; its value is
    the augmented (n+m)^2 solve's to the bit, and its witness follows the
    documented order."""
    rng = np.random.default_rng(606 + grid)
    solves = 0
    for sigma, tau, p, pair in reference_cases(rng, grid):
        value, matching = wasserstein(sigma, tau, p, pair)
        assert value.hex() == augmented_wasserstein(sigma, tau, p, pair)[0].hex(), (
            pair.kind, p, sigma, tau)
        assert_witness_rule(matching, sigma, tau, pair)
        solves += 1
    assert solves == (300 if grid else 980)


def test_bottleneck_matches_cold_search():
    """The LB-first search of must-match decisions returns the value (to
    the bit) and the witness of the plain binary search of cold augmented
    runs, on tie-heavy integer grids, float planes
    (sup and Euclidean), the half-line, finite spaces, a quotient pair and
    empty diagrams."""
    rng = np.random.default_rng(808)
    cases = []
    for grid in (False, True):
        for s, t, _, pair in reference_cases(rng, grid):
            if not cases or cases[-1][0] is not s:  # one case per draw, not per p
                cases.append((s, t, pair))
    euc = plane_euclidean()
    cases += [(grid_plane_diagram(euc, rng), grid_plane_diagram(euc, rng), euc)
              for _ in range(50)]
    for pair in (plane_sup(), euc, halfline(), QuotientOf(PlaneDiagonal(1, "sup"))):
        draw = random_halfline_diagram if pair == halfline() else random_plane_diagram
        d = draw(pair, rng)
        e = empty_diagram(pair)
        cases += [(e, e, pair), (d, e, pair), (e, d, pair)]
    for s, t, pair in cases:
        value, witness = bottleneck(s, t, pair)
        want_value, want_witness = cold_bottleneck(s, t, pair)
        assert value.hex() == want_value.hex(), (pair.kind, s, t)
        assert witness == want_witness, (pair.kind, s, t)
    assert len(cases) > 500


def assert_decisions_match_cold_kernel(s, t, pair):
    """At every candidate threshold the must-match decision answers as the
    cold augmented kernel does."""
    Q, ax, ay = pdmetric.matching._cost_data(s, t, pair)
    for r in candidate_thresholds(s, t, pair):
        decided = augmented_matching(Q, ax, ay, r, decide=True)
        cold = augmented_matching(Q, ax, ay, r)
        assert np.all(decided >= 0) == np.all(cold >= 0), (pair.kind, s, t, r)


def with_multiplicities(diagram, pair, rng):
    return canonicalize([(q, k * int(rng.integers(1, 4))) for q, k in diagram.points], pair)


def test_must_match_decisions_match_cold_kernel():
    """Tie-heavy integer grids (sup plane, half-line, finite spaces), float
    draws (both planes, the half-line, finite spaces, a quotient pair),
    multiplicities and empty diagrams."""
    rng = np.random.default_rng(909)
    draws = 0
    last = None
    for grid in (False, True):
        for s, t, _, pair in reference_cases(rng, grid):
            if s is last:
                continue  # one check per draw, not per p
            last = s
            assert_decisions_match_cold_kernel(s, t, pair)
            assert_decisions_match_cold_kernel(with_multiplicities(s, pair, rng), t, pair)
            assert_decisions_match_cold_kernel(s, empty_diagram(pair), pair)
            assert_decisions_match_cold_kernel(empty_diagram(pair), t, pair)
            draws += 1
    assert draws > 400


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["sup", "euclidean", "half"]),
       st.lists(st.tuples(st.integers(0, 12), st.integers(1, 6), st.integers(1, 3)), max_size=7),
       st.lists(st.tuples(st.integers(0, 12), st.integers(1, 6), st.integers(1, 3)), max_size=7))
def test_must_match_decisions_match_cold_kernel_on_grids(kind, a, b):
    pair = halfline() if kind == "half" else PlaneDiagonal(1, kind)

    def diagram(points):
        if kind == "half":
            return canonicalize([(pair.point(float(x + g)), k) for x, g, k in points], pair)
        return canonicalize([(pair.point(float(x), float(x + g)), k) for x, g, k in points], pair)

    assert_decisions_match_cold_kernel(diagram(a), diagram(b), pair)


def finite_sup_pair(rng, k):
    coords = rng.uniform(0.0, 10.0, (k, 2))
    return FiniteExplicit(np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=-1), [k - 1])


@pytest.mark.parametrize("kind", ["sup", "euclidean", "half", "finite"])
def test_bottleneck_matches_cold_search_up_to_300_points(kind):
    """Value (to the bit) and witness of ``cold_bottleneck`` at 30, 120 and
    300 points per diagram; nine of these twelve solves make 7 to 16
    decisions.  The finite space has 40 points, so its diagrams carry
    multiplicities."""
    rng = np.random.default_rng(["sup", "euclidean", "half", "finite"].index(kind))
    if kind == "finite":
        pair = finite_sup_pair(rng, 40)
        off_A = pair.points_off_A()

        def draw(n):
            return canonicalize([off_A[i] for i in rng.integers(0, len(off_A), n).tolist()], pair)
    elif kind == "half":
        pair = halfline()

        def draw(n):
            return canonicalize([pair.point(x) for x in rng.uniform(0.0, 100.0, n).tolist()], pair)
    else:
        pair = PlaneDiagonal(1, kind)

        def draw(n):
            births, gaps = rng.uniform(0.0, 100.0, n).tolist(), rng.uniform(0.0, 10.0, n).tolist()
            return canonicalize([pair.point(b, b + g) for b, g in zip(births, gaps)], pair)
    for n in (30, 120, 300):
        s, t = draw(n), draw(n)
        value, witness = bottleneck(s, t, pair)
        want_value, want_witness = cold_bottleneck(s, t, pair)
        assert value.hex() == want_value.hex(), (kind, n)
        assert witness == want_witness, (kind, n)


# -- metric axioms --------------------------------------------------------------


def test_symmetry_and_triangle():
    rng = np.random.default_rng(29)
    pair = plane_sup()
    for _ in range(40):
        a = random_plane_diagram(pair, rng)
        b = random_plane_diagram(pair, rng)
        c = random_plane_diagram(pair, rng)
        for p in (1.0, 2.0, math.inf):
            def d(x, y):
                return wasserstein(x, y, p, pair)[0]

            assert d(a, b) == d(b, a)
            assert d(a, b) <= d(a, c) + d(c, b) + 1e-9
            assert d(a, a) == 0.0


def test_zero_distance_iff_equal():
    rng = np.random.default_rng(31)
    pair = plane_sup()
    for _ in range(30):
        a = random_plane_diagram(pair, rng)
        b = random_plane_diagram(pair, rng)
        for p in (1.0, math.inf):
            dist = wasserstein(a, b, p, pair)[0]
            assert (dist == 0.0) == (a == b)


# -- scaling and translation ------------------------------------------------------


# up to 8 integer-grid points (birth, death) with death > birth
grid_points = st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 20)), max_size=8)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["sup", "euclidean"]), grid_points, grid_points,
       st.integers(-6, 6), st.integers(-1000, 1000))
def test_values_scale_and_translate_exactly(norm, a, b, k, t):
    """Scaling every coordinate by 2^k scales bottleneck and W1 values by
    exactly 2^k, and the shift (b, d) -> (b + t, d + t) moves no bit: both
    maps commute with every rounding the solvers make on these inputs."""
    pair = PlaneDiagonal(1, norm)

    def diagram(points, scale=1.0, shift=0):
        return canonicalize([pair.point(scale * (x + shift), scale * (x + g + shift))
                             for x, g in points], pair)

    factor = 2.0**k
    for p in (math.inf, 1.0):  # p = inf is the bottleneck distance
        value = wasserstein(diagram(a), diagram(b), p, pair)[0]
        scaled = wasserstein(diagram(a, scale=factor), diagram(b, scale=factor), p, pair)[0]
        shifted = wasserstein(diagram(a, shift=t), diagram(b, shift=t), p, pair)[0]
        assert scaled == factor * value
        assert shifted == value


# -- p-norm structure ------------------------------------------------------------


def test_wasserstein_decreases_in_p_and_tends_to_bottleneck():
    pair = plane_sup()
    # one dominant pair, the rest at most 0.6 of its cost
    s = canonicalize(
        [pair.point(0.0, 10.0), pair.point(2.0, 4.0), pair.point(6.0, 7.0)], pair
    )
    t = canonicalize(
        [pair.point(0.5, 10.5), pair.point(2.2, 4.2), pair.point(6.0, 7.3)], pair
    )
    b = bottleneck(s, t, pair)[0]
    assert b == 0.5
    values = [wasserstein(s, t, p, pair)[0] for p in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)]
    for hi, lo in zip(values, values[1:]):
        assert hi >= lo - 1e-12
    assert values[-1] >= b
    assert values[-1] - b <= 1e-8


def test_value_recomputed_from_pairs():
    rng = np.random.default_rng(37)
    pair = plane_euclidean()
    for _ in range(15):
        s = random_plane_diagram(pair, rng)
        t = random_plane_diagram(pair, rng)
        for p in (1.0, 2.5):
            value, matching = wasserstein(s, t, p, pair)
            recomputed = math.fsum(sorted(q.cost**p for q in matching.pairs))
            expected = recomputed if p == 1.0 else recomputed ** (1.0 / p)
            assert value == expected


# -- serialization ----------------------------------------------------------------


def test_matching_json_round_trip():
    pair = plane_sup()
    s = canonicalize([pair.point(0.0, 10.0), pair.point(2.0, 4.0)], pair)
    t = canonicalize([pair.point(1.0, 11.0)], pair)
    value, matching = wasserstein(s, t, 2.0, pair)
    obj = matching_to_json(matching)
    assert obj["p"] == 2.0
    back = matching_from_json(obj, pair)
    assert back.value == value
    assert len(back.pairs) == len(matching.pairs)
    assert any(e["left"] == "A" or e["right"] == "A" for e in obj["pairs"])

    _, bmatch = bottleneck(s, t, pair)
    assert matching_to_json(bmatch)["p"] == "inf"
    assert matching_from_json(matching_to_json(bmatch), pair).p == math.inf


def test_matching_json_rejects_inconsistent_value():
    pair = plane_sup()
    s = canonicalize([pair.point(0.0, 10.0)], pair)
    _, matching = bottleneck(s, empty_diagram(pair), pair)
    obj = matching_to_json(matching)
    obj["value"] = obj["value"] + 1.0
    with pytest.raises(ParseError):
        matching_from_json(obj, pair)
    with pytest.raises(ParseError):
        matching_from_json("{not json", pair)
    with pytest.raises(ParseError):
        matching_from_json({"value": 0.0}, pair)


@pytest.mark.parametrize("obj", [
    {"pairs": [], "p": "nan"},
    {"pairs": [], "p": "-inf"},
    {"pairs": [], "p": None},
    {"pairs": [], "p": True},
    {"pairs": [], "p": "two"},
    {"pairs": [{"left": [0, 1], "right": "A", "cost": "inf"}]},
    {"pairs": [{"left": [0, 1], "right": "A", "cost": float("nan")}]},
    {"pairs": [{"left": [0, 1], "right": "A", "cost": -3}], "p": 2.5},
    {"pairs": [{"left": [0, 1], "right": "A", "cost": [1]}]},
    {"pairs": [{"left": [0, 1]}]},
    {"pairs": [{"left": 5, "right": "A", "cost": 1}]},
    {"pairs": [{"left": [0, 1, 2], "right": "A", "cost": 0.5}]},
    {"pairs": [{"left": [3, 1], "right": "A", "cost": 1}]},
    {"pairs": [None]},
    {"pairs": {"a": 1}},
    {"pairs": [{"left": [0, 1], "right": "A", "cost": 0.5}], "value": "half"},
    '{"pairs": [{"left": [0, 1], "right": "A", "cost": NaN}]}',
    {"pairs": [{"left": "12", "right": "A", "cost": 1}]},
    {"pairs": [{"left": {"1": 0, "5": 0}, "right": "A", "cost": 1}]},
    {"pairs": [{"left": [True, 2], "right": "A", "cost": 1}]},
    {"pairs": [{"left": "A", "right": [0, 10**400], "cost": 1}]},
    {"pairs": [{"left": [0, 1], "right": "A", "cost": 10**400}]},
    {"pairs": [], "value": 10**400},
    {"pairs": [], "p": 10**400},
    pytest.param('{"pairs": [], "p": %s}' % ("1" * 401), id="p-401-digits-text"),
    pytest.param('{"pairs": %s}' % ("[" * 10_000 + "]" * 10_000), id="nested-text"),
    pytest.param(b'{"pairs": [], "p": "\xff"}', id="bytes-not-utf8"),
])
def test_matching_json_errors_are_typed(obj):
    with pytest.raises(ParseError):
        matching_from_json(obj, plane_sup())


def test_matching_json_infinite_finite_index_is_typed():
    """An infinite index into a finite space is a ParseError, like every
    malformed field, not an OverflowError from int()."""
    fin = FiniteExplicit([[0.0, 1.0], [1.0, 0.0]], [1])
    for end in ([1e999], [-1e999], [float("nan")]):
        with pytest.raises(ParseError):
            matching_from_json({"pairs": [{"left": end, "right": "A", "cost": 1}]}, fin)
    with pytest.raises(ParseError):
        matching_from_json('{"pairs": [{"left": "A", "right": [1e999], "cost": 1}]}', fin)


def test_matching_json_accepts_infinite_p_spellings():
    pair = plane_sup()
    pairs = [{"left": [0, 1], "right": "A", "cost": 0.5}]
    for p in ("inf", float("inf"), "Infinity"):
        assert matching_from_json({"pairs": pairs, "p": p}, pair).p == math.inf
    assert matching_from_json('{"pairs": [], "p": Infinity}', pair).p == math.inf
    assert matching_from_json({"pairs": pairs, "p": 2, "value": 0.5}, pair).value == 0.5
