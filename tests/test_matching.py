"""Solver behavior: frozen examples, oracle agreement, metric axioms,
p-norm structure, and the serialization of matchings."""

import math

import numpy as np
import pytest

from pdmetric import (
    BASEPOINT,
    BasepointTag,
    Matching,
    ParseError,
    PlaneDiagonal,
    TooLarge,
    bottleneck,
    brute_force_dp,
    candidate_thresholds,
    canonicalize,
    empty_diagram,
    feasible_at_threshold,
    matching_from_json,
    matching_to_json,
    total_persistence,
    wasserstein,
)
from pdmetric.matching import p_norm

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
    """The witness reuses the search's last feasible matching instead of
    running the kernel again at the final threshold."""
    import pdmetric.matching as pm

    seen = []
    kernel = pm.augmented_matching

    def counting(Q, ax, ay, r):
        seen.append(r)
        return kernel(Q, ax, ay, r)

    monkeypatch.setattr(pm, "augmented_matching", counting)
    rng = np.random.default_rng(17)
    for pair in (plane_sup(), plane_euclidean()):
        for _ in range(40):
            s = random_plane_diagram(pair, rng, max_points=8)
            t = random_plane_diagram(pair, rng, max_points=8)
            seen.clear()
            value, _ = bottleneck(s, t, pair)
            assert len(seen) == len(set(seen)), seen
            assert value in candidate_thresholds(s, t, pair)


def test_overflowing_cost_powers_raise_too_large():
    pair = plane_sup()
    huge = canonicalize([pair.point(0.0, 1e200)], pair)
    with pytest.raises(TooLarge):
        wasserstein(huge, empty_diagram(pair), 2.0, pair)
    with pytest.raises(TooLarge):
        brute_force_dp(huge, empty_diagram(pair), 2.0, pair)
    # each power is finite, their sum is not
    with pytest.raises(TooLarge):
        p_norm([1e154, 1e154], 2.0)
    with pytest.raises(TooLarge):
        matching_from_json({"pairs": [{"left": [0.0, 1e200], "right": "A", "cost": 5e199}],
                            "p": 2.0}, pair)
    # the same diagrams stay solvable where the powers fit
    assert wasserstein(huge, empty_diagram(pair), 1.0, pair)[0] == 5e199
    assert bottleneck(huge, empty_diagram(pair), pair)[0] == 5e199


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
    s = canonicalize([pair.point(0.0, 4.0), pair.point(1.0, 5.0)], pair)
    t = canonicalize([pair.point(2.0, 6.0), pair.point(3.0, 7.0)], pair)
    with pytest.raises(TooLarge):
        bottleneck(s, t, pair, max_nodes=3)
    with pytest.raises(TooLarge):
        wasserstein(s, t, 2.0, pair, max_nodes=3)
    big = canonicalize([(pair.point(0.0, 4.0), 11)], pair)
    with pytest.raises(TooLarge):
        brute_force_dp(big, t, 1.0, pair)


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


def test_solvers_match_brute_force():
    for pair, gen in spaces_and_generators():
        for _ in range(25):
            s = gen(pair)
            t = gen(pair)
            for p in (1.0, 2.0, 3.0):
                ours = wasserstein(s, t, p, pair)[0]
                ref = brute_force_dp(s, t, p, pair)[0]
                assert ours == ref, (pair.kind, p, s, t)
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
])
def test_matching_json_errors_are_typed(obj):
    with pytest.raises(ParseError):
        matching_from_json(obj, plane_sup())


def test_matching_json_accepts_infinite_p_spellings():
    pair = plane_sup()
    pairs = [{"left": [0, 1], "right": "A", "cost": 0.5}]
    for p in ("inf", float("inf"), "Infinity"):
        assert matching_from_json({"pairs": pairs, "p": p}, pair).p == math.inf
    assert matching_from_json('{"pairs": [], "p": Infinity}', pair).p == math.inf
    assert matching_from_json({"pairs": pairs, "p": 2, "value": 0.5}, pair).value == 0.5
