"""Geodesic construction, parametrization identities, and the sup-cube
truncation gaps."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmetric import (
    BASEPOINT,
    DiagramPath,
    FiniteExplicit,
    GoodnessReason,
    HalfLineOrigin,
    NoGeodesicOracle,
    ParseError,
    PlaneDiagonal,
    QuotientOf,
    Route,
    TooLarge,
    Verdict,
    bottleneck,
    c0_truncation_gap,
    canonicalize,
    empty_diagram,
    geodesic_between,
    goodness,
    midpoint_check,
    quotient_distance,
    quotient_geodesic,
    wasserstein,
)
from pdmetric.geodesics import _grid_check

from conftest import halfline, plane_sup, random_finite_pair, random_plane_diagram


# -- goodness ------------------------------------------------------------------


def test_goodness_cases():
    pair = plane_sup()
    x = pair.point(0.0, 4.0)
    y = pair.point(1.0, 5.0)
    cert = goodness(pair, x, y)
    assert cert.verdict and cert.reason is GoodnessReason.CLOSE_PAIR

    far = pair.point(10.0, 12.0)
    near = pair.point(0.0, 2.0)
    cert = goodness(pair, near, far)
    assert not cert.verdict and cert.reason is GoodnessReason.NOT_GOOD

    assert goodness(pair, x, BASEPOINT).reason is GoodnessReason.BASEPOINT_TARGET
    assert goodness(pair, BASEPOINT, y).verdict

    hl = halfline()
    # on the half line |x - y| < max(x, y) whenever both are off A
    assert goodness(hl, hl.point(3.0), hl.point(7.0)).verdict


_SYMMETRY_PAIRS = (
    PlaneDiagonal(1, "sup"),
    PlaneDiagonal(1, "euclidean"),
    PlaneDiagonal(2, "euclidean"),
    HalfLineOrigin(),
    random_finite_pair(np.random.default_rng(11)),
    QuotientOf(PlaneDiagonal(1, "sup")),
)


def _points_of(pair):
    if isinstance(pair, FiniteExplicit):
        return st.integers(0, pair.size - 1).map(lambda i: pair.point(float(i)))
    if isinstance(pair, HalfLineOrigin):
        return st.floats(0.0, 20.0).map(pair.point)
    blocks = st.tuples(st.floats(-20.0, 20.0), st.floats(0.0, 20.0))
    pts = st.lists(blocks, min_size=pair.dim // 2, max_size=pair.dim // 2).map(
        lambda bg: pair.point(*[c for b, g in bg for c in (b, b + g)])
    )
    if isinstance(pair, QuotientOf):
        return st.one_of(st.just(BASEPOINT), pts)
    return pts


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_goodness_verdict_is_symmetric(data):
    # quotient distance and max(d(x, A), d(y, A)) are symmetric, so a leg
    # never needs its swapped certificate
    pair = data.draw(st.sampled_from(_SYMMETRY_PAIRS))
    x = data.draw(_points_of(pair))
    y = data.draw(_points_of(pair))
    assert goodness(pair, x, y).verdict == goodness(pair, y, x).verdict


_ROUTING_PAIRS = (
    PlaneDiagonal(1, "sup"),
    PlaneDiagonal(1, "euclidean"),
    PlaneDiagonal(2, "sup"),
    HalfLineOrigin(),
    QuotientOf(PlaneDiagonal(1, "euclidean")),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_legs_follow_reference_rule(data):
    # the reference: a leg between two points reroutes through A when the
    # pair is at least as far apart as it is from A and the detour fits
    # the path's speed budget; legs touching A always go through A
    pair = data.draw(st.sampled_from(_ROUTING_PAIRS))
    diagrams = [canonicalize(data.draw(st.lists(_points_of(pair), max_size=4)), pair)
                for _ in range(2)]
    path = geodesic_between(*diagrams, pair)
    for leg in path.legs:
        x, y = leg.left, leg.right
        if BASEPOINT in (x, y):
            assert leg.route is Route.THROUGH_A
            continue
        ax, ay = pair.dist_to_A(x), pair.dist_to_A(y)
        reroute = pair.dist(x, y) >= max(ax, ay) and ax + ay <= path.value
        assert leg.route is (Route.THROUGH_A if reroute else Route.DIRECT)
    # a witness pairs two points only when that beats the route through A
    for p in (math.inf, 1.0, 2.0):
        _, matching = wasserstein(*diagrams, p, pair)
        for q in matching.pairs:
            if BASEPOINT not in (q.left, q.right):
                assert q.cost < pair.dist_to_A(q.left) + pair.dist_to_A(q.right)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_goodness_matches_scalar_reference(data):
    # the batch certificate against the scalar formula it replaced:
    # good when min(d(x, y), d(x, A) + d(y, A)) < max(d(x, A), d(y, A))
    pair = data.draw(st.sampled_from(_SYMMETRY_PAIRS))
    x = data.draw(_points_of(pair))
    y = data.draw(_points_of(pair))
    cert = goodness(pair, x, y)
    if BASEPOINT in (x, y):
        assert cert.verdict and cert.reason is GoodnessReason.BASEPOINT_TARGET
        return
    ax, ay = pair.dist_to_A(x), pair.dist_to_A(y)
    good = quotient_distance(pair, x, y) < max(ax, ay)
    assert cert.verdict is good
    assert cert.reason is (GoodnessReason.CLOSE_PAIR if good else GoodnessReason.NOT_GOOD)


@pytest.mark.parametrize("pair", [PlaneDiagonal(1, "sup"), PlaneDiagonal(1, "euclidean"),
                                  QuotientOf(PlaneDiagonal(1, "sup"))], ids=lambda p: p.space_id)
def test_geodesic_makes_no_scalar_queries(pair, monkeypatch):
    """Legs read the distances to A that one batch query gave them: building
    a path and evaluating its frames asks the pair no scalar distance, and
    each leg carries the scalar answers."""
    rng = np.random.default_rng(21)
    inner = pair.inner if isinstance(pair, QuotientOf) else pair

    def diagram():
        d = random_plane_diagram(inner, rng, max_points=8)
        return canonicalize([pair.point(*p.coords) for p in d.iter_points()], pair)

    cases = [(diagram(), diagram()) for _ in range(20)]
    want = [[tuple(0.0 if q is BASEPOINT else pair.dist_to_A(q) for q in (mp.left, mp.right))
             for mp in bottleneck(s, t, pair)[1].pairs] for s, t in cases]

    def no_scalar(*args):
        raise AssertionError("scalar distance query")

    # the pair's own scalar queries; a quotient's geodesic oracle may still
    # ask its inner pair
    monkeypatch.setattr(type(pair), "dist_to_A", no_scalar)
    monkeypatch.setattr(type(pair), "dist", no_scalar)
    for (s, t), to_A in zip(cases, want):
        path = geodesic_between(s, t, pair)
        assert [(leg.left_to_A, leg.right_to_A) for leg in path.legs] == to_A
        for k in range(5):
            path.at(k / 4)


# -- path construction -----------------------------------------------------------


def test_direct_leg_frames():
    pair = plane_sup()
    s = canonicalize([pair.point(0.0, 4.0)], pair)
    t = canonicalize([pair.point(1.0, 5.0)], pair)
    path = geodesic_between(s, t, pair)
    assert path.value == 1.0
    assert [leg.route for leg in path.legs] == [Route.DIRECT]
    assert path.at(0.0) == s
    assert path.at(1.0) == t
    mid = path.at(0.5)
    assert list(mid.iter_points()) == [pair.point(0.5, 4.5)]
    with pytest.raises(ValueError):
        path.at(1.5)


def test_death_leg_slides_to_projection():
    pair = plane_sup()
    s = canonicalize([pair.point(0.0, 4.0)], pair)
    path = geodesic_between(s, empty_diagram(pair), pair)
    assert path.value == 2.0
    mid = path.at(0.5)
    assert list(mid.iter_points()) == [pair.point(1.0, 3.0)]
    assert path.at(1.0).is_empty


def test_birth_leg_grows_from_projection():
    pair = plane_sup()
    t = canonicalize([pair.point(0.0, 4.0)], pair)
    path = geodesic_between(empty_diagram(pair), t, pair)
    assert path.at(0.0).is_empty
    assert list(path.at(0.5).iter_points()) == [pair.point(1.0, 3.0)]
    assert path.at(1.0) == t


def test_far_pair_rerouted_through_A():
    pair = plane_sup()
    s = canonicalize([pair.point(0.0, 2.0)], pair)
    t = canonicalize([pair.point(10.0, 12.0)], pair)
    path = geodesic_between(s, t, pair)
    assert path.value == 1.0
    assert all(leg.route is Route.THROUGH_A for leg in path.legs)
    assert path.at(0.0) == s
    assert path.at(1.0) == t
    mid = path.at(0.5)
    assert mid == canonicalize([pair.point(0.5, 1.5), pair.point(10.5, 11.5)], pair)
    report = midpoint_check(s, t, pair)
    assert report.verdict is Verdict.WITNESSED


def test_through_A_leg_ends_exactly_at_target():
    # the second leg's parameter (t * (ax + ay) - ax) / ay rounds above 1
    # at t = 1 for these points; the path must still reach tau
    pair = plane_sup()
    x, y = pair.point(1.6, 4.0), pair.point(1.2, 2.8)
    s = canonicalize([x, pair.point(7.4, 8.6)], pair)
    t = canonicalize([y, pair.point(3.4, 8.7)], pair)
    path = geodesic_between(s, t, pair)
    assert any(leg.left == x and leg.route is Route.THROUGH_A for leg in path.legs)
    assert path.at(1.0) == t
    assert quotient_geodesic(pair, x, y, 1.0) == y


def test_geodesic_requires_oracles():
    rng = np.random.default_rng(5)
    pair = random_finite_pair(rng)
    d = empty_diagram(pair)
    with pytest.raises(NoGeodesicOracle):
        geodesic_between(d, d, pair)


# -- parametrization -------------------------------------------------------------


def test_midpoint_check_random_plane():
    rng = np.random.default_rng(41)
    pair = plane_sup()
    for _ in range(8):
        s = random_plane_diagram(pair, rng, max_points=4)
        t = random_plane_diagram(pair, rng, max_points=4)
        report = midpoint_check(s, t, pair, grid=7)
        assert report.verdict is Verdict.WITNESSED, report.witnesses
        assert report.witnesses["max_deviation"] <= 1e-9


def test_midpoint_check_halfline():
    rng = np.random.default_rng(43)
    hl = halfline()
    for _ in range(8):
        s = canonicalize(
            [hl.point(float(rng.uniform(0, 10))) for _ in range(int(rng.integers(0, 5)))], hl
        )
        t = canonicalize(
            [hl.point(float(rng.uniform(0, 10))) for _ in range(int(rng.integers(0, 5)))], hl
        )
        report = midpoint_check(s, t, hl, grid=7)
        assert report.verdict is Verdict.WITNESSED, report.witnesses


def test_midpoint_check_grid_validation():
    pair = plane_sup()
    s = empty_diagram(pair)
    with pytest.raises(ValueError):
        midpoint_check(s, s, pair, grid=1)


SHIFTS = [0.0, 1e8, 1e9, 1e12, 2.0**30, 2.0**40, 2.0**50]


def shifted_pair(s: float, pair):
    """A one-point geodesic near births s: the point (s, s + 4D) moves to
    (s + D, s + 5D), a direct leg of length D = max(1, s / 1024)."""
    D = max(1.0, s / 1024)
    sigma = canonicalize([pair.point(s, s + 4 * D)], pair)
    tau = canonicalize([pair.point(s + D, s + 5 * D)], pair)
    return sigma, tau, D


@pytest.mark.parametrize("norm", ["sup", "euclidean"])
@pytest.mark.parametrize("s", SHIFTS)
def test_midpoint_check_witnesses_geodesics_far_from_the_origin(s, norm):
    """Frames of a correct geodesic deviate by the rounding of coordinates
    near s, about one ulp of s; the check allows a few ulps of them."""
    pair = PlaneDiagonal(1, norm)
    for sigma, tau in [shifted_pair(s, pair)[:2],
                       (canonicalize([pair.point(s, s + 1.0)], pair),
                        canonicalize([pair.point(s + 0.5, s + 2.0)], pair))]:
        report = midpoint_check(sigma, tau, pair)
        assert report.verdict is Verdict.WITNESSED, report.witnesses


@pytest.mark.parametrize("s", SHIFTS)
def test_midpoint_check_refutes_a_frame_displaced_by_a_millionth(s):
    """Moving each inner frame's birth by 1e-6 of the distance is still
    refuted, however far from the origin the geodesic lies."""
    pair = plane_sup()
    sigma, tau, D = shifted_pair(s, pair)
    path = geodesic_between(sigma, tau, pair)
    assert path.value == D

    class Displaced(DiagramPath):
        def at(self, t):
            frame = super().at(t)
            if 0.0 < t < 1.0:
                (b, d), = frame.coords.tolist()
                frame = canonicalize([pair.point(b + 1e-6 * D, d)], pair)
            return frame

    displaced = Displaced(**{f.name: getattr(path, f.name) for f in fields(path)})
    _, report = _grid_check(displaced, 10)
    assert report.verdict is Verdict.REFUTED
    assert report.witnesses["max_deviation"] >= 0.9e-6 * D


def test_constant_speed_along_path():
    pair = plane_sup()
    s = canonicalize([pair.point(0.0, 10.0), pair.point(2.0, 4.0)], pair)
    t = canonicalize([pair.point(1.0, 11.0)], pair)
    path = geodesic_between(s, t, pair)
    base = path.value
    ts = [i / 10 for i in range(11)]
    for a, b in zip(ts, ts[1:]):
        seg = bottleneck(path.at(a), path.at(b), pair)[0]
        assert abs(seg - (b - a) * base) <= 1e-9


# -- sup-cube truncation gaps ------------------------------------------------------


def test_c0_gap_values():
    gap2, report2 = c0_truncation_gap(2)
    assert gap2 == 1.5
    assert report2.verdict is Verdict.WITNESSED
    assert report2.witnesses["even_size"] == 1
    assert report2.witnesses["odd_size"] == 2
    assert report2.witnesses["min_cross_distance"] > 1.0
    assert report2.witnesses["min_dist_to_A"] > 1.0

    gap3, _ = c0_truncation_gap(3)
    assert gap3 == 1.0 + 1.0 / 3.0


def test_c0_subset_vectors_follow_the_enumerated_definition():
    """Row ``mask`` of the subset array is the vector of F = the set bits
    of mask (coordinate i is 1 + 1/(i+1) when bit i is set), bit for bit,
    and the parity split is that of |F|."""
    from pdmetric.geodesics import _subset_vectors

    for m in range(1, 7):
        V, odd = _subset_vectors(m)
        masks = range(1 << m)
        want = [[1.0 + 1.0 / (i + 1) if (mask >> i) & 1 else 0.0 for i in range(m)]
                for mask in masks]
        assert V.dtype == np.float64 and V.tobytes() == np.array(want).tobytes()
        assert odd.tolist() == [bin(mask).count("1") % 2 == 1 for mask in masks]


def test_c0_gap_monotone_above_limit():
    gaps = [c0_truncation_gap(m)[0] for m in range(2, 7)]
    for g in gaps:
        assert g > 1.0
    for hi, lo in zip(gaps, gaps[1:]):
        assert hi > lo


def test_c0_gap_bounds():
    with pytest.raises(ValueError):
        c0_truncation_gap(0)
    with pytest.raises(TooLarge):
        c0_truncation_gap(13)


def test_c0_gap_reads_m_as_an_integer():
    """m follows the descriptor's integer rule, not int()'s truncation: a
    fraction or a boolean is a ParseError, an integral value is read
    exactly and reported as an int."""
    for bad in (11.5, 2.5, True, np.True_, np.float64(3.5)):
        with pytest.raises(ParseError, match="m must be an integer"):
            c0_truncation_gap(bad)
    for good in (4.0, np.int64(4), np.float64(4.0)):
        gap, report = c0_truncation_gap(good)
        assert gap == 1.25
        assert type(report.witnesses["m"]) is int and report.witnesses["m"] == 4


def test_c0_costs_from_subset_masks_equal_the_sup_norm_costs():
    """The uint8 ranks (R, rax, ray) of the c0 gap index its value table
    to the (Q, ax, ay) of ``matching._cost_data`` bit for bit, for every m
    the gap accepts."""
    from pdmetric.diagram import _canonical
    from pdmetric.geodesics import _subset_ranks, _subset_vectors
    from pdmetric.matching import _cost_data
    from pdmetric.spaces import SupCubeTruncatedC0

    for m in range(1, 13):
        space = SupCubeTruncatedC0(m)
        V, odd = _subset_vectors(m)
        sigma = _canonical(V[~odd], [1] * (len(V) // 2), space)
        tau = _canonical(V[odd], [1] * (len(V) // 2), space)
        R, rax, ray, values = _subset_ranks(sigma.coords, tau.coords, space)
        assert R.dtype == rax.dtype == ray.dtype == np.uint8, m
        assert values.tolist() == sorted(set(values.tolist())) and len(values) == m + 1, m
        for g, w in zip((values[R], values[rax], values[ray]), _cost_data(sigma, tau, space)):
            assert g.dtype == w.dtype == np.float64 and g.shape == w.shape, m
            assert np.array_equal(g.view(np.int64), w.view(np.int64)), m


def test_c0_ranks_refuse_costs_outside_their_table():
    """The ranks hold only when every distance to A is an entry of the
    table and every route through A costs more than the largest entry;
    points that are no subset vectors break both, and the ranks raise
    rather than mislabel a cost."""
    from pdmetric.geodesics import _subset_ranks
    from pdmetric.spaces import SupCubeTruncatedC0

    space = SupCubeTruncatedC0(2)
    near_x = canonicalize([space.point(0.5, 0.0)], space)
    near_y = canonicalize([space.point(0.0, 0.5)], space)
    with pytest.raises(ArithmeticError, match="reaches the route through A"):
        _subset_ranks(near_x.coords, near_y.coords, space)
    with pytest.raises(ArithmeticError, match="not a subset distance"):
        _subset_ranks(near_x.coords, empty_diagram(space).coords, space)


def test_c0_gap_peaks_near_its_cost_matrix():
    """A repeated ``c0_truncation_gap(11)`` peaks within 3.2 MiB of traced
    memory: the 1024 x 1024 cost matrix holds uint8 ranks (1 MiB; float64
    costs took 8 MiB), the masks fill it in row blocks with two reused
    int16 buffers, and the search's boolean matrix {R <= r} is 1 MiB
    more.  No n x m float array is built."""
    c0_truncation_gap(11)
    tracemalloc.start()
    try:
        c0_truncation_gap(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * (1 << 20)
