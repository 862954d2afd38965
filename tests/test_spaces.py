"""Metric pair descriptors: distances, projections, geodesics, quotients."""

import copy
import json
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmetric import (
    BASEPOINT,
    EUCLIDEAN,
    SUP,
    BasepointTag,
    FiniteExplicit,
    HalfLineOrigin,
    InvalidMetric,
    NoGeodesicOracle,
    ParseError,
    PlaneDiagonal,
    Point,
    QuotientOf,
    SpaceMismatch,
    SupCubeTruncatedC0,
    c0_truncation_gap,
    canonicalize,
    dense_family,
    greedy_eps_net,
    midpoint_check,
    quotient_distance,
    quotient_geodesic,
    space_from_json,
    vanishing_pair_demo,
)

finite_coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def plane_point(pair, b, g):
    return pair.point(b, b + abs(g))


# -- basics ------------------------------------------------------------------


def test_basepoint_is_singleton():
    assert BasepointTag() is BASEPOINT
    assert repr(BASEPOINT) == "A"


def test_basepoint_survives_copy_and_pickle():
    assert copy.copy(BASEPOINT) is BASEPOINT
    assert copy.deepcopy(BASEPOINT) is BASEPOINT
    assert copy.deepcopy([BASEPOINT, (BASEPOINT,)]) == [BASEPOINT, (BASEPOINT,)]
    assert pickle.loads(pickle.dumps(BASEPOINT)) is BASEPOINT


def test_point_validation_plane():
    pair = PlaneDiagonal()
    with pytest.raises(ValueError):
        pair.point(3.0, 1.0)
    with pytest.raises(ValueError):
        pair.point(1.0)
    with pytest.raises(ValueError):
        pair.point(math.nan, 1.0)
    p = pair.point(1.0, 4.0)
    assert p.coords == (1.0, 4.0)
    assert p.space_id == "plane2:sup"
    with pytest.raises(ValueError, match="n_pairs must be at least 1"):
        PlaneDiagonal(0)


def test_space_mismatch_detected():
    a = PlaneDiagonal(1, SUP)
    b = PlaneDiagonal(1, EUCLIDEAN)
    p = a.point(0.0, 1.0)
    with pytest.raises(SpaceMismatch):
        b.dist(p, p)
    with pytest.raises(SpaceMismatch):
        a.dist(p, BASEPOINT)


# -- frozen examples ---------------------------------------------------------


def test_plane_sup_quotient_distance_example():
    pair = PlaneDiagonal()
    x = pair.point(0.0, 4.0)
    y = pair.point(10.0, 14.0)
    assert pair.dist(x, y) == 10.0
    assert quotient_distance(pair, x, y) == 4.0


def test_plane_dist_to_A_both_norms():
    x_sup = PlaneDiagonal(1, SUP).point(0.0, 4.0)
    assert PlaneDiagonal(1, SUP).dist_to_A(x_sup) == 2.0
    pair_e = PlaneDiagonal(1, EUCLIDEAN)
    assert pair_e.dist_to_A(pair_e.point(0.0, 4.0)) == pytest.approx(
        4.0 / math.sqrt(2.0), rel=1e-15
    )


def test_plane_projection_example():
    for norm in (SUP, EUCLIDEAN):
        pair = PlaneDiagonal(1, norm)
        x = pair.point(0.0, 4.0)
        a = pair.proj_to_A(x)
        assert a.coords == (2.0, 2.0)
        assert pair.dist_to_A(a) == 0.0
        assert pair.dist(x, a) == pytest.approx(pair.dist_to_A(x), abs=1e-12)


def test_halfline_quotient_distance_example():
    hl = HalfLineOrigin()
    assert quotient_distance(hl, hl.point(3.0), hl.point(5.0)) == 2.0
    assert hl.dist_to_A(hl.point(3.0)) == 3.0
    assert hl.proj_to_A(hl.point(3.0)).coords == (0.0,)


def test_halfline_batch_distances_are_exact():
    # the half-line runs on the shared sup-norm vector code, which must
    # give |x - y| and x bit for bit
    hl = HalfLineOrigin()
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 1e3, (300, 1))
    ys = rng.uniform(0.0, 1e3, (257, 1))
    assert np.array_equal(hl.pairwise_dist(xs, ys), np.abs(xs - ys.T))
    assert np.array_equal(hl.dist_to_A_batch(xs), xs[:, 0])


def test_quotient_geodesic_direct_example():
    pair = PlaneDiagonal()
    g = quotient_geodesic(pair, pair.point(0.0, 2.0), pair.point(0.0, 4.0), 0.5)
    assert g.coords == (0.0, 3.0)


def test_quotient_geodesic_through_A_example():
    pair = PlaneDiagonal()
    x = pair.point(0.0, 2.0)
    y = pair.point(10.0, 12.0)
    assert quotient_geodesic(pair, x, y, 0.5) is BASEPOINT
    early = quotient_geodesic(pair, x, y, 0.25)
    # at arclength 0.5 along the leg from (0, 2) toward its projection (1, 1)
    assert early.coords == (0.5, 1.5)
    late = quotient_geodesic(pair, x, y, 0.75)
    assert late.coords == (10.5, 11.5)


def test_quotient_geodesic_endpoints():
    pair = PlaneDiagonal()
    x = pair.point(0.0, 4.0)
    y = pair.point(1.0, 5.0)
    assert quotient_geodesic(pair, x, y, 0.0) == x
    assert quotient_geodesic(pair, x, y, 1.0) == y
    with pytest.raises(ValueError):
        quotient_geodesic(pair, x, y, 1.5)


# -- metric axioms (property) -----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([SUP, EUCLIDEAN]),
    finite_coord, st.floats(0, 20), finite_coord, st.floats(0, 20),
    finite_coord, st.floats(0, 20),
)
def test_plane_metric_axioms(norm, b1, g1, b2, g2, b3, g3):
    pair = PlaneDiagonal(1, norm)
    x, y, z = (plane_point(pair, b, g) for b, g in ((b1, g1), (b2, g2), (b3, g3)))
    assert pair.dist(x, y) == pair.dist(y, x)
    assert pair.dist(x, x) == 0.0
    assert pair.dist(x, z) <= pair.dist(x, y) + pair.dist(y, z) + 1e-9
    # quotient metric satisfies the same axioms
    assert quotient_distance(pair, x, y) == quotient_distance(pair, y, x)
    assert (
        quotient_distance(pair, x, z)
        <= quotient_distance(pair, x, y) + quotient_distance(pair, y, z) + 1e-9
    )
    # dist_to_A is 1-Lipschitz
    assert abs(pair.dist_to_A(x) - pair.dist_to_A(y)) <= pair.dist(x, y) + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3), st.floats(0, 1))
def test_supcube_geodesic_constant_speed(coords, t):
    cube = SupCubeTruncatedC0(3)
    x = cube.point(*coords)
    y = cube.point(0.5, -1.0, 2.0)
    d = cube.dist(x, y)
    g = cube.geodesic(x, y, t)
    assert cube.dist(x, g) == pytest.approx(t * d, abs=1e-9)
    assert cube.dist(g, y) == pytest.approx((1 - t) * d, abs=1e-9)


def test_scalar_and_batch_distances_agree():
    rng = np.random.default_rng(5)
    for pair in (PlaneDiagonal(1, SUP), PlaneDiagonal(2, EUCLIDEAN), SupCubeTruncatedC0(4)):
        pts = []
        for _ in range(6):
            c = rng.uniform(0, 5, pair.dim)
            if pair.kind != "SupCubeTruncatedC0":
                c = np.sort(c.reshape(-1, 2), axis=1).ravel()
            pts.append(pair.point(*c))
        X = pair.coords_matrix(pts)
        D = pair.pairwise_dist(X, X)
        A = pair.dist_to_A_batch(X)
        for i, p in enumerate(pts):
            assert pair.dist_to_A(p) == A[i]
            for j, q in enumerate(pts):
                assert pair.dist(p, q) == D[i, j]


@pytest.mark.parametrize("norm", [SUP, EUCLIDEAN])
@pytest.mark.parametrize("dim", [1, 2, 11])
def test_blocked_pairwise_distances_are_bit_identical(norm, dim):
    """Row-blocked distances (the sup norm one coordinate at a time) equal
    one unblocked pass bit for bit, on inputs spanning several blocks of
    the real byte budget, with exact zeros, signed zeros and ties."""
    from pdmetric.spaces import _BLOCK_BYTES, _pairwise_norm

    rng = np.random.default_rng(dim)
    m = 300
    n = 3 * _BLOCK_BYTES // (8 * m) + 7
    xs = rng.uniform(-50.0, 50.0, (n, dim))
    ys = rng.uniform(-50.0, 50.0, (m, dim))
    ys[:5] = xs[:5]  # exact zeros
    xs[5:40] = np.round(xs[5:40])  # integer grids: tied coordinates and
    ys[5:40] = np.round(ys[5:40])  # differences tied across coordinates
    xs[40:60] = rng.choice([0.0, -0.0], (20, dim))
    ys[40:60] = rng.choice([0.0, -0.0], (20, dim))
    # the unblocked expression, evaluated 1000 rows at a time (each entry
    # reduces its own row of differences) to bound the test's memory
    want = np.empty((n, m))
    for s in range(0, n, 1000):
        diffs = xs[s : s + 1000, None, :] - ys[None, :, :]
        if norm == EUCLIDEAN:
            want[s : s + 1000] = np.sqrt((diffs * diffs).sum(axis=-1))
        else:
            want[s : s + 1000] = np.abs(diffs).max(axis=-1)
    got = _pairwise_norm(xs, ys, norm)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_quotient_costs_overwrite_their_input_bit_for_bit(monkeypatch):
    """_quotient_costs writes min(D, ax + ay) into D and returns D itself.
    Over eleven row blocks, with tied entries and signed zeros in D and in
    both distance-to-A vectors, it equals the two-temporary expression bit
    for bit."""
    from pdmetric.spaces import _quotient_costs

    n, m = 53, 17
    monkeypatch.setattr("pdmetric.spaces._BLOCK_BYTES", 5 * 8 * m)
    rng = np.random.default_rng(4)
    D, ax, ay = (rng.integers(0, 4, shape) * 0.5 for shape in ((n, m), n, m))
    for v in (D, ax, ay):
        v[rng.random(v.shape) < 0.3] = -0.0
    want = np.minimum(D, ax[:, None] + ay[None, :])
    got = _quotient_costs(D, ax, ay)
    assert got is D
    assert got.tobytes() == want.tobytes()


# -- products ----------------------------------------------------------------


def test_product_plane_dist_and_projection():
    pair = PlaneDiagonal(2, SUP)
    x = pair.point(0.0, 4.0, 1.0, 2.0)
    assert pair.dist_to_A(x) == 2.0  # worst block gap (4 - 0) / 2
    proj = pair.proj_to_A(x)
    assert proj.coords == (2.0, 2.0, 1.5, 1.5)
    y = pair.point(1.0, 5.0, 0.0, 6.0)
    assert pair.dist(x, y) == 4.0  # sup over coordinate differences


def test_product_plane_euclidean_dist_to_A():
    pair = PlaneDiagonal(2, EUCLIDEAN)
    x = pair.point(0.0, 2.0, 0.0, 4.0)
    # per-block contribution 2 * (half gap)^2: 2 * (1 + 4)
    assert pair.dist_to_A(x) == pytest.approx(math.sqrt(10.0), rel=1e-15)
    proj = pair.proj_to_A(x)
    assert pair.dist(x, proj) == pytest.approx(pair.dist_to_A(x), abs=1e-12)


# -- half line / sup cube ------------------------------------------------------


def test_halfline_rejects_negative():
    hl = HalfLineOrigin()
    with pytest.raises(ValueError):
        hl.point(-0.5)


def test_supcube_cap():
    with pytest.raises(ValueError):
        SupCubeTruncatedC0(13)
    assert SupCubeTruncatedC0(12).dim == 12


def test_dimension_arguments_are_read_as_integers():
    """The sup cube's m and the plane's n_pairs follow the descriptor's
    integer rule, not int()'s truncation."""
    for bad in (2.5, True, np.True_, np.float64(1.5)):
        with pytest.raises(ParseError, match="m must be an integer"):
            SupCubeTruncatedC0(bad)
    for bad in (1.5, True, np.float64(2.5)):
        with pytest.raises(ParseError, match="n_pairs must be an integer"):
            PlaneDiagonal(bad)
    for good in (4.0, np.int64(4)):
        assert SupCubeTruncatedC0(good) == SupCubeTruncatedC0(4)
        assert SupCubeTruncatedC0(good).dim == 4 and type(SupCubeTruncatedC0(good).dim) is int
        assert PlaneDiagonal(good) == PlaneDiagonal(4)
        assert PlaneDiagonal(good).dim == 8 and type(PlaneDiagonal(good).n_pairs) is int


def _dense_family_n(v):
    hl = HalfLineOrigin()
    samples = [hl.point(float(x)) for x in np.arange(0.0625, 5.0, 0.0625)]
    return dense_family(hl, v, greedy_eps_net(hl, 0.125, 4.5, 0.125, samples)).n


def _vanishing_pair_n_max(v):
    pair = PlaneDiagonal()
    tail = [pair.point(1.0 / k, 4.0 + 1.0 / k) for k in range(1, 9)]
    return len(vanishing_pair_demo(pair, pair.point(0.0, 4.0), tail, n_max=v).numeric_trace)


def _midpoint_check_grid(v):
    pair = PlaneDiagonal()
    s = canonicalize([pair.point(0.0, 4.0)], pair)
    t = canonicalize([pair.point(1.0, 5.0)], pair)
    return midpoint_check(s, t, pair, grid=v).witnesses["grid"]


def _finite_A_index(v):
    return FiniteExplicit([[float(r != c) for c in range(5)] for r in range(5)], [v]).A_indices[0]


def _mult(v):
    pair = PlaneDiagonal()
    return canonicalize([(pair.point(0.0, 4.0), v)], pair).mults[0]


# every reader of an integer argument or descriptor field: the name its
# message gives, and a call returning the int it read from the value
INTEGER_READERS = [
    pytest.param("n_pairs", lambda v: PlaneDiagonal(v).n_pairs, id="PlaneDiagonal"),
    pytest.param("m", lambda v: SupCubeTruncatedC0(v).dim, id="SupCubeTruncatedC0"),
    pytest.param("A index", _finite_A_index, id="FiniteExplicit"),
    pytest.param("dim", lambda v: space_from_json({"kind": "SupCubeTruncatedC0", "dim": v}).dim,
                 id="space_from_json"),
    pytest.param("m", lambda v: c0_truncation_gap(v)[1].witnesses["m"], id="c0_truncation_gap"),
    pytest.param("multiplicities", _mult, id="canonicalize"),
    pytest.param("n", _dense_family_n, id="dense_family"),
    pytest.param("n_max", _vanishing_pair_n_max, id="vanishing_pair_demo"),
    pytest.param("grid", _midpoint_check_grid, id="midpoint_check"),
]


@pytest.mark.parametrize("bad", [Fraction(7, 2), Fraction(4), Decimal("4"), "4", 3.5, True],
                         ids=repr)
@pytest.mark.parametrize("name, read", INTEGER_READERS)
def test_every_integer_reader_refuses_what_is_not_an_integer(name, read, bad):
    """One rule reads every integer: a Fraction, a Decimal or a text is
    refused even when its value is whole, not truncated by int()."""
    with pytest.raises(ParseError, match=f"^{name} must be an integer, got "):
        read(bad)


@pytest.mark.parametrize("good", [4, 4.0, np.int64(4), np.float64(4.0)], ids=repr)
@pytest.mark.parametrize("name, read", INTEGER_READERS)
def test_every_integer_reader_reads_whole_numbers(name, read, good):
    got = read(good)
    assert got == 4 and type(got) is int


# -- finite explicit -----------------------------------------------------------


def good_matrix():
    return [[0.0, 2.0, 5.0], [2.0, 0.0, 4.0], [5.0, 4.0, 0.0]]


def test_finite_explicit_basics():
    fin = FiniteExplicit(good_matrix(), [2])
    p0 = fin.point(0)
    p1 = fin.point(1)
    assert fin.dist(p0, p1) == 2.0
    assert fin.dist_to_A(p0) == 5.0
    assert fin.proj_to_A(p0).coords == (2.0,)
    assert [p.coords[0] for p in fin.points_off_A()] == [0.0, 1.0]
    with pytest.raises(NoGeodesicOracle):
        fin.geodesic(p0, p1, 0.5)
    with pytest.raises(NoGeodesicOracle):
        quotient_geodesic(fin, p0, p1, 0.5)
    q = QuotientOf(fin)
    with pytest.raises(NoGeodesicOracle):
        q.geodesic(q.point(0), q.point(1), 0.5)


def test_finite_explicit_validation():
    with pytest.raises(InvalidMetric):
        FiniteExplicit([[0.0, 1.0], [2.0, 0.0]], [0])  # asymmetric
    with pytest.raises(InvalidMetric):
        FiniteExplicit([[0.0, 1.0], [1.0, 0.5]], [0])  # nonzero diagonal
    with pytest.raises(InvalidMetric):
        FiniteExplicit([[0.0, 9.0, 1.0], [9.0, 0.0, 1.0], [1.0, 1.0, 0.0]], [0])
    with pytest.raises(InvalidMetric):
        FiniteExplicit(good_matrix(), [])  # empty A
    with pytest.raises(InvalidMetric):
        FiniteExplicit(good_matrix(), [5])  # A out of range
    with pytest.raises(InvalidMetric, match="square"):
        FiniteExplicit([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]], [0])
    with pytest.raises(InvalidMetric, match="nonempty"):
        FiniteExplicit(np.empty((0, 0)), [0])
    with pytest.raises(InvalidMetric, match="finite"):
        FiniteExplicit([[0.0, math.inf], [math.inf, 0.0]], [0])
    with pytest.raises(InvalidMetric, match="nonnegative"):
        FiniteExplicit([[0.0, -1.0], [-1.0, 0.0]], [0])
    # A indices follow the descriptor's integer rule, not int()'s truncation
    for bad in ([1.5], [True], [np.True_], [np.float64(0.5)], np.array([1.5], dtype=np.float32)):
        with pytest.raises(ParseError, match="A index must be an integer"):
            FiniteExplicit(good_matrix(), bad)
    for good in ([2.0], [np.int64(2)], [np.float64(2.0)]):
        assert FiniteExplicit(good_matrix(), good).A_indices == (2,)


def violates_triangle_per_k(M):
    """The one-k-at-a-time check the blocked one replaced."""
    tol = FiniteExplicit.TRIANGLE_TOL
    return any(np.any(M > M[:, k, None] + M[None, k, :] + tol) for k in range(len(M)))


def accepts(M):
    try:
        FiniteExplicit(M, [0])
    except InvalidMetric as e:
        assert str(e) == "triangle inequality violated"
        return False
    return True


def test_blocked_triangle_check_matches_the_per_k_loop():
    """Random symmetric matrices, and line metrics (tight triangles, with
    rounded sums off the integers) with one distance raised by about the
    tolerance: the check raises exactly when the per-k loop finds a
    violation."""
    rng = np.random.default_rng(41)
    tol = FiniteExplicit.TRIANGLE_TOL
    outcomes = []
    for k in (2, 3, 5, 8, 13, 40):
        for trial in range(30):
            if trial % 3 == 0:
                M = np.triu(rng.uniform(1.0, 10.0, (k, k)), 1)
            else:
                x = rng.uniform(0.0, 50.0, k)
                if trial % 3 == 2:
                    x = np.round(x)
                M = np.abs(x[:, None] - x[None, :])
                i, j = rng.choice(k, 2, replace=False)
                M[i, j] += tol * rng.choice([0.5, 1.0, 1.0 + 1e-6, 1.5, 4.0])
                M = np.triu(np.maximum(M, M.T), 1)
            M = M + M.T
            want = not violates_triangle_per_k(M)
            assert accepts(M) == want, M
            outcomes.append(want)
    assert 50 < sum(outcomes) < len(outcomes) - 50


def test_triangle_violation_in_the_last_block_is_found(monkeypatch):
    """With room for 3 values of k a block, a violation that only k = 9,
    alone in the last of four blocks, shows is still refused."""
    from pdmetric.spaces import _row_blocks

    n = 10
    monkeypatch.setattr("pdmetric.spaces._BLOCK_BYTES", 3 * 8 * n * n)
    assert [b.start for b in _row_blocks(n, n * n)] == [0, 3, 6, 9]
    M = np.full((n, n), 10.0)
    np.fill_diagonal(M, 0.0)
    M[0, 9] = M[9, 0] = M[1, 9] = M[9, 1] = 1.0
    M[0, 1] = M[1, 0] = 2.0
    assert accepts(M) and not violates_triangle_per_k(M)
    M[0, 1] = M[1, 0] = 2.0 + 1e-8  # above M[0, 9] + M[9, 1] + tol only
    assert violates_triangle_per_k(M)
    assert not any(np.any(M > M[:, k, None] + M[None, k, :] + FiniteExplicit.TRIANGLE_TOL)
                   for k in range(9))
    assert not accepts(M)


def test_finite_explicit_signed_zeros_give_one_space():
    """-0.0 and 0.0 spell the same metric, so they give one space_id and
    equal pairs."""
    neg = FiniteExplicit([[-0.0, 1.0], [1.0, 0.0]], [1])
    pos = FiniteExplicit([[0.0, 1.0], [1.0, 0.0]], [1])
    assert neg.space_id == pos.space_id
    assert neg == pos


def test_integral_descriptor_fields_are_read_exactly():
    """Integral numbers such as 4.0 stay accepted as integer fields;
    fractions and booleans are refused in tests/test_cli.py."""
    assert space_from_json({"kind": "HalfPlane2nDiagonal", "dim": 4.0}) == PlaneDiagonal(2)
    assert space_from_json({"kind": "SupCubeTruncatedC0", "dim": 3.0}) == SupCubeTruncatedC0(3)
    fin = space_from_json({"kind": "FiniteExplicit", "matrix": [[0, 1], [1, 0]], "A": [1.0]})
    assert fin.A_indices == (1,)


def test_coords_matrix_refuses_basepoint():
    q = QuotientOf(PlaneDiagonal())
    with pytest.raises(ValueError, match="BASEPOINT has no coordinates"):
        q.coords_matrix([BASEPOINT])
    with pytest.raises(ValueError):
        q.coords_matrix([q.point(0.0, 4.0), BASEPOINT])


# -- quotient wrapper -----------------------------------------------------------


def test_quotient_matches_quotient_distance():
    pair = PlaneDiagonal()
    q = QuotientOf(pair)
    x = q.point(0.0, 4.0)
    y = q.point(10.0, 14.0)
    assert q.dist(x, y) == 4.0
    assert q.dist(x, BASEPOINT) == 2.0
    assert q.dist(BASEPOINT, BASEPOINT) == 0.0
    assert q.dist_to_A(x) == 2.0
    assert q.proj_to_A(x) is BASEPOINT
    assert q.space_id == "quotient(plane2:sup)"


def deleted_quotient_dist(q, x, y):
    """The scalar formula QuotientOf.dist had before its scalar distances
    came from its batch formula; kept here only as the reference."""
    if isinstance(x, BasepointTag) and isinstance(y, BasepointTag):
        return 0.0
    if isinstance(x, BasepointTag):
        return q.inner.dist_to_A(q.lift(y))
    if isinstance(y, BasepointTag):
        return q.inner.dist_to_A(q.lift(x))
    return quotient_distance(q.inner, q.lift(x), q.lift(y))


# integers give ties d(x, y) = d(x, A) + d(y, A); tiny floats reach subnormals
tie_heavy_coord = st.one_of(
    st.integers(-4, 4).map(float),
    finite_coord,
    st.floats(-1e-300, 1e-300, allow_nan=False),
)


@st.composite
def quotient_pairs(draw):
    kind = draw(st.sampled_from(["plane", "product", "halfline", "supcube", "finite"]))
    if kind == "plane":
        return QuotientOf(PlaneDiagonal(1, draw(st.sampled_from([SUP, EUCLIDEAN]))))
    if kind == "product":
        return QuotientOf(PlaneDiagonal(2, draw(st.sampled_from([SUP, EUCLIDEAN]))))
    if kind == "halfline":
        return QuotientOf(HalfLineOrigin())
    if kind == "supcube":
        return QuotientOf(SupCubeTruncatedC0(draw(st.integers(1, 4))))
    # distances between points of a line: a metric with many ties
    line = draw(st.lists(st.one_of(st.integers(0, 6).map(float), st.floats(0, 50)),
                         min_size=2, max_size=5))
    matrix = [[abs(a - b) for b in line] for a in line]
    A = draw(st.lists(st.integers(0, len(line) - 1), min_size=1, max_size=len(line)))
    return QuotientOf(FiniteExplicit(matrix, A))


def draw_quotient_point(draw, q):
    if draw(st.integers(0, 3)) == 0:
        return BASEPOINT
    inner = q.inner
    if isinstance(inner, FiniteExplicit):
        return q.point(draw(st.integers(0, inner.size - 1)))
    coords = [draw(tie_heavy_coord) for _ in range(inner.dim)]
    if isinstance(inner, HalfLineOrigin):
        coords = [abs(c) for c in coords]
    if isinstance(inner, PlaneDiagonal):
        coords[1::2] = [b + abs(g) for b, g in zip(coords[0::2], coords[1::2])]
    return q.point(*coords)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_quotient_scalar_distances_match_the_deleted_formula(data):
    """QuotientOf answers dist and dist_to_A from its batch formula; on
    every inner kind, with BASEPOINT ends, ties and subnormal coordinates,
    the answers are bit for bit those of the scalar formula it replaced."""
    q = data.draw(quotient_pairs())
    x = draw_quotient_point(data.draw, q)
    y = draw_quotient_point(data.draw, q)
    for a, b in ((x, y), (y, x), (x, x)):
        assert q.dist(a, b).hex() == deleted_quotient_dist(q, a, b).hex()
    for a in (x, y):
        ref = 0.0 if isinstance(a, BasepointTag) else q.inner.dist_to_A(q.lift(a))
        assert q.dist_to_A(a).hex() == ref.hex()


def test_quotient_scalar_distance_is_its_batch_entry_at_signed_zeros():
    """A finite matrix may hold -0.0.  Every scalar quotient distance is
    the batch entry bit for bit, sign of zero included; a separate scalar
    formula picked the other zero of a tie."""
    fin = FiniteExplicit([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, 1.0, 0.0]], [0, 1])
    q = QuotientOf(fin)
    X = np.array([[0.0], [1.0], [2.0]])
    batch = q.pairwise_dist(X, X)
    for i in range(3):
        for j in range(3):
            assert q.dist(q.point(i), q.point(j)).hex() == float(batch[i, j]).hex()


def test_basepoint_outside_a_quotient_is_a_mismatch():
    pair = PlaneDiagonal()
    x = pair.point(0.0, 4.0)
    for call in (lambda: pair.dist(BASEPOINT, x), lambda: pair.dist(x, BASEPOINT),
                 lambda: pair.dist_to_A(BASEPOINT)):
        with pytest.raises(SpaceMismatch):
            call()


def test_quotient_geodesic_from_basepoint():
    pair = PlaneDiagonal()
    q = QuotientOf(pair)
    y = q.point(0.0, 4.0)
    assert q.geodesic(BASEPOINT, y, 0.0) is BASEPOINT
    mid = q.geodesic(BASEPOINT, y, 0.5)
    assert mid.coords == (1.0, 3.0)
    assert q.geodesic(BASEPOINT, y, 1.0) == y


def test_quotient_geodesic_between_basepoints():
    q = QuotientOf(PlaneDiagonal())
    for t in (0.0, 0.5, 1.0):
        assert q.geodesic(BASEPOINT, BASEPOINT, t) is BASEPOINT


def test_quotient_pair_geodesic_through_A():
    # the far pair of test_quotient_geodesic_through_A_example, on the
    # quotient pair: its midpoint is the basepoint itself
    q = QuotientOf(PlaneDiagonal())
    x, y = q.point(0.0, 2.0), q.point(10.0, 12.0)
    assert q.geodesic(x, y, 0.5) is BASEPOINT
    assert q.geodesic(x, y, 0.25) == q.point(0.5, 1.5)
    assert q.geodesic(x, y, 0.75) == q.point(10.5, 11.5)


def test_map_diagram_refuses_another_pair():
    q = QuotientOf(PlaneDiagonal())
    hl = HalfLineOrigin()
    with pytest.raises(SpaceMismatch, match="not over 'plane2:sup'"):
        q.map_diagram(canonicalize([hl.point(1.0)], hl))


def test_quotient_distance_idempotent_on_quotient():
    pair = PlaneDiagonal()
    q = QuotientOf(pair)
    x = q.point(0.0, 4.0)
    y = q.point(10.0, 14.0)
    assert quotient_distance(q, x, y) == q.dist(x, y)


@pytest.mark.parametrize(
    "pair, coords",
    [
        (PlaneDiagonal(1, SUP), (0.0, 1.0)),
        (PlaneDiagonal(2, EUCLIDEAN), (0.0, 1.0, -2.0, 3.0)),
        (HalfLineOrigin(), (1.5,)),
        (SupCubeTruncatedC0(3), (1.0, -2.0, 0.5)),
        (FiniteExplicit(good_matrix(), [2]), (1.0,)),
        (QuotientOf(PlaneDiagonal(1, EUCLIDEAN)), (0.0, 1.0)),
        (QuotientOf(FiniteExplicit(good_matrix(), [2])), (0.0,)),
    ],
    ids=["plane", "product", "halfline", "supcube", "finite", "quotient-plane",
         "quotient-finite"],
)
def test_one_point_rule_for_every_pair(pair, coords):
    """Every pair takes exactly dim finite coordinates: a wrong count and
    each of +inf, -inf and nan in any position raise ValueError."""
    assert pair.point(*coords).coords == coords
    for wrong in (coords + (0.0,), coords[:-1]):
        with pytest.raises(ValueError, match=f"expected {pair.dim} coordinates"):
            pair.point(*wrong)
    for k in range(len(coords)):
        for bad in (math.inf, -math.inf, math.nan):
            c = list(coords)
            c[k] = bad
            with pytest.raises(ValueError, match="coordinates must be finite"):
                pair.point(*c)


@pytest.mark.parametrize(
    "pair, X",
    [
        (PlaneDiagonal(1, SUP), [[0.0, 1.0], [2.0, 5.0], [-1.0, -1.0]]),
        (PlaneDiagonal(1, EUCLIDEAN), [[0.0, 1.0], [2.0, 5.0], [-1.0, -1.0]]),
        (PlaneDiagonal(2, SUP), [[0.0, 1.0, -2.0, 3.0], [1.0, 1.0, 0.0, 4.0]]),
        (HalfLineOrigin(), [[1.5], [0.0], [4.0]]),
        (SupCubeTruncatedC0(3), [[1.0, -2.0, 0.5], [0.0, 0.0, 3.0]]),
        (FiniteExplicit(good_matrix(), [2]), [[0.0], [1.0], [2.0]]),
        (QuotientOf(PlaneDiagonal(1, EUCLIDEAN)), [[0.0, 1.0], [2.0, 5.0]]),
        (QuotientOf(FiniteExplicit(good_matrix(), [2])), [[0.0], [1.0], [2.0]]),
    ],
    ids=["plane", "plane-euclidean", "product", "halfline", "supcube", "finite",
         "quotient-plane", "quotient-finite"],
)
def test_pairwise_dist_returns_a_new_array(pair, X):
    """Every pair kind returns a distance matrix that shares no memory with
    its inputs or with a finite pair's matrix, so the caller may overwrite
    it: the next call still returns the same distances."""
    X = np.array(X)
    Y = X[::-1]
    D = pair.pairwise_dist(X, Y)
    want = D.copy()
    inner = getattr(pair, "inner", pair)
    for shared in (X, Y, getattr(inner, "matrix", X)):
        assert not np.shares_memory(D, shared)
    D[...] = -1.0
    assert pair.pairwise_dist(X, Y).tobytes() == want.tobytes()


# -- serialization ---------------------------------------------------------------


@pytest.mark.parametrize(
    "pair",
    [
        PlaneDiagonal(1, SUP),
        PlaneDiagonal(1, EUCLIDEAN),
        PlaneDiagonal(3, SUP),
        HalfLineOrigin(),
        SupCubeTruncatedC0(5),
        FiniteExplicit(good_matrix(), [2]),
        QuotientOf(PlaneDiagonal(1, EUCLIDEAN)),
        QuotientOf(FiniteExplicit(good_matrix(), [0, 2])),
    ],
)
def test_space_json_round_trip(pair):
    obj = pair.to_json()
    again = space_from_json(json.dumps(obj))
    assert again.space_id == pair.space_id
    assert again.kind == pair.kind


def test_space_kind_tokens():
    assert PlaneDiagonal(1, SUP).to_json()["kind"] == "EuclideanPlaneDiagonal"
    assert PlaneDiagonal(2, SUP).to_json()["kind"] == "HalfPlane2nDiagonal"
    assert repr(PlaneDiagonal()) == "<PlaneDiagonal plane2:sup>"


def test_space_from_json_errors():
    with pytest.raises(ParseError):
        space_from_json("{not json")
    with pytest.raises(ParseError):
        space_from_json({"kind": "NoSuchKind"})
    with pytest.raises(ParseError):
        space_from_json({"kind": "EuclideanPlaneDiagonal", "dim": 4})
    with pytest.raises(ParseError):
        space_from_json({"kind": "SupCubeTruncatedC0"})
    with pytest.raises(InvalidMetric):
        space_from_json({"kind": "FiniteExplicit", "matrix": [[0, 1], [2, 0]], "A": [0]})
    # A is a list of indices: a string or an object is not iterated as one
    matrix = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    for A in ("12", {"2": 0}, 2, None):
        with pytest.raises(ParseError, match="A must be a list"):
            space_from_json({"kind": "FiniteExplicit", "matrix": matrix, "A": A})


@pytest.mark.parametrize(
    "obj",
    [
        '{"kind": "EuclideanPlaneDiagonal", "dim": null}',
        '{"kind": "HalfPlane2nDiagonal", "dim": 1e999}',
        '{"kind": "HalfPlane2nDiagonal", "dim": "four"}',
        '{"kind": "SupCubeTruncatedC0", "dim": null}',
        '{"kind": "SupCubeTruncatedC0", "dim": -1e999}',
        '{"kind": "FiniteExplicit", "matrix": [[0, 1], [1, 0]], "A": [1e999]}',
        '{"kind": "QuotientOf", "inner": {"kind": "SupCubeTruncatedC0", "dim": [3]}}',
    ],
)
def test_integer_descriptor_fields_are_typed(obj):
    """A dim or an index of A that int() refuses is a ParseError."""
    with pytest.raises(ParseError):
        space_from_json(obj)
