"""Diagram canonical form, total persistence, and serialization."""

import json
import math
import time

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmetric import (
    BASEPOINT,
    Diagram,
    FiniteExplicit,
    HalfLineOrigin,
    MetricPair,
    ParseError,
    PlaneDiagonal,
    QuotientOf,
    SpaceMismatch,
    TooLarge,
    canonicalize,
    empty_diagram,
    parse_diagram,
    total_persistence,
    wasserstein,
    write_diagram,
)
from pdmetric.matching import p_norm


def plane():
    return PlaneDiagonal()


# -- canonical form -----------------------------------------------------------


def _plane_case(pair):
    entries = [
        pair.point(3.0, 3.0),  # on the diagonal: dropped
        pair.point(0.0, 4.0),
        (pair.point(0.0, 4.0), 2),
        BASEPOINT,
        pair.point(1.0, 2.0),
    ]
    return pair, entries, ((pair.point(0.0, 4.0), 3), (pair.point(1.0, 2.0), 1))


def _halfline_case():
    hl = HalfLineOrigin()
    # both zeros are the origin, A = {0}: dropped
    entries = [hl.point(0.0), hl.point(2.0), hl.point(-0.0), (hl.point(2.0), 2), BASEPOINT,
               hl.point(0.5)]
    return hl, entries, ((hl.point(0.5), 1), (hl.point(2.0), 3))


def _finite_case():
    fe = FiniteExplicit([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], [1])
    # index 1 is the A index: dropped
    entries = [fe.point(2.0), fe.point(1.0), (fe.point(0.0), 2), BASEPOINT, fe.point(2.0)]
    return fe, entries, ((fe.point(0.0), 2), (fe.point(2.0), 2))


@pytest.mark.parametrize(
    "case",
    [
        lambda: _plane_case(plane()),
        _halfline_case,
        _finite_case,
        lambda: _plane_case(QuotientOf(plane())),
    ],
    ids=["plane", "halfline", "finite", "quotient-plane"],
)
def test_canonicalize_drops_A_points_and_merges(case):
    pair, entries, expected = case()
    d = canonicalize(entries, pair)
    assert d.points == expected
    assert d.size == sum(m for _, m in expected)
    assert not d.is_empty


def test_canonicalize_tests_A_in_one_batch(monkeypatch):
    def no_scalar(self, x):
        raise AssertionError("canonicalize made a scalar dist_to_A call")

    monkeypatch.setattr(MetricPair, "dist_to_A", no_scalar)
    monkeypatch.setattr(QuotientOf, "dist_to_A", no_scalar)
    for pair in (plane(), QuotientOf(plane())):
        d = canonicalize([pair.point(0.0, 4.0), pair.point(2.0, 2.0), pair.point(0.0, 4.0)], pair)
        assert d.points == ((pair.point(0.0, 4.0), 2),)
        assert canonicalize([], pair).is_empty


def test_canonicalize_idempotent():
    pair = plane()
    d = canonicalize([pair.point(0.0, 4.0), (pair.point(5.0, 9.0), 2)], pair)
    again = canonicalize(d.points, pair)
    assert again == d


def test_canonicalize_zero_mult_and_errors():
    pair = plane()
    assert canonicalize([(pair.point(0.0, 4.0), 0)], pair).is_empty
    with pytest.raises(ValueError):
        canonicalize([(pair.point(0.0, 4.0), -1)], pair)
    other = PlaneDiagonal(1, "euclidean")
    with pytest.raises(SpaceMismatch):
        canonicalize([other.point(0.0, 4.0)], pair)
    # the first bad entry in input order decides the error
    with pytest.raises(SpaceMismatch):
        canonicalize([other.point(0.0, 4.0), (pair.point(0.0, 4.0), -1)], pair)
    with pytest.raises(ValueError) as err:
        canonicalize([(pair.point(0.0, 4.0), -1), other.point(0.0, 4.0)], pair)
    assert not isinstance(err.value, SpaceMismatch)


def test_equality_is_canonical_equality():
    pair = plane()
    a = canonicalize([pair.point(0.0, 4.0), pair.point(1.0, 3.0)], pair)
    b = canonicalize([pair.point(1.0, 3.0), pair.point(2.0, 2.0), pair.point(0.0, 4.0)], pair)
    assert a == b
    c = canonicalize([pair.point(0.0, 4.0)], pair)
    assert a != c


def test_multiplicity_lookup():
    pair = plane()
    d = canonicalize([(pair.point(0.0, 4.0), 2)], pair)
    assert d.multiplicity(pair.point(0.0, 4.0)) == 2
    assert d.multiplicity(pair.point(1.0, 4.0)) == 0
    assert list(d.iter_points()) == [pair.point(0.0, 4.0)] * 2


# -- total persistence ---------------------------------------------------------


def test_total_persistence_closed_forms():
    pair = plane()
    d = canonicalize([pair.point(0.0, 4.0), pair.point(1.0, 3.0)], pair)
    # dist-to-A multiset is {2, 1}
    assert total_persistence(d, math.inf, pair) == 2.0
    assert total_persistence(d, 1.0, pair) == 3.0
    assert total_persistence(d, 2.0, pair) == math.fsum([1.0, 4.0]) ** 0.5
    assert total_persistence(empty_diagram(pair), 2.0, pair) == 0.0
    with pytest.raises(ValueError):
        total_persistence(d, 0.5, pair)


def test_total_persistence_overflow_is_typed():
    # the p-th power of the distance to A leaves the float range
    pair = plane()
    d = canonicalize([pair.point(0.0, 1e200)], pair)
    with pytest.raises(TooLarge):
        total_persistence(d, 2.0, pair)
    with pytest.raises(TooLarge):
        wasserstein(d, empty_diagram(pair), 2.0, pair)
    assert total_persistence(d, math.inf, pair) == 5e199


def test_total_persistence_weighs_multiplicities_without_expanding():
    pair = plane()
    d = canonicalize([(pair.point(0.0, 2.0), 10**12)], pair)
    start = time.perf_counter()
    assert total_persistence(d, 2.0, pair) == 1e6  # sqrt(10^12 * 1^2)
    assert time.perf_counter() - start < 1.0
    assert total_persistence(d, math.inf, pair) == 1.0
    # every power is finite, their weighted sum is not
    with pytest.raises(TooLarge):
        total_persistence(canonicalize([(pair.point(0.0, 2e154), 10**12)], pair), 2.0, pair)


def test_total_persistence_equals_the_expanded_sum():
    """Bit for bit the p-norm of the expanded distances to A, on random
    small diagrams with multiplicities, ties and tiny (scaled) costs."""
    rng = np.random.default_rng(5)
    for pair in (plane(), PlaneDiagonal(1, "euclidean"), PlaneDiagonal(2, "sup"),
                 HalfLineOrigin()):
        for _ in range(60):
            k = int(rng.integers(0, 6))
            scale = float(rng.choice([1.0, 10.0, 1e-200]))
            coords = rng.integers(0, 4, (k, pair.dim)).astype(float)  # ties
            if pair.dim > 1:  # deaths at or above births
                coords[:, 1::2] = coords[:, 0::2] + rng.uniform(0.0, 5.0, (k, pair.dim // 2))
            pts = [(pair.point(*(scale * c).tolist()), int(rng.integers(1, 6))) for c in coords]
            d = canonicalize(pts, pair)
            dist = pair.dist_to_A_batch(pair.coords_matrix(list(d.iter_points())))
            for p in (1.0, 2.0, 3.5, math.inf):
                assert total_persistence(d, p, pair).hex() == p_norm(dist.tolist(), p).hex()


# -- json ---------------------------------------------------------------------


def test_json_round_trip_exact():
    pair = plane()
    d = canonicalize([(pair.point(0.1, 0.30000000000000004), 2), pair.point(5e-324, 1.0)], pair)
    text = write_diagram(d, "json", pair)
    assert parse_diagram(text, "json", pair) == d
    obj = json.loads(text)
    assert obj["space"]["kind"] == "EuclideanPlaneDiagonal"


def test_json_space_id_string_accepted():
    pair = plane()
    d = canonicalize([pair.point(0.0, 4.0)], pair)
    text = write_diagram(d, "json")
    assert json.loads(text)["space"] == pair.space_id
    assert parse_diagram(text, "json", pair) == d


def test_json_default_multiplicity():
    pair = plane()
    d = parse_diagram('{"points": [{"coords": [0, 4]}]}', "json", pair)
    assert d.points[0][1] == 1


def test_json_errors():
    pair = plane()
    with pytest.raises(ParseError):
        parse_diagram("{bad", "json", pair)
    with pytest.raises(ParseError):
        parse_diagram('{"points": [{"coords": [4, 0]}]}', "json", pair)
    with pytest.raises(ParseError):
        parse_diagram('{"points": [{"coords": [0, 4], "mult": 0}]}', "json", pair)
    with pytest.raises(SpaceMismatch):
        parse_diagram('{"space": "halfline", "points": []}', "json", pair)


# -- csv ------------------------------------------------------------------------


def test_csv_round_trip_with_header_and_default_mult():
    pair = plane()
    text = "birth,death,mult\n0,10,1\n2,4,2\n"
    d = parse_diagram(text, "csv", pair)
    assert d.size == 3
    no_mult = "1,11\n"
    d2 = parse_diagram(no_mult, "csv", pair)
    assert d2.points[0][1] == 1
    out = write_diagram(d, "csv", pair)
    assert parse_diagram(out, "csv", pair) == d


def test_csv_error_carries_line_number():
    pair = plane()
    with pytest.raises(ParseError) as exc:
        parse_diagram("0,10,1\nx,4,1\n", "csv", pair)
    assert "line 2" in str(exc.value)


def test_csv_rejected_off_plane():
    hl = HalfLineOrigin()
    with pytest.raises(ParseError):
        parse_diagram("3\n", "csv", hl)
    d = canonicalize([hl.point(3.0)], hl)
    with pytest.raises(ParseError):
        write_diagram(d, "csv", hl)


def test_json_write_refuses_another_space():
    """A JSON diagram written with a pair declares that pair's space, so a
    pair over another space is refused, as for CSV."""
    sup, euc = PlaneDiagonal(1, "sup"), PlaneDiagonal(1, "euclidean")
    d = canonicalize([sup.point(0.0, 4.0)], sup)
    with pytest.raises(SpaceMismatch):
        write_diagram(d, "json", euc)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 100, allow_nan=False),
            st.floats(0, 50, allow_nan=False),
            st.integers(1, 3),
        ),
        max_size=6,
    )
)
def test_serialization_round_trip_property(entries):
    pair = plane()
    d = canonicalize(
        [(pair.point(b, b + g), m) for b, g, m in entries], pair
    )
    assert parse_diagram(write_diagram(d, "json", pair), "json", pair) == d
    assert parse_diagram(write_diagram(d, "csv", pair), "csv", pair) == d
