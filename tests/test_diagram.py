"""Diagram canonical form, total persistence, and serialization."""

import gc
import json
import math
import time
import tracemalloc
import weakref

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
    SupCubeTruncatedC0,
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


@pytest.mark.parametrize("mult", [2.7, 0.5, -0.5, "3", True, False, np.True_, math.inf,
                                  math.nan, None, np.float64(1.5)])
def test_canonicalize_refuses_a_multiplicity_that_is_not_an_integer(mult):
    pair = plane()
    with pytest.raises(ValueError) as err:
        canonicalize([(pair.point(0.0, 4.0), mult)], pair)
    assert str(err.value) == f"multiplicities must be an integer, got {mult!r}"


@pytest.mark.parametrize("mult, want", [(3, 3), (np.int64(3), 3), (np.uint8(2), 2), (4.0, 4),
                                        (np.float64(2.0), 2), (0.0, 0), (10**20, 10**20)])
def test_canonicalize_reads_integers_of_any_kind(mult, want):
    pair = plane()
    d = canonicalize([(pair.point(0.0, 4.0), mult)], pair)
    assert d.mults == ((want,) if want else ())
    assert all(type(m) is int for m in d.mults)


def test_equality_is_canonical_equality():
    pair = plane()
    a = canonicalize([pair.point(0.0, 4.0), pair.point(1.0, 3.0)], pair)
    b = canonicalize([pair.point(1.0, 3.0), pair.point(2.0, 2.0), pair.point(0.0, 4.0)], pair)
    assert a == b
    c = canonicalize([pair.point(0.0, 4.0)], pair)
    assert a != c
    # another type defers to its own __eq__, then falls back to identity
    assert (a == 1) is False


def test_multiplicity_lookup():
    pair = plane()
    d = canonicalize([(pair.point(0.0, 4.0), 2)], pair)
    assert d.multiplicity(pair.point(0.0, 4.0)) == 2
    assert d.multiplicity(pair.point(1.0, 4.0)) == 0
    assert list(d.iter_points()) == [pair.point(0.0, 4.0)] * 2


def test_multiplicity_of_a_point_of_another_space_is_a_mismatch():
    pair = plane()
    d = canonicalize([pair.point(0.0, 1.0)], pair)
    assert d.multiplicity(pair.point(0.0, 1.0)) == 1
    for other in (PlaneDiagonal(1, "euclidean"), QuotientOf(plane())):
        with pytest.raises(SpaceMismatch):
            d.multiplicity(other.point(0.0, 1.0))


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
    with pytest.raises(ParseError, match="unknown diagram format 'xml'"):
        parse_diagram('{"points": []}', "xml", pair)
    with pytest.raises(ParseError, match="unknown diagram format 'xml'"):
        write_diagram(empty_diagram(pair), "xml", pair)


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
    # without the pair the diagram's own space decides: two-coordinate
    # points or no points do not make a plane diagram
    cube, quotient = SupCubeTruncatedC0(2), QuotientOf(plane())
    for off_plane in (canonicalize([cube.point(1.0, 2.0)], cube),
                      canonicalize([quotient.point(0.0, 4.0)], quotient),
                      empty_diagram(hl), empty_diagram(quotient)):
        with pytest.raises(ParseError, match="two-coordinate plane pairs"):
            write_diagram(off_plane, "csv")


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


# -- array form and edge cases ------------------------------------------------


def test_signed_zero_merges_into_the_first_occurrence():
    pair = plane()
    twice = canonicalize([(pair.point(0.0, 1.0), 2)], pair)
    for d in (parse_diagram('{"points": [{"coords": [-0.0, 1.0]}, {"coords": [0.0, 1.0]}]}',
                            "json", pair),
              parse_diagram("-0.0,1.0\n0.0,1.0\n", "csv", pair)):
        assert d.mults == (2,) and d.coords.shape == (1, 2)
        assert math.copysign(1.0, d.coords[0, 0]) == -1.0
        assert repr(d.points[0][0]) == "(-0.0, 1.0)"
        assert d == twice and hash(d) == hash(twice)
        assert d.multiplicity(pair.point(0.0, 1.0)) == 2
        assert write_diagram(d, "json") == (
            '{"points": [{"coords": [-0.0, 1.0], "mult": 2}], "space": "plane2:sup"}')


def test_huge_multiplicity_keeps_every_digit(tmp_path, capsys):
    """Multiplicities stay exact integers: 10^20 twice merges to 2 * 10^20,
    with no int64 wrap, and the solver still refuses it from the count."""
    from pdmetric.cli import main

    pair = plane()
    big = 10**20
    text = json.dumps({"points": [{"coords": [0.0, 1.0], "mult": big},
                                  {"coords": [0.0, 1.0], "mult": big},
                                  {"coords": [0.5, 3.0], "mult": big}]})
    d = parse_diagram(text, "json", pair)
    assert d.mults == (2 * big, big) and d.size == 3 * big
    assert d.multiplicity(pair.point(0.0, 1.0)) == 2 * big
    csv_text = write_diagram(d, "csv", pair)
    assert csv_text == ("birth,death,mult\n0.0,1.0,200000000000000000000\n"
                        "0.5,3.0,100000000000000000000\n")
    assert '"mult": 200000000000000000000' in write_diagram(d, "json", pair)
    assert parse_diagram(csv_text, "csv", pair) == d
    assert parse_diagram(write_diagram(d, "json", pair), "json", pair) == d
    assert canonicalize(d.points, pair) == d
    path = tmp_path / "big.json"
    path.write_text(text)
    assert main(["dist", str(path), str(path), "--space", json.dumps(pair.to_json())]) == 4
    assert capsys.readouterr().err == (
        "pdmetric: error: 300000000000000000000 + 300000000000000000000 points"
        " (with multiplicity) exceed the cap of 10000\n")


@pytest.mark.parametrize("pair", [plane(), HalfLineOrigin(), PlaneDiagonal(2, "sup"),
                                  QuotientOf(plane())], ids=lambda p: p.space_id)
def test_empty_diagram_arrays_and_text(pair):
    d = empty_diagram(pair)
    assert d.coords.shape == (0, pair.dim) and d.mults == () and d.is_empty
    assert d == canonicalize([], pair) and hash(d) == hash(canonicalize([], pair))
    assert write_diagram(d, "json") == f'{{"points": [], "space": "{pair.space_id}"}}'
    if pair == plane():
        assert write_diagram(d, "csv") == "birth,death,mult\n"
    else:
        with pytest.raises(ParseError):
            write_diagram(d, "csv")
    assert parse_diagram(write_diagram(d, "json", pair), "json", pair) == d


CSV_CASES = [
    ("underscore", "1_0,2_0\n", (((10.0, 20.0), 1),)),
    ("quoted", '"1","4"\n', (((1.0, 4.0), 1),)),
    ("comments", "# hello\n1,4\n  # indented\n2,5\n", (((1.0, 4.0), 1), ((2.0, 5.0), 1))),
    ("header", "birth,death,mult\n1,4,2\n", (((1.0, 4.0), 2),)),
    ("blank lines", "\n1,4\n\n  ,  \n2,5\n", (((1.0, 4.0), 1), ((2.0, 5.0), 1))),
    ("padded mult", "1,4, 2 \n", (((1.0, 4.0), 2),)),
    ("header only", "birth,death\n", ()),
    ("diagonal", "1,1\n2,5\n", (((2.0, 5.0), 1),)),
    ("space before quote", '"1","4"\n"2", "5" ,"3"\n',
     "line 2: could not convert string to float: '\"5\"'"),
    ("header not first", "1,4\nbirth,death\n",
     "line 2: could not convert string to float: 'birth'"),
    ("below", "1,4\n5,2\n", "line 2: coordinate pair (5.0, 2.0) lies below the diagonal"),
    ("inf", "1,4\ninf,5\n", "line 2: coordinates must be finite"),
    ("nan", "1,4\nnan,5\n", "line 2: coordinates must be finite"),
    ("bad mult", "1,4\n2,5,x\n", "line 2: bad multiplicity 'x'"),
    ("zero mult", "1,4\n2,5,0\n", "line 2: bad multiplicity 0"),
    ("negative mult", "1,4\n2,5,-2\n", "line 2: bad multiplicity -2"),
    ("fractional mult", "1,4\n2,5,1.5\n", "line 2: bad multiplicity '1.5'"),
    ("4 columns", "1,4\n2,5,1,1\n", "line 2: expected birth,death[,mult]"),
    ("1 column", "1,4\n2\n", "line 2: expected birth,death[,mult]"),
    ("bad float", "1,4\n2,y\n", "line 2: could not convert string to float: 'y'"),
    # the first bad line decides, whichever its kind
    ("below, then bad mult", "5,2\n2,5,x\n",
     "line 1: coordinate pair (5.0, 2.0) lies below the diagonal"),
    ("bad mult, then below", "2,5,x\n5,2\n", "line 1: bad multiplicity 'x'"),
    ("below, then 4 columns", "1,4\n5,2\n1,2,3,4\n",
     "line 2: coordinate pair (5.0, 2.0) lies below the diagonal"),
    ("inf, then below", "inf,4\n5,2\n", "line 1: coordinates must be finite"),
]


@pytest.mark.parametrize("text, want", [c[1:] for c in CSV_CASES], ids=[c[0] for c in CSV_CASES])
def test_csv_outcomes(text, want):
    pair = plane()
    if isinstance(want, str):
        with pytest.raises(ParseError) as e:
            parse_diagram(text, "csv", pair)
        assert str(e.value) == want
    else:
        d = parse_diagram(text, "csv", pair)
        assert tuple((p.coords, m) for p, m in d.points) == want


_FE = FiniteExplicit([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], [1])

JSON_CASES = [
    ("below, then zero mult", plane(), [{"coords": [5, 2]}, {"coords": [1, 2], "mult": 0}],
     "points[0]: coordinate pair (5.0, 2.0) lies below the diagonal"),
    ("zero mult, then below", plane(), [{"coords": [1, 2], "mult": 0}, {"coords": [5, 2]}],
     "points[0] has bad multiplicity 0"),
    ("below, then 3 coords", plane(), [{"coords": [5, 2]}, {"coords": [1, 2, 3]}],
     "points[0]: coordinate pair (5.0, 2.0) lies below the diagonal"),
    ("3 coords", plane(), [{"coords": [1, 2, 3]}], "points[0]: expected 2 coordinates, got 3"),
    ("null coord", plane(), [{"coords": [1, None]}],
     "points[0]: float() argument must be a string or a real number, not 'NoneType'"),
    ("number coords", plane(), [{"coords": 12}], "points[0]: coordinates must be a list, got 12"),
    ("coords string", plane(), [{"coords": "12"}],
     "points[0]: coordinates must be a list, got '12'"),
    ("coords object", plane(), [{"coords": {"1": 0, "5": 0}}],
     "points[0]: coordinates must be a list, got {'1': 0, '5': 0}"),
    ("boolean coord", plane(), [{"coords": [True, 2]}],
     "points[0]: a boolean is not a coordinate, got [True, 2]"),
    ("boolean mult", plane(), [{"coords": [1, 2], "mult": True}],
     "points[0] has bad multiplicity True"),
    ("not an object", plane(), [3], 'points[0] must be an object with "coords"'),
    ("float mult", plane(), [{"coords": [1, 2], "mult": 2.0}],
     "points[0] has bad multiplicity 2.0"),
    ("product plane below", PlaneDiagonal(2, "sup"), [{"coords": [0, 1, 3, 1]}],
     "points[0]: coordinate pair (3.0, 1.0) lies below the diagonal"),
    ("quotient below", QuotientOf(plane()), [{"coords": [3, 1]}],
     "points[0]: coordinate pair (3.0, 1.0) lies below the diagonal"),
    ("half-line negative", HalfLineOrigin(), [{"coords": [-1]}],
     "points[0]: half-line points are finite reals >= 0"),
    ("finite index out of range", _FE, [{"coords": [0]}, {"coords": [3]}],
     "points[1]: index 3.0 out of range for 3 points"),
    ("finite index negative", _FE, [{"coords": [-1]}],
     "points[0]: index -1.0 out of range for 3 points"),
    ("finite index fraction", _FE, [{"coords": [0.5]}],
     "points[0]: index 0.5 out of range for 3 points"),
    ("finite index inf", _FE, [{"coords": [math.inf]}], "points[0]: coordinates must be finite"),
    ("string cells", plane(), [{"coords": ["1", " 2 "]}], (((1.0, 2.0), 1),)),
    ("finite index -0.0", _FE, [{"coords": [-0.0]}, {"coords": [0]}], (((-0.0,), 2),)),
]


@pytest.mark.parametrize("pair, entries, want", [c[1:] for c in JSON_CASES],
                         ids=[c[0] for c in JSON_CASES])
def test_json_outcomes(pair, entries, want):
    text = json.dumps({"points": entries})
    if isinstance(want, str):
        with pytest.raises(ParseError) as e:
            parse_diagram(text, "json", pair)
        assert str(e.value) == want
    else:
        d = parse_diagram(text, "json", pair)
        assert tuple((p.coords, m) for p, m in d.points) == want
        signs = [math.copysign(1.0, x) for p, _ in d.points for x in p.coords]
        assert signs == [math.copysign(1.0, x) for c, _ in want for x in c]


@pytest.mark.parametrize("pair, coords, message", [
    (plane(), (3.0, 1.0), "coordinate pair (3.0, 1.0) lies below the diagonal"),
    (plane(), (math.nan, 1.0), "coordinates must be finite"),
    (plane(), (1.0,), "expected 2 coordinates, got 1"),
    (_FE, (7,), "index 7.0 out of range for 3 points"),
])
def test_point_messages(pair, coords, message):
    with pytest.raises(ValueError) as e:
        pair.point(*coords)
    assert str(e.value) == message


def test_points_view_is_built_once():
    pair = plane()
    d = canonicalize([(pair.point(0.5, 3.0), 1), (pair.point(0.0, 1.0), 2)], pair)
    # each read builds the view anew, and the diagram keeps none of it
    assert d.points == d.points
    assert "points" not in vars(d)
    dropped = weakref.ref(d.points[0][0])
    assert dropped() is None
    assert d.points == ((pair.point(0.0, 1.0), 2), (pair.point(0.5, 3.0), 1))
    assert list(d.iter_points()) == [pair.point(0.0, 1.0)] * 2 + [pair.point(0.5, 3.0)]
    assert repr(d) == "{(0.0, 1.0)x2, (0.5, 3.0)}"
    assert not d.coords.flags.writeable
    assert [d.multiplicity(pair.point(*c)) for c in ((0.0, 1.0), (0.5, 3.0), (0.0, 2.0),
                                                     (9.0, 9.5), (-1.0, 0.0))] == [2, 1, 0, 0, 0]


@pytest.mark.parametrize("seed", range(8))
def test_iter_points_expands_points_and_shares_each_rows_point(seed):
    pair = plane()
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 40))
    births = rng.integers(0, 6, k).astype(float)  # few values: rows repeat and merge
    deaths = births + rng.integers(0, 3, k)  # a gap of 0 lies on A
    entries = [(pair.point(b, e), int(m))
               for b, e, m in zip(births.tolist(), deaths.tolist(), rng.integers(1, 4, k))]
    d = canonicalize(entries, pair)
    got = list(d.iter_points())
    assert got == [p for p, m in d.points for _ in range(m)]
    assert len(got) == d.size
    start = 0
    for m in d.mults:
        assert all(q is got[start] for q in got[start:start + m])
        start += m


def test_iter_points_of_the_empty_diagram():
    d = empty_diagram(plane())
    assert list(d.iter_points()) == [] and d.points == ()


def _ingest_text(rows: int, seed: int) -> str:
    """CSV of ``rows`` plane rows as the ingest benchmark draws them:
    births in [0, 100], gaps in [0, 10], a tenth of the gaps 0 (on A)
    and a tenth of the rows repeated."""
    rng = np.random.default_rng(seed)
    n_dup = rows // 10
    n_uniq = rows - n_dup
    b = rng.uniform(0.0, 100.0, n_uniq)
    g = rng.uniform(0.0, 10.0, n_uniq)
    g[rng.random(n_uniq) < 0.1] = 0.0
    lines = [f"{x!r},{x + y!r}" for x, y in zip(b.tolist(), g.tolist())]
    lines.extend(lines[i] for i in rng.integers(0, n_uniq, n_dup).tolist())
    return "birth,death\n" + "\n".join(lines[i] for i in rng.permutation(rows).tolist()) + "\n"


def test_reading_points_leaves_no_memory_behind():
    """A diagram keeps only its arrays: reading and dropping the points of
    a 20k-row ingest diagram leaves traced memory where it was (a kept
    view would hold a Point and a pair per row, about 4 MB)."""
    pair = PlaneDiagonal(1, "sup")
    d = parse_diagram(_ingest_text(20_000, seed=3), "csv", pair)
    assert len(d.mults) > 15_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(d.points) == len(d.mults)
        # a full collection also empties the interpreter's free lists, which
        # keep up to a few thousand of the small tuples a read gives back
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


# -- property: the array form against a per-point dict reference ---------------

_COORD = st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300, 7.0])


def _dict_reference(entries):
    """The canonical form from a per-point dict: the first key of each
    value is kept, multiplicities are summed, keys are sorted and points on
    the diagonal (A) are dropped."""
    counts = {}
    for c, m in entries:
        counts[c] = counts.get(c, 0) + m
    return [(c, counts[c]) for c in sorted(counts) if c[1] != c[0]]


def _bits(items):
    return [([float(x).hex() for x in c], m) for c, m in items]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_COORD, _COORD, st.sampled_from([1, 2, 3, 10**19, 10**20])), max_size=12),
    st.randoms(use_true_random=False),
)
def test_array_form_matches_dict_reference(rows, rnd):
    pair = plane()
    entries = [((min(b, d), max(b, d)), m) for b, d, m in rows]
    ref = _dict_reference(entries)
    d = canonicalize([(pair.point(*c), m) for c, m in entries], pair)
    assert _bits(((p.coords, m) for p, m in d.points)) == _bits(ref)
    assert d.coords.shape == (len(ref), 2) and d.size == sum(m for _, m in ref)
    for fmt in ("json", "csv"):
        again = parse_diagram(write_diagram(d, fmt, pair), fmt, pair)
        assert again == d and hash(again) == hash(d)
        assert _bits(((p.coords, m) for p, m in again.points)) == _bits(ref)
    shuffled = list(entries)
    rnd.shuffle(shuffled)
    other = canonicalize([(pair.point(*c), m) for c, m in shuffled], pair)
    assert other == d and hash(other) == hash(d)
    assert _dict_reference(shuffled) == ref  # as values: -0.0 == 0.0
    fewer = entries[1:]
    assert (canonicalize([(pair.point(*c), m) for c, m in fewer], pair) == d) == (
        _dict_reference(fewer) == ref)
