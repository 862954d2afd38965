"""Persistence diagrams over a metric pair.

A diagram is a finite multiset of points of X.  Points lying in A carry no
information (they can be added or removed freely), so the canonical form
keeps only points at positive distance from A, merges duplicates into
multiplicities, and sorts by coordinates.  Two diagrams are equal exactly
when their canonical forms coincide.

A ``Diagram`` holds its canonical form as arrays: ``coords``, the distinct
points as a read-only k x dim float64 array in lexicographic order, and
``mults``, their multiplicities as a tuple of ints, exact at any size.
A diagram keeps no ``Point``: the ``points`` view, a tuple of (Point,
multiplicity) pairs, is built from the arrays on each read and kept by
nobody, so a caller who indexes it in a loop binds it once.  Every diagram
is built by ``_canonical``; the parsers call it on the parsed arrays,
``canonicalize`` on the coordinates of its entries.

Serialization formats:

- JSON: ``{"space": <id or descriptor>, "points": [{"coords": [...],
  "mult": k}, ...]}``
- CSV (two-coordinate plane pairs only): ``birth,death[,mult]`` rows, one
  per point, multiplicity defaulting to 1.

Floats are written with ``repr`` so a write/parse round trip is exact.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ParseError, SpaceMismatch
from .spaces import (_NORMS, BasepointTag, MetricPair, PlaneDiagonal, Point, _coords_from_json,
                     _int_field, _json_value, space_from_json)

__all__ = [
    "Diagram",
    "canonicalize",
    "empty_diagram",
    "parse_diagram",
    "write_diagram",
]

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False, repr=False)
class Diagram:
    """Canonical diagram: the distinct points off A in lexicographic order
    (``coords``, k x dim) and their multiplicities (``mults``).

    Equality and hashing read the space id, the coordinate values (0.0
    and -0.0 are equal) and the multiplicities."""

    space_id: str
    coords: np.ndarray
    mults: tuple[int, ...]

    @property
    def points(self) -> tuple[tuple[Point, int], ...]:
        """The (point, multiplicity) pairs in canonical order, built anew
        on each read in O(k)."""
        return tuple(self._pairs())

    def _pairs(self) -> Iterator[tuple[Point, int]]:
        """(Point, multiplicity) of each distinct row, each Point built as
        it is reached."""
        sid = self.space_id
        return ((Point(sid, tuple(c)), m) for c, m in zip(self.coords.tolist(), self.mults))

    @property
    def size(self) -> int:
        """Number of points counted with multiplicity."""
        return sum(self.mults)

    @property
    def is_empty(self) -> bool:
        return not self.mults

    def iter_points(self) -> Iterator[Point]:
        """Points expanded by multiplicity, in canonical order; the m
        copies of a row are one Point."""
        for p, m in self._pairs():
            yield from repeat(p, m)

    def multiplicity(self, p: Point) -> int:
        if p.space_id != self.space_id:
            raise SpaceMismatch(f"point from space {p.space_id!r} used with a diagram "
                                f"over {self.space_id!r}")
        c, k = p.coords, len(self.mults)
        i = bisect_left(range(k), c, key=lambda j: tuple(self.coords[j].tolist()))
        return self.mults[i] if i < k and tuple(self.coords[i].tolist()) == c else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return (self.space_id == other.space_id and self.mults == other.mults
                and np.array_equal(self.coords, other.coords))

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.space_id, self.mults, (self.coords + 0.0).tobytes()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{p!r}x{m}" if m > 1 else repr(p) for p, m in self._pairs())
        return f"{{{inner}}}"


def _canonical(coords: np.ndarray, mults: list[int], pair: MetricPair) -> Diagram:
    """The canonical diagram of the rows of the (k, dim) array coords,
    row i with multiplicity mults[i] >= 1.

    A stable lexicographic sort brings equal rows together; each run keeps
    its first row's bits (so 0.0 and -0.0 merge and the first sign stays)
    and sums its multiplicities, in int64 unless a sum could pass its
    range.  One batch query then drops the rows at distance 0 from A.
    """
    k = len(mults)
    order = np.lexsort(coords.T[::-1])
    # take and compress: the same gathers as fancy indexing at a lower
    # fixed cost, which small diagrams pay on every call
    rows = coords.take(order, axis=0)
    first = np.empty(k, dtype=bool)
    first[:1] = True
    first[1:] = np.not_equal(rows[1:], rows[:-1]).any(axis=1)
    starts = first.nonzero()[0]
    wide = k > 0 and max(mults) > _INT64_MAX // k
    sums = np.add.reduceat(np.array(mults, dtype=object if wide else np.int64).take(order), starts)
    rows = rows.take(starts, axis=0)
    keep = pair.dist_to_A_batch(rows) != 0.0
    rows = rows.compress(keep, axis=0)
    rows.setflags(write=False)
    return Diagram(pair.space_id, rows, tuple(sums.compress(keep).tolist()))


def empty_diagram(pair: MetricPair) -> Diagram:
    return _canonical(np.empty((0, pair.dim)), [], pair)


def canonicalize(
    points: Iterable[Point | BasepointTag | tuple], pair: MetricPair
) -> Diagram:
    """Build the canonical diagram from points or (point, mult) entries.

    Entries at distance zero from A (including BASEPOINT tags) are dropped,
    duplicates are merged, and the result is sorted by coordinates.  A
    multiplicity is read by ``spaces._int_field``: a bool, a text or a
    fractional number is a ParseError, which is a ValueError.  Entry
    errors are raised in input order; the coordinates of the remaining
    entries are then canonicalized as one array.
    """
    rows, mults = [], []
    for entry in points:
        if isinstance(entry, tuple):
            p, mult = entry
            if type(mult) is not int:
                mult = _int_field(mult, "multiplicities")
        else:
            p, mult = entry, 1
        if mult < 0:
            raise ValueError("multiplicities must be nonnegative")
        if mult == 0:
            continue
        if isinstance(p, BasepointTag):
            continue
        pair.check_point(p)
        rows.append(p.coords)
        mults.append(mult)
    return _canonical(np.array(rows, dtype=np.float64).reshape(len(rows), pair.dim), mults, pair)


def _check_same_space(diagram: Diagram, pair: MetricPair) -> None:
    if diagram.space_id != pair.space_id:
        raise SpaceMismatch(
            f"diagram over {diagram.space_id!r} used with space {pair.space_id!r}"
        )


# CSV diagrams are defined only over these: the two-coordinate plane pairs
_CSV_SPACE_IDS = frozenset(PlaneDiagonal(1, norm).space_id for norm in _NORMS)


# -- parsing ---------------------------------------------------------------


def parse_diagram(text: str, fmt: str, pair: MetricPair) -> Diagram:
    """Parse JSON or CSV diagram text into canonical form.  A missing
    multiplicity defaults to 1 and a JSON diagram may omit its space."""
    if fmt == "json":
        return _parse_json(text, pair)
    if fmt == "csv":
        return _parse_csv(text, pair)
    raise ParseError(f"unknown diagram format {fmt!r}")


def _parse_json(text: str, pair: MetricPair) -> Diagram:
    obj = _json_value(text, "JSON")
    if not isinstance(obj, dict) or "points" not in obj:
        raise ParseError('diagram JSON must be an object with a "points" list')
    space = obj.get("space")
    if space is not None:
        if isinstance(space, str):
            if space != pair.space_id:
                raise SpaceMismatch(
                    f"diagram declares space {space!r}, expected {pair.space_id!r}"
                )
        elif isinstance(space, dict):
            declared = space_from_json(space)
            if declared.space_id != pair.space_id:
                raise SpaceMismatch(
                    f"diagram declares space {declared.space_id!r}, expected {pair.space_id!r}"
                )
        else:
            raise ParseError('"space" must be an id string or a descriptor object')
    entries = obj["points"]
    if not isinstance(entries, list):
        raise ParseError('"points" must be a list')
    rows, mults = [], []

    def at(i: int, why: str) -> ParseError:
        return ParseError(f"points[{i}]: {why}")

    def bad_entry(message: str) -> ParseError:
        _point_rows(rows, pair, at)  # a bad point in an earlier entry comes first
        return ParseError(message)

    for i, e in enumerate(entries):
        if not isinstance(e, dict) or "coords" not in e:
            raise bad_entry(f'points[{i}] must be an object with "coords"')
        mult = e.get("mult", 1)
        if type(mult) is not int or mult < 1:
            raise bad_entry(f"points[{i}] has bad multiplicity {mult!r}")
        try:
            rows.append(_coords_from_json(e["coords"], pair.dim))
        except (TypeError, ValueError, OverflowError) as err:
            raise bad_entry(f"points[{i}]: {err}") from err
        mults.append(mult)
    return _canonical(_point_rows(rows, pair, at), mults, pair)


def _parse_csv(text: str, pair: MetricPair) -> Diagram:
    if pair.space_id not in _CSV_SPACE_IDS:
        raise ParseError("CSV diagrams are only defined for two-coordinate plane pairs")
    cells, mults, lines = [], [], []  # cells: birth, death of each row in turn

    def at(i: int, why: str) -> ParseError:
        return ParseError(why, line=lines[i])

    def bad_line(message: str, ln: int) -> ParseError:
        _point_rows(cells, pair, at)  # a bad point on an earlier line comes first
        return ParseError(message, line=ln)

    reader = csv.reader(io.StringIO(text))
    try:
        for ln, row in enumerate(reader, start=1):
            row = [cell.strip() for cell in row]
            if not any(row):
                continue
            if row[0].startswith("#"):
                continue
            if ln == 1 and not _looks_numeric(row[0]):
                continue  # header row
            if len(row) not in (2, 3):
                raise bad_line("expected birth,death[,mult]", ln)
            try:
                b, d = float(row[0]), float(row[1])
            except ValueError as e:
                raise bad_line(str(e), ln) from e
            mult = 1
            if len(row) == 3:
                try:
                    mult = int(row[2])
                except ValueError as e:
                    raise bad_line(f"bad multiplicity {row[2]!r}", ln) from e
                if mult < 1:
                    raise bad_line(f"bad multiplicity {mult}", ln)
            cells.append(b)
            cells.append(d)
            mults.append(mult)
            lines.append(ln)
    except csv.Error as e:  # a cell past csv's field size limit, say
        raise bad_line(str(e), reader.line_num) from e
    return _canonical(_point_rows(cells, pair, at), mults, pair)


def _point_rows(rows: list, pair: MetricPair, at: Callable[[int, str], ParseError]) -> np.ndarray:
    """The parsed rows, a list of rows or of their cells in turn, as a
    (k, dim) array; the first row that is not a point of the pair raises
    ``at(row index, reason)``."""
    X = np.array(rows, dtype=np.float64).reshape(-1, pair.dim)
    bad = pair._first_bad_row(X)
    if bad is not None:
        raise at(*bad)
    return X


def _looks_numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


# -- writing ---------------------------------------------------------------


def _diagram_points_to_json(diagram: Diagram) -> list[dict]:
    """JSON form of a diagram's points: [{"coords": [...], "mult": k}, ...]."""
    return [{"coords": c, "mult": m} for c, m in zip(diagram.coords.tolist(), diagram.mults)]


def write_diagram(diagram: Diagram, fmt: str, pair: MetricPair | None = None) -> str:
    """Serialize a diagram; the inverse of parse_diagram up to canonical
    form (exactly: parse(write(d)) == d).  A given pair must be the
    diagram's own space; CSV is written only for a diagram over a
    two-coordinate plane pair, with or without the pair."""
    if pair is not None:
        _check_same_space(diagram, pair)
    if fmt == "json":
        obj = {
            "space": pair.to_json() if pair is not None else diagram.space_id,
            "points": _diagram_points_to_json(diagram),
        }
        return json.dumps(obj, sort_keys=True)
    if fmt == "csv":
        if diagram.space_id not in _CSV_SPACE_IDS:
            raise ParseError("CSV diagrams are only defined for two-coordinate plane pairs")
        lines = ["birth,death,mult"]
        rows = zip(diagram.coords.tolist(), diagram.mults)
        lines.extend(f"{b!r},{d!r},{m}" for (b, d), m in rows)
        return "\n".join(lines) + "\n"
    raise ParseError(f"unknown diagram format {fmt!r}")
