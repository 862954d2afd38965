"""Persistence diagrams over a metric pair.

A diagram is a finite multiset of points of X.  Points lying in A carry no
information (they can be added or removed freely), so the canonical form
keeps only points at positive distance from A, merges duplicates into
multiplicities, and sorts by coordinates.  Two diagrams are equal exactly
when their canonical forms coincide.

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
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ParseError, SpaceMismatch
from .spaces import BASEPOINT, BasepointTag, MetricPair, Point, space_from_json

__all__ = [
    "Diagram",
    "canonicalize",
    "empty_diagram",
    "parse_diagram",
    "write_diagram",
]


@dataclass(frozen=True)
class Diagram:
    """Canonical diagram: sorted ((point, multiplicity), ...) off A."""

    space_id: str
    points: tuple[tuple[Point, int], ...]

    @property
    def size(self) -> int:
        """Number of points counted with multiplicity."""
        return sum(m for _, m in self.points)

    @property
    def is_empty(self) -> bool:
        return not self.points

    def iter_points(self) -> Iterator[Point]:
        """Points expanded by multiplicity, in canonical order."""
        for p, m in self.points:
            for _ in range(m):
                yield p

    def multiplicity(self, p: Point) -> int:
        for q, m in self.points:
            if q.coords == p.coords:
                return m
        return 0

    def __repr__(self) -> str:
        inner = ", ".join(f"{p!r}x{m}" if m > 1 else repr(p) for p, m in self.points)
        return f"{{{inner}}}"


def empty_diagram(pair: MetricPair) -> Diagram:
    return Diagram(pair.space_id, ())


def canonicalize(
    points: Iterable[Point | BasepointTag | tuple], pair: MetricPair
) -> Diagram:
    """Build the canonical diagram from points or (point, mult) entries.

    Entries at distance zero from A (including BASEPOINT tags) are dropped,
    duplicates are merged, and the result is sorted by coordinates.  Entry
    errors are raised in input order; the distinct coordinates are then
    tested against A in one batch.
    """
    counts: dict[tuple[float, ...], int] = {}
    for entry in points:
        if isinstance(entry, tuple):
            p, mult = entry
            mult = int(mult)
        else:
            p, mult = entry, 1
        if mult < 0:
            raise ValueError("multiplicities must be nonnegative")
        if mult == 0:
            continue
        if isinstance(p, BasepointTag):
            continue
        pair.check_point(p)
        counts[p.coords] = counts.get(p.coords, 0) + mult
    keys = sorted(counts)
    to_A = pair.dist_to_A_batch(np.array(keys, dtype=np.float64).reshape(len(keys), pair.dim))
    ordered = tuple(
        (Point(pair.space_id, c), counts[c]) for c, a in zip(keys, to_A.tolist()) if a != 0.0
    )
    return Diagram(pair.space_id, ordered)


def _check_same_space(diagram: Diagram, pair: MetricPair) -> None:
    if diagram.space_id != pair.space_id:
        raise SpaceMismatch(
            f"diagram over {diagram.space_id!r} used with space {pair.space_id!r}"
        )


def _is_two_column_plane(pair: MetricPair) -> bool:
    return pair.kind in {"EuclideanPlaneDiagonal", "HalfPlane2nDiagonal"} and pair.dim == 2


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
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
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
    out = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or "coords" not in e:
            raise ParseError(f'points[{i}] must be an object with "coords"')
        mult = e.get("mult", 1)
        if not isinstance(mult, int) or mult < 1:
            raise ParseError(f"points[{i}] has bad multiplicity {mult!r}")
        try:
            p = pair.point(*[float(c) for c in e["coords"]])
        except (TypeError, ValueError) as err:
            raise ParseError(f"points[{i}]: {err}") from err
        out.append((p, mult))
    return canonicalize(out, pair)


def _parse_csv(text: str, pair: MetricPair) -> Diagram:
    if not _is_two_column_plane(pair):
        raise ParseError("CSV diagrams are only defined for two-coordinate plane pairs")
    out = []
    reader = csv.reader(io.StringIO(text))
    for ln, row in enumerate(reader, start=1):
        row = [cell.strip() for cell in row]
        if not row or not any(row):
            continue
        if row[0].startswith("#"):
            continue
        if ln == 1 and not _looks_numeric(row[0]):
            continue  # header row
        if len(row) not in (2, 3):
            raise ParseError("expected birth,death[,mult]", line=ln)
        try:
            b, d = float(row[0]), float(row[1])
        except ValueError as e:
            raise ParseError(str(e), line=ln) from e
        mult = 1
        if len(row) == 3:
            try:
                mult = int(row[2])
            except ValueError as e:
                raise ParseError(f"bad multiplicity {row[2]!r}", line=ln) from e
            if mult < 1:
                raise ParseError(f"bad multiplicity {mult}", line=ln)
        try:
            p = pair.point(b, d)
        except ValueError as e:
            raise ParseError(str(e), line=ln) from e
        out.append((p, mult))
    return canonicalize(out, pair)


def _looks_numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


# -- writing ---------------------------------------------------------------


def _diagram_points_to_json(diagram: Diagram) -> list[dict]:
    """JSON form of a diagram's points: [{"coords": [...], "mult": k}, ...]."""
    return [{"coords": [float(c) for c in p.coords], "mult": m} for p, m in diagram.points]


def write_diagram(diagram: Diagram, fmt: str, pair: MetricPair | None = None) -> str:
    """Serialize a diagram; the inverse of parse_diagram up to canonical
    form (exactly: parse(write(d)) == d).  A given pair must be the
    diagram's own space."""
    if pair is not None:
        _check_same_space(diagram, pair)
    if fmt == "json":
        obj = {
            "space": pair.to_json() if pair is not None else diagram.space_id,
            "points": _diagram_points_to_json(diagram),
        }
        return json.dumps(obj, sort_keys=True)
    if fmt == "csv":
        if pair is not None and not _is_two_column_plane(pair):
            raise ParseError("CSV diagrams are only defined for two-coordinate plane pairs")
        lines = ["birth,death,mult"]
        for p, m in diagram.points:
            if len(p.coords) != 2:
                raise ParseError("CSV diagrams are only defined for two-coordinate plane pairs")
            lines.append(f"{p.coords[0]!r},{p.coords[1]!r},{m}")
        return "\n".join(lines) + "\n"
    raise ParseError(f"unknown diagram format {fmt!r}")
