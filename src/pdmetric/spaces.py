"""Computable metric pairs (X, A) and the quotient pseudometric on X/A.

A metric pair is a metric space X together with a distinguished nonempty
closed subset A.  Each descriptor exposes:

- the ambient distance ``dist`` and its vectorized form ``pairwise_dist``,
- the distance-to-A function ``dist_to_A`` / ``dist_to_A_batch``,
- a nearest-point projection onto A (``proj_to_A``) and, where
  ``has_geodesic`` is set, a constant-speed geodesic oracle (``geodesic``),
- its JSON descriptor ``to_json``, read back by ``space_from_json``.

``MetricPair`` holds the rules every pair shares: a point has exactly
``dim`` finite coordinates (each subclass adds only its own condition),
and the scalar ``dist`` and ``dist_to_A`` are derived from the batch
queries, with BASEPOINT at either end answered by distance to A.

The vector pairs share one base: the plane and its products override
distance to the diagonal and its projection, while the half-line and the
sup cube keep the base's A = {0} under the sup norm.

Collapsing A to a single basepoint gives the quotient space X/A carrying
the metric ``min(d(x, y), d(x, A) + d(y, A))``; ``QuotientOf`` wraps any
descriptor as that quotient, its scalar distances coming from its batch
formula like every pair's, and the free functions ``quotient_distance``
and ``quotient_geodesic`` evaluate the quotient metric and its geodesics
over the original pair.  ``_quotient_costs`` is the one home of the
quotient cost matrix, which ``QuotientOf`` and the matching module build
with it.  ``_leg_at`` is the one home of the leg rule: a point on a leg
slides to or from A along a projection, follows the pair's geodesic, or
takes the arclength path x -> A -> y.  ``DiagramPath.at``,
``QuotientOf.geodesic`` and ``quotient_geodesic`` place their points
with it.

Outside input has one reader of each kind here: ``_json_value`` parses
the JSON text of spaces, diagrams and matchings, and ``_int_field`` reads
every integer argument and descriptor field.

All descriptors are immutable and all operations are pure, so values can
be shared freely across threads or processes.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidMetric, NoGeodesicOracle, ParseError, SpaceMismatch

__all__ = [
    "SUP",
    "EUCLIDEAN",
    "Point",
    "BasepointTag",
    "BASEPOINT",
    "MetricPair",
    "PlaneDiagonal",
    "HalfLineOrigin",
    "FiniteExplicit",
    "SupCubeTruncatedC0",
    "QuotientOf",
    "quotient_distance",
    "quotient_geodesic",
    "space_from_json",
]

SUP = "sup"
EUCLIDEAN = "euclidean"

_NORMS = (SUP, EUCLIDEAN)


@dataclass(frozen=True)
class Point:
    """A point of some metric pair, tagged with the pair's identity."""

    space_id: str
    coords: tuple[float, ...]

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.coords)
        return f"({inner})"


class BasepointTag:
    """The collapsed class of A in a quotient space.  Singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "A"


BASEPOINT = BasepointTag()


class MetricPair:
    """Abstract base for metric pair descriptors.

    Subclasses set ``kind``, ``dim``, ``space_id`` and ``has_geodesic``
    and implement ``pairwise_dist``, ``dist_to_A_batch`` and
    ``proj_to_A``; pairs with ``has_geodesic`` set also implement
    ``geodesic``.

    One point rule holds for every pair: a point has exactly ``dim``
    finite coordinates that meet the pair's own condition, ``_outside``
    (by default none).  ``_first_bad_row`` applies the rule to a whole
    coordinate array; the diagram parsers apply it once per parsed array.
    ``_checked`` raises ValueError for the first bad row, ``_points``
    returns the rows of a checked array as Points, and ``point`` is
    ``_points`` of one row.  Scalar distance queries are derived from the
    vectorized ones, so the two can never disagree; they
    also answer for BASEPOINT, which only a quotient pair accepts:
    d(A, y) = d(y, A) and d(A, A) = 0.
    """

    kind: str
    norm: str | None = None
    dim: int
    space_id: str
    has_geodesic: bool = True

    # -- points -------------------------------------------------------

    def point(self, *coords: float) -> Point:
        c = tuple(map(float, coords))
        if len(c) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(c)}")
        return self._points(np.array([c]))[0]

    def _points(self, X: np.ndarray) -> list[Point]:
        """The rows of the (k, dim) array X as Points of this pair."""
        sid = self.space_id
        return [Point(sid, tuple(c)) for c in self._checked(X).tolist()]

    def _checked(self, X: np.ndarray) -> np.ndarray:
        """X itself once every row of it is a point of this pair; the
        first row that is not one raises ValueError."""
        bad = self._first_bad_row(X)
        if bad is not None:
            raise ValueError(bad[1])
        return X

    def _first_bad_row(self, X: np.ndarray) -> tuple[int, str] | None:
        """The index of the first row of the (k, dim) array X that is not
        a point of this pair, and why; None when every row is one."""
        bad = (self._outside(X) | ~np.isfinite(X).all(axis=1)).nonzero()[0]
        if not bad.size:
            return None
        i = int(bad[0])
        c = X[i].tolist()
        if not all(map(math.isfinite, c)):
            return i, "coordinates must be finite"
        return i, self._outside_reason(c)

    def _outside(self, X: np.ndarray) -> np.ndarray:
        """Rows of X (finite or not) that fail the pair's own condition."""
        return np.zeros(len(X), dtype=bool)

    def _outside_reason(self, c: list[float]) -> str:
        """Why the finite row c fails the pair's own condition."""
        raise NotImplementedError

    def check_point(self, p: Point | BasepointTag) -> None:
        if isinstance(p, BasepointTag):
            if not isinstance(self, QuotientOf):
                raise SpaceMismatch("basepoint tag only lives in a quotient space")
            return
        if p.space_id != self.space_id:
            raise SpaceMismatch(
                f"point from space {p.space_id!r} used with space {self.space_id!r}"
            )

    def coords_matrix(self, points: Sequence[Point]) -> np.ndarray:
        """The (len(points), dim) coordinate array of points of this pair;
        BASEPOINT has no coordinates and is a ValueError."""
        for p in points:
            self.check_point(p)
            if isinstance(p, BasepointTag):
                raise ValueError("BASEPOINT has no coordinates")
        return np.array([p.coords for p in points], dtype=np.float64).reshape(len(points), self.dim)

    # -- distances ----------------------------------------------------

    def pairwise_dist(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Matrix of ambient distances between two coordinate arrays, as a
        new array that shares no memory with the inputs or the pair; the
        caller owns it and may overwrite it (``_quotient_costs`` does)."""
        raise NotImplementedError

    def dist_to_A_batch(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dist(self, x: Point | BasepointTag, y: Point | BasepointTag) -> float:
        self.check_point(x)
        self.check_point(y)
        if isinstance(x, BasepointTag):
            return self.dist_to_A(y)
        if isinstance(y, BasepointTag):
            return self.dist_to_A(x)
        a = np.array([x.coords], dtype=np.float64)
        b = np.array([y.coords], dtype=np.float64)
        return float(self.pairwise_dist(a, b)[0, 0])

    def dist_to_A(self, x: Point | BasepointTag) -> float:
        self.check_point(x)
        if isinstance(x, BasepointTag):
            return 0.0
        a = np.array([x.coords], dtype=np.float64)
        return float(self.dist_to_A_batch(a)[0])

    # -- oracles --------------------------------------------------------

    def proj_to_A(self, x: Point | BasepointTag) -> Point | BasepointTag:
        raise NotImplementedError

    def geodesic(self, x, y, t: float):
        raise NoGeodesicOracle(f"{self.kind} has no geodesic oracle")

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.space_id}>"

    def __eq__(self, other) -> bool:
        return isinstance(other, MetricPair) and other.space_id == self.space_id

    def __hash__(self) -> int:
        return hash(self.space_id)


def _check_t(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"interpolation parameter must lie in [0, 1], got {t}")
    return t


def _lerp(x: tuple[float, ...], y: tuple[float, ...], t: float) -> tuple[float, ...]:
    return tuple((1.0 - t) * a + t * b for a, b in zip(x, y))


# Byte budget of a block of distances, or of the temporary array behind
# one; every loop over a large distance matrix works a block of rows at a
# time within it, which bounds its peak memory.
_BLOCK_BYTES = 1 << 20


def _row_blocks(n: int, per_row: int):
    """Slices covering rows 0..n-1 in order, each block as many rows (at
    least one) as fit in _BLOCK_BYTES at per_row float64 entries a row."""
    rows = max(1, _BLOCK_BYTES // (8 * max(1, per_row)))
    return [slice(s, s + rows) for s in range(0, n, rows)]


def _pairwise_norm(xs: np.ndarray, ys: np.ndarray, norm: str) -> np.ndarray:
    """Matrix of norm(x - y) over the rows of xs and ys.

    Works through xs in row blocks (``_row_blocks``) so the temporary
    arrays stay within _BLOCK_BYTES.  The Euclidean norm reduces a
    (rows, m, dim) difference array.  The sup norm keeps a running maximum
    of |x_k - y_k| one coordinate k at a time in a (rows, m) buffer: the
    maximum of non-negative floats does not depend on the order they are
    compared in.  It reads the coordinates of ys from one contiguous
    (dim, m) copy, not from strided columns.  Either way every entry is,
    bit for bit, that of one unblocked pass.
    """
    n, m, dim = xs.shape[0], ys.shape[0], xs.shape[1]
    out = np.empty((n, m), dtype=np.float64)
    if norm == EUCLIDEAN:
        for b in _row_blocks(n, m * dim):
            diffs = xs[b, None, :] - ys[None, :, :]
            out[b] = np.sqrt((diffs * diffs).sum(axis=-1))
        return out
    yt, tmp = np.ascontiguousarray(ys.T), None
    for b in _row_blocks(n, m):
        x, block = xs[b], out[b]
        # one buffer for every block: only the last one can be shorter
        tmp = np.empty_like(block) if tmp is None else tmp[: len(block)]
        np.abs(np.subtract(x[:, :1], yt[0], out=block), out=block)
        for k in range(1, dim):
            np.abs(np.subtract(x[:, k : k + 1], yt[k], out=tmp), out=tmp)
            np.maximum(block, tmp, out=block)
    return out


class _VectorPair(MetricPair):
    """Shared machinery for pairs whose points are real vectors and whose
    geodesics are straight segments (constant speed in both norms).

    By default the norm is the sup norm and A = {0}, so the distance to A
    is the sup norm of the coordinates and the projection is the origin;
    the plane pairs override all three."""

    norm = SUP

    def pairwise_dist(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return _pairwise_norm(xs, ys, self.norm)

    def dist_to_A_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.abs(xs).max(axis=-1)

    def proj_to_A(self, x: Point) -> Point:
        self.check_point(x)
        return Point(self.space_id, (0.0,) * self.dim)

    def geodesic(self, x: Point, y: Point, t: float) -> Point:
        self.check_point(x)
        self.check_point(y)
        t = _check_t(t)
        return Point(self.space_id, _lerp(x.coords, y.coords, t))

    def to_json(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}


class PlaneDiagonal(_VectorPair):
    """Half-plane pairs {(b, d) : b <= d} with A the diagonal, and their
    higher products: n two-coordinate blocks, each above its own diagonal.

    The classical persistence plane is ``PlaneDiagonal()`` (one block).
    Distances use the sup norm by default; the Euclidean norm is available
    for both the plane and products.  ``n_pairs`` is read by
    ``_int_field``: an integer of any type but bool, or a float with no
    fractional part; anything else is a ParseError.
    """

    def __init__(self, n_pairs: int = 1, norm: str = SUP):
        if norm not in _NORMS:
            raise ValueError(f"unknown norm {norm!r}")
        n_pairs = _int_field(n_pairs, "n_pairs")
        if n_pairs < 1:
            raise ValueError("n_pairs must be at least 1")
        self.n_pairs = n_pairs
        self.norm = norm
        self.dim = 2 * n_pairs
        self.kind = "EuclideanPlaneDiagonal" if n_pairs == 1 else "HalfPlane2nDiagonal"
        self.space_id = f"plane{self.dim}:{norm}"

    def _outside(self, X: np.ndarray) -> np.ndarray:
        return (X[:, 1::2] < X[:, 0::2]).any(axis=1)

    def _outside_reason(self, c: list[float]) -> str:
        b, d = next((c[k], c[k + 1]) for k in range(0, self.dim, 2) if c[k + 1] < c[k])
        return f"coordinate pair ({b}, {d}) lies below the diagonal"

    def dist_to_A_batch(self, xs: np.ndarray) -> np.ndarray:
        half_gaps = (xs[:, 1::2] - xs[:, 0::2]) * 0.5
        # rounding in interpolated points can leave a gap of -0.0 scale dust
        half_gaps = np.maximum(half_gaps, 0.0)
        if self.norm == EUCLIDEAN:
            return np.sqrt(2.0 * (half_gaps * half_gaps).sum(axis=-1))
        return half_gaps.max(axis=-1)

    def proj_to_A(self, x: Point) -> Point:
        self.check_point(x)
        c = x.coords
        out = []
        for k in range(self.n_pairs):
            m = (c[2 * k] + c[2 * k + 1]) * 0.5
            out.extend((m, m))
        return Point(self.space_id, tuple(out))

    def to_json(self) -> dict:
        return {"kind": self.kind, "norm": self.norm, "dim": self.dim}


class HalfLineOrigin(_VectorPair):
    """The half-line [0, inf) with A = {0}."""

    def __init__(self):
        self.kind = "HalfLineOrigin"
        self.dim = 1
        self.space_id = "halfline"

    def _outside(self, X: np.ndarray) -> np.ndarray:
        return X[:, 0] < 0.0

    def _outside_reason(self, c: list[float]) -> str:
        return "half-line points are finite reals >= 0"


class SupCubeTruncatedC0(_VectorPair):
    """R^m with the sup norm and A = {0}: the m-coordinate truncation of
    the space of vanishing sequences.  Geodesics are straight segments.
    m is read by ``_int_field``: an integer of any type but bool, or a
    float with no fractional part; anything else is a ParseError."""

    MAX_DIM = 12

    def __init__(self, m: int):
        m = _int_field(m, "m")
        if m < 1:
            raise ValueError("m must be at least 1")
        if m > self.MAX_DIM:
            raise ValueError(f"m capped at {self.MAX_DIM} for exact enumeration")
        self.kind = "SupCubeTruncatedC0"
        self.dim = m
        self.space_id = f"supcube{m}"


class FiniteExplicit(MetricPair):
    """A finite metric space given by an explicit distance matrix, with A
    a chosen nonempty subset of indices.  Points are integer indices; the
    projection is the nearest index of A, and no geodesic oracle is
    provided (interpolation has no meaning here).  An index of A is read
    by ``_int_field``: an integer of any type but bool, or a float with no
    fractional part; anything else is a ParseError."""

    has_geodesic = False

    # slack allowed in the triangle inequality for rounded input distances
    TRIANGLE_TOL = 1e-9

    def __init__(self, matrix: Sequence[Sequence[float]], A: Sequence[int]):
        a_idx = sorted({_int_field(i, "A index") for i in A})
        # + 0.0 turns -0.0 into 0.0, so one metric has one space_id
        M = np.asarray(matrix, dtype=np.float64) + 0.0
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise InvalidMetric("distance matrix must be square")
        n = M.shape[0]
        if n == 0:
            raise InvalidMetric("distance matrix must be nonempty")
        if not np.all(np.isfinite(M)):
            raise InvalidMetric("distances must be finite")
        if np.any(M < 0):
            raise InvalidMetric("distances must be nonnegative")
        if np.any(np.abs(np.diagonal(M)) > 0):
            raise InvalidMetric("diagonal must be zero")
        if not np.array_equal(M, M.T):
            raise InvalidMetric("distance matrix must be symmetric")
        # entry (k, i, j) of a block is M[i, k] + M[k, j] + TRIANGLE_TOL
        for b in _row_blocks(n, n * n):
            if np.any(M > M.T[b, :, None] + M[b, None, :] + self.TRIANGLE_TOL):
                raise InvalidMetric("triangle inequality violated")
        if not a_idx:
            raise InvalidMetric("A must be nonempty")
        if a_idx[0] < 0 or a_idx[-1] >= n:
            raise InvalidMetric("A indices out of range")
        self.matrix = M
        self.matrix.setflags(write=False)
        self.A_indices = tuple(a_idx)
        self.kind = "FiniteExplicit"
        self.dim = 1
        self.size = n
        digest = hashlib.sha256(M.tobytes() + bytes(str(self.A_indices), "ascii")).hexdigest()[:12]
        self.space_id = f"finite:{digest}"
        self._a_dist = M[:, a_idx].min(axis=1)
        self._a_nearest = np.asarray(a_idx, dtype=np.int64)[M[:, a_idx].argmin(axis=1)]

    def _outside(self, X: np.ndarray) -> np.ndarray:
        i = X[:, 0]
        return (i != np.floor(i)) | (i < 0.0) | (i >= self.size)

    def _outside_reason(self, c: list[float]) -> str:
        return f"index {c[0]} out of range for {self.size} points"

    def _indices(self, xs: np.ndarray) -> np.ndarray:
        return xs[:, 0].astype(np.int64)

    def pairwise_dist(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self.matrix.take(self._indices(xs), 0).take(self._indices(ys), 1)

    def dist_to_A_batch(self, xs: np.ndarray) -> np.ndarray:
        return self._a_dist[self._indices(xs)]

    def proj_to_A(self, x: Point) -> Point:
        self.check_point(x)
        return Point(self.space_id, (float(self._a_nearest[int(x.coords[0])]),))

    def points_off_A(self) -> list[Point]:
        a_set = set(self.A_indices)
        return [Point(self.space_id, (float(i),)) for i in range(self.size) if i not in a_set]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "dim": 1,
            "points": list(range(self.size)),
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "A": list(self.A_indices),
        }


class QuotientOf(MetricPair):
    """The quotient pair (X/A, {A}) of an inner pair, carrying the metric
    min(d(x, y), d(x, A) + d(y, A)).  The collapsed class of A is the
    BASEPOINT tag; all other points keep their inner coordinates."""

    def __init__(self, inner: MetricPair):
        self.inner = inner
        self.kind = "QuotientOf"
        self.norm = inner.norm
        self.dim = inner.dim
        self.has_geodesic = inner.has_geodesic
        self.space_id = f"quotient({inner.space_id})"

    def _outside(self, X: np.ndarray) -> np.ndarray:
        return self.inner._outside(X)

    def _outside_reason(self, c: list[float]) -> str:
        return self.inner._outside_reason(c)

    def lift(self, p: Point) -> Point:
        """The inner-space point under a quotient point."""
        self.check_point(p)
        return Point(self.inner.space_id, p.coords)

    def lower(self, p: Point | BasepointTag) -> Point | BasepointTag:
        """Map an inner point into the quotient, collapsing A to BASEPOINT."""
        if isinstance(p, BasepointTag):
            return BASEPOINT
        if self.inner.dist_to_A(p) == 0.0:
            return BASEPOINT
        return Point(self.space_id, p.coords)

    def map_diagram(self, diagram):
        """Rebrand a diagram over the inner pair as one over the quotient."""
        from .diagram import _canonical

        if diagram.space_id != self.inner.space_id:
            raise SpaceMismatch(
                f"diagram lives over {diagram.space_id!r}, not over {self.inner.space_id!r}"
            )
        return _canonical(diagram.coords, list(diagram.mults), self)

    def pairwise_dist(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        D = self.inner.pairwise_dist(xs, ys)
        return _quotient_costs(D, self.inner.dist_to_A_batch(xs), self.inner.dist_to_A_batch(ys))

    def dist_to_A_batch(self, xs: np.ndarray) -> np.ndarray:
        return self.inner.dist_to_A_batch(xs)

    def proj_to_A(self, x) -> BasepointTag:
        self.check_point(x)
        return BASEPOINT

    def geodesic(self, x, y, t: float):
        self.check_point(x)
        self.check_point(y)
        t = _check_t(t)
        if not self.has_geodesic:
            raise NoGeodesicOracle(f"{self.inner.kind} has no geodesic oracle")
        x, y = (p if isinstance(p, BasepointTag) else self.lift(p) for p in (x, y))
        if isinstance(x, BasepointTag) or isinstance(y, BasepointTag):
            # the distances to A are unread on a leg with a BASEPOINT end
            return self.lower(_leg_at(self.inner, x, y, 0.0, 0.0, False, t))
        return self.lower(quotient_geodesic(self.inner, x, y, t))

    def to_json(self) -> dict:
        return {"kind": self.kind, "inner": self.inner.to_json()}


# -- quotient operations over an arbitrary pair -------------------------


def _quotient_costs(D: np.ndarray, ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
    """Quotient cost matrix min(d(x, y), d(x, A) + d(y, A)) from the
    ambient distance matrix and both distance-to-A vectors.

    D is overwritten with the result and returned: pass it a matrix the
    caller owns, such as a fresh ``pairwise_dist``.  It works through D in
    row blocks (``_row_blocks``), so the sums ax + ay only ever fill one
    block-sized temporary; each entry is, bit for bit, that of
    ``np.minimum(D, ax[:, None] + ay[None, :])``."""
    for b in _row_blocks(len(D), D.shape[1]):
        block = D[b]
        np.minimum(block, ax[b, None] + ay, out=block)
    return D


def quotient_distance(pair: MetricPair, x, y) -> float:
    """min(d(x, y), d(x, A) + d(y, A)): the distance in X/A between the
    classes of x and y."""
    return min(pair.dist(x, y), pair.dist_to_A(x) + pair.dist_to_A(y))


def quotient_geodesic(pair: MetricPair, x, y, t: float):
    """Evaluate at time t a constant-speed quotient geodesic from x to y.

    When d(x, y) <= d(x, A) + d(y, A) the ambient geodesic is already a
    quotient geodesic; otherwise the path runs x -> A -> y through the two
    projections, parametrized by arclength.  Points reaching A are reported
    as BASEPOINT.
    """
    if not pair.has_geodesic:
        raise NoGeodesicOracle(f"{pair.kind} has no geodesic oracle")
    t = _check_t(t)
    ax = pair.dist_to_A(x)
    ay = pair.dist_to_A(y)
    p = _leg_at(pair, x, y, ax, ay, pair.dist(x, y) > ax + ay, t)
    if isinstance(p, BasepointTag) or pair.dist_to_A(p) == 0.0:
        return BASEPOINT
    return p


def _leg_at(pair: MetricPair, x, y, ax: float, ay: float, through_A: bool, t: float):
    """Position at time t on the leg from x to y, the one rule of every
    geodesic leg.

    A leg with one BASEPOINT end slides along the geodesic between its
    other end and that end's projection, and a leg with two is BASEPOINT
    throughout.  Between two points it is the pair's geodesic or, with
    ``through_A``, the arclength path x -> A -> y through the two
    projections, given ax = d(x, A) and ay = d(y, A), which is BASEPOINT
    where it lies in A.  The distances to A are read only on that path.
    """
    if isinstance(x, BasepointTag):
        return BASEPOINT if isinstance(y, BasepointTag) else pair.geodesic(pair.proj_to_A(y), y, t)
    if isinstance(y, BasepointTag):
        return pair.geodesic(x, pair.proj_to_A(x), t)
    if not through_A:
        return pair.geodesic(x, y, t)
    s = t * (ax + ay)
    if s < ax:
        return pair.geodesic(x, pair.proj_to_A(x), s / ax)
    if s > ax:
        # remaining arclength s - ax measured from A toward y; near t = 1 the
        # quotient can round just above 1
        return pair.geodesic(pair.proj_to_A(y), y, min(1.0, (s - ax) / ay))
    return BASEPOINT


# -- serialization -------------------------------------------------------

# a tuple, not a set: membership by == lets an unhashable kind fall through
# to "unknown space kind"
_PLANE_KINDS = ("EuclideanPlaneDiagonal", "HalfPlane2nDiagonal")


def _point_to_json(p: Point | BasepointTag):
    """JSON form of a point: its coordinate list, or "A" for BASEPOINT."""
    if isinstance(p, BasepointTag):
        return "A"
    return [float(c) for c in p.coords]


def _coords_from_json(v, dim: int) -> list[float]:
    """The floats of a JSON coordinate list: a list of dim entries, each a
    number or a text float() reads.  A value that is not a list (a text
    or an object would iterate), a boolean entry or a wrong length raises
    ValueError; float() raises TypeError or OverflowError for an entry it
    cannot read."""
    if type(v) is not list:
        raise ValueError(f"coordinates must be a list, got {v!r}")
    c = [float(x) for x in v if type(x) is not bool]
    if len(c) != len(v):
        raise ValueError(f"a boolean is not a coordinate, got {v!r}")
    if len(c) != dim:
        raise ValueError(f"expected {dim} coordinates, got {len(c)}")
    return c


def _int_field(value, name: str) -> int:
    """An integer argument or descriptor field as an int: any integer type
    but bool, or a float with no fractional part (4.0 reads as 4).
    Anything else (a bool, a fraction, inf, nan, None, a text, a Fraction
    or a Decimal) is a ParseError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ParseError(f"{name} must be an integer, got {value!r}")


def _json_value(obj, what: str):
    """obj parsed as JSON text when it is a str or bytes, else obj itself.
    Anything json.loads raises on the text (malformed syntax, bad UTF-8,
    an integer past Python's digit limit, nesting past the recursion
    limit) is a ParseError "invalid <what>: ..."."""
    if not isinstance(obj, (str, bytes)):
        return obj
    try:
        return json.loads(obj)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"invalid {what}: {e}") from e


def space_from_json(obj: dict | str) -> MetricPair:
    """Build a descriptor from its JSON form (dict or JSON text)."""
    obj = _json_value(obj, "space JSON")
    if not isinstance(obj, dict):
        raise ParseError("space descriptor must be a JSON object")
    kind = obj.get("kind")
    if kind in _PLANE_KINDS:
        norm = obj.get("norm", SUP)
        dim = _int_field(obj.get("dim", 2), "dim")
        if dim % 2 != 0 or dim < 2:
            raise ParseError(f"plane-kind spaces need even dim >= 2, got {dim}")
        if kind == "EuclideanPlaneDiagonal" and dim != 2:
            raise ParseError("EuclideanPlaneDiagonal has dim 2")
        try:
            return PlaneDiagonal(dim // 2, norm)
        except ValueError as e:
            raise ParseError(str(e)) from e
    if kind == "HalfLineOrigin":
        return HalfLineOrigin()
    if kind == "SupCubeTruncatedC0":
        if "dim" not in obj:
            raise ParseError("SupCubeTruncatedC0 needs a dim field")
        dim = _int_field(obj["dim"], "dim")
        try:
            return SupCubeTruncatedC0(dim)
        except ValueError as e:
            raise ParseError(str(e)) from e
    if kind == "FiniteExplicit":
        if "matrix" not in obj or "A" not in obj:
            raise ParseError("FiniteExplicit needs matrix and A fields")
        if not isinstance(obj["A"], list):
            raise ParseError(f"FiniteExplicit A must be a list of indices, got {obj['A']!r}")
        try:
            return FiniteExplicit(obj["matrix"], obj["A"])
        except InvalidMetric:
            raise
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"bad FiniteExplicit descriptor: {e}") from e
    if kind == "QuotientOf":
        if "inner" not in obj:
            raise ParseError("QuotientOf needs an inner descriptor")
        return QuotientOf(space_from_json(obj["inner"]))
    raise ParseError(f"unknown space kind {kind!r}")
