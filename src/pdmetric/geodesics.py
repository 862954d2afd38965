"""Geodesics between diagrams and desk-scale geodesicity checks.

An optimal bottleneck matching turns into a constant-speed path of
diagrams: each matched pair of points moves along an ambient geodesic,
pairs matched with A slide onto their projections, and a matched pair
whose points sit far apart but close to A is rerouted through A (the pair
vanishes at the basepoint and re-emerges).  Every leg moves at speed at
most the bottleneck distance, which is exactly what makes the whole path
a geodesic in the diagram metric.  ``DiagramPath.at`` places each leg's
point with ``spaces._leg_at``, the leg rule that quotient geodesics use
too.

``midpoint_check`` samples the path and verifies both distance identities
d(source, path(t)) = t * d and d(path(t), target) = (1 - t) * d with the
exact solver.  ``c0_truncation_gap`` computes, in the m-coordinate sup
cube, the bottleneck distance between the diagrams of even-sized and
odd-sized subset vectors; the gap stays above the infinite-dimensional
limit 1, which is the obstruction to geodesics in the untruncated space.
Its cost matrix comes from the subsets' bit masks, not from a sup-norm
pass over 2^(m-1) x 2^(m-1) pairs of m coordinates: the sup distance of
two subset vectors is fixed by the least coordinate in which the subsets
differ.

Paths come from ``bottleneck`` and share its fixed size cap, which counts
points with multiplicity before any is expanded; ``c0_truncation_gap``
enumerates 2^m subsets and refuses m above ``SupCubeTruncatedC0.MAX_DIM``.
Both refusals raise TooLarge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diagram import Diagram, _canonical
from .errors import NoGeodesicOracle, TooLarge
from .matching import Matching, MatchedPair, _bottleneck, bottleneck
from .probes import ProbeReport, Verdict
from .spaces import (BasepointTag, MetricPair, Point, SupCubeTruncatedC0, _check_t, _int_field,
                     _leg_at, _quotient_costs, _row_blocks)

__all__ = [
    "GoodnessReason",
    "GoodnessCertificate",
    "goodness",
    "Route",
    "PathLeg",
    "DiagramPath",
    "geodesic_between",
    "midpoint_check",
    "c0_truncation_gap",
]


class GoodnessReason(str, Enum):
    CLOSE_PAIR = "CLOSE_PAIR"
    BASEPOINT_TARGET = "BASEPOINT_TARGET"
    NOT_GOOD = "NOT_GOOD"


@dataclass(frozen=True)
class GoodnessCertificate:
    """Whether a matched pair admits a canonical-form geodesic leg.

    A pair (x, y) is good when either end is the basepoint or when the
    quotient distance between x and y is smaller than max(d(x, A),
    d(y, A)); good pairs never need rerouting through A.
    """

    left: Point | BasepointTag
    right: Point | BasepointTag
    verdict: bool
    reason: GoodnessReason


def goodness(pair: MetricPair, x, y) -> GoodnessCertificate:
    if isinstance(x, BasepointTag) or isinstance(y, BasepointTag):
        d = 0.0  # unread: a pair with a BASEPOINT end is good
    else:
        d = float(pair.pairwise_dist(pair.coords_matrix([x]), pair.coords_matrix([y]))[0, 0])
    return _certify(pair, [(x, y)], [d])[0][0]


def _certify(pair: MetricPair, pairs, dist) -> list[tuple[GoodnessCertificate, float, float]]:
    """Each pair (x, y)'s goodness certificate with d(x, A) and d(y, A).

    ``dist`` holds each pair's distance d(x, y), or its quotient distance
    min(d(x, y), d(x, A) + d(y, A)) (a bottleneck witness's cost); the
    entry of a pair with a BASEPOINT end is not read.  The distances to A
    come from one batch query over the pairs' points (BASEPOINT is at 0,
    its row a placeholder).  A pair with a BASEPOINT end is good; any
    other pair is good when its quotient distance is below max(d(x, A),
    d(y, A)).
    """
    ends = [q for xy in pairs for q in xy]
    base = np.array([isinstance(q, BasepointTag) for q in ends], dtype=bool)
    P = np.zeros((len(ends), pair.dim))
    P[~base] = pair.coords_matrix([q for q, b in zip(ends, base) if not b])
    to_A = np.where(base, 0.0, pair.dist_to_A_batch(P)).reshape(-1, 2)
    close = np.minimum(np.asarray(dist, dtype=float), to_A.sum(axis=1)) < to_A.max(axis=1)
    out = []
    for (x, y), b, c, (ax, ay) in zip(pairs, base.reshape(-1, 2).any(axis=1).tolist(),
                                      close.tolist(), to_A.tolist()):
        reason = (GoodnessReason.BASEPOINT_TARGET if b else
                  GoodnessReason.CLOSE_PAIR if c else GoodnessReason.NOT_GOOD)
        out.append((GoodnessCertificate(x, y, b or c, reason), ax, ay))
    return out


class Route(str, Enum):
    DIRECT = "DIRECT"
    THROUGH_A = "THROUGH_A"


@dataclass(frozen=True)
class PathLeg:
    """One matched pair of the path, with d(left, A) and d(right, A)
    (0 at BASEPOINT)."""

    left: Point | BasepointTag
    right: Point | BasepointTag
    cost: float
    route: Route
    certificate: GoodnessCertificate
    left_to_A: float
    right_to_A: float


@dataclass(frozen=True)
class DiagramPath:
    """A constant-speed geodesic from source to target in the bottleneck
    metric, evaluated lazily at any t in [0, 1]."""

    source: Diagram
    target: Diagram
    value: float
    matching: Matching
    legs: tuple[PathLeg, ...]
    pair: MetricPair

    def at(self, t: float) -> Diagram:
        t = _check_t(t)
        positions = [_leg_at(self.pair, leg.left, leg.right, leg.left_to_A, leg.right_to_A,
                             leg.route is Route.THROUGH_A, t) for leg in self.legs]
        rows = [q.coords for q in positions if not isinstance(q, BasepointTag)]
        return _canonical(np.array(rows).reshape(-1, self.pair.dim), [1] * len(rows), self.pair)


def geodesic_between(sigma: Diagram, tau: Diagram, pair: MetricPair) -> DiagramPath:
    """Build a geodesic for the bottleneck distance from an optimal
    matching.  Requires a geodesic oracle on the pair; raises TooLarge
    through ``bottleneck`` when the diagrams exceed its size cap."""
    if not pair.has_geodesic:
        raise NoGeodesicOracle(f"{pair.kind} has no geodesic oracle")
    value, matching = bottleneck(sigma, tau, pair)
    # every point pair of the witness is unsplit, so its cost is its
    # quotient distance
    certs = _certify(pair, [(mp.left, mp.right) for mp in matching.pairs],
                     [mp.cost for mp in matching.pairs])
    legs = tuple(_classify_leg(mp, value, *c) for mp, c in zip(matching.pairs, certs))
    return DiagramPath(sigma, tau, value, matching, legs, pair)


def _classify_leg(mp: MatchedPair, value: float, cert: GoodnessCertificate,
                  ax: float, ay: float) -> PathLeg:
    x, y = mp.left, mp.right
    # legs touching A slide along a projection; a pair that is not good
    # reroutes through A when the detour fits the path's speed budget
    through_A = (isinstance(x, BasepointTag) or isinstance(y, BasepointTag)
                 or (not cert.verdict and ax + ay <= value))
    return PathLeg(x, y, mp.cost, Route.THROUGH_A if through_A else Route.DIRECT, cert, ax, ay)


# Rounding a grid check allows, in ulps (2^-52 M) of the largest
# |coordinate| M of the two diagrams.  To first order in u = 2^-53, in the
# plane: a frame coordinate (1 - t) a + t b is off by at most 3u M, and by
# at most 7u M on a leg through A, which adds the projection's and the
# leg parameter's roundings; that moves a distance to the frame by at
# most 7 sqrt(2) u M.  The distance, at most 2 sqrt(2) M, rounds by at
# most 6 sqrt(2) u M in the Euclidean norm (2u M in the sup norm), and
# t * d carries d's rounding and the product's, 8 sqrt(2) u M.  The sum,
# 21 sqrt(2) u M < 32u M, is 16 ulps.  Shifted sup and Euclidean instances
# of one to three points, in the plane, its products, the half-line and
# the sup cube, deviated by at most 1.2 ulps.
_ULPS_ALLOWED = 16


def midpoint_check(sigma: Diagram, tau: Diagram, pair: MetricPair, grid: int = 11):
    """Verify the geodesic parametrization on a t-grid with the exact
    solver; returns a probe report with the worst deviation.  grid is
    read by ``spaces._int_field``."""
    grid = _int_field(grid, "grid")
    if grid < 2:
        raise ValueError("grid needs at least the two endpoints")
    _, report = _grid_check(geodesic_between(sigma, tau, pair), grid - 1)
    return report


def _grid_check(path: DiagramPath, steps: int):
    """Frames (t, path.at(t)) at t = i / steps for i = 0..steps, and the
    midpoint_check report verifying them with the exact solver.

    A deviation passes up to 1e-9 plus ``_ULPS_ALLOWED`` ulps of M, the
    largest |coordinate| of source and target: a frame's coordinates
    and the distances between them are rounded at the scale of M, so
    correct frames far from the origin deviate by about one ulp of M."""
    frames = [(i / steps, path.at(i / steps)) for i in range(steps + 1)]
    sigma, tau, pair, base = path.source, path.target, path.pair, path.value
    M = max(float(np.abs(d.coords).max(initial=0.0)) for d in (sigma, tau))
    tol = 1e-9 + _ULPS_ALLOWED * 2.0**-52 * M
    trace = []
    worst = 0.0
    for t, frame in frames:
        d_from, _ = bottleneck(sigma, frame, pair)
        d_to, _ = bottleneck(frame, tau, pair)
        dev = max(abs(d_from - t * base), abs(d_to - (1.0 - t) * base))
        worst = max(worst, dev)
        trace.append((t, dev))
    verdict = Verdict.WITNESSED if worst <= tol else Verdict.REFUTED
    return frames, ProbeReport(
        probe_name="midpoint_check",
        verdict=verdict,
        witnesses={"distance": base, "max_deviation": worst, "grid": steps + 1},
        numeric_trace=tuple(trace),
    )


def c0_truncation_gap(m: int):
    """Bottleneck gap between the even- and odd-subset diagrams in the
    m-coordinate sup cube.

    Coordinates of the vector for a subset F of {1..m} are 1 + 1/i for
    i in F and 0 elsewhere.  The gap exceeds the infinite-dimensional
    limit 1 for every m, certifying that the corresponding pair of points
    admits no midpoint in the untruncated space.  The 2^m subsets are
    enumerated, so m above ``SupCubeTruncatedC0.MAX_DIM`` raises TooLarge;
    the sup cube refuses m below 1 with ValueError.  m is read by
    ``spaces._int_field``: an integer of any type but bool, or a float
    with no fractional part; anything else is a ParseError.  The costs come from ``_subset_cost_data``, bit for bit
    those of the sup-norm cost data.
    """
    m = _int_field(m, "m")
    if m > SupCubeTruncatedC0.MAX_DIM:
        raise TooLarge(f"subset enumeration capped at m = {SupCubeTruncatedC0.MAX_DIM}")
    space = SupCubeTruncatedC0(m)
    V, odd = _subset_vectors(m)
    sigma = _canonical(V[~odd], [1] * (len(V) // 2), space)
    tau = _canonical(V[odd], [1] * (len(V) // 2), space)
    # every subset is one point, so the solve's rows are the distinct points
    Q, ax, ay = _subset_cost_data(sigma, tau, space)
    gap, _ = _bottleneck(sigma, tau, Q, ax, ay)
    # Q = min(d, ax + ay) is d itself at its minimum: an even and an odd
    # subset differ in some coordinate i, so they are at least 1 + 1/m
    # apart, and {1} and {1, m} are exactly that; every ax, ay is at least
    # 1 + 1/m, so ax + ay is larger
    min_cross = float(Q.min(initial=math.inf))
    min_to_A = float(min(ax.min(initial=math.inf), ay.min(initial=math.inf)))
    ok = gap > 1.0 and min_cross > 1.0 and min_to_A > 1.0
    report = ProbeReport(
        probe_name="c0_truncation_gap",
        verdict=Verdict.WITNESSED if ok else Verdict.REFUTED,
        witnesses={
            "m": m,
            "gap": gap,
            "limit": 1.0,
            "min_cross_distance": min_cross,
            "min_dist_to_A": min_to_A,
            "even_size": sigma.size,
            "odd_size": tau.size,
        },
        numeric_trace=((float(m), gap),),
    )
    return gap, report


def _subset_cost_data(sigma: Diagram, tau: Diagram, space: SupCubeTruncatedC0):
    """(Q, ax, ay) of two diagrams of subset vectors, bit for bit those of
    ``matching._cost_data``, with no sup-norm pass over the coordinates.

    Coordinate i of a subset vector is 1 + 1/i or 0, and 1 + 1/i falls as
    i grows, so the sup distance between the vectors of F and G is
    1 + 1/i at the least i in F ^ G: with a row's subset as the bit mask of
    its nonzero coordinates, D[u, v] is ``table[lowbit(a[u] ^ b[v])]``,
    where ``table[1 << (i - 1)]`` holds 1 + 1/i, computed as
    ``_subset_vectors`` computes it.  D is filled one ``_row_blocks`` block
    at a time through two reused int16 buffers, so the n x m float64 D is
    the one full-size array.  ``take`` writes into D with ``mode="clip"``
    (no index is out of range): with the default ``"raise"`` numpy would
    buffer the output, one more block."""
    m = space.dim
    bit = np.int16(1) << np.arange(m, dtype=np.int16)
    a = (sigma.coords != 0.0) @ bit
    b = (tau.coords != 0.0) @ bit
    table = np.zeros(1 << m)
    table[bit] = 1.0 + 1.0 / np.arange(1, m + 1)
    D = np.empty((len(a), len(b)))
    x = y = None
    for blk in _row_blocks(len(a), len(b)):
        out = D[blk]
        # one pair of buffers for every block: only the last one can be shorter
        x = np.empty(out.shape, np.int16) if x is None else x[: len(out)]
        y = np.empty_like(x) if y is None else y[: len(out)]
        np.bitwise_xor(a[blk, None], b, out=x)
        np.bitwise_and(x, np.negative(x, out=y), out=x)
        table.take(x, out=out, mode="clip")
    ax, ay = space.dist_to_A_batch(sigma.coords), space.dist_to_A_batch(tau.coords)
    return _quotient_costs(D, ax, ay), ax, ay


def _subset_vectors(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2^m subset vectors of the m-coordinate sup cube as rows, row
    ``mask`` holding 1 + 1/i at each coordinate i in F = {i : bit i - 1 of
    mask is set} and 0 elsewhere, and which rows have |F| odd."""
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    V = np.where(bits == 1, 1.0 + 1.0 / np.arange(1, m + 1), 0.0)
    return V, bits.sum(axis=1) % 2 == 1
