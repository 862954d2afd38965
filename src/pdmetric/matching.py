"""Exact bottleneck and p-Wasserstein distances between diagrams.

Matching a point x of one diagram with a point y of the other costs the
quotient distance min(d(x, y), d(x, A) + d(y, A)); matching a point with A
costs its distance to A; unmatched mass on both sides is absorbed by A for
free.  The bottleneck distance minimizes the largest cost, the p-Wasserstein
distance the p-norm of the cost multiset.  The solvers see only the
quotient cost matrix Q and the distances to A: a matched point pair whose
Q entry equals d(x, A) + d(y, A) is reported as its two A-assignments.

The bottleneck value is found by binary search over the finite set of
candidate costs, deciding each threshold exactly with a bipartite matching
kernel, so the result is one of the candidate floats with no tolerance.
The search runs the augmented kernel at the lower end LB first.  Only when
LB is infeasible does it build the candidates in (LB, UB] and halve over
them, deciding each by the must-match rule, which matches only the points
farther than the threshold from A.  The value is the smallest feasible
candidate, read from the search.  The witness is always an augmented
kernel matching at that candidate, so none of this shows in the output.
Wasserstein values come from an exact min-cost assignment.  Every point
left unmatched goes to A, so a matching costs the fixed sum of all powers
d(x, A)^p and d(y, A)^p plus, per matched pair, Q^p - d(x, A)^p - d(y, A)^p;
the assignment therefore runs on a max(n, m) x max(n, m) matrix, not on
the (n+m) x (n+m) augmented one.  A compiled kernel solves that matrix in
float, and an exact pass certifies or repairs its assignment, so that the
witness minimizes the exact sum of the rounded cost powers that the value
is recomputed from: the objective of ``brute_force_dp``, over matchings
that pair x and y only when Q < d(x, A) + d(y, A) in float.  The pass
works on whole arrays: its exact entries come from one bulk routine
(``_ExactCosts.costs``), its float labels from block relaxations.  The
witness lists each x in order with its partner or with A (a pair split
through A as its two halves), then the (A, y) pairs of the unmatched y
in order.  Wasserstein values are the p-norm of the witness's costs,
taken from its cost arrays before any pair is built: the correctly
rounded sum of the cost powers (``math.fsum``), which is insensitive to
the order the solver discovered the pairs in, so it is the value of the
pairs when they are built.  When the power of a nonzero cost would be 0
or subnormal and the largest cost is below 1, every cost is first divided
by the largest one (``_power_scale``), which only raises the powers.

Both solvers build their witness when its ``pairs`` are first read, not
during the solve (``Matching._deferred``), so a solve whose witness is
never read makes no ``Point`` and no ``MatchedPair``, and a bottleneck
solve runs no kernel after its last decision.

Every solver refuses an instance with more than ``DEFAULT_NODE_CAP``
points in both diagrams together, counted with multiplicity, by raising
TooLarge.  The count is read from the multiplicities before any point is
expanded into its copies, so a huge multiplicity costs no memory.

``brute_force_dp`` enumerates every augmented bijection directly from the
definition (ambient distances, explicit A-assignments) and is the oracle
the solvers are validated against; it refuses more than
``BRUTE_FORCE_CAP`` points the same way.  ``total_persistence``, the
distance to the empty diagram, is the same p-norm over the batch distances
to A that the solvers use, taken over the distinct points weighted by
their multiplicities.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations
from typing import Iterable

import numpy as np

from ._kernels import augmented_matching, solve_assignment
from .diagram import Diagram, _check_same_space
from .errors import ParseError, TooLarge
from .spaces import (BASEPOINT, BasepointTag, MetricPair, Point, _coords_from_json,
                     _block_rows, _json_value, _point_to_json, _quotient_costs,
                     _row_blocks)

__all__ = [
    "DEFAULT_NODE_CAP",
    "MatchedPair",
    "Matching",
    "candidate_thresholds",
    "feasible_at_threshold",
    "bottleneck",
    "wasserstein",
    "brute_force_dp",
    "total_persistence",
    "matching_to_json",
    "matching_from_json",
]

DEFAULT_NODE_CAP = 10_000
BRUTE_FORCE_CAP = 10


@dataclass(frozen=True)
class MatchedPair:
    left: Point | BasepointTag
    right: Point | BasepointTag
    cost: float


@dataclass(frozen=True)
class Matching:
    """A bijection witness between two diagrams' augmented point sets.

    ``value`` is the matching's objective: the max cost for p = inf, else
    the p-norm of the costs.  A witness from ``bottleneck`` or
    ``wasserstein`` builds its ``pairs`` on first read and keeps them;
    until then it holds the solve's cost data (the n x m matrix Q among
    them), which it drops once they are built.  Its ``value`` is known
    before: the search's value, or the p-norm of the costs the pairs will
    carry.  Equality, hashing, repr and pickling read ``pairs``.
    """

    pairs: tuple[MatchedPair, ...]
    value: float
    p: float

    @classmethod
    def _deferred(cls, build, value: float, p: float) -> Matching:
        """A witness whose pairs are ``build()``, called on first read."""
        matching = cls.__new__(cls)
        matching.__dict__.update(value=value, p=p, _build=build)
        return matching

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks, which for
        # "pairs" means a deferred witness read for the first time
        build = self.__dict__.get("_build")
        if name != "pairs" or build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__["pairs"] = pairs = build()
        self.__dict__.pop("_build", None)
        return pairs

    def __getstate__(self):
        return {"pairs": self.pairs, "value": self.value, "p": self.p}


def _check_p(p, error=ValueError, name: str = "p") -> float:
    """``p`` as a float when it is a real >= 1 or +inf; otherwise raise
    ``error``.  -inf and nan fail the one comparison, like every p < 1."""
    p = float(p)
    if not p >= 1.0:
        raise error(f"{name} must be >= 1, got {p}")
    return p


def _power_scale(p: float, *costs: np.ndarray) -> float:
    """The divisor every cost is scaled by before its p-th power is taken.

    It is the largest cost cmax when cmax < 1 and the p-th power of some
    nonzero cost is 0 or subnormal, which loses that cost's weight; then
    every scaled power lies in [0, 1], the largest is 1, and a p-norm is
    reported as cmax * (sum of (c / cmax)^p)^(1/p).  Otherwise it is 1.0
    and the scaled costs are the costs themselves, so inputs in the normal
    range keep their bits.  A divisor above 1 would only shrink the powers
    and push more of them below the normal range, so there is none."""
    cmax = max(float(np.max(c, initial=0.0)) for c in costs)
    if cmax >= 1.0:
        return 1.0
    tiny = min(float(np.min(c, initial=np.inf, where=c > 0.0)) for c in costs)
    return 1.0 if tiny**p >= sys.float_info.min else cmax


def _power_sum(costs: Iterable[float], p: float, mults=None) -> float:
    """The correctly rounded sum of the p-th cost powers (finite p >= 1),
    which ``math.fsum`` returns in any order.  With ``mults``, power i
    counts ``mults[i]`` times in an exact rational sum rounded once: the
    correctly rounded sum of the repeated powers, none of them built.

    Raises TooLarge when a power or the sum overflows the float range."""
    try:
        if mults is None:
            return math.fsum(c**p for c in costs)
        return float(sum((Fraction(c**p) * k for c, k in zip(costs, mults)), Fraction(0)))
    except OverflowError as e:
        raise TooLarge(f"cost powers overflow the float range at p = {p}") from e


def p_norm(costs: Iterable[float], p: float, mults=None) -> float:
    """The p-norm of a cost multiset (the max for p = inf), order-independent;
    cost i counts ``mults[i]`` times when ``mults`` is given.  Costs are
    scaled by ``_power_scale`` before their powers are summed, so with or
    without ``mults`` the value is the same to the bit."""
    costs = list(costs)
    if math.isinf(p):
        return max(costs, default=0.0)
    s = _power_scale(p, np.array(costs))
    return s * _power_sum([c / s for c in costs], p, mults) ** (1.0 / p)


def _matching(pairs, p: float) -> Matching:
    """The witness over ``pairs`` with its value recomputed from the pair
    costs; for p = inf the value is the max."""
    return Matching(tuple(pairs), p_norm([q.cost for q in pairs], p), p)


def total_persistence(diagram: Diagram, p: float, pair: MetricPair) -> float:
    """Distance to the empty diagram: sup of dist-to-A for p = inf, else
    the p-norm of the dist-to-A multiset, each distinct point's distance
    weighted by its multiplicity, so no point is expanded into its copies."""
    _check_same_space(diagram, pair)
    return p_norm(pair.dist_to_A_batch(diagram.coords).tolist(), _check_p(p), diagram.mults)


def _expand(diagram: Diagram) -> np.ndarray:
    """The diagram's coordinate rows, each repeated by its multiplicity in
    place; only after a size check."""
    return np.repeat(diagram.coords, diagram.mults, axis=0)


def _check_size(sigma: Diagram, tau: Diagram, pair: MetricPair, limit: int) -> None:
    """Raise TooLarge when the two diagrams hold more than ``limit`` points
    counted with multiplicity.  The count is read from the multiplicities,
    so a huge one is refused before any copy of its point is built."""
    _check_same_space(sigma, pair)
    _check_same_space(tau, pair)
    n, m = sigma.size, tau.size
    if n + m > limit:
        raise TooLarge(f"{n} + {m} points (with multiplicity) exceed the cap of {limit}")


def _cost_data(sigma: Diagram, tau: Diagram, pair: MetricPair):
    """(Q, ax, ay) over the expanded rows: the n x m quotient costs and
    both distance-to-A vectors.  Q is built in the pairwise distance
    matrix itself, so the solve holds one n x m array."""
    _check_size(sigma, tau, pair, DEFAULT_NODE_CAP)
    X, Y = _expand(sigma), _expand(tau)
    ax = pair.dist_to_A_batch(X)
    ay = pair.dist_to_A_batch(Y)
    return _quotient_costs(pair.pairwise_dist(X, Y), ax, ay), ax, ay


def _build_pairs(sigma, tau, partner, Q, ax, ay) -> tuple[MatchedPair, ...]:
    """The matched pairs of a matching over the expanded rows of ``sigma``
    and ``tau``: each x in order with its partner or with A, then (A, y)
    for every y that no x took, in order.

    Only the first n entries of ``partner`` are read, entry u holding x_u's
    partner column, a value >= m standing for A.  An augmented kernel
    array reads the same: its slot row n + k can take only y_k, so the y
    that no x took are those its slot rows take, in the same order.

    A point pair whose quotient cost is the route through A (Q equals
    d(x, A) + d(y, A)) is split into the two explicit A-assignments it
    abbreviates, so stored costs always refer to actual distances in the
    pair.  Ties split too: over a quotient pair the ambient distance
    already equals the rounded route through A, and splitting keeps the
    reported cost multiset identical to the one the same matching has
    over the unquotiented pair.
    """
    n, m = Q.shape
    xs, ys = list(sigma.iter_points()), list(tau.iter_points())
    partner = partner[:n].tolist()
    out = []
    for u, v in enumerate(partner):
        if v >= m:
            out.append(MatchedPair(xs[u], BASEPOINT, float(ax[u])))
        elif Q[u, v] == ax[u] + ay[v]:
            out.append(MatchedPair(xs[u], BASEPOINT, float(ax[u])))
            out.append(MatchedPair(BASEPOINT, ys[v], float(ay[v])))
        else:
            out.append(MatchedPair(xs[u], ys[v], float(Q[u, v])))
    taken = set(partner)
    out.extend(MatchedPair(BASEPOINT, ys[v], float(ay[v])) for v in range(m) if v not in taken)
    return tuple(out)


def _candidates(Q: np.ndarray, ax: np.ndarray, ay: np.ndarray,
                above: float = -math.inf, upto: float = math.inf) -> np.ndarray:
    """Sorted distinct values the bottleneck distance can take: 0, the
    pairwise quotient costs, and each point's distance to A; only those in
    (above, upto] when a bracket is given, and only they are copied."""
    values = (np.array([0.0]), Q.ravel(), ax, ay)
    return np.unique(np.concatenate([v[(v > above) & (v <= upto)] for v in values]))


def candidate_thresholds(sigma: Diagram, tau: Diagram, pair: MetricPair) -> list[float]:
    """Sorted distinct values the bottleneck distance can take: 0, the
    pairwise quotient costs, and each point's distance to A."""
    return _candidates(*_cost_data(sigma, tau, pair)).tolist()


def feasible_at_threshold(
    sigma: Diagram,
    tau: Diagram,
    pair: MetricPair,
    r: float,
) -> tuple[bool, Matching | None]:
    """Decide whether some augmented bijection keeps every cost <= r; on
    success also return one such matching as a witness."""
    if r < 0.0:
        return False, None
    Q, ax, ay = _cost_data(sigma, tau, pair)
    ml = augmented_matching(Q, ax, ay, float(r))
    if (ml < 0).any():
        return False, None
    return True, _matching(_bottleneck_pairs(sigma, tau, Q, ax, ay, float(r), ml), math.inf)


def bottleneck(
    sigma: Diagram,
    tau: Diagram,
    pair: MetricPair,
) -> tuple[float, Matching]:
    """Exact bottleneck distance and an optimal matching.

    Binary search over the sorted candidate costs inside the bracket
    [LB, UB]: every point must go to A or to a partner, so no threshold
    below LB = max over points of min(distance to A, cheapest partner) is
    feasible, while sending every point to A makes UB = the largest
    distance to A feasible.  Both are candidates, so the search finds the
    same smallest feasible candidate as a search over the whole set.

    The first run is the augmented kernel at LB, which is often the
    answer; then its matching is the witness and the search is over.
    Otherwise only the candidates in (LB, UB] are built, and plain halving
    over them decides each threshold by the must-match rule
    (``augmented_matching(..., decide=True)``): a feasible one becomes the
    upper end, an infeasible one the lower.  The witness is the
    augmented matching at the smallest feasible candidate, so the returned
    value is exactly the largest cost of the returned matching.  The value
    comes from the search; the witness's pairs are built when first read
    (see ``Matching``), by one more cold augmented run at the value unless
    the LB run's matching is the witness.
    """
    Q, ax, ay = _cost_data(sigma, tau, pair)
    value, ml = _bottleneck(Q, ax, ay)
    return value, Matching._deferred(
        partial(_bottleneck_pairs, sigma, tau, Q, ax, ay, value, ml), value, math.inf)


def _bottleneck(Q: np.ndarray, ax: np.ndarray, ay: np.ndarray):
    """(value, ml): the bracketed search of ``bottleneck`` on the cost data
    (Q, ax, ay) alone.  ``ml`` is the LB run's augmented matching when that
    run is the witness, else None.

    The search reads Q, ax and ay only through comparisons, with each
    other and with 0, so on a strictly increasing relabelling of their
    values that keeps 0 at 0 (such as uint8 ranks into the sorted distinct
    values of 0, Q, ax and ay) it returns the relabelled value."""
    n, m = Q.shape
    # a point's cheapest partner exists only when the other side has points
    cheapest = np.concatenate((np.minimum(ax, Q.min(axis=1)) if m else ax,
                               np.minimum(ay, Q.min(axis=0)) if n else ay))
    value = float(cheapest.max(initial=0))
    ml = augmented_matching(Q, ax, ay, value)
    if (ml < 0).any():
        ub = float(max(ax.max(initial=0), ay.max(initial=0)))
        cands = _candidates(Q, ax, ay, value, ub)
        lo, hi = 0, len(cands) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if (augmented_matching(Q, ax, ay, float(cands[mid]), decide=True) < 0).any():
                lo = mid + 1
            else:
                hi = mid
        value, ml = float(cands[lo]), None
    return value, ml


def _bottleneck_pairs(sigma, tau, Q, ax, ay, value: float, ml) -> tuple[MatchedPair, ...]:
    """The pairs of a bottleneck witness: those of the augmented matching
    ``ml`` at ``value`` when there is one (the LB run's, or the feasible
    run of ``feasible_at_threshold``), else of one cold augmented run
    there."""
    if ml is None:
        ml = augmented_matching(Q, ax, ay, value)
    return _build_pairs(sigma, tau, ml, Q, ax, ay)


def wasserstein(
    sigma: Diagram,
    tau: Diagram,
    p: float,
    pair: MetricPair,
) -> tuple[float, Matching]:
    """Exact p-Wasserstein distance (1 <= p < inf) and an optimal matching;
    p = inf gives the bottleneck distance.  The witness lists the points of
    ``sigma`` in order, each with its partner or with A (a pair whose cost
    is its route through A as (x, A) then (A, y)), then the unmatched points
    of ``tau`` in order, each with A."""
    p = _check_p(p)
    if math.isinf(p):
        return bottleneck(sigma, tau, pair)
    Q, ax, ay = _cost_data(sigma, tau, pair)
    n, m = Q.shape
    s = _power_scale(p, Q, ax, ay)
    # The k x k instance, k = max(n, m): entry (u, v) costs the cheaper of
    # matching x_u with y_v and sending both to A, and a padding row or
    # column stands for A, so it costs the other point's power.  It is
    # min(Q^p - ax^p - ay^p, 0) plus the row constant ax^p and the column
    # constant ay^p, which every assignment pays, so both have the same
    # optimal assignments; unlike that difference, each entry stays at the
    # scale of the costs it compares.  The point block is filled from Q one
    # row block at a time, so no other n x m array is built.  Every power
    # must be finite; a sum ax^p + ay^p may overflow to inf, and then the
    # pair is matched.  The kernel solves W in float; ``_certified`` then
    # makes its assignment exactly optimal for the exact entries of the
    # same instance, ``exact.costs``, so which of the float optima the
    # kernel returns does not change the value.
    k = max(n, m)
    W = np.empty((k, k))
    overflow = TooLarge(f"cost powers overflow the float range at p = {p}")
    with np.errstate(over="ignore"):
        axp, ayp = (ax / s) ** p, (ay / s) ** p
        if not (np.isfinite(axp).all() and np.isfinite(ayp).all()):
            raise overflow
        for b in _row_blocks(n, m):
            block = W[:n, :m][b]
            np.divide(Q[b], s, out=block)
            block **= p
            if not np.isfinite(block).all():
                raise overflow
            np.minimum(block, axp[b, None] + ayp, out=block)
    W[:n, m:] = axp[:, None]
    W[n:, :m] = ayp[None, :]
    row_of_col = solve_assignment(W)
    col = np.empty(k, np.int64)
    col[row_of_col] = np.arange(k)
    exact = _ExactCosts(Q, ax, ay, s, p)
    col, here = _certified(W, col, axp, ayp, p, exact)
    # a pair of the optimum is matched when that is exactly cheaper than
    # sending both points to A; every other x goes to A
    u = (col[:n] < m).nonzero()[0]
    v, gx, gy = col[u], exact.gx, exact.gy
    cheaper = [here[i] < gx[i] + gy[j] for i, j in zip(u.tolist(), v.tolist())]
    u, v = u[cheaper], v[cheaper]
    partner, taken = np.full(n, m), np.zeros(m, bool)
    partner[u], taken[v] = v, True
    # the witness's costs: its point pairs, then the x and the y sent to A
    value = p_norm(np.concatenate((Q[u, v], ax[partner == m], ay[~taken])).tolist(), p)
    return value, Matching._deferred(
        partial(_build_pairs, sigma, tau, partner, Q, ax, ay), value, p)


_FIXED = 1074  # every finite float is an integer multiple of 2**-1074
_FIXED_ONE = 1 << _FIXED


def _fixed(xs) -> list[int]:
    """Each of the finite floats xs times 2**1074, an exact int."""
    return [num << (_FIXED + 1 - den.bit_length())
            for num, den in map(float.as_integer_ratio, xs)]


def _rounded(x: int) -> float:
    """The int x, at the scale of ``_fixed``, rounded to a float; +-inf
    beyond the float range."""
    try:
        return x / _FIXED_ONE
    except OverflowError:
        return math.inf if x > 0 else -math.inf


class _ExactCosts:
    """The exact entries of the k x k assignment instance of
    ``wasserstein``, k = max(n, m), as ints at the scale of ``_fixed``, with
    the powers taken as ``p_norm`` takes them, (c / s)**p in Python floats.

    ``gx[i]`` is x_i's power to A and ``gy[j]`` is y_j's, both 0 for a
    padding row or column.  Entry (i, j) is their sum, a split, except at
    a point pair that is matchable (Q[i, j] < ax[i] + ay[j] in float, the
    rule of ``_build_pairs``) and whose own power is exactly below that
    sum.  A power that overflows raises TooLarge, as in ``p_norm``."""

    def __init__(self, Q, ax, ay, s: float, p: float):
        self.Q, self.ax, self.ay, self.s, self.p = Q, ax, ay, s, p
        n, m = Q.shape
        g = self.powers(np.concatenate((ax, ay)))
        self.gx, self.gy = g[:n] + [0] * (m - n), g[n:] + [0] * (n - m)

    def powers(self, c: np.ndarray) -> list[int]:
        """(c / s)**p of each cost in c, taken in Python floats: numpy's
        powers may differ from them in the last bit."""
        p = self.p
        try:
            return _fixed([x**p for x in (c / self.s).tolist()])
        except OverflowError as e:
            raise TooLarge(f"cost powers overflow the float range at p = {p}") from e

    def matchable(self, i, j):
        """(t, q) for the index arrays i and j: the positions t whose entry
        is a point pair matchable by the float rule, Q[i, j] < ax[i] +
        ay[j], and their Q."""
        n, m = self.Q.shape
        t = ((i < n) & (j < m)).nonzero()[0]
        i, j = i[t], j[t]
        q = self.Q[i, j]
        ok = q < self.ax[i] + self.ay[j]
        return t[ok], q[ok]

    def split(self, i, j) -> np.ndarray:
        """For the index arrays i and j, whether entry (i, j) is a split
        by the float rule alone: a padding entry or an unmatchable pair."""
        out = np.ones(len(i), bool)
        out[self.matchable(i, j)[0]] = False
        return out

    def costs(self, i, j) -> list[int]:
        """The exact entries (i[t], j[t]) for the index arrays i and j:
        each split sum, lowered to the pair's own power where that is
        matchable and exactly cheaper."""
        gx, gy = self.gx, self.gy
        out = [gx[a] + gy[b] for a, b in zip(i.tolist(), j.tolist())]
        t, q = self.matchable(i, j)
        for u, c in zip(t.tolist(), self.powers(q)):
            if c < out[u]:
                out[u] = c
        return out


def _potentials(R, row_of, thr):
    """(phi, parent): float column labels with phi[j] <= phi[c] +
    R[row_of[c], j] + thr[row_of[c]] for every column c and j, found by
    Bellman-Ford on the row graph R from phi = 0, and the forest of
    parent arcs that sets them (-1 for a root).  Every label is the
    length of its column's path in that forest.

    It starts from the best paths along consecutive columns, arcs j - 1
    -> j, found at once with a running maximum of prefix sums.  Each
    round then relaxes the columns whose label fell since they were last
    relaxed, in index order, a block of rows at a time: every column
    takes the lowest label through any row of the block, and a fall of
    no more than that row's ``thr`` does not count, so float rounding
    cannot keep the rounds going.  A column that falls once the round
    has passed it waits for the next round.  After each round the labels
    are recomputed along the forest (``_path_sums``), so a fall runs down
    a whole path in one round, and every column whose label fell is
    relaxed in the next one.  On the half-line the shortest paths run
    along the sorted columns, so the start often has them all; relaxing
    one row at a time in descending order of the labels carried a fall a
    few arcs a round, 790 rounds at n = 2000.  Without a negative cycle
    the rounds end within len(R) rounds; they stop there in any case."""
    k = len(R)
    at = np.arange(k)
    w = np.zeros(k)  # the weight of the arc into each column
    w[1:] = R[row_of[:-1], at[1:]]
    prefix = np.cumsum(w)
    on = prefix < np.maximum.accumulate(prefix)
    parent = np.where(on, at - 1, -1)
    w[~on] = 0.0
    phi = _path_sums(parent, w)[0]
    fell = np.ones(k, bool)
    size = _block_rows(8 * k)  # the block and its temporaries
    for _ in range(k):
        start, moved = 0, False
        while True:
            cs = fell[start:].nonzero()[0][:size] + start
            if not len(cs):
                break
            start = cs[-1] + 1
            fell[cs] = False
            rs = row_of[cs]
            t = R[rs]
            t += (phi[cs] + thr[rs])[:, None]
            lower = (t.min(axis=0) < phi).nonzero()[0]
            if len(lower):
                c = cs[t[:, lower].argmin(axis=0)]
                parent[lower] = c
                w[lower] = R[row_of[c], lower]
                phi[lower] = phi[c] + w[lower]
                fell[lower] = moved = True
        if not moved:
            break
        # a column on or below a cycle of parent arcs keeps its label
        new, cyclic = _path_sums(parent, w)
        new[cyclic] = phi[cyclic]
        fell |= new < phi
        phi = new
    return phi, parent


def _ids(keys) -> np.ndarray:
    """An int id for each of ``keys``, equal for equal keys."""
    ids = {}
    return np.array([ids.setdefault(key, len(ids)) for key in keys], np.int64)


def _ranks(values: list) -> np.ndarray:
    """The rank of each of ``values`` in ascending order, equal for equal
    values; the values may be ints of any size."""
    order = sorted(range(len(values)), key=values.__getitem__)
    rank = [0] * len(values)
    for before, j in zip(order, order[1:]):
        rank[j] = rank[before] + (values[j] != values[before])
    return np.array(rank, np.int64)


def _path_sums(parent: np.ndarray, w: np.ndarray):
    """(sums, cyclic): the sum of w over each node's path of parent arcs
    up to its root (parent -1), the root's own entry included, and which
    nodes lie on or below a cycle of the parent graph, whose sums are not
    defined.  By pointer jumping, so in O(log k) numpy passes over the k
    nodes; w may hold floats or, as an object array, Python ints."""
    hop, sums = parent.copy(), w.copy()
    for _ in range(len(parent).bit_length()):
        live = (hop >= 0).nonzero()[0]
        if not len(live):
            break
        up = hop[live]
        sums[live] += sums[up]
        hop[live] = hop[up]
    return sums, hop >= 0


def _parent_cycle(parent) -> list[int]:
    """The nodes of a cycle of the parent graph (node v's parent is
    parent[v], -1 for none), or [] when it has none."""
    walk = [-1] * len(parent)
    for start in range(len(parent)):
        x = start
        while x >= 0 and walk[x] < 0:
            walk[x] = start
            x = parent[x]
        if x >= 0 and walk[x] == start:
            cycle, y = [x], parent[x]
            while y != x:
                cycle.append(y)
                y = parent[y]
            return cycle
    return []


def _certified(W, col, axp, ayp, p: float, exact: _ExactCosts):
    """(col, here): an exactly optimal assignment of the instance whose
    exact entries are ``exact.costs``, and each row's exact entry in it,
    given W, a float approximation of those entries, and ``col``, an
    assignment (the column of each row) that is optimal or nearly so on
    W.  W is overwritten, and so is ``col`` when it is repaired.

    An assignment is optimal exactly when the row graph, with an arc
    col[i] -> j of weight cost(i, j) - cost(i, col[i]) for every row i
    and column j, has no negative cycle, that is when some labels d make
    every reduced weight w + d[col[i]] - d[j] >= 0.

    - W becomes the float row graph in place, row i minus its entry in
      col[i], and ``_potentials`` finds float labels on it.  Exact labels
      d follow them along their tree: one bulk call takes the exact
      entries of every row's own arc and every tree arc, and the arc
      weights are summed along the tree in Python ints (``_path_sums`` on
      an object array), so every tree arc is exactly tight.
    - Each arc's reduced weight is taken in float, one row block at a
      time.  ``bound`` bounds its error: the float powers of W may differ
      by an ulp or two from Python's, a pair routed through A may cost up
      to about p ulps less in W than the sum of its powers to A, and each
      of the few float operations rounds once.  An arc whose float reduced
      weight exceeds twice the bound is positive by more than the bound;
      the others, the suspects, are tested exactly.  When both entries of
      an arc are splits, its weight is gy[j] - gy[col[i]], so its reduced
      weight is e[col[i]] - e[j] with e = d - gy, and one comparison of
      ranks of e tests all such arcs at once; the ranks are built only
      when a block has such a suspect.  Any other arc but a tree arc,
      which is tight, is tested in ints, once per distinct combination
      of the values its test reads, keyed over the rows and columns of
      the block's suspects alone.
    - Only when a suspect is negative does ``_repair`` run."""
    k = len(W)
    if k == 0:
        return col, []
    n, m = len(axp), len(ayp)
    slack = (p + 16.0) * 2.0**-50
    row_of = np.empty(k, np.int64)
    row_of[col] = np.arange(k)
    with np.errstate(over="ignore"):
        big = np.max(W, axis=1)
        big[:n] += axp
        big += ayp.max(initial=0.0)
        W -= W[np.arange(k), col][:, None]
        tree = _potentials(W, row_of, slack / 4 * big)[1]
    # each row's own entry, then the exact weight of each tree arc, summed
    # along the tree in Python ints; a column on or below a cycle of
    # parent arcs keeps d = 0
    kids = (tree >= 0).nonzero()[0]
    rows = row_of[tree[kids]]
    ws = exact.costs(np.concatenate((np.arange(k), rows)), np.concatenate((col, kids)))
    here, d = ws[:k], np.zeros(k, object)
    d[kids] = np.fromiter((w - here[i] for w, i in zip(ws[k:], rows.tolist())), object, len(kids))
    d, cyclic = _path_sums(tree, d)
    d[cyclic] = 0
    up = np.where(cyclic, -1, tree)  # the tree arc into each column, exactly tight
    d = d.tolist()
    phi = np.array([_rounded(x) for x in d])

    def suspects(b):
        """(i, j, bound): the rows and columns of the suspect arcs out of
        the rows of slice b, own arcs left out, and each row's bound."""
        at, Wb = col[b], W[b]
        with np.errstate(over="ignore", invalid="ignore"):
            t = Wb + (phi[at] - Wb[np.arange(len(at)), at])[:, None]
            t -= phi
            bound = slack * (big[b] - phi.min()) + 2.0**-1000
            i, j = np.nonzero(~(t > 2.0 * bound[:, None]))
        i += b.start
        other = j != col[i]
        return i[other], j[other], bound

    # the rows with a negative suspect
    bad, rank = set(), None
    cols, own_split = col.tolist(), exact.split(np.arange(k), col)
    axl, ayl = exact.ax.tolist(), exact.ay.tolist()
    # on ties every entry of a block may be a suspect, held in several
    # index arrays, so a block has an eighth of the usual rows
    for b in _row_blocks(k, 8 * k):
        rows, js, _ = suspects(b)
        at = col[rows]
        both = exact.split(rows, js) & own_split[rows]
        if both.any():
            if rank is None:  # e ranked with ties equal
                rank = _ranks([x - y for x, y in zip(d, exact.gy)])
            bad.update(rows[both & (rank[at] < rank[js])].tolist())
        rows, js = rows[~both], js[~both]
        other = up[js] != col[rows]
        rows, js = rows[other], js[other]
        if not len(rows):
            continue
        # the exact test of such an arc reads its row's d[col[i]] - here[i]
        # and d(x, A), its column's d[j] and d(y, A), and its Q, so it runs
        # once per distinct combination of them: once for all copies of a
        # point.  Only the rows and columns that have such an arc get ids.
        rid, cid = np.zeros(k, np.int64), np.zeros(k, np.int64)
        ur = np.bincount(rows, minlength=k).nonzero()[0]
        uc = np.bincount(js, minlength=k).nonzero()[0]
        rid[ur] = _ids((d[cols[i]] - here[i], axl[i] if i < n else None) for i in ur.tolist())
        cid[uc] = _ids((d[j], ayl[j] if j < m else None) for j in uc.tolist())
        q = np.zeros(len(rows))
        pt = (rows < n) & (js < m)
        q[pt] = exact.Q[rows[pt], js[pt]]
        qid = np.unique(q, return_inverse=True)[1]
        key = (rid[rows] * k + cid[js]) * len(q) + qid
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        ri, ji = rows[first], js[first]
        neg = [d[cols[i]] + w - here[i] < d[j]
               for i, j, w in zip(ri.tolist(), ji.tolist(), exact.costs(ri, ji))]
        bad.update(rows[np.array(neg, bool)[inverse]].tolist())
    if not bad:
        return col, here
    return _repair(col, row_of.tolist(), d, phi, here, bad, suspects, exact), here


def _repair(col, row_of, d, phi, here, bad, suspects, exact: _ExactCosts) -> np.ndarray:
    """The optimal assignment ``_certified`` returns when a suspect arc is
    negative: label-correcting Bellman-Ford in ints from the exact labels
    d, relaxing the suspects of the column with the highest label first.
    ``bad`` holds the rows with a negative suspect; ``suspects`` finds the
    suspect arcs out of a row; col, row_of, d, phi (d rounded) and here
    (each row's own exact entry) are updated in place.  A row that a
    cancelled cycle moves is relaxed again, so ``here`` ends up right for
    every row.

    A row's suspects stay complete while its column's label falls by no
    more than their bound, and are found again otherwise.  Every k
    relaxations it looks for a cycle of parent arcs; such a cycle is
    negative (Cherkassky and Goldberg, Math. Programming 85, 1999) and is
    cancelled: each of its rows moves to the column its arc points at,
    which lowers the exact cost.  It stops when no arc is negative, which
    proves the assignment optimal."""
    k = len(col)
    cols = col.tolist()
    # columns to relax, highest label first: the order of the shortest
    # paths, along which the labels mostly fall
    heap, queued = [], [False] * k

    def push(c):
        queued[c] = True
        heapq.heappush(heap, (-phi.item(c), c))

    for i in bad:
        push(cols[i])
    # a relaxed row's suspects with their exact weights, its column's
    # label when they were found, and their bound
    found = [None] * k
    parent, steps = [-1] * k, 0
    while heap:
        a = heapq.heappop(heap)[1]
        if not queued[a]:
            continue
        queued[a] = False
        i = row_of[a]
        if found[i] is None or found[i][1] - d[a] > found[i][2]:
            _, js, bound = suspects(slice(i, i + 1))
            ws = exact.costs(np.full(len(js) + 1, i), np.concatenate(([a], js)))
            here[i] = ws[0]
            found[i] = ([(j, x - here[i]) for j, x in zip(js.tolist(), ws[1:])], d[a],
                        _fixed(bound.tolist())[0] if bound[0] < math.inf else math.inf)
        for j, w in found[i][0]:
            label = d[a] + w
            if label < d[j]:
                d[j] = label
                phi[j] = _rounded(label)
                parent[j] = a
                push(j)
                steps += 1
        if steps < k:
            continue
        # every k relaxations, look for a cycle of parent arcs; it is
        # negative, and each of its rows moves along its arc
        steps, cycle = 0, _parent_cycle(parent)
        for r, v in [(row_of[parent[v]], v) for v in cycle]:
            cols[r] = v
            row_of[v] = r
            found[r] = None
            push(v)
        if cycle:
            col[:] = cols
            parent = [-1] * k
    return col


def brute_force_dp(
    sigma: Diagram,
    tau: Diagram,
    p: float,
    pair: MetricPair,
) -> tuple[float, Matching]:
    """Reference solver straight from the definition: enumerate every
    augmented bijection using ambient distances and explicit A-assignments.
    Exponential; refuses more than ``BRUTE_FORCE_CAP`` points in total,
    counted with multiplicity."""
    _check_size(sigma, tau, pair, BRUTE_FORCE_CAP)
    X, Y = _expand(sigma), _expand(tau)
    n, m = len(X), len(Y)
    D = pair.pairwise_dist(X, Y)
    ax = pair.dist_to_A_batch(X)
    ay = pair.dist_to_A_batch(Y)
    p = _check_p(p)
    inf_p = math.isinf(p)
    # keys compare scaled costs, so an underflowing power keeps its weight
    s = 1.0 if inf_p else _power_scale(p, D, ax, ay)
    Ds, axs, ays = (D / s).tolist(), (ax / s).tolist(), (ay / s).tolist()
    best_key = math.inf
    best_assign: tuple[int, ...] | None = None
    # each sigma point maps to a tau point or to A (-1); each choice of
    # k matched sigma points pairs them with an ordered k-subset of tau
    for k in range(0, min(n, m) + 1):
        for left_subset in combinations(range(n), k):
            rest = [i for i in range(n) if i not in left_subset]
            for right_perm in permutations(range(m), k):
                costs = [Ds[i][j] for i, j in zip(left_subset, right_perm)]
                costs.extend(axs[i] for i in rest)
                used = set(right_perm)
                costs.extend(ays[j] for j in range(m) if j not in used)
                key = max(costs, default=0.0) if inf_p else _power_sum(costs, p)
                if key < best_key:
                    best_key = key
                    assign = [-1] * n
                    for i, j in zip(left_subset, right_perm):
                        assign[i] = j
                    best_assign = tuple(assign)
    assert best_assign is not None
    xs, ys = list(sigma.iter_points()), list(tau.iter_points())
    pairs = []
    for i, j in enumerate(best_assign):
        if j >= 0:
            pairs.append(MatchedPair(xs[i], ys[j], float(D[i, j])))
        else:
            pairs.append(MatchedPair(xs[i], BASEPOINT, float(ax[i])))
    matched = {j for j in best_assign if j >= 0}
    for j in range(m):
        if j not in matched:
            pairs.append(MatchedPair(BASEPOINT, ys[j], float(ay[j])))
    matching = _matching(pairs, p)
    return matching.value, matching


# -- serialization -----------------------------------------------------


def matching_to_json(matching: Matching) -> dict:
    return {
        "pairs": [
            {"left": _point_to_json(q.left), "right": _point_to_json(q.right), "cost": q.cost}
            for q in matching.pairs
        ],
        "value": matching.value,
        "p": "inf" if math.isinf(matching.p) else matching.p,
    }


def _json_real(x, what: str) -> float:
    """A JSON number, or a string float() accepts, as a float; an integer
    beyond the float range is a ParseError too."""
    if not isinstance(x, (int, float, str)) or isinstance(x, bool):
        raise ParseError(f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except (ValueError, OverflowError) as e:
        raise ParseError(f"{what} must be a number, got {x!r}") from e


def matching_from_json(obj: dict | str, pair: MetricPair) -> Matching:
    """Read a matching written by ``matching_to_json``.  Every malformed
    field raises ParseError: p must be >= 1 or "inf", each pair needs
    "left", "right" ("A" or a coordinate list) and a finite cost >= 0."""
    obj = _json_value(obj, "matching JSON")
    if not isinstance(obj, dict) or not isinstance(obj.get("pairs"), list):
        raise ParseError('matching JSON must be an object with a "pairs" list')
    p = _check_p(_json_real(obj.get("p", "inf"), "matching p"), ParseError, "matching p")

    def end(v, where):
        if v == "A":
            return BASEPOINT
        try:
            return pair.point(*_coords_from_json(v, pair.dim))
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"{where}: {e}") from e

    pairs = []
    for i, e in enumerate(obj["pairs"]):
        if not isinstance(e, dict) or not {"left", "right", "cost"} <= e.keys():
            raise ParseError(f'pairs[{i}] must be an object with "left", "right" and "cost"')
        cost = _json_real(e["cost"], f"pairs[{i}] cost")
        if not 0.0 <= cost < math.inf:
            raise ParseError(f"pairs[{i}] cost must be finite and >= 0, got {cost}")
        pairs.append(MatchedPair(end(e["left"], f"pairs[{i}] left"),
                                 end(e["right"], f"pairs[{i}] right"), cost))
    matching = _matching(pairs, p)
    declared = obj.get("value")
    if declared is not None and not math.isclose(_json_real(declared, "matching value"),
                                                  matching.value, rel_tol=1e-9, abs_tol=1e-12):
        raise ParseError(f"declared value {declared} disagrees with pairs ({matching.value})")
    return matching
