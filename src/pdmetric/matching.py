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
kernel matching at that candidate, so none of this shows in the output;
it is built when its ``pairs`` are first read, and a solve whose witness
is never read runs no kernel after its last decision.
Wasserstein values come from an exact min-cost assignment.  Every point
left unmatched goes to A, so a matching costs the fixed sum of all powers
d(x, A)^p and d(y, A)^p plus, per matched pair, Q^p - d(x, A)^p - d(y, A)^p;
the assignment therefore runs on a max(n, m) x max(n, m) matrix, not on
the (n+m) x (n+m) augmented one.  The witness lists each x in order with
its partner or with A (a pair split through A as its two halves), then
the (A, y) pairs of the unmatched y in order.  Wasserstein values are
recomputed from the witness pairs as the correctly rounded sum of the cost
powers (``math.fsum``), which is insensitive to the order the solver
discovered the pairs in.  When the power of a nonzero cost would be 0 or
subnormal and the largest cost is below 1, every cost is first divided by
the largest one (``_power_scale``), which only raises the powers.

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
                     _json_value, _point_to_json, _quotient_costs, _row_blocks)

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
    the p-norm of the costs.  A witness from ``bottleneck`` builds its
    ``pairs`` on first read and keeps them; until then it holds the
    solve's cost data (the n x m matrix Q among them), which it drops once
    they are built.  Equality, hashing, repr and pickling read ``pairs``.
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
    # pair is matched.
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
    # a pair the kernel assigns is matched when that is strictly cheaper
    # (its entry of W, the smaller of its power and the sum, is below the
    # sum); every other x goes to A
    rows = row_of_col[:m]
    v = np.flatnonzero(rows < n)
    u = rows[v]
    with np.errstate(over="ignore"):
        hit = W[u, v] < axp[u] + ayp[v]
    partner = np.full(n, m)
    partner[u[hit]] = v[hit]
    matching = _matching(_build_pairs(sigma, tau, partner, Q, ax, ay), p)
    return matching.value, matching


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
