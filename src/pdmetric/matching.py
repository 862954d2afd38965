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
Wasserstein values come from an exact min-cost assignment; reported values
are recomputed from the returned pairs with compensated summation of the
sorted cost powers, which makes them insensitive to the order the solver
discovered the pairs in.

``brute_force_dp`` enumerates every augmented bijection directly from the
definition (ambient distances, explicit A-assignments) and is the oracle
the solvers are validated against.  ``total_persistence``, the distance to
the empty diagram, is the same p-norm over the batch distances to A that
the solvers use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable

import numpy as np

from ._kernels import augmented_matching, solve_assignment
from .diagram import Diagram, _check_same_space
from .errors import ParseError, TooLarge
from .spaces import BASEPOINT, BasepointTag, MetricPair, Point, _point_to_json, _quotient_costs

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
    the p-norm of the costs.  ``bottleneck_cost`` is always the max cost,
    ``sum_cost_p`` the sum of p-th cost powers (None for p = inf).
    """

    pairs: tuple[MatchedPair, ...]
    value: float
    p: float
    bottleneck_cost: float
    sum_cost_p: float | None = None


def _check_p(p, error=ValueError, name: str = "p") -> float:
    """``p`` as a float when it is a real >= 1 or +inf; otherwise raise
    ``error``.  -inf and nan fail the one comparison, like every p < 1."""
    p = float(p)
    if not p >= 1.0:
        raise error(f"{name} must be >= 1, got {p}")
    return p


def _power_sum(costs: list[float], p: float) -> float:
    """Compensated sum of the sorted p-th cost powers (finite p >= 1).

    Raises TooLarge when a power or the sum overflows the float range."""
    if p == 1.0:
        return math.fsum(sorted(costs))
    try:
        return math.fsum(sorted(c**p for c in costs))
    except OverflowError as e:
        raise TooLarge(f"cost powers overflow the float range at p = {p}") from e


def p_norm(costs: Iterable[float], p: float) -> tuple[float, float | None]:
    """(value, sum of p-th powers) of a cost multiset, order-independent."""
    costs = list(costs)
    if math.isinf(p):
        return (max(costs) if costs else 0.0, None)
    if not costs:
        return 0.0, 0.0
    s = _power_sum(costs, p)
    if p == 1.0:
        return s, s
    return s ** (1.0 / p), s


def _matching(pairs, p: float) -> Matching:
    """The witness over ``pairs`` with its value, max cost and power sum
    recomputed from the pair costs; for p = inf the value is the max."""
    costs = [q.cost for q in pairs]
    value, sum_p = p_norm(costs, p)
    return Matching(tuple(pairs), value, p, max(costs, default=0.0), sum_p)


def total_persistence(diagram: Diagram, p: float, pair: MetricPair) -> float:
    """Distance to the empty diagram: sup of dist-to-A for p = inf, else
    the p-norm of the dist-to-A multiset."""
    _, X = _expand(diagram, pair)
    p = _check_p(p)
    return p_norm(pair.dist_to_A_batch(X).tolist(), p)[0]


def _expand(diagram: Diagram, pair: MetricPair) -> tuple[list[Point], np.ndarray]:
    _check_same_space(diagram, pair)
    pts = list(diagram.iter_points())
    return pts, pair.coords_matrix(pts)


def _cost_data(sigma: Diagram, tau: Diagram, pair: MetricPair, max_nodes: int):
    xs, X = _expand(sigma, pair)
    ys, Y = _expand(tau, pair)
    n, m = len(xs), len(ys)
    if n + m > max_nodes:
        raise TooLarge(f"{n} + {m} expanded points exceed the cap of {max_nodes}")
    ax = pair.dist_to_A_batch(X)
    ay = pair.dist_to_A_batch(Y)
    Q = _quotient_costs(pair.pairwise_dist(X, Y), ax, ay)
    return xs, ys, np.ascontiguousarray(Q), ax, ay


def _build_pairs(xs, ys, assign_l, n, m, Q, ax, ay) -> tuple[MatchedPair, ...]:
    """Convert a left-to-right node assignment into matched pairs.

    A point pair whose quotient cost is the route through A (Q equals
    d(x, A) + d(y, A)) is split into the two explicit A-assignments it
    abbreviates, so stored costs always refer to actual distances in the
    pair.  Ties split too: over a quotient pair the ambient distance
    already equals the rounded route through A, and splitting keeps the
    reported cost multiset identical to the one the same matching has
    over the unquotiented pair.
    """
    out = []
    for u, v in enumerate(assign_l):
        if u < n:
            if v < m:
                if Q[u, v] == ax[u] + ay[v]:
                    out.append(MatchedPair(xs[u], BASEPOINT, float(ax[u])))
                    out.append(MatchedPair(BASEPOINT, ys[v], float(ay[v])))
                else:
                    out.append(MatchedPair(xs[u], ys[v], float(Q[u, v])))
            else:
                out.append(MatchedPair(xs[u], BASEPOINT, float(ax[u])))
        elif v < m:
            out.append(MatchedPair(BASEPOINT, ys[v], float(ay[v])))
        # slot-to-slot assignments carry no mass
    return tuple(out)


def _candidates(Q: np.ndarray, ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
    """Sorted distinct values the bottleneck distance can take: 0, the
    pairwise quotient costs, and each point's distance to A."""
    return np.unique(np.concatenate((np.array([0.0]), Q.ravel(), ax, ay)))


def candidate_thresholds(sigma: Diagram, tau: Diagram, pair: MetricPair,
                         max_nodes: int = DEFAULT_NODE_CAP) -> list[float]:
    """Sorted distinct values the bottleneck distance can take: 0, the
    pairwise quotient costs, and each point's distance to A."""
    _, _, Q, ax, ay = _cost_data(sigma, tau, pair, max_nodes)
    return _candidates(Q, ax, ay).tolist()


def feasible_at_threshold(
    sigma: Diagram,
    tau: Diagram,
    pair: MetricPair,
    r: float,
    max_nodes: int = DEFAULT_NODE_CAP,
) -> tuple[bool, Matching | None]:
    """Decide whether some augmented bijection keeps every cost <= r; on
    success also return one such matching as a witness."""
    if r < 0.0:
        return False, None
    xs, ys, Q, ax, ay = _cost_data(sigma, tau, pair, max_nodes)
    n, m = len(xs), len(ys)
    ml = augmented_matching(Q, ax, ay, float(r))
    if np.any(ml < 0):
        return False, None
    return True, _matching(_build_pairs(xs, ys, ml, n, m, Q, ax, ay), math.inf)


def bottleneck(
    sigma: Diagram,
    tau: Diagram,
    pair: MetricPair,
    max_nodes: int = DEFAULT_NODE_CAP,
) -> tuple[float, Matching]:
    """Exact bottleneck distance and an optimal matching.

    Binary search over the sorted candidate costs inside the bracket
    [LB, UB]: every point must go to A or to a partner, so no threshold
    below LB = max over points of min(distance to A, cheapest partner) is
    feasible, while sending every point to A makes UB = the largest
    distance to A feasible.  Both are candidates, so the search finds the
    same smallest feasible candidate as a search over the whole set.  The
    returned value is exactly the largest cost of the returned matching.
    """
    xs, ys, Q, ax, ay = _cost_data(sigma, tau, pair, max_nodes)
    n, m = len(xs), len(ys)
    cands = _candidates(Q, ax, ay)
    cheapest = np.concatenate((np.minimum(ax, Q.min(axis=1, initial=np.inf)),
                               np.minimum(ay, Q.min(axis=0, initial=np.inf))))
    dist_to_A = np.concatenate((ax, ay))
    lo, hi = cands.searchsorted((cheapest.max(initial=0.0), dist_to_A.max(initial=0.0))).tolist()
    ml, ml_at = None, -1  # last feasible matching and its candidate index
    while lo < hi:
        mid = (lo + hi) // 2
        trial = augmented_matching(Q, ax, ay, float(cands[mid]))
        if np.any(trial < 0):
            lo = mid + 1
        else:
            hi = mid
            ml, ml_at = trial, mid
    if ml_at != lo:
        ml = augmented_matching(Q, ax, ay, float(cands[lo]))
    matching = _matching(_build_pairs(xs, ys, ml, n, m, Q, ax, ay), math.inf)
    return matching.value, matching


def wasserstein(
    sigma: Diagram,
    tau: Diagram,
    p: float,
    pair: MetricPair,
    max_nodes: int = DEFAULT_NODE_CAP,
) -> tuple[float, Matching]:
    """Exact p-Wasserstein distance (1 <= p < inf) and an optimal matching;
    p = inf gives the bottleneck distance."""
    p = _check_p(p)
    if math.isinf(p):
        return bottleneck(sigma, tau, pair, max_nodes)
    xs, ys, Q, ax, ay = _cost_data(sigma, tau, pair, max_nodes)
    n, m = len(xs), len(ys)
    N = n + m
    if N == 0:
        return 0.0, Matching((), 0.0, p, 0.0, 0.0)
    C = np.zeros((N, N), dtype=np.float64)
    with np.errstate(over="ignore"):
        C[:n, :m] = Q**p
        C[:n, m:] = np.broadcast_to((ax**p)[:, None], (n, n))
        C[n:, :m] = np.broadcast_to((ay**p)[None, :], (m, m))
    if not np.isfinite(C).all():
        raise TooLarge(f"cost powers overflow the float range at p = {p}")
    row_of_col = solve_assignment(np.ascontiguousarray(C))
    assign_l = np.empty(N, dtype=np.int64)
    assign_l[row_of_col] = np.arange(N)
    matching = _matching(_build_pairs(xs, ys, assign_l, n, m, Q, ax, ay), p)
    return matching.value, matching


def brute_force_dp(
    sigma: Diagram,
    tau: Diagram,
    p: float,
    pair: MetricPair,
    cap: int = BRUTE_FORCE_CAP,
) -> tuple[float, Matching]:
    """Reference solver straight from the definition: enumerate every
    augmented bijection using ambient distances and explicit A-assignments.
    Exponential; refuses more than ``cap`` expanded points total."""
    xs, X = _expand(sigma, pair)
    ys, Y = _expand(tau, pair)
    n, m = len(xs), len(ys)
    if n + m > cap:
        raise TooLarge(f"brute force capped at {cap} expanded points, got {n + m}")
    D = pair.pairwise_dist(X, Y)
    ax = pair.dist_to_A_batch(X)
    ay = pair.dist_to_A_batch(Y)
    p = _check_p(p)
    inf_p = math.isinf(p)
    best_key = math.inf
    best_assign: tuple[int, ...] | None = None
    # each sigma point maps to a tau point or to A (-1); each choice of
    # k matched sigma points pairs them with an ordered k-subset of tau
    for k in range(0, min(n, m) + 1):
        for left_subset in combinations(range(n), k):
            rest = [i for i in range(n) if i not in left_subset]
            for right_perm in permutations(range(m), k):
                costs = [float(D[i, j]) for i, j in zip(left_subset, right_perm)]
                costs.extend(float(ax[i]) for i in rest)
                used = set(right_perm)
                costs.extend(float(ay[j]) for j in range(m) if j not in used)
                key = max(costs, default=0.0) if inf_p else _power_sum(costs, p)
                if key < best_key:
                    best_key = key
                    assign = [-1] * n
                    for i, j in zip(left_subset, right_perm):
                        assign[i] = j
                    best_assign = tuple(assign)
    assert best_assign is not None
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
    """A JSON number, or a string float() accepts, as a float."""
    if not isinstance(x, (int, float, str)) or isinstance(x, bool):
        raise ParseError(f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except ValueError as e:
        raise ParseError(f"{what} must be a number, got {x!r}") from e


def matching_from_json(obj: dict | str, pair: MetricPair) -> Matching:
    """Read a matching written by ``matching_to_json``.  Every malformed
    field raises ParseError: p must be >= 1 or "inf", each pair needs
    "left", "right" ("A" or a coordinate list) and a finite cost >= 0."""
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid matching JSON: {e}") from e
    if not isinstance(obj, dict) or not isinstance(obj.get("pairs"), list):
        raise ParseError('matching JSON must be an object with a "pairs" list')
    p = _check_p(_json_real(obj.get("p", "inf"), "matching p"), ParseError, "matching p")

    def end(v, where):
        if v == "A":
            return BASEPOINT
        try:
            return pair.point(*[float(c) for c in v])
        except (TypeError, ValueError) as e:
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
