"""Desk-scale probes of the metric geometry of diagram spaces.

Each probe runs an exact, finite computation whose outcome illustrates (or
refutes, at the sampled scale) a structural property of the diagram
metric: discreteness obstructions to completeness-free limits, Cauchy
limits recovered by trajectory tracking, total boundedness of annuli
around A, countable dense families, and the adversarial diagram that
defeats any claimed countable dense set when X is too spread out.

Each probe asks the metric pair one batch query per point set (its
samples, its separated points, a candidate diagram, a settle window)
rather than one scalar query per point.  The diagrams a probe builds come
from coordinate rows already on the pair (its inputs' rows, the family's
centers, settled trajectory ends), which go straight to the canonical
form without a Point per row.

Probes never extrapolate: a WITNESSED or REFUTED verdict is only emitted
when the defining inequality was actually checked by the exact solver, and
everything else reports INCONCLUSIVE.  The Cauchy limit extraction uses
the fixed tolerances ``CONV_TOL`` and ``ENVELOPE_FLOOR``.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .diagram import Diagram, _canonical, _check_same_space, _points_json
from .errors import CoverageGap, EmptyAnnulus, NotCauchy, PreconditionViolated
from .matching import DEFAULT_NODE_CAP, Matching, _check_size, bottleneck
from .spaces import (BasepointTag, FiniteExplicit, MetricPair, Point, _int_field, _json_value,
                     _point_to_json, _row_blocks)

__all__ = [
    "Verdict",
    "ProbeReport",
    "EpsNet",
    "DenseFamily",
    "isolated_point_bound",
    "vanishing_pair_demo",
    "cauchy_chain_limit",
    "greedy_eps_net",
    "net_growth_probe",
    "dense_family",
    "approximate_from_family",
    "separability_adversary",
]

# trajectories settle when their last three positions lie this close, and
# envelope extraction stops once a stage's bound falls to the floor
CONV_TOL = 1e-6
ENVELOPE_FLOOR = 1e-9


class Verdict(str, Enum):
    WITNESSED = "WITNESSED"
    REFUTED = "REFUTED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ProbeReport:
    probe_name: str
    verdict: Verdict
    witnesses: dict
    numeric_trace: tuple[tuple[float, float], ...]

    def to_json(self) -> dict:
        return {
            "probe": self.probe_name,
            "verdict": self.verdict.value,
            "trace": [[float(a), float(b)] for a, b in self.numeric_trace],
            "witnesses": _jsonify(self.witnesses),
        }


def _jsonify(v):
    if isinstance(v, (Point, BasepointTag)):
        return _point_to_json(v)
    if isinstance(v, Diagram):
        return _json_value(_points_json(v), "diagram JSON")
    if isinstance(v, dict):
        return {str(k): _jsonify(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonify(u) for u in v]
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


# -- discreteness bounds -------------------------------------------------


def isolated_point_bound(pair: FiniteExplicit, sigma: Diagram, tau: Diagram):
    """Lower bound for the bottleneck distance between distinct diagrams
    over a finite explicit pair.

    Every point whose multiplicity differs must move, and moving x costs
    at least min(distance to the nearest other point off A, distance to
    A).  The solver distance is checked against that bound exactly.
    """
    if not isinstance(pair, FiniteExplicit):
        raise PreconditionViolated("isolated_point_bound needs a FiniteExplicit pair")
    _check_same_space(sigma, pair)
    _check_same_space(tau, pair)
    if sigma == tau:
        raise PreconditionViolated("diagrams must be distinct")

    def mults(d: Diagram) -> dict[int, int]:
        return dict(zip(d.coords[:, 0].astype(int).tolist(), d.mults))

    ms, mt = mults(sigma), mults(tau)
    differing = sorted(set(ms) ^ set(mt) | {i for i in set(ms) & set(mt) if ms[i] != mt[i]})
    X = np.array(differing, dtype=np.float64).reshape(-1, 1)
    off_A = np.delete(np.arange(pair.size, dtype=np.float64), pair.A_indices)[:, None]
    # a point is not isolated from itself
    iso = np.where(X == off_A.T, math.inf, pair.pairwise_dist(X, off_A))
    eps_i = np.minimum(iso.min(axis=1, initial=math.inf), pair.dist_to_A_batch(X)).tolist()
    per_point = list(zip(differing, eps_i))
    eps = min(eps_i, default=math.inf)
    dist, _ = bottleneck(sigma, tau, pair)
    ok = dist >= eps
    report = ProbeReport(
        probe_name="isolated_point_bound",
        verdict=Verdict.WITNESSED if ok else Verdict.REFUTED,
        witnesses={
            "epsilon": eps,
            "distance": dist,
            "differing_points": [i for i, _ in per_point],
        },
        numeric_trace=tuple((float(i), e) for i, e in per_point),
    )
    return eps, dist, report


def vanishing_pair_demo(
    pair: MetricPair,
    limit_point: Point,
    tail: Sequence[Point],
    n_max: int = 50,
    target: float = 0.05,
):
    """Distinct diagrams at arbitrarily small distance: sigma_N carries the
    limit point x plus the first N tail points, tau_N swaps x for the next
    tail point.  A single-swap bijection bounds d(sigma_N, tau_N) by
    d(x, x_{N+1}), which vanishes along a tail converging to x.  When the
    last pair exceeds the solvers' size cap, TooLarge is raised before any
    solve.  n_max is read by ``spaces._int_field``: a boolean, a fraction
    or a text is a ParseError."""
    tail = list(tail)
    n_max = _int_field(n_max, "n_max")
    if n_max < 1:
        raise PreconditionViolated("n_max must be at least 1")
    if math.isnan(target):
        raise PreconditionViolated("target must be a number, got nan")
    if len(tail) < n_max + 1:
        raise PreconditionViolated(
            f"tail exhausted: need {n_max + 1} points, got {len(tail)}"
        )
    # row 0 is the limit point, row i >= 1 the tail point x_i
    X = pair.coords_matrix([limit_point] + tail[: n_max + 1])
    swap_bounds = pair.pairwise_dist(X[:1], X[1:])[0].tolist()
    if 0.0 in swap_bounds:
        raise PreconditionViolated("tail points must differ from the limit point")

    def diagrams(N: int) -> tuple[Diagram, Diagram]:
        return (_canonical(X[: N + 1], [1] * (N + 1), pair),
                _canonical(X[1 : N + 2], [1] * (N + 1), pair))

    # the diagrams only grow with N: refuse the last solve before the first
    _check_size(*diagrams(n_max), pair, DEFAULT_NODE_CAP)
    trace = []
    bounds = []
    all_bounded = True
    for N in range(1, n_max + 1):
        d, _ = bottleneck(*diagrams(N), pair)
        bound = swap_bounds[N]
        trace.append((float(N), d))
        bounds.append((float(N), bound))
        if d > bound or not d > 0.0:
            all_bounded = False
    final = trace[-1][1]
    ok = all_bounded and final < target
    report = ProbeReport(
        probe_name="vanishing_pair",
        verdict=Verdict.WITNESSED if ok else Verdict.REFUTED,
        witnesses={
            "limit_point": limit_point,
            "target": target,
            "final_distance": final,
            "single_swap_bounds": bounds,
        },
        numeric_trace=tuple(trace),
    )
    return report


# -- Cauchy limits -------------------------------------------------------


def cauchy_chain_limit(diagrams: Sequence[Diagram], pair: MetricPair):
    """Extract the limit of a Cauchy sequence of diagrams by tracking
    point trajectories through composed optimal matchings.

    A geometric envelope is extracted first: stage k is the earliest index
    N_k with d(sigma_{N_k}, sigma_n) <= 2^(1-k) for every later sampled n.
    Optimal matchings between consecutive stages compose into trajectories;
    a trajectory whose last positions settle (within CONV_TOL) contributes
    its final point to the limit, one whose distance to A falls below the
    tolerance is absorbed, and anything unresolved downgrades the verdict
    to INCONCLUSIVE.  Raises NotCauchy when fewer than three envelope
    stages exist in the sampled sequence.
    """
    diags = list(diagrams)
    if not diags:
        raise PreconditionViolated("need at least one diagram")
    for d in diags:
        _check_same_space(d, pair)
    L = len(diags)
    cache: dict[tuple[int, int], float] = {}

    def dist(i: int, j: int) -> float:
        """The bottleneck distance between diags[i] and diags[j], i < j."""
        if (i, j) not in cache:
            cache[(i, j)], _ = bottleneck(diags[i], diags[j], pair)
        return cache[(i, j)]

    stages: list[tuple[int, int, float]] = []  # (k, index, bound)
    start = 0
    k = 0
    while True:
        bound = 2.0 ** (1 - k)
        found = -1
        for N in range(start, L - 1):
            if all(dist(N, n) <= bound for n in range(N + 1, L)):
                found = N
                break
        if found < 0:
            break
        stages.append((k, found, bound))
        start = found
        k += 1
        if bound <= ENVELOPE_FLOOR:
            break
    if len(stages) < 3:
        raise NotCauchy(
            f"only {len(stages)} geometric envelope stages in {L} sampled diagrams"
        )

    # stage indices never decrease and often repeat, so a stage pair often
    # repeats the previous one, which keeps its matching
    @lru_cache(maxsize=1)
    def stage_matching(i: int, j: int) -> Matching:
        return bottleneck(diags[i], diags[j], pair)[1]

    # trajectories through composed optimal matchings between stages
    idxs = [idx for _, idx, _ in stages]
    trajs: list[list[Point]] = [[pt] for pt in diags[idxs[0]].iter_points()]
    live = list(range(len(trajs)))
    for i, j in zip(idxs, idxs[1:]):
        mt = stage_matching(i, j)
        takes: dict[tuple[float, ...], deque] = defaultdict(deque)
        births: list[Point] = []
        for mp in mt.pairs:
            if isinstance(mp.left, BasepointTag):
                births.append(mp.right)
            else:
                takes[mp.left.coords].append(mp.right)
        new_live = []
        for ti in live:
            nxt = takes[trajs[ti][-1].coords].popleft()
            if not isinstance(nxt, BasepointTag):
                trajs[ti].append(nxt)
                new_live.append(ti)
        for b in births:
            trajs.append([b])
            new_live.append(len(trajs) - 1)
        live = new_live

    final_bound = stages[-1][2]
    absorb_tol = final_bound + CONV_TOL
    limit_rows = []
    unresolved = 0
    to_A = pair.dist_to_A_batch(pair.coords_matrix([trajs[ti][-1] for ti in live]))
    for ti, a in zip(live, to_A):
        if a <= absorb_tol:
            continue  # vanishing trajectory, absorbed by A
        window = pair.coords_matrix(trajs[ti][-3:])
        if len(window) == 3 and np.all(pair.pairwise_dist(window, window) <= CONV_TOL):
            limit_rows.append(window[-1])
        else:
            unresolved += 1
    limit = _canonical(np.array(limit_rows).reshape(-1, pair.dim), [1] * len(limit_rows), pair)

    @lru_cache(maxsize=1)
    def to_limit(i: int) -> float:
        """d(diags[i], limit), kept while the stage index repeats."""
        return bottleneck(diags[i], limit, pair)[0]

    trace = []
    verified = True
    for k, idx, bound in stages:
        d_lim = to_limit(idx)
        trace.append((float(k), d_lim))
        if d_lim > 2.0 * bound + CONV_TOL:
            verified = False
    verdict = Verdict.WITNESSED if verified and unresolved == 0 else Verdict.INCONCLUSIVE
    report = ProbeReport(
        probe_name="cauchy_chain_limit",
        verdict=verdict,
        witnesses={
            "stages": [[k, idx, b] for k, idx, b in stages],
            "limit": limit,
            "unresolved_trajectories": unresolved,
            "final_envelope": final_bound,
        },
        numeric_trace=tuple(trace),
    )
    return limit, report


# -- total boundedness ---------------------------------------------------


def _check_annulus(delta: float, D: float) -> tuple[float, float]:
    """delta and D as floats bounding a nonempty annulus 0 < delta < D."""
    delta, D = float(delta), float(D)
    if not 0.0 < delta < D:
        raise PreconditionViolated(f"need 0 < delta < D, got delta={delta}, D={D}")
    return delta, D


@dataclass(frozen=True)
class EpsNet:
    """Centers pairwise >= epsilon apart covering the sampled annulus
    region delta <= d(x, A) < D within epsilon."""

    epsilon: float
    centers: tuple[Point, ...]
    region: tuple[float, float]


def greedy_eps_net(
    pair: MetricPair,
    delta: float,
    D: float,
    epsilon: float,
    samples: Iterable[Point],
) -> EpsNet:
    """Greedy farthest-point insertion over the sampled annulus, seeded at
    the first in-region sample.  Stops when every sample is within epsilon
    of a center, so the result is an epsilon-net of the samples whose
    centers are pairwise at least epsilon apart."""
    epsilon = float(epsilon)
    delta, D = _check_annulus(delta, D)
    if not epsilon > 0.0:  # nan fails it too: no sample would ever be within it
        raise PreconditionViolated("epsilon must be positive")
    samples = list(samples)
    X = pair.coords_matrix(samples)
    a = pair.dist_to_A_batch(X)
    inside = (delta <= a) & (a < D)
    pts = [p for p, keep in zip(samples, inside) if keep]
    if not pts:
        raise EmptyAnnulus(f"no sample lies in the annulus [{delta}, {D})")
    coords = X[inside]
    min_to_center = np.full(len(pts), np.inf)
    center_idx = [0]
    current = 0
    while True:
        col = pair.pairwise_dist(coords, coords[current : current + 1])[:, 0]
        min_to_center = np.minimum(min_to_center, col)
        far = int(np.argmax(min_to_center))
        if float(min_to_center[far]) < epsilon:
            break
        center_idx.append(far)
        current = far
    centers = tuple(pts[i] for i in center_idx)
    return EpsNet(epsilon, centers, (delta, D))


def net_growth_probe(
    pair: MetricPair,
    delta: float,
    D: float,
    epsilon: float,
    sample_batches: Sequence[Sequence[Point]],
):
    """Watch the greedy net size across growing sample sets.  Strictly
    growing sizes refute total boundedness at the sampled scale; anything
    else stays INCONCLUSIVE (bounded samples can never certify a bound
    over the whole annulus)."""
    if not sample_batches:
        raise PreconditionViolated("need at least one sample batch")
    sizes = []
    last_net = None
    trace = []
    for i, batch in enumerate(sample_batches):
        last_net = greedy_eps_net(pair, delta, D, epsilon, batch)
        sizes.append(len(last_net.centers))
        trace.append((float(i), float(sizes[-1])))
    growing = len(sizes) >= 2 and all(b > a for a, b in zip(sizes, sizes[1:]))
    report = ProbeReport(
        probe_name="eps_net_growth",
        verdict=Verdict.REFUTED if growing else Verdict.INCONCLUSIVE,
        witnesses={
            "sizes": sizes,
            "epsilon": float(epsilon),
            "region": [float(delta), float(D)],
            "final_centers": list(last_net.centers),
        },
        numeric_trace=tuple(trace),
    )
    return last_net, report


# -- dense families --------------------------------------------------------


@dataclass(frozen=True)
class DenseFamily:
    """Level-n building block of a countable dense family: finite center
    set covering the annulus 1/n <= d(x, A) < n within 1/n.  Snapping a
    diagram's points to nearest centers approximates it within 1/n."""

    pair: MetricPair
    n: int
    centers: tuple[Point, ...]

    @property
    def radius(self) -> float:
        return 1.0 / self.n

    @cached_property
    def _center_coords(self) -> np.ndarray:
        """The centers' coordinate array, built on first use and kept."""
        return self.pair.coords_matrix(self.centers)


def dense_family(
    pair: MetricPair,
    n: int,
    net: EpsNet,
    validation_samples: Iterable[Point] = (),
) -> DenseFamily:
    n = _int_field(n, "n")
    if n < 1:
        raise PreconditionViolated("n must be at least 1")
    radius = 1.0 / n
    if net.epsilon > radius:
        raise PreconditionViolated(
            f"net resolution {net.epsilon} too coarse for level {n} (needs <= {radius})"
        )
    if net.region[0] > radius or net.region[1] < float(n):
        raise PreconditionViolated(
            f"net region {net.region} does not cover the level-{n} annulus"
        )
    centers = tuple(sorted(net.centers, key=lambda p: p.coords))
    if not centers:
        raise PreconditionViolated("net has no centers")
    family = DenseFamily(pair, n, centers)
    C = family._center_coords  # refuses centers of another space
    samples = list(validation_samples)
    X = pair.coords_matrix(samples)
    a = pair.dist_to_A_batch(X)
    inside = np.flatnonzero((radius <= a) & (a < float(n)))
    _, dists = _nearest(pair, X[inside], C)
    gaps = np.flatnonzero(dists > radius)
    if gaps.size:
        s, d = samples[inside[gaps[0]]], float(dists[gaps[0]])
        raise CoverageGap(f"validation sample {s!r} is {d} from the family")
    return family


def _nearest(pair: MetricPair, xs: np.ndarray, C: np.ndarray):
    """For each row of xs, the index of its nearest row of C (ties to the
    first) and the distance to it, a block of rows at a time."""
    idx = np.empty(len(xs), dtype=np.intp)
    dist = np.empty(len(xs))
    for b in _row_blocks(len(xs), len(C)):
        block = pair.pairwise_dist(xs[b], C)
        i = idx[b] = block.argmin(axis=1)
        dist[b] = block[np.arange(len(block)), i]
    return idx, dist


def approximate_from_family(sigma: Diagram, family: DenseFamily):
    """Snap each point to its nearest family center (ties to the
    lexicographically first), dropping points within 1/n of A; returns the
    approximant and its exact distance to sigma, which stays <= 1/n."""
    pair = family.pair
    _check_same_space(sigma, pair)
    radius = family.radius
    X = sigma.coords
    kept = np.flatnonzero(pair.dist_to_A_batch(X) >= radius)
    nearest, dists = _nearest(pair, X[kept], family._center_coords)
    gaps = np.flatnonzero(dists > radius)
    if gaps.size:
        i = gaps[0]
        p = Point(pair.space_id, tuple(X[kept[i]].tolist()))  # the one Point the message needs
        raise CoverageGap(f"{p!r} is {float(dists[i])} from the nearest center, beyond {radius}")
    tau = _canonical(family._center_coords[nearest], [sigma.mults[i] for i in kept], pair)
    d, _ = bottleneck(sigma, tau, pair)
    return tau, d


# -- separability adversary -----------------------------------------------


def separability_adversary(
    pair: MetricPair,
    candidates: Sequence[Diagram],
    delta: float,
    D: float,
    epsilon: float,
    separated_points: Sequence[Point],
):
    """Defeat a claimed countable dense family: given candidate diagrams
    sigma_0..sigma_{k-1} and points x_0..x_{k-1} in the annulus
    delta <= d(x, A) < D that are pairwise >= epsilon apart (epsilon <=
    delta), the diagram tau keeping exactly those x_i that are >= epsilon/2
    from every point of sigma_i satisfies d(tau, sigma_i) >= epsilon/2 for
    all i.  The inequalities are then checked with the exact solver."""
    epsilon = float(epsilon)
    delta, D = _check_annulus(delta, D)
    if not 0.0 < epsilon <= delta:
        raise PreconditionViolated("need 0 < epsilon <= delta")
    k = len(candidates)
    if k > len(separated_points):
        raise PreconditionViolated(
            f"{k} candidates but only {len(separated_points)} separated points"
        )
    for sig in candidates:
        _check_same_space(sig, pair)
    xs = list(separated_points[:k])
    X = pair.coords_matrix(xs)
    a = pair.dist_to_A_batch(X)
    outside = np.flatnonzero((a < delta) | (a >= D))
    if outside.size:
        raise PreconditionViolated(f"{xs[outside[0]]!r} lies outside the annulus [{delta}, {D})")
    # the separation matrix a block of rows at a time; the first close pair
    # i < j in row-major order lies in the first block that has one
    for b in _row_blocks(k, k):
        between = pair.pairwise_dist(X[b], X)
        close = np.argwhere(np.triu(between < epsilon, b.start + 1))
        if close.size:
            i, j = close[0]
            raise PreconditionViolated(
                f"points {b.start + i} and {j} are {float(between[i, j])} apart, below {epsilon}"
            )
    half = epsilon / 2.0
    keep = [bool(np.all(pair.pairwise_dist(sig.coords, row[None, :]) >= half))
            for row, sig in zip(X, candidates)]
    kept = [x for x, kx in zip(xs, keep) if kx]
    tau = _canonical(X[keep], [1] * len(kept), pair)
    trace = []
    ok = True
    for i, sig in enumerate(candidates):
        d, _ = bottleneck(tau, sig, pair)
        trace.append((float(i), d))
        if not d >= half:
            ok = False
    report = ProbeReport(
        probe_name="separability_adversary",
        verdict=Verdict.WITNESSED if ok else Verdict.REFUTED,
        witnesses={
            "tau": tau,
            "epsilon": epsilon,
            "half": half,
            "kept_points": kept,
            "candidates": len(candidates),
        },
        numeric_trace=tuple(trace),
    )
    return tau, report
