"""Command-line front end: exact distances, geodesics, and probes.

Subcommands
-----------
- ``dist SIGMA TAU --space S [--p inf|P] [--matching OUT]``: exact
  bottleneck or p-Wasserstein distance, printed to 12 significant digits.
- ``geodesic SIGMA TAU --space S [--steps K]``: K+1 frames of a
  constant-speed geodesic plus the exact midpoint verification.
- ``probe NAME [flags]``: one of the metric-geometry probes on built-in
  scenario families; the exit code encodes the verdict.

Diagrams are read from files (.csv for two-coordinate plane pairs,
JSON otherwise) or inline JSON; spaces from a file or inline JSON
descriptor.  All randomized scenarios draw from --seed (default 0), so
identical invocations produce byte-identical output.

Exit codes: 0 success/WITNESSED, 1 REFUTED, 2 malformed input or flags,
3 space mismatch, 4 problem too large for exact computation, 5 missing
geodesic oracle, 6 INCONCLUSIVE.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .diagram import _CSV_SPACE_IDS, Diagram, _canonical, _points_json, parse_diagram
from .errors import (
    CoverageGap,
    EmptyAnnulus,
    InvalidMetric,
    NoGeodesicOracle,
    NotCauchy,
    ParseError,
    PdmetricError,
    PreconditionViolated,
    SpaceMismatch,
    TooLarge,
)
from .geodesics import _grid_check, c0_truncation_gap, geodesic_between
from .matching import _check_p, matching_to_json, wasserstein
from .probes import (
    ProbeReport,
    Verdict,
    dense_family,
    approximate_from_family,
    greedy_eps_net,
    isolated_point_bound,
    net_growth_probe,
    separability_adversary,
    vanishing_pair_demo,
    cauchy_chain_limit,
)
from .spaces import (
    EUCLIDEAN,
    SUP,
    FiniteExplicit,
    HalfLineOrigin,
    MetricPair,
    PlaneDiagonal,
    space_from_json,
)

__all__ = ["fmt_real", "main"]

_EXIT_BY_VERDICT = {Verdict.WITNESSED: 0, Verdict.REFUTED: 1, Verdict.INCONCLUSIVE: 6}

# the most rows a probe scenario's sample grid may hold: the eps-net and
# dense-family probes run one distance pass per net center over the whole
# grid, so their time grows with its square
MAX_GRID_SAMPLES = 40_000
# the largest dense-family --n: its grid has 4 n^2 - 4 rows
MAX_N = math.isqrt(MAX_GRID_SAMPLES // 4 + 1)

# the largest --trials, --steps, --candidates and --nmax: a run at each
# cap takes a few seconds, and time grows linearly above it (quadratically
# for --candidates and --nmax, whose solves hold up to that many points;
# vanishing-pair's last pair holds --nmax + 1 points on each side, within
# the solvers' size cap)
MAX_TRIALS = 10_000
MAX_STEPS = 10_000
MAX_CANDIDATES = 2_000
MAX_NMAX = 1_000


def fmt_real(x: float) -> str:
    """Shortest decimal that parses back to x, capped at 12 significant
    digits (beyond the cap, nearest 12-digit decimal)."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    for k in range(1, 13):
        s = "%.*g" % (k, x)
        if float(s) == x:
            return s
    return "%.12g" % x


def _count(value: int, flag: str, cap: int) -> int:
    """The value of a count flag, checked before anything is built: below
    1 is a usage error, above ``cap`` TooLarge."""
    if value < 1:
        raise ParseError(f"{flag} must be at least 1, got {value}")
    if value > cap:
        raise TooLarge(f"{flag} {value} exceeds the cap of {cap}")
    return value


def _err(msg) -> None:
    print(f"pdmetric: error: {msg}", file=sys.stderr)


def _load_space(spec: str, norm: str | None) -> MetricPair:
    text = spec
    if not spec.lstrip().startswith("{"):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(f"cannot read space file {spec!r}: {e}") from e
    pair = space_from_json(text)
    if norm is not None:
        obj = pair.to_json()
        if "norm" not in obj:
            raise ParseError(f"space kind {pair.kind} has no norm choice")
        obj["norm"] = norm
        pair = space_from_json(obj)
    return pair


def _load_diagram(spec: str, pair: MetricPair) -> Diagram:
    if spec.lstrip().startswith("{"):
        return parse_diagram(spec, "json", pair)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read diagram file {spec!r}: {e}") from e
    fmt = "csv" if spec.endswith(".csv") else "json"
    return parse_diagram(text, fmt, pair)


def _load_inputs(args) -> tuple[MetricPair, Diagram, Diagram]:
    """The --space pair and the sigma and tau diagrams over it."""
    pair = _load_space(args.space, args.norm)
    return pair, _load_diagram(args.sigma, pair), _load_diagram(args.tau, pair)


def _parse_p(raw: str) -> float:
    try:
        p = float(raw)
    except ValueError as e:
        raise ParseError(f"--p must be 'inf' or a real >= 1, got {raw!r}") from e
    return _check_p(p, ParseError, "--p")


# -- dist ------------------------------------------------------------------


def cmd_dist(args) -> int:
    pair, sigma, tau = _load_inputs(args)
    value, matching = wasserstein(sigma, tau, _parse_p(args.p), pair)
    if args.matching:
        try:
            with open(args.matching, "w", encoding="utf-8") as fh:
                json.dump(matching_to_json(matching), fh, sort_keys=True)
                fh.write("\n")
        except OSError as e:
            raise ParseError(f"cannot write matching file {args.matching!r}: {e}") from e
    print(fmt_real(value))
    return 0


# -- geodesic ----------------------------------------------------------------


def cmd_geodesic(args) -> int:
    pair, sigma, tau = _load_inputs(args)
    steps = _count(args.steps, "--steps", MAX_STEPS)
    if args.format == "csv" and pair.space_id not in _CSV_SPACE_IDS:
        raise ParseError("CSV frames are only defined for two-coordinate plane pairs")
    path = geodesic_between(sigma, tau, pair)
    frames, check = _grid_check(path, steps)
    if args.format == "csv":
        lines = ["t,birth,death,mult"]
        for t, frame in frames:
            for b, d, m in zip(*frame.coords.T.tolist(), frame.mults):
                lines.append(f"{t!r},{b!r},{d!r},{m}")
        lines.append(
            f"# midpoint_check={check.verdict.value}"
            f" max_deviation={fmt_real(check.witnesses['max_deviation'])}"
        )
        print("\n".join(lines))
    else:
        # json.dumps of {"value", "frames": [{"t", "points"}], "midpoint_check"}
        # with sorted keys, each frame's points written by the diagram writer
        texts = [f'{{"points": {_points_json(frame)}, "t": {json.dumps(t)}}}' for t, frame in frames]
        print(f'{{"frames": [{", ".join(texts)}], '
              f'"midpoint_check": {json.dumps(check.to_json(), sort_keys=True)}, '
              f'"value": {json.dumps(path.value)}}}')
    return _EXIT_BY_VERDICT[check.verdict]


# -- probe scenarios ---------------------------------------------------------


def _sample_grid(start: float, stop: float, step: float) -> np.ndarray:
    """np.arange(start, stop, step) as one column.  A grid of more than
    MAX_GRID_SAMPLES rows raises TooLarge before it is built; a non-finite
    end is left to np.arange, whose ValueError is a usage error."""
    count = (stop - start) / step
    if math.isfinite(count) and count > MAX_GRID_SAMPLES:
        raise TooLarge(f"a sample grid of {count:.6g} rows exceeds the cap of {MAX_GRID_SAMPLES}")
    return np.arange(start, stop, step)[:, None]


def _random_finite_pair(rng: np.random.Generator) -> FiniteExplicit:
    npts = int(rng.integers(4, 9))
    coords = rng.uniform(0.0, 10.0, size=(npts, 2))
    diff = coords[:, None, :] - coords[None, :, :]
    matrix = np.abs(diff).max(axis=-1)
    return FiniteExplicit(matrix, [npts - 1])


def _random_finite_diagram(
    pair: FiniteExplicit, rng: np.random.Generator
) -> Diagram:
    a_set = set(pair.A_indices)
    rows, mults = [], []
    for i in range(pair.size):
        if i not in a_set:
            m = int(rng.integers(0, 3))
            if m:
                rows.append(float(i))
                mults.append(m)
    return _canonical(np.array(rows).reshape(-1, 1), mults, pair)


def _trial_seeds(args) -> list[int]:
    """One seed per trial, drawn from --seed."""
    trials = _count(args.trials, "--trials", MAX_TRIALS)
    return np.random.default_rng(args.seed).integers(0, 2**62, size=trials).tolist()


def _isolated_trial(seed: int) -> tuple[float, bool]:
    """One random finite pair and two distinct diagrams over it: the
    solver distance's margin over the isolation bound, and whether the
    bound held."""
    rng = np.random.default_rng(seed)
    pair = _random_finite_pair(rng)
    sigma = _random_finite_diagram(pair, rng)
    tau = _random_finite_diagram(pair, rng)
    while tau == sigma:
        tau = _random_finite_diagram(pair, rng)
    eps, dist, report = isolated_point_bound(pair, sigma, tau)
    return dist - eps, report.verdict is Verdict.WITNESSED


def probe_isolated_bound(args) -> ProbeReport:
    results = [_isolated_trial(s) for s in _trial_seeds(args)]
    failures = sum(not ok for _, ok in results)
    return ProbeReport(
        probe_name="isolated_point_bound",
        verdict=Verdict.WITNESSED if failures == 0 else Verdict.REFUTED,
        witnesses={"trials": args.trials, "failures": failures},
        numeric_trace=tuple((float(i), gap) for i, (gap, _) in enumerate(results)),
    )


def probe_vanishing_pair(args) -> ProbeReport:
    nmax = _count(args.nmax, "--nmax", MAX_NMAX)
    pair = PlaneDiagonal()
    rows = [(0.0, 4.0)] + [(1.0 / n, 4.0 + 1.0 / n) for n in range(1, nmax + 2)]
    x, *tail = pair._points(np.array(rows))
    return vanishing_pair_demo(pair, x, tail, n_max=nmax, target=args.target)


_CAUCHY_SCENARIOS = ("constant", "converging", "absorbing")


def _cauchy_sequence(name: str, pair: PlaneDiagonal) -> list[Diagram]:
    ns = [4**k for k in range(13)]
    if name == "constant":
        d = _canonical(np.array([[0.0, 4.0], [1.0, 3.0]]), [1, 1], pair)
        return [d for _ in ns]
    if name == "converging":
        return [_canonical(np.array([[0.0, 4.0 + 1.0 / n]]), [1], pair) for n in ns]
    if name == "absorbing":
        return [_canonical(np.array([[1.0 / n, 2.0 / n]]), [1], pair) for n in ns]
    raise ParseError(f"unknown cauchy scenario {name!r}")


def probe_cauchy_chain(args) -> list[ProbeReport]:
    pair = PlaneDiagonal()
    names = _CAUCHY_SCENARIOS if args.scenario in (None, "all") else (args.scenario,)
    reports = []
    for name in names:
        seq = _cauchy_sequence(name, pair)
        _, report = cauchy_chain_limit(seq, pair)
        reports.append(
            dataclasses.replace(
                report,
                probe_name=f"cauchy_chain_limit[{name}]",
            )
        )
    return reports


def probe_eps_net(args) -> ProbeReport:
    delta, D = args.delta, args.D
    epsilon = args.epsilon if args.epsilon is not None else 0.25
    if args.scenario in (None, "half-line"):
        pair = HalfLineOrigin()
        batches = [pair._points(_sample_grid(delta, D, h)) for h in (0.2, 0.1, 0.05, 0.02)]
        net, report = net_growth_probe(pair, delta, D, epsilon, batches)
        bound = math.ceil((D - delta) / epsilon) + 1
        witnesses = dict(report.witnesses)
        witnesses["size_bound"] = bound
        witnesses["within_bound"] = len(net.centers) <= bound
        return dataclasses.replace(report, witnesses=witnesses)
    if args.scenario == "strip":
        pair = PlaneDiagonal()
        gap = delta + D  # birth-death gap keeping dist-to-A inside [delta, D)
        b = np.arange(33.0)
        batches = [pair._points(np.column_stack([b, b + gap])[: extent + 1])
                   for extent in (4, 8, 16, 32)]
        _, report = net_growth_probe(pair, delta, D, epsilon, batches)
        return report
    raise ParseError(f"unknown eps-net scenario {args.scenario!r}")


def probe_dense_family(args) -> ProbeReport:
    n = _count(args.n, "--n", MAX_N)
    seeds = _trial_seeds(args)
    pair = HalfLineOrigin()
    radius = 1.0 / n
    samples = pair._points(_sample_grid(radius, float(n), radius / 4.0))
    net = greedy_eps_net(pair, radius, float(n), radius / 2.0, samples)
    family = dense_family(pair, n, net, validation_samples=samples)

    def trial(seed: int) -> float:
        """A random diagram of up to 6 points in [0, n): its distance to
        its family approximant."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(0, 7))
        rows, mults = [], []
        for _ in range(size):
            rows.append(float(rng.uniform(0.0, float(n))))
            mults.append(int(rng.integers(1, 4)))
        sigma = _canonical(np.array(rows).reshape(-1, 1), mults, pair)
        return approximate_from_family(sigma, family)[1]

    errors = [trial(s) for s in seeds]
    failures = sum(not err <= radius for err in errors)
    return ProbeReport(
        probe_name="dense_family",
        verdict=Verdict.WITNESSED if failures == 0 else Verdict.REFUTED,
        witnesses={
            "n": n,
            "radius": radius,
            "family_size": len(family.centers),
            "trials": args.trials,
            "failures": failures,
        },
        numeric_trace=tuple((float(i), err) for i, err in enumerate(errors)),
    )


def probe_adversary(args) -> ProbeReport:
    k = _count(args.candidates, "--candidates", MAX_CANDIDATES)
    delta, D = args.delta, args.D
    epsilon = args.epsilon if args.epsilon is not None else 1.0
    pair = PlaneDiagonal()
    mid = delta + D  # gap giving dist-to-A = (delta + D) / 2, inside [delta, D)
    spread = max(3.0 * epsilon, 3.0)
    xs = pair._points(np.array([(spread * i, spread * i + mid) for i in range(k)]))
    rng = np.random.default_rng(args.seed)
    candidates = []
    for _ in range(k):
        size = int(rng.integers(0, 6))
        rows = []
        for _ in range(size):
            b = float(rng.uniform(0.0, spread * k))
            g = float(rng.uniform(0.0, 2.0 * mid))
            rows.append((b, b + g))
        # extreme --delta, --D or --epsilon can overflow b + g
        rows = pair._checked(np.array(rows).reshape(-1, 2))
        candidates.append(_canonical(rows, [1] * size, pair))
    _, report = separability_adversary(pair, candidates, delta, D, epsilon, xs)
    return report


def probe_c0_gap(args) -> ProbeReport:
    if args.sweep:
        if args.m < 2:
            raise ParseError(f"--m must be at least 2 with --sweep, got {args.m}")
        reports = []
        gaps = []
        for m in range(2, args.m + 1):
            gap, rep = c0_truncation_gap(m)
            reports.append(rep)
            gaps.append(gap)
        decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
        ok = decreasing and all(r.verdict is Verdict.WITNESSED for r in reports)
        return ProbeReport(
            probe_name="c0_truncation_gap[sweep]",
            verdict=Verdict.WITNESSED if ok else Verdict.REFUTED,
            witnesses={
                "gaps": gaps,
                "strictly_decreasing": decreasing,
                "limit": 1.0,
            },
            numeric_trace=tuple((float(m), g) for m, g in zip(range(2, args.m + 1), gaps)),
        )
    _, report = c0_truncation_gap(args.m)
    return report


# the probe names in the order --help lists them
_PROBES = {
    "isolated-bound": probe_isolated_bound,
    "vanishing-pair": probe_vanishing_pair,
    "cauchy-chain": probe_cauchy_chain,
    "eps-net": probe_eps_net,
    "dense-family": probe_dense_family,
    "adversary": probe_adversary,
    "c0-gap": probe_c0_gap,
}


def cmd_probe(args) -> int:
    result = _PROBES[args.name](args)
    reports = result if isinstance(result, list) else [result]
    if args.format == "csv":
        lines = ["param,value"]
        for rep in reports:
            for a, b in rep.numeric_trace:
                lines.append(f"{a!r},{b!r}")
        print("\n".join(lines))
    else:
        payload = [rep.to_json() for rep in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, sort_keys=True))
    worst = max(_EXIT_BY_VERDICT[rep.verdict] for rep in reports)
    return worst


# -- parser ------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, each call filling a new namespace."""
    parser = argparse.ArgumentParser(
        prog="pdmetric",
        description="Exact distances, geodesics, and metric-geometry probes "
        "for persistence diagrams over metric pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )

    spacey = argparse.ArgumentParser(add_help=False)
    spacey.add_argument("--space", required=True, help="space descriptor file or inline JSON")
    spacey.add_argument("--norm", choices=(SUP, EUCLIDEAN), default=None,
                        help="override the space norm")

    p_dist = sub.add_parser("dist", parents=[common, spacey],
                            help="exact distance between two diagrams")
    p_dist.add_argument("sigma", help="diagram file or inline JSON")
    p_dist.add_argument("tau", help="diagram file or inline JSON")
    p_dist.add_argument("--p", default="inf", help="inf for bottleneck, else real >= 1")
    p_dist.add_argument("--matching", default=None, help="write the optimal matching JSON here")
    p_dist.set_defaults(func=cmd_dist)

    p_geo = sub.add_parser("geodesic", parents=[common, spacey],
                           help="constant-speed geodesic between two diagrams")
    p_geo.add_argument("sigma", help="diagram file or inline JSON")
    p_geo.add_argument("tau", help="diagram file or inline JSON")
    p_geo.add_argument("--steps", type=int, default=10, help="number of segments (emits steps+1 frames)")
    p_geo.set_defaults(func=cmd_geodesic)

    p_probe = sub.add_parser("probe", parents=[common],
                             help="run a metric-geometry probe")
    p_probe.add_argument("name", choices=tuple(_PROBES))
    p_probe.add_argument("--trials", type=int, default=20, help="trial count for batch probes")
    p_probe.add_argument("--jobs", type=int, choices=(1,), default=1,
                         help="only 1: every probe runs its trials in this process")
    p_probe.add_argument("--nmax", type=int, default=50, help="vanishing-pair sequence length")
    p_probe.add_argument("--target", type=float, default=0.05, help="vanishing-pair final bound")
    p_probe.add_argument("--scenario", default=None,
                         help="cauchy-chain: constant|converging|absorbing|all; "
                              "eps-net: half-line|strip")
    p_probe.add_argument("--delta", type=float, default=1.0, help="annulus inner radius")
    p_probe.add_argument("--D", type=float, default=2.0, help="annulus outer radius")
    p_probe.add_argument("--epsilon", type=float, default=None,
                         help="separation scale (eps-net: 0.25, adversary: 1.0)")
    p_probe.add_argument("--n", type=int, default=10, help="dense-family level")
    p_probe.add_argument("--candidates", type=int, default=10, help="adversary candidate count")
    p_probe.add_argument("--m", type=int, default=6, help="c0-gap truncation dimension")
    p_probe.add_argument("--sweep", action="store_true", help="c0-gap: sweep m from 2")
    p_probe.set_defaults(func=cmd_probe)

    return parser


_ERROR_EXITS = (
    (ParseError, 2),
    (InvalidMetric, 2),
    (PreconditionViolated, 2),
    (NotCauchy, 2),
    (EmptyAnnulus, 2),
    (CoverageGap, 2),
    (SpaceMismatch, 3),
    (TooLarge, 4),
    (NoGeodesicOracle, 5),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PdmetricError, ValueError) as e:
        _err(e)
        return next((code for etype, code in _ERROR_EXITS if isinstance(e, etype)), 2)


if __name__ == "__main__":
    sys.exit(main())
