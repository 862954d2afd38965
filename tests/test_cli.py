"""CLI behavior: output formats, exit codes, and determinism."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from pdmetric import DEFAULT_NODE_CAP, Point, ProbeReport, TooLarge
from pdmetric.cli import fmt_real, main

PLANE = '{"kind": "EuclideanPlaneDiagonal", "norm": "sup", "dim": 2}'
HALFLINE = '{"kind": "HalfLineOrigin"}'
FINITE = '{"kind": "FiniteExplicit", "matrix": [[0, 1], [1, 0]], "A": [1]}'

SIGMA = '{"points": [{"coords": [0, 10]}, {"coords": [2, 4]}]}'
TAU = '{"points": [{"coords": [1, 11]}]}'


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- fmt_real ---------------------------------------------------------------


def test_fmt_real():
    assert fmt_real(1.0) == "1"
    assert fmt_real(-2.5) == "-2.5"
    assert fmt_real(0.1) == "0.1"
    assert fmt_real(math.sqrt(2.0)) == "1.41421356237"
    assert fmt_real(1.0 / 3.0) == "0.333333333333"
    assert fmt_real(math.inf) == "inf"
    assert fmt_real(-math.inf) == "-inf"
    assert fmt_real(math.nan) == "nan"
    # beyond 12 significant digits the nearest 12-digit decimal wins
    assert fmt_real(0.30000000000000004) == "0.3"


# -- dist ----------------------------------------------------------------------


def test_dist_bottleneck(capsys):
    code, out, _ = run_main(["dist", SIGMA, TAU, "--space", PLANE], capsys)
    assert code == 0
    assert out == "1\n"


def test_dist_wasserstein(capsys):
    code, out, _ = run_main(["dist", SIGMA, TAU, "--space", PLANE, "--p", "2"], capsys)
    assert code == 0
    assert out == "1.41421356237\n"


def test_dist_matching_output(tmp_path, capsys):
    target = tmp_path / "matching.json"
    code, out, _ = run_main(
        ["dist", SIGMA, TAU, "--space", PLANE, "--matching", str(target)], capsys
    )
    assert code == 0
    obj = json.loads(target.read_text())
    assert obj["p"] == "inf"
    assert obj["value"] == 1.0
    assert any(e["left"] == "A" or e["right"] == "A" for e in obj["pairs"])


def test_dist_wasserstein_matching_keeps_its_bytes(tmp_path, capsys):
    """``dist --p 2 --matching`` on two seeded diagrams of 30 and 24 points
    on a 0.1 grid, where some costs tie, prints the value and writes the
    witness file with the bytes recorded when W_p witnesses were built
    during the solve."""
    rng = np.random.default_rng(2024)

    def diagram(n):
        b = np.round(rng.uniform(0.0, 20.0, n), 1).tolist()
        g = np.round(rng.uniform(0.0, 4.0, n), 1).tolist()
        return json.dumps({"points": [{"coords": [x, x + y]} for x, y in zip(b, g)]})

    sigma, tau = diagram(30), diagram(24)
    target = tmp_path / "matching.json"
    code, out, _ = run_main(["dist", sigma, tau, "--space", PLANE, "--p", "2",
                             "--matching", str(target)], capsys)
    assert (code, out) == (0, "4.95100999797\n")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "816e1abdbd2e0c2a46293da86d4b30d71e66bbce50ee6af89ae02e7a617a2e8e")
    pairs = json.loads(target.read_text())["pairs"]
    assert len(pairs) == 37 and sum("A" not in (e["left"], e["right"]) for e in pairs) == 17


def test_dist_from_files(tmp_path, capsys):
    space_file = tmp_path / "space.json"
    space_file.write_text(PLANE)
    sigma_file = tmp_path / "sigma.csv"
    sigma_file.write_text("birth,death\n0,10\n2,4\n")
    code, out, _ = run_main(
        ["dist", str(sigma_file), TAU, "--space", str(space_file)], capsys
    )
    assert code == 0
    assert out == "1\n"


def test_dist_norm_override(capsys):
    empty = '{"points": []}'
    sigma = '{"points": [{"coords": [0, 4]}]}'
    code, out, _ = run_main(["dist", sigma, empty, "--space", PLANE], capsys)
    assert (code, out) == (0, "2\n")
    code, out, _ = run_main(
        ["dist", sigma, empty, "--space", PLANE, "--norm", "euclidean"], capsys
    )
    assert code == 0
    assert out == "2.82842712475\n"


def test_norm_override_rejected_without_norm(capsys):
    code, _, err = run_main(
        ["dist", "{\"points\": []}", "{\"points\": []}", "--space", HALFLINE,
         "--norm", "sup"],
        capsys,
    )
    assert code == 2
    assert "no norm choice" in err


# -- exit codes -------------------------------------------------------------------


def test_bad_p_exits_2(capsys):
    code, _, err = run_main(
        ["dist", SIGMA, TAU, "--space", PLANE, "--p", "0.5"], capsys
    )
    assert code == 2
    assert "must be" in err
    for raw, message in (("-inf", "--p must be >= 1, got -inf"),
                         ("nan", "--p must be >= 1, got nan"),
                         ("two", "--p must be 'inf' or a real >= 1, got 'two'")):
        code, out, err = run_main(["dist", SIGMA, TAU, "--space", PLANE, f"--p={raw}"], capsys)
        assert (code, out) == (2, "")
        assert message in err


def test_space_mismatch_exits_3(capsys):
    tagged = '{"space": "halfline", "points": []}'
    code, _, err = run_main(["dist", tagged, TAU, "--space", PLANE], capsys)
    assert code == 3


def test_too_large_exits_4(capsys):
    code, _, err = run_main(["probe", "c0-gap", "--m", "13"], capsys)
    assert code == 4


def test_overflowing_cost_power_exits_4():
    """At p = 400 the cost powers overflow the float range: the command
    ends with the size-cap exit code and a message, not a hang or a
    traceback."""
    sigma = '{"points":[{"coords":[0,20]},{"coords":[0,60]}]}'
    tau = '{"points":[{"coords":[0,24]},{"coords":[0,40]}]}'
    out = subprocess.run(
        [sys.executable, "-m", "pdmetric.cli", "dist", sigma, tau,
         "--space", PLANE, "--p", "400"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 4
    assert out.stdout == ""
    assert "Traceback" not in out.stderr and out.stderr.strip()


@pytest.mark.parametrize("command", ["dist", "geodesic"])
def test_huge_multiplicity_exits_4(command):
    """A point of multiplicity 10^12 is refused from the count, before any
    copy is built: exit 4 with a one-line message, not an exhausted memory
    and a traceback."""
    huge = '{"points":[{"coords":[0,1],"mult":1000000000000}]}'
    out = subprocess.run(
        [sys.executable, "-m", "pdmetric.cli", command, huge, '{"points":[]}',
         "--space", PLANE],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 4
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert len(out.stderr.strip().splitlines()) == 1


EMPTY = '{"points": []}'
POINT = '{"points": [{"coords": [0, 4]}]}'

FINITE_A = '{"kind": "FiniteExplicit", "matrix": [[0, 1], [1, 0]], "A": [%s]}'
FINITE3_A = '{"kind": "FiniteExplicit", "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "A": %s}'
# TMP/ is the test's temporary directory, where the test writes the
# TMP_FILES its argv names: a JSON list, JSON nested far past the recursion
# limit, and a CSV cell past csv's field size limit (131,072 characters)
LIST_FILE = "TMP/list.json"
NESTED = "[" * 10_000 + "]" * 10_000
TMP_FILES = {
    "list.json": "[1, 2]",
    "nested.json": '{"points": %s}' % NESTED,
    "nested_space.json": '{"kind": "QuotientOf", "inner": %s}' % NESTED,
    "big_cell.csv": "birth,death\n0,%s\n" % ("1" * 200_000),
}

# argv and the README exit code it ends with
MALFORMED = [
    pytest.param(["dist", '{"points": [{"coords": [1e999]}]}', EMPTY, "--space", FINITE], 2,
                 id="finite-index-inf"),
    pytest.param(["dist", EMPTY, '{"points": [{"coords": [-1e999]}]}', "--space", FINITE], 2,
                 id="finite-index-minus-inf"),
    pytest.param(["dist", '{"points": [{"coords": [0, 1%s]}]}' % ("0" * 400), EMPTY,
                  "--space", PLANE], 2, id="integer-coordinate-beyond-float"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "EuclideanPlaneDiagonal", "dim": null}'], 2, id="plane-dim-null"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "SupCubeTruncatedC0", "dim": null}'], 2, id="supcube-dim-null"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "HalfPlane2nDiagonal", "dim": 1e999}'], 2, id="plane-dim-inf"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "SupCubeTruncatedC0", "dim": 1e999}'], 2, id="supcube-dim-inf"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", FINITE_A % "1e999"], 2, id="finite-A-inf"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "SupCubeTruncatedC0", "dim": true}'], 2, id="supcube-dim-true"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "HalfPlane2nDiagonal", "dim": 4.9}'], 2, id="plane-dim-fraction"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "HalfPlane2nDiagonal", "dim": 3}'], 2, id="plane-dim-odd"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "EuclideanPlaneDiagonal", "norm": "l1"}'], 2, id="plane-norm-unknown"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "SupCubeTruncatedC0", "dim": 13}'], 2, id="supcube-dim-too-large"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "HalfPlane2nDiagonal", "dim": 100000000000}'], 2,
                 id="plane-dim-too-large"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", FINITE_A % "1.5"], 2,
                 id="finite-A-fraction"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", FINITE_A % "true"], 2, id="finite-A-true"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", FINITE3_A % '"12"'], 2, id="finite-A-string"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", FINITE_A % '"1"'], 2, id="finite-A-text-index"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", FINITE3_A % '{"2": 0}'], 2,
                 id="finite-A-object"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", '{"kind": "FiniteExplicit", "A": [1]}'], 2,
                 id="finite-no-matrix"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "FiniteExplicit", "matrix": [[0, 1], [1, 0]]}'], 2,
                 id="finite-no-A"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", '{"kind": "QuotientOf"}'], 2,
                 id="quotient-no-inner"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", LIST_FILE], 2, id="space-not-object"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", "/nonexistent/space.json"], 2,
                 id="space-file-unreadable"),
    pytest.param(["dist", SIGMA, TAU, "--space", PLANE, "--matching", "TMP/missing/m.json"], 2,
                 id="matching-dir-missing"),
    pytest.param(["dist", SIGMA, TAU, "--space", PLANE, "--matching", "TMP/"], 2,
                 id="matching-is-a-directory"),
    pytest.param(["dist", SIGMA, TAU, "--space", PLANE, "--p", "0.5"], 2, id="p-below-1"),
    pytest.param(["dist", SIGMA, TAU, "--space", PLANE, "--p=nan"], 2, id="p-nan"),
    pytest.param(["dist", SIGMA, TAU, "--space", PLANE, "--p=two"], 2, id="p-text"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", '{"kind": "NoSuchKind"}'], 2,
                 id="unknown-kind"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", '{"kind": ["a"]}'], 2, id="kind-list"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", '{"kind": {}}'], 2, id="kind-object"),
    pytest.param(["dist", '{"space": {"kind": ["a"]}, "points": []}', TAU, "--space", PLANE], 2,
                 id="declared-space-kind-list"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "SupCubeTruncatedC0", "dim": "4"}'], 2, id="supcube-dim-text"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "HalfPlane2nDiagonal", "dim": "4"}'], 2, id="plane-dim-text"),
    pytest.param(["dist", '{"points": %s}' % NESTED, TAU, "--space", PLANE], 2,
                 id="diagram-inline-nested"),
    pytest.param(["dist", "TMP/nested.json", TAU, "--space", PLANE], 2,
                 id="diagram-file-nested"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", "TMP/nested_space.json"], 2,
                 id="space-file-nested"),
    pytest.param(["dist", "TMP/big_cell.csv", TAU, "--space", PLANE], 2,
                 id="csv-cell-oversized"),
    pytest.param(["dist", '{"points": [{"coords": [0, 4], "mult": 0}]}', TAU, "--space", PLANE],
                 2, id="mult-zero"),
    pytest.param(["dist", '{"points": [{"coords": [0, 4], "mult": 1.5}]}', TAU, "--space", PLANE],
                 2, id="mult-fraction"),
    pytest.param(["dist", '{"points": [{"coords": "12"}]}', TAU, "--space", PLANE], 2,
                 id="coords-string"),
    pytest.param(["dist", '{"points": [{"coords": {"1": 0, "5": 0}}]}', TAU, "--space", PLANE],
                 2, id="coords-object"),
    pytest.param(["dist", '{"points": [{"coords": [true, 2]}]}', TAU, "--space", PLANE], 2,
                 id="coords-boolean"),
    pytest.param(["dist", '{"points": [{"coords": [0, 4], "mult": true}]}', TAU, "--space", PLANE],
                 2, id="mult-true"),
    pytest.param(["dist", LIST_FILE, TAU, "--space", PLANE], 2, id="diagram-not-object"),
    pytest.param(["dist", '{"points": 1}', TAU, "--space", PLANE], 2, id="points-not-list"),
    pytest.param(["dist", '{"space": 5, "points": []}', TAU, "--space", PLANE], 2,
                 id="space-field-number"),
    pytest.param(["dist", '{"space": "halfline", "points": []}', TAU, "--space", PLANE], 3,
                 id="space-mismatch"),
    pytest.param(["dist", '{"space": {"kind": "HalfLineOrigin"}, "points": []}', TAU,
                  "--space", PLANE], 3, id="space-descriptor-mismatch"),
    pytest.param(["probe", "isolated-bound", "--trials", "0"], 2, id="trials-zero"),
    pytest.param(["probe", "dense-family", "--n", "0"], 2, id="dense-family-n-zero"),
    pytest.param(["probe", "adversary", "--candidates", "0"], 2, id="adversary-candidates-zero"),
    pytest.param(["probe", "cauchy-chain", "--scenario", "diverging"], 2,
                 id="cauchy-scenario-unknown"),
    pytest.param(["probe", "cauchy-chain", "--scenario", ""], 2, id="cauchy-scenario-empty"),
    pytest.param(["probe", "eps-net", "--scenario", "disk"], 2, id="eps-net-scenario-unknown"),
    pytest.param(["probe", "eps-net", "--scenario", ""], 2, id="eps-net-scenario-empty"),
    pytest.param(["probe", "eps-net", "--epsilon", "nan"], 2, id="eps-net-epsilon-nan"),
    pytest.param(["probe", "eps-net", "--scenario", "strip", "--epsilon", "nan"], 2,
                 id="eps-net-strip-epsilon-nan"),
    pytest.param(["probe", "vanishing-pair", "--target", "nan"], 2, id="vanishing-target-nan"),
    pytest.param(["probe", "c0-gap", "--m", "13"], 4, id="too-large"),
    pytest.param(["probe", "c0-gap", "--m", "0"], 2, id="c0-gap-m-zero"),
    pytest.param(["probe", "c0-gap", "--sweep", "--m", "1"], 2, id="c0-sweep-m-one"),
    pytest.param(["probe", "dense-family", "--n", "100000"], 4, id="dense-family-grid-too-large"),
    # 1 / n of this n overflows the float range
    pytest.param(["probe", "dense-family", "--n", "9" * 401], 4, id="dense-family-n-past-floats"),
    pytest.param(["probe", "eps-net", "--D", "1e9"], 4, id="eps-net-grid-too-large"),
    pytest.param(["probe", "vanishing-pair", "--nmax", "5000"], 4, id="vanishing-pair-too-large"),
    pytest.param(["probe", "vanishing-pair", "--nmax", "1000000000"], 4, id="nmax-huge"),
    pytest.param(["probe", "isolated-bound", "--trials", "1000000000000"], 4, id="trials-huge"),
    pytest.param(["probe", "dense-family", "--trials", "1000000000000"], 4,
                 id="dense-family-trials-huge"),
    pytest.param(["probe", "adversary", "--candidates", "1000000000000"], 4,
                 id="candidates-huge"),
    pytest.param(["geodesic", POINT, POINT, "--space", PLANE, "--steps", "1000000000"], 4,
                 id="steps-huge"),
    pytest.param(["geodesic", EMPTY, EMPTY, "--space", FINITE], 5, id="no-geodesic-oracle"),
    pytest.param(["geodesic", EMPTY, EMPTY, "--space", FINITE, "--format", "csv"], 2,
                 id="geodesic-csv-finite"),
    pytest.param(["geodesic", SIGMA, TAU, "--space", '{"kind": "SupCubeTruncatedC0", "dim": 2}',
                  "--format", "csv"], 2, id="geodesic-csv-supcube"),
    pytest.param(["geodesic", SIGMA, TAU, "--space", '{"kind": "QuotientOf", "inner": %s}' % PLANE,
                  "--format", "csv"], 2, id="geodesic-csv-quotient"),
]


@pytest.mark.parametrize("argv, code", MALFORMED)
def test_malformed_input_ends_in_one_error_line(argv, code, tmp_path, capsys):
    """No malformed input reaches the user as a traceback: each ends with
    its typed exit code, no stdout and a single "pdmetric: error:" line."""
    for name, text in TMP_FILES.items():
        if f"TMP/{name}" in argv:
            (tmp_path / name).write_text(text)
    argv = [a.replace("TMP/", f"{tmp_path}/") for a in argv]
    assert main(argv) == code  # an exception escaping here fails the test
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pdmetric: error: ")


def test_sample_grid_cap_admits_exactly_max_rows():
    from pdmetric.cli import MAX_GRID_SAMPLES, _sample_grid

    assert _sample_grid(0.0, MAX_GRID_SAMPLES / 2, 0.5).shape == (MAX_GRID_SAMPLES, 1)
    with pytest.raises(TooLarge):
        _sample_grid(0.0, MAX_GRID_SAMPLES / 2 + 0.5, 0.5)


class Solved(Exception):
    """Raised by a patched solver: the command got past its checks."""


def no_solve(*args, **kwargs):
    raise Solved


@pytest.mark.parametrize("cap, argv", [
    pytest.param("MAX_TRIALS", ["probe", "isolated-bound", "--trials"], id="isolated-bound"),
    pytest.param("MAX_TRIALS", ["probe", "dense-family", "--trials"], id="dense-family"),
    pytest.param("MAX_N", ["probe", "dense-family", "--n"], id="dense-family-n"),
    pytest.param("MAX_CANDIDATES", ["probe", "adversary", "--candidates"], id="adversary"),
    pytest.param("MAX_NMAX", ["probe", "vanishing-pair", "--nmax"], id="vanishing-pair"),
    pytest.param("MAX_STEPS", ["geodesic", SIGMA, TAU, "--space", PLANE, "--steps"],
                 id="geodesic"),
])
def test_count_cap_is_accepted_and_one_more_refused_before_any_solve(cap, argv, monkeypatch,
                                                                     capsys):
    import pdmetric.cli as cli
    import pdmetric.geodesics as geodesics
    import pdmetric.probes as probes

    monkeypatch.setattr(cli, cap, 3)
    monkeypatch.setattr(probes, "bottleneck", no_solve)
    monkeypatch.setattr(geodesics, "bottleneck", no_solve)
    with pytest.raises(Solved):
        main(argv + ["3"])
    code, out, err = run_main(argv + ["4"], capsys)
    assert (code, out) == (4, "")
    assert err == f"pdmetric: error: {argv[-1]} 4 exceeds the cap of 3\n"


def test_nmax_cap_is_the_solvers_size_cap():
    from pdmetric.cli import MAX_NMAX

    # the last pair holds nmax + 1 points on each side
    assert 2 * (MAX_NMAX + 1) <= DEFAULT_NODE_CAP


def test_dense_family_n_cap_is_the_largest_grid_that_fits():
    from pdmetric.cli import MAX_GRID_SAMPLES, MAX_N, _sample_grid

    # level n samples [1/n, n) in steps of 1/(4n): 4 n^2 - 4 rows
    def grid(n):
        return _sample_grid(1.0 / n, float(n), 1.0 / n / 4.0)

    assert 4 * MAX_N**2 - 4 <= MAX_GRID_SAMPLES < 4 * (MAX_N + 1) ** 2 - 4
    assert len(grid(MAX_N)) == 4 * MAX_N**2 - 4
    with pytest.raises(TooLarge):
        grid(MAX_N + 1)


@pytest.mark.parametrize("flag, value", [("--D", "inf"), ("--D", "nan"), ("--delta", "nan")])
def test_non_finite_annulus_is_a_usage_error(flag, value, capsys):
    # not a grid too large to build: no finite row count
    code, out, err = run_main(["probe", "eps-net", flag, value], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1


def test_no_geodesic_oracle_exits_5(capsys):
    empty = '{"points": []}'
    code, _, err = run_main(
        ["geodesic", empty, empty, "--space", FINITE], capsys
    )
    assert code == 5


def test_unreadable_file_exits_2(capsys):
    code, _, err = run_main(
        ["dist", "/nonexistent/diagram.json", TAU, "--space", PLANE], capsys
    )
    assert code == 2


def test_unknown_probe_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["probe", "nonsense"])
    assert exc.value.code == 2


# -- geodesic ----------------------------------------------------------------------


def test_geodesic_json(capsys):
    code, out, _ = run_main(
        ["geodesic", SIGMA, TAU, "--space", PLANE, "--steps", "4"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 1.0
    assert len(obj["frames"]) == 5
    assert obj["frames"][0]["t"] == 0.0
    assert obj["frames"][-1]["t"] == 1.0
    assert obj["midpoint_check"]["verdict"] == "WITNESSED"


def test_geodesic_far_from_the_origin_exits_0(capsys):
    # its frames deviate by about 1e-8, the rounding of coordinates near 1e8
    sigma = '{"points": [{"coords": [1e8, 100000001]}]}'
    tau = '{"points": [{"coords": [100000000.5, 100000002]}]}'
    code, out, _ = run_main(["geodesic", sigma, tau, "--space", PLANE], capsys)
    assert code == 0
    assert json.loads(out)["midpoint_check"]["verdict"] == "WITNESSED"


@pytest.mark.parametrize("sigma, tau", [
    ('{"points": [{"coords": [1e308, 1.5e308]}]}', '{"points": []}'),
    ('{"points": [{"coords": [1e308, 1.5e308]}, {"coords": [1.2e308, 1.6e308]}]}',
     '{"points": [{"coords": [1.1e308, 1.4e308]}]}'),
], ids=["one-point", "two-points"])
def test_geodesic_whose_projection_sum_overflows_exits_0(sigma, tau, capsys):
    # b + d overflows to inf here, so the projection may not add first
    code, out, err = run_main(["geodesic", sigma, tau, "--space", PLANE, "--steps", "2"], capsys)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["midpoint_check"]["verdict"] == "WITNESSED"
    assert all(math.isfinite(c) for f in obj["frames"] for q in f["points"] for c in q["coords"])


def test_geodesic_through_A_leg_reaches_target(capsys):
    # a leg through A whose last parameter rounds to just above 1 at t = 1
    sigma = '{"points":[{"coords":[1.6,4.0]},{"coords":[7.4,8.6]}]}'
    tau = '{"points":[{"coords":[1.2,2.8]},{"coords":[3.4,8.7]}]}'
    code, out, _ = run_main(["geodesic", sigma, tau, "--space", PLANE, "--steps", "2"], capsys)
    assert code == 0
    assert json.loads(out)["midpoint_check"]["verdict"] == "WITNESSED"


def test_geodesic_solves_each_path_once(monkeypatch, capsys):
    # one bottleneck solve builds the path, two per frame check it, and
    # each frame is evaluated once for both the output and the check
    import pdmetric.geodesics as geo

    calls = {"bottleneck": 0, "at": 0}
    bottleneck, at = geo.bottleneck, geo.DiagramPath.at

    def counted_bottleneck(*args, **kwargs):
        calls["bottleneck"] += 1
        return bottleneck(*args, **kwargs)

    def counted_at(self, t):
        calls["at"] += 1
        return at(self, t)

    monkeypatch.setattr(geo, "bottleneck", counted_bottleneck)
    monkeypatch.setattr(geo.DiagramPath, "at", counted_at)
    code, _, _ = run_main(["geodesic", SIGMA, TAU, "--space", PLANE, "--steps", "10"], capsys)
    assert code == 0
    assert calls == {"bottleneck": 23, "at": 11}


def test_geodesic_csv(capsys):
    code, out, _ = run_main(
        ["geodesic", SIGMA, TAU, "--space", PLANE, "--steps", "2", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,birth,death,mult"
    assert lines[-1].startswith("# midpoint_check=WITNESSED")


def test_geodesic_csv_requires_plane(capsys):
    d = '{"points": [{"coords": [1]}]}'
    code, _, err = run_main(
        ["geodesic", d, d, "--space", HALFLINE, "--format", "csv"], capsys
    )
    assert code == 2


def test_geodesic_csv_refusal_comes_before_any_solve(monkeypatch, capsys):
    import pdmetric.cli as cli

    def no_solve(*args):
        raise AssertionError("geodesic_between called for a CSV-refused space")

    monkeypatch.setattr(cli, "geodesic_between", no_solve)
    d = '{"points": [{"coords": [1]}]}'
    for space, sigma in ((HALFLINE, d), (FINITE, EMPTY),
                         ('{"kind": "SupCubeTruncatedC0", "dim": 2}', SIGMA)):
        code, out, _ = run_main(["geodesic", sigma, sigma, "--space", space, "--format", "csv"],
                                capsys)
        assert (code, out) == (2, "")


def test_geodesic_rejects_zero_steps(capsys):
    code, _, err = run_main(
        ["geodesic", SIGMA, TAU, "--space", PLANE, "--steps", "0"], capsys
    )
    assert code == 2


# -- probes --------------------------------------------------------------------------


def test_probe_c0_gap(capsys):
    code, out, _ = run_main(["probe", "c0-gap", "--m", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "WITNESSED"
    assert obj["witnesses"]["gap"] == 1.0 + 1.0 / 3.0


@pytest.mark.parametrize("m", ["1", "0", "-3"])
def test_probe_c0_gap_sweep_needs_two_dimensions(m, capsys):
    # a sweep over no m would report WITNESSED with nothing checked
    code, out, err = run_main(["probe", "c0-gap", "--sweep", "--m", m], capsys)
    assert (code, out) == (2, "")
    assert err == f"pdmetric: error: --m must be at least 2 with --sweep, got {m}\n"


def test_probe_c0_gap_sweep(capsys):
    code, out, _ = run_main(["probe", "c0-gap", "--sweep", "--m", "5"], capsys)
    assert code == 0
    obj = json.loads(out)
    gaps = obj["witnesses"]["gaps"]
    assert gaps[0] == 1.5
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert obj["witnesses"]["strictly_decreasing"] is True


def test_probe_c0_gap_sweep_to_twelve_keeps_its_output(capsys):
    """The full sweep, m = 2..12, prints the same bytes as the sup-norm
    cost pass did before the costs came from subset masks."""
    code, out, _ = run_main(["probe", "c0-gap", "--sweep", "--m", "12"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2cdd3fb963fb94f3587f53a5d7c09253e281e830dc26d178d064bd233abde533")


def test_probe_eps_net_halfline_inconclusive(capsys):
    code, out, _ = run_main(["probe", "eps-net"], capsys)
    assert code == 6
    obj = json.loads(out)
    assert obj["verdict"] == "INCONCLUSIVE"
    assert obj["witnesses"]["within_bound"] is True
    sizes = obj["witnesses"]["sizes"]
    assert len(sizes) == 4
    assert max(sizes) <= obj["witnesses"]["size_bound"]


def test_probe_eps_net_strip_refuted(capsys):
    code, out, _ = run_main(["probe", "eps-net", "--scenario", "strip"], capsys)
    assert code == 1
    obj = json.loads(out)
    sizes = obj["witnesses"]["sizes"]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_probe_adversary(capsys):
    code, out, _ = run_main(
        ["probe", "adversary", "--candidates", "4", "--seed", "3"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "WITNESSED"
    assert all(d >= obj["witnesses"]["half"] for _, d in obj["trace"])


def test_probe_vanishing_pair(capsys):
    code, out, _ = run_main(["probe", "vanishing-pair", "--nmax", "30"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "WITNESSED"
    code, out, _ = run_main(
        ["probe", "vanishing-pair", "--nmax", "5", "--target", "1e-9"], capsys
    )
    assert code == 1
    # an infinite witness is written as text, which JSON can carry
    code, out, _ = run_main(["probe", "vanishing-pair", "--nmax", "5", "--target", "inf"], capsys)
    assert code == 0
    assert '"target": "inf"' in out


def test_probe_cauchy_chain_single(capsys):
    code, out, _ = run_main(
        ["probe", "cauchy-chain", "--scenario", "converging"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["probe"] == "cauchy_chain_limit[converging]"
    assert obj["verdict"] == "WITNESSED"
    limit = obj["witnesses"]["limit"]
    assert len(limit) == 1
    assert abs(limit[0]["coords"][1] - 4.0) <= 1e-6


def test_probe_cauchy_chain_all(capsys):
    code, out, _ = run_main(["probe", "cauchy-chain"], capsys)
    assert code == 0
    objs = json.loads(out)
    assert [o["probe"] for o in objs] == [
        "cauchy_chain_limit[constant]",
        "cauchy_chain_limit[converging]",
        "cauchy_chain_limit[absorbing]",
    ]
    assert all(o["verdict"] == "WITNESSED" for o in objs)
    assert objs[2]["witnesses"]["limit"] == []


def test_back_to_back_calls_share_no_state(capsys):
    """The parser is built once per process, and a --scenario given to one
    call does not carry over to the next."""
    from pdmetric.cli import _build_parser

    assert _build_parser() is _build_parser()
    code, out, _ = run_main(["probe", "cauchy-chain", "--scenario", "converging"], capsys)
    assert (code, json.loads(out)["probe"]) == (0, "cauchy_chain_limit[converging]")
    code, out, _ = run_main(["probe", "cauchy-chain"], capsys)
    assert code == 0
    assert [o["probe"] for o in json.loads(out)] == [
        "cauchy_chain_limit[constant]",
        "cauchy_chain_limit[converging]",
        "cauchy_chain_limit[absorbing]",
    ]


def test_probe_isolated_bound(capsys):
    code, out, _ = run_main(
        ["probe", "isolated-bound", "--trials", "4", "--seed", "5"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["witnesses"]["failures"] == 0
    assert all(gap >= 0.0 for _, gap in obj["trace"])


def test_probe_dense_family(capsys):
    code, out, _ = run_main(
        ["probe", "dense-family", "--n", "4", "--trials", "6"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["witnesses"]["failures"] == 0
    assert all(err <= 0.25 for _, err in obj["trace"])


def test_probe_csv_format(capsys):
    code, out, _ = run_main(
        ["probe", "c0-gap", "--sweep", "--m", "4", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "param,value"
    assert len(lines) == 4  # m = 2, 3, 4


def _leaves(v):
    """The values a report's witnesses hold, through containers and the
    coordinates of points; a diagram is one leaf."""
    if isinstance(v, dict):
        v = list(v.values())
    if isinstance(v, Point):
        v = v.coords
    if isinstance(v, (list, tuple)):
        for u in v:
            yield from _leaves(u)
    else:
        yield v


REPORT_ARGV = [
    ["probe", "isolated-bound", "--trials", "3"],
    ["probe", "vanishing-pair", "--nmax", "5"],
    *(["probe", "cauchy-chain", "--scenario", s] for s in ("constant", "converging", "absorbing")),
    *(["probe", "eps-net", "--scenario", s] for s in ("half-line", "strip")),
    ["probe", "dense-family", "--n", "3", "--trials", "3"],
    ["probe", "adversary", "--candidates", "4"],
    ["probe", "c0-gap", "--m", "3"],
    ["probe", "c0-gap", "--sweep", "--m", "4"],
    ["geodesic", SIGMA, TAU, "--space", PLANE, "--steps", "2"],
]


@pytest.mark.parametrize("argv", REPORT_ARGV,
                         ids=lambda a: "-".join(a[1:4]) if a[0] == "probe" else "geodesic")
def test_report_witnesses_hold_no_numpy_scalar(argv, monkeypatch, capsys):
    """Every report the CLI writes holds plain Python values, so writing it
    needs no numpy conversion."""
    reports, to_json = [], ProbeReport.to_json

    def recorded(report):
        reports.append(report)
        return to_json(report)

    monkeypatch.setattr(ProbeReport, "to_json", recorded)
    assert main(argv) in (0, 1, 6)
    capsys.readouterr()
    assert reports
    for report in reports:
        leaves = list(_leaves(report.witnesses))
        assert leaves and not [v for v in leaves if isinstance(v, np.generic)]


# -- determinism --------------------------------------------------------------------


def run_cli(argv):
    out = subprocess.run(
        [sys.executable, "-m", "pdmetric.cli", *argv], capture_output=True
    )
    return out.returncode, out.stdout


def test_byte_identical_reruns():
    argv = ["probe", "adversary", "--candidates", "4", "--seed", "7"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
    assert first[0] == 0 and first[1]


@pytest.mark.parametrize("name", ["isolated-bound", "dense-family"])
def test_jobs_one_keeps_probe_output(name):
    base = ["probe", name, "--trials", "4", "--seed", "11"]
    plain = run_cli(base)
    assert plain == run_cli(base + ["--jobs", "1"])
    assert plain[0] == 0 and plain[1]


@pytest.mark.parametrize("argv", [
    pytest.param(["probe", "isolated-bound", "--trials", "4", "--jobs", "2"], id="probe-jobs-2"),
    pytest.param(["dist", SIGMA, TAU, "--space", PLANE, "--jobs", "1"], id="dist-jobs-1"),
])
def test_jobs_is_a_usage_error_beyond_probe_jobs_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_import_loads_no_process_pool():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, pdmetric.cli; "
         "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
