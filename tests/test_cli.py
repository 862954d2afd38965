"""CLI behavior: output formats, exit codes, and determinism."""

import json
import math
import subprocess
import sys

import pytest

from pdmetric import TooLarge
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

MALFORMED = [
    pytest.param(["dist", '{"points": [{"coords": [1e999]}]}', EMPTY, "--space", FINITE],
                 id="finite-index-inf"),
    pytest.param(["dist", EMPTY, '{"points": [{"coords": [-1e999]}]}', "--space", FINITE],
                 id="finite-index-minus-inf"),
    pytest.param(["dist", '{"points": [{"coords": [0, 1%s]}]}' % ("0" * 400), EMPTY,
                  "--space", PLANE], id="integer-coordinate-beyond-float"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "EuclideanPlaneDiagonal", "dim": null}'], id="plane-dim-null"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "SupCubeTruncatedC0", "dim": null}'], id="supcube-dim-null"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "HalfPlane2nDiagonal", "dim": 1e999}'], id="plane-dim-inf"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "SupCubeTruncatedC0", "dim": 1e999}'], id="supcube-dim-inf"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "FiniteExplicit", "matrix": [[0, 1], [1, 0]], "A": [1e999]}'],
                 id="finite-A-inf"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "SupCubeTruncatedC0", "dim": true}'], id="supcube-dim-true"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "HalfPlane2nDiagonal", "dim": 4.9}'], id="plane-dim-fraction"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "FiniteExplicit", "matrix": [[0, 1], [1, 0]], "A": [1.5]}'],
                 id="finite-A-fraction"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "FiniteExplicit", "matrix": [[0, 1], [1, 0]], "A": [true]}'],
                 id="finite-A-true"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "FiniteExplicit", "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "A": "12"}'],
                 id="finite-A-string"),
    pytest.param(["dist", EMPTY, EMPTY, "--space",
                  '{"kind": "FiniteExplicit", "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "A": {"2": 0}}'],
                 id="finite-A-object"),
    pytest.param(["dist", SIGMA, TAU, "--space", PLANE, "--p", "0.5"], id="p-below-1"),
    pytest.param(["dist", SIGMA, TAU, "--space", PLANE, "--p=nan"], id="p-nan"),
    pytest.param(["dist", SIGMA, TAU, "--space", PLANE, "--p=two"], id="p-text"),
    pytest.param(["dist", EMPTY, EMPTY, "--space", '{"kind": "NoSuchKind"}'], id="unknown-kind"),
    pytest.param(["dist", '{"points": [{"coords": [0, 4], "mult": 0}]}', TAU, "--space", PLANE],
                 id="mult-zero"),
    pytest.param(["dist", '{"points": [{"coords": [0, 4], "mult": 1.5}]}', TAU, "--space", PLANE],
                 id="mult-fraction"),
    pytest.param(["dist", '{"points": [{"coords": "12"}]}', TAU, "--space", PLANE],
                 id="coords-string"),
    pytest.param(["dist", '{"points": [{"coords": {"1": 0, "5": 0}}]}', TAU, "--space", PLANE],
                 id="coords-object"),
    pytest.param(["dist", '{"points": [{"coords": [true, 2]}]}', TAU, "--space", PLANE],
                 id="coords-boolean"),
    pytest.param(["dist", '{"points": [{"coords": [0, 4], "mult": true}]}', TAU, "--space", PLANE],
                 id="mult-true"),
    pytest.param(["dist", '{"space": "halfline", "points": []}', TAU, "--space", PLANE],
                 id="space-mismatch"),
    pytest.param(["probe", "c0-gap", "--m", "13"], id="too-large"),
    pytest.param(["probe", "dense-family", "--n", "100000"], id="dense-family-grid-too-large"),
    pytest.param(["probe", "eps-net", "--D", "1e9"], id="eps-net-grid-too-large"),
    pytest.param(["probe", "vanishing-pair", "--nmax", "5000"], id="vanishing-pair-too-large"),
    pytest.param(["geodesic", EMPTY, EMPTY, "--space", FINITE], id="no-geodesic-oracle"),
]


@pytest.mark.parametrize("argv", MALFORMED)
def test_malformed_input_ends_in_one_error_line(argv, capsys):
    """No malformed input reaches the user as a traceback: each ends with a
    typed exit code, no stdout and a single "pdmetric: error:" line."""
    code = main(argv)  # an exception escaping here fails the test
    out = capsys.readouterr()
    assert code in {2, 3, 4, 5}
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pdmetric: error: ")


def test_sample_grid_cap_admits_exactly_max_rows():
    from pdmetric.cli import MAX_GRID_SAMPLES, _sample_grid

    assert _sample_grid(0.0, MAX_GRID_SAMPLES / 2, 0.5).shape == (MAX_GRID_SAMPLES, 1)
    with pytest.raises(TooLarge):
        _sample_grid(0.0, MAX_GRID_SAMPLES / 2 + 0.5, 0.5)


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


def test_probe_c0_gap_sweep(capsys):
    code, out, _ = run_main(["probe", "c0-gap", "--sweep", "--m", "5"], capsys)
    assert code == 0
    obj = json.loads(out)
    gaps = obj["witnesses"]["gaps"]
    assert gaps[0] == 1.5
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert obj["witnesses"]["strictly_decreasing"] is True


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
