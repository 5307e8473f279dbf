"""CLI harness: determinism, exit codes, CSV and manifest outputs."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from gracecode import cli
from gracecode.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from gracecode.converse import linear_single_point
from gracecode.efun import build_family, error_poly, f_alphabet


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_parse_grid():
    assert np.allclose(cli._parse_grid("0.5"), [0.5])
    assert np.allclose(cli._parse_grid("0.2:0.8:0.3"), [0.2, 0.5, 0.8])
    with pytest.raises(ValueError):
        cli._parse_grid("1:2")
    with pytest.raises(ValueError):
        cli._parse_grid("1:2:0")
    for empty in ("1.5:1.0:0.1", "0.5:0.4:0.1"):  # b < a
        with pytest.raises(ValueError, match="empty"):
            cli._parse_grid(empty)
    for bad in ("nan", "inf", "-inf", "0:inf:1", "-inf:0:1", "0:1:nan", "0:1:inf", "nan:1:0.1"):
        with pytest.raises(ValueError, match="non-finite"):
            cli._parse_grid(bad)
    # the point count is checked before anything is allocated
    assert cli._parse_grid("0:999999:1").shape == (1_000_000,)
    for huge in ("0:1000000:1", "0:1e9:1e-9", "-1e308:1e308:1", "0:1:1e-320"):
        with pytest.raises(ValueError, match="more than 1000000 points"):
            cli._parse_grid(huge)


def test_usage_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing required flags
    assert exc.value.code == EXIT_USAGE
    # out-of-range counts are rejected at parse time, before any trial runs
    base = ["--ensemble", "ldmc3", "--k", "10", "--rate", "0.5", "--out", str(tmp_path / "x.csv")]
    for command, flag, value in [
        ("simulate", "--trials", "0"),
        ("simulate", "--k", "0"),
        ("simulate", "--bp-iters", "-1"),
        ("histogram", "--bins", "0"),
        ("histogram", "--bins", "1000001"),
        ("histogram", "--trials", "two"),
    ]:
        extra = ["--alpha-grid", "1.0"] if command == "simulate" else ["--alpha", "1.0"]
        with pytest.raises(SystemExit) as exc:
            main([command, *base, *extra, flag, value])
        assert exc.value.code == EXIT_USAGE
        assert flag in capsys.readouterr().err
    # simulate takes exactly one of the two grids
    for grids in ([], ["--alpha-grid", "1.0", "--eps-grid", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *base, *grids])
        assert exc.value.code == EXIT_USAGE
        assert "--eps-grid" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--ensemble", "ldmc3", "--k", "10", "--rate", "0.5", "--alpha-grid", "1.0"],
        ["histogram", "--ensemble", "ldmc3", "--k", "10", "--rate", "0.5", "--alpha", "1.0"],
        # one start would run and record the seed; two would fail in the second
        ["optimize", "--components", "XOR:1,XOR:2", "--targets", "1.0", "--ell", "2", "--multistart", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_a_usage_error_before_any_work(argv, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran")

    monkeypatch.setattr(cli, "sample_graph", no_work)
    monkeypatch.setattr(cli, "optimize_profile", no_work)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == EXIT_USAGE
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_simulate_checks_its_rate_before_dividing_by_it(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--ensemble", "ldmc3", "--k", "10", "--rate", "0", "--eps-grid", "0.5", "--out", str(out)]
    assert main(argv) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "error: rate must lie in (0, 1], got 0\n"


@pytest.mark.filterwarnings("error")
def test_simulate_bounds_the_block_length(tmp_path, capsys):
    # a tiny rate asks for n = round(k / rate) checks: 1e300 used to end in an
    # unrelated numpy error, 1e13 in a MemoryError traceback
    out = tmp_path / "sim.csv"
    for rate in ("1e-299", "1e-12"):
        argv = ["simulate", "--ensemble", "ldmc3", "--k", "10", "--rate", rate, "--eps-grid", "0.5", "--out", str(out)]
        assert main(argv) == EXIT_INFEASIBLE, rate
        err = capsys.readouterr().err
        assert err == f"error: block length n = round(k / rate) = round(10 / {rate}) exceeds the limit of 100000000 checks\n"
        assert not out.exists()


def test_infeasible_exit_code(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    status = main([
        "simulate", "--ensemble", "nosuchprofile", "--k", "10", "--rate", "0.5",
        "--alpha-grid", "1.0", "--out", str(out),
    ])
    assert status == EXIT_INFEASIBLE
    assert not out.exists()
    # empty grids, out-of-range loads and malformed profile files stop before
    # any row is written
    base = ["--ensemble", "ldmc3", "--k", "10", "--rate", "0.5", "--out", str(out)]
    for name, text in [("short", "MAJ 3\n"), ("long", "MAJ 3 0.5 junk\n"), ("nan", "MAJ 3 nan\nXOR 1 1\n"),
                       ("parity", "MAJ 3 0.8\nPARITY 2 0.2\n")]:
        (tmp_path / f"{name}.profile").write_text(text, encoding="utf-8")
    sim = ["simulate", "--k", "10", "--rate", "0.5", "--alpha-grid", "1.0", "--out", str(out), "--ensemble"]
    for argv, message in [
        (["devo", "--family", "ldmc3", "--alpha-grid", "1.5:1.0:0.1", "--out", str(out)], "'1.5:1.0:0.1' is empty"),
        (["converse", "--bound", "shannon", "--rate", "0.5", "--eps-grid", "0.5:0.4:0.1", "--out", str(out)], "empty"),
        (["histogram", *base, "--alpha", "-1"], "alpha must lie in [0, inf], got -1"),
        (["simulate", *base, "--alpha-grid=-0.5:0.5:0.5"], "alpha must lie in [0, inf], got -0.5"),
        (["simulate", *base, "--eps-grid", "1.2"], "eps must lie in [0, 1], got 1.2"),
        (["simulate", *base, "--eps-grid=-0.1"], "eps must lie in [0, 1], got -0.1"),
        (["simulate", *base, "--alpha-grid", "0:1e9:1e-9"], "more than 1000000 points"),
        (["devo", "--family", "ldmc3", "--alpha-grid", "0:inf:1", "--out", str(out)], "non-finite"),
        (["devo", "--family", "ldmc3", "--alpha-grid", "nan", "--out", str(out)], "non-finite"),
        (["devo", "--family", "ldmc3", "--alpha-grid", "inf", "--out", str(out)], "non-finite"),
        (["converse", "--bound", "shannon", "--rate", "0.5", "--eps-grid", "0:inf:1", "--out", str(out)],
         "non-finite"),
        (["optimize", "--components", "XOR:1,XOR:2", "--targets=-1", "--out", str(out)], "alpha must be >= 0"),
        (["optimize", "--components", "XOR:1,MAJ:3", "--targets", "inf", "--ell", "2", "--multistart", "1",
          "--out", str(out)], "alpha must be >= 0 and finite, got inf"),
        *[(["converse", "--bound", bound, "--rate", "0", "--eps-grid", "0.5", "--out", str(out)],
           "rate must lie in (0, 1], got 0") for bound in ("shannon", "linear1", "general2")],
        (["converse", "--bound", "linear1", "--rate", "nan", "--eps-grid", "0.5", "--out", str(out)],
         "rate must lie in (0, 1], got nan"),
        (["efun", "--dmax", "-1", "--out", str(out)], "degree must lie in [0, 14]"),
        ([*sim, str(tmp_path / "short.profile")], "profile line must hold a kind, an arity and a weight: 'MAJ 3'"),
        ([*sim, str(tmp_path / "long.profile")],
         "profile line must hold a kind, an arity and a weight: 'MAJ 3 0.5 junk'"),
        ([*sim, str(tmp_path / "nan.profile")], "profile weights must be finite and non-negative"),
        (["devo", "--family", str(tmp_path / "nan.profile"), "--alpha-grid", "1.0", "--out", str(out)],
         "profile weights must be finite and non-negative"),
        # a uniform source violates a PARITY check with probability 1/2
        ([*sim, str(tmp_path / "parity.profile")], "component PARITY 2 of weight 0.2"),
        (["histogram", *base[2:], "--ensemble", str(tmp_path / "parity.profile"), "--alpha", "1"],
         "component PARITY 2 of weight 0.2"),
    ]:
        assert main(argv) == EXIT_INFEASIBLE, argv
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not Path(f"{out}.manifest.json").exists()
    # a negative devo load is refused for every kind of family, also with --ell 0
    prof = tmp_path / "mix.profile"
    prof.write_text("XOR 1 0.5\nMAJ 3 0.5\n", encoding="utf-8")
    for family in ("ldmc3", "ldgm3", str(prof)):
        for ell in ("0", "3"):
            argv = ["devo", "--family", family, "--alpha-grid=-1", "--ell", ell, "--out", str(out)]
            assert main(argv) == EXIT_INFEASIBLE, argv
            assert "alpha must lie in [0, inf], got -1" in capsys.readouterr().err
            assert not out.exists()


def test_loads_whose_seed_key_overflows_exit_3(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    base = ["--ensemble", "ldmc3", "--k", "10", "--trials", "1", "--out", str(out)]
    for argv, alpha in [
        (["histogram", *base, "--rate", "0.5", "--alpha", "inf"], "inf"),
        (["histogram", *base, "--rate", "0.5", "--alpha", "1e300"], "1e+300"),
        (["simulate", *base, "--rate", "0.5", "--alpha-grid", "1e300"], "1e+300"),
        (["simulate", *base, "--rate", "0.5", "--alpha-grid", "0:2e300:1e300"], "1e+300"),
        (["simulate", *base, "--rate", "1e-300", "--eps-grid", "0.5"], "5e+299"),
    ]:
        assert main(argv) == EXIT_INFEASIBLE, argv
        assert capsys.readouterr().err == f"error: alpha {alpha} is too large for the seed key round(alpha * 1e9)\n"
        assert not out.exists()
    # a load whose seed key is finite runs, however large
    for argv in (["histogram", *base, "--rate", "0.5", "--alpha", "1e299"],
                 ["simulate", *base, "--rate", "0.5", "--alpha-grid", "1e299"]):
        assert main(argv) == EXIT_OK, argv


def test_out_in_a_missing_directory_is_a_usage_error_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "sample_graph", no_trial)
    out = tmp_path / "missing" / "out.csv"
    for argv in [
        ["simulate", "--ensemble", "ldmc3", "--k", "10", "--rate", "0.5", "--alpha-grid", "1.0"],
        ["histogram", "--ensemble", "ldmc3", "--k", "10", "--rate", "0.5", "--alpha", "1.0"],
        ["devo", "--family", "ldmc3", "--alpha-grid", "1.0", "--ell", "2"],
        ["efun", "--dmax", "2"],
    ]:
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE, argv
        assert capsys.readouterr().err == f"error: --out directory {str(out.parent)!r} does not exist\n"
    assert not out.parent.exists()


def test_oserror_while_writing_is_a_usage_error(tmp_path, capsys):
    # the CSV path is a directory
    assert main(["efun", "--dmax", "2", "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    # the CSV is written, its manifest path is a directory
    out = tmp_path / "efun.csv"
    (tmp_path / "efun.csv.manifest.json").mkdir()
    assert main(["efun", "--dmax", "2", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ") and out.exists()


def test_ell_above_the_step_cap_exits_3(tmp_path, capsys):
    # a trace holds (ell + 1) values per load, so an unbounded ell is refused
    # before any allocation
    out = tmp_path / "out.csv"
    for argv, message in [
        (["devo", "--family", "ldmc3", "--alpha-grid", "1.0", "--ell", "100000000"],
         "ell must lie in [0, 100000], got 100000000"),
        (["devo", "--family", "ldgm3", "--alpha-grid", "1.0", "--ell", "100001"],
         "ell must lie in [0, 100000], got 100001"),
        (["optimize", "--components", "XOR:1,XOR:2", "--targets", "1.0", "--ell", "100001"],
         "ell must lie in [1, 100000] (or be None for fixed-point mode), got 100001"),
    ]:
        assert main([*argv, "--out", str(out)]) == EXIT_INFEASIBLE, argv
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_simulate_deterministic(tmp_path):
    argv = [
        "simulate", "--ensemble", "ldmc3", "--k", "200", "--rate", "0.5",
        "--bp-iters", "4", "--trials", "2", "--seed", "11",
        "--alpha-grid", "0.8:1.2:0.4", "--out", None,
    ]
    outs = []
    for name in ("a.csv", "b.csv"):
        argv[-1] = str(tmp_path / name)
        assert main(argv) == EXIT_OK
        outs.append(_read(argv[-1]))
    assert outs[0] == outs[1]
    lines = outs[0].strip().split("\n")
    assert lines[0] == "alpha,eps,ber,ber_stderr,soft_info,trials"
    assert len(lines) == 3  # alpha in {0.8, 1.2}


def test_simulate_manifest(tmp_path):
    out = tmp_path / "sim.csv"
    argv = [
        "simulate", "--ensemble", "ldmc3", "--k", "100", "--rate", "0.5",
        "--bp-iters", "2", "--trials", "1", "--seed", "3",
        "--alpha-grid", "1.0", "--out", str(out),
    ]
    assert main(argv) == EXIT_OK
    manifest = json.loads(_read(str(out) + ".manifest.json"))
    assert manifest["argv"] == argv  # the parsed argv, not the test runner's
    assert manifest["seed"] == 3
    assert manifest["trials"] == 1
    assert "version" in manifest and "walltime_s" in manifest
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == scipy.__version__
    phases = manifest["phase_s"]
    assert set(phases) == {"graph", "channel", "run_bp", "measure"}
    assert all(v >= 0.0 for v in phases.values())
    assert sum(phases.values()) <= manifest["walltime_s"] + 0.01


def test_simulate_eps_grid(tmp_path):
    out = tmp_path / "sim.csv"
    argv = [
        "simulate", "--ensemble", "ldgm3", "--k", "100", "--rate", "0.5",
        "--bp-iters", "2", "--trials", "1", "--seed", "0",
        "--eps-grid", "0.4:0.6:0.2", "--out", str(out),
    ]
    assert main(argv) == EXIT_OK
    rows = _read(str(out)).strip().split("\n")[1:]
    eps = [float(r.split(",")[1]) for r in rows]
    assert np.allclose(sorted(eps), [0.4, 0.6])


def test_efun_csv_matches_library(tmp_path):
    out = tmp_path / "efun.csv"
    assert main(["efun", "--family", "ldmc3-bec", "--dmax", "4", "--out", str(out)]) == EXIT_OK
    lines = _read(str(out)).strip().split("\n")
    alph = f_alphabet("ldmc3_bec")
    for line in lines[1:]:
        cells = line.split(",")
        d = int(float(cells[0]))
        coeffs = np.array([float(c) for c in cells[1:]])
        ref = error_poly(alph, d).as_array()
        assert np.allclose(coeffs[: ref.shape[0]], ref, atol=1e-12)
        assert np.all(coeffs[ref.shape[0] :] == 0.0)


def test_devo_smoke(tmp_path):
    out = tmp_path / "devo.csv"
    argv = [
        "devo", "--family", "ldmc3", "--alpha-grid", "1.0", "--ell", "5",
        "--x0", "1.0", "--out", str(out),
    ]
    assert main(argv) == EXIT_OK
    rows = _read(str(out)).strip().split("\n")[1:]
    assert len(rows) == 6  # t = 0 .. 5
    qs = [float(r.split(",")[2]) for r in rows]
    assert qs[0] == 1.0
    assert all(0.0 <= q <= 1.0 for q in qs)


def test_devo_mixture_profile_file(tmp_path):
    prof = tmp_path / "mix.profile"
    prof.write_text("XOR 1 0.08\nXOR 2 0.22\nXOR 3 0.70\n", encoding="utf-8")
    out = tmp_path / "devo.csv"
    argv = ["devo", "--family", str(prof), "--alpha-grid", "1.0", "--ell", "200",
            "--x0", "1.0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    final = float(_read(str(out)).strip().split("\n")[-1].split(",")[2])
    assert abs((1.0 - final) / 2.0 - 0.06336) < 1e-3


def test_devo_repeated_component_is_the_merged_profile(tmp_path):
    # a majority written twice is one component of their summed weight
    outs = []
    for name, text in [("twice", "MAJ 3 0.5\nMAJ 3 0.5\n"), ("once", "MAJ 3 1.0\n")]:
        prof = tmp_path / f"{name}.profile"
        prof.write_text(text, encoding="utf-8")
        out = tmp_path / f"{name}.csv"
        argv = ["devo", "--family", str(prof), "--alpha-grid", "0.5:1.5:0.25", "--ell", "10", "--out", str(out)]
        assert main(argv) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_degree_truncation_bound(tmp_path):
    # D beyond the degree bound of error_poly is rejected before any lattice is
    # built; ldmc5 comes last, since without the check it takes gigabytes
    out = tmp_path / "devo.csv"
    devo = ["devo", "--alpha-grid", "1.0", "--ell", "2", "--out", str(out)]
    assert main(["optimize", "--components", "MAJ:3", "--targets", "1.0", "--dmax", "15",
                 "--out", str(out)]) == EXIT_INFEASIBLE
    assert main(["efun", "--dmax", "15", "--out", str(out)]) == EXIT_INFEASIBLE
    assert main([*devo, "--family", "ldmc5", "--dmax", "15"]) == EXIT_INFEASIBLE
    # families with no majority component check D too
    assert main([*devo, "--family", "ldgm3", "--dmax", "-5"]) == EXIT_INFEASIBLE
    assert main(["optimize", "--components", "XOR:1,XOR:3", "--targets", "1.0", "--dmax", "99",
                 "--out", str(out)]) == EXIT_INFEASIBLE
    assert not out.exists()
    build_family("ldmc5", D=14)  # ldmc5 at D = 14 builds a large lattice, so only construct it
    assert main([*devo, "--family", "ldmc3", "--dmax", "14"]) == EXIT_OK
    assert len(_read(str(out)).strip().split("\n")) == 4  # header and t = 0 .. 2


def test_devo_bad_combination(tmp_path):
    out = tmp_path / "devo.csv"
    argv = ["devo", "--family", "ldgm3", "--alpha-grid", "1.0",
            "--surrogate", "BSC", "--out", str(out)]
    assert main(argv) == EXIT_INFEASIBLE


def test_converse_curves(tmp_path):
    out = tmp_path / "conv.csv"
    argv = ["converse", "--bound", "linear2", "--rate", "0.5",
            "--anchor-eps", "0.75", "--anchor-delta", "0.2501",
            "--eps-grid", "0.5:0.9:0.2", "--out", str(out)]
    assert main(argv) == EXIT_OK
    rows = _read(str(out)).strip().split("\n")[1:]
    vals = {float(r.split(",")[1]): float(r.split(",")[3]) for r in rows}
    assert abs(vals[0.5] - 0.08326666666666671) < 1e-10
    out2 = tmp_path / "sh.csv"
    assert main(["converse", "--bound", "shannon", "--rate", "0.5",
                 "--eps-grid", "0.75", "--out", str(out2)]) == EXIT_OK
    val = float(_read(str(out2)).strip().split("\n")[1].split(",")[3])
    assert abs(val - 0.1100278644385071) < 1e-9


def test_converse_out_of_range_inputs(tmp_path):
    out = tmp_path / "conv.csv"
    for flags in [
        ["--bound", "linear2", "--anchor-eps", "1.0", "--anchor-delta", "0.1", "--eps-grid", "0.5"],
        ["--bound", "general2", "--anchor-eps", "0.75", "--anchor-delta", "0.2501", "--eps-grid", "0.9:1.2:0.1"],
        ["--bound", "general2", "--anchor-eps", "0.75", "--anchor-delta", "0.7", "--eps-grid", "0.8"],
        ["--bound", "area", "--anchor-eps", "0.4", "--anchor-delta", "0.001", "--eps-grid", "0.9:1.2:0.1"],
    ]:
        assert main(["converse", "--rate", "0.5", *flags, "--out", str(out)]) == EXIT_INFEASIBLE, flags
        assert not out.exists()


def test_manifest_seed_only_where_taken(tmp_path, capsys):
    runs = {
        "devo": ["devo", "--family", "ldgm3", "--alpha-grid", "1.0", "--ell", "2"],
        "converse": ["converse", "--bound", "shannon", "--rate", "0.5", "--eps-grid", "0.75"],
        "efun": ["efun", "--dmax", "2"],
        "optimize": ["optimize", "--components", "XOR:1,XOR:2", "--targets", "1.0", "--ell", "2",
                     "--multistart", "1", "--seed", "7"],
    }
    for name, argv in runs.items():
        out = tmp_path / f"{name}.out"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        manifest = json.loads(_read(str(out) + ".manifest.json"))
        assert manifest["argv"] == [*argv, "--out", str(out)]
        assert "phase_s" not in manifest, name
        assert manifest.get("seed") == (7 if name == "optimize" else None), name
        assert ("seed" in manifest) == (name == "optimize"), name
        if name != "optimize":  # these commands draw no random numbers
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--seed", "1", "--out", str(out)])
            assert exc.value.code == EXIT_USAGE
            assert "--seed" in capsys.readouterr().err


def test_manifest_keys_per_command(tmp_path):
    # the fields each command returns, and nothing a command does not set
    common = {"argv", "version", "python", "numpy", "scipy", "walltime_s"}
    trials = {"seed", "trials", "failed_trials", "phase_s"}
    ensemble = ["--ensemble", "ldmc3", "--k", "20", "--rate", "0.5", "--bp-iters", "1", "--trials", "1"]
    runs = {
        "simulate": (["simulate", *ensemble, "--alpha-grid", "1.0"], common | trials),
        "histogram": (["histogram", *ensemble, "--alpha", "1.0", "--bins", "2"], common | trials),
        "optimize": (["optimize", "--components", "XOR:1,XOR:2", "--targets", "1.0", "--ell", "2",
                      "--multistart", "1"], common | {"seed"}),
        "devo": (["devo", "--family", "ldgm3", "--alpha-grid", "1.0", "--ell", "1"], common),
        "converse": (["converse", "--bound", "linear1", "--rate", "0.5", "--eps-grid", "0.75"], common),
        "efun": (["efun", "--dmax", "1"], common),
    }
    for name, (argv, keys) in runs.items():
        out = tmp_path / f"{name}.out"
        assert main([*argv, "--out", str(out)]) == EXIT_OK, name
        assert set(json.loads(_read(str(out) + ".manifest.json"))) == keys, name


def test_converse_linear1_is_the_single_point_bound(tmp_path):
    out = tmp_path / "linear1.csv"
    grid = "0:1:0.05"
    for rate in (0.5, 0.8, 1.0):
        argv = ["converse", "--bound", "linear1", "--rate", str(rate), "--eps-grid", grid, "--out", str(out)]
        assert main(argv) == EXIT_OK
        rows = [r.split(",") for r in _read(str(out)).strip().split("\n")[1:]]
        eps = cli._parse_grid(grid)
        assert [r[1] for r in rows] == [cli._fmt(e) for e in eps]
        want = [cli._fmt(linear_single_point(1.0 / rate, float(e))) for e in eps]
        assert [r[3] for r in rows] == want, rate
        assert {r[2] for r in rows} == {"linear1"}


def test_converse_area_skips_below_anchor(tmp_path):
    out = tmp_path / "area.csv"
    argv = ["converse", "--bound", "area", "--rate", "0.5",
            "--anchor-eps", "0.475", "--anchor-delta", "0.0",
            "--eps-grid", "0.4:0.6:0.1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    rows = _read(str(out)).strip().split("\n")[1:]
    xs = [float(r.split(",")[1]) for r in rows]
    assert min(xs) > 0.475
    vals = {round(x, 3): float(r.split(",")[3]) for x, r in zip(xs, rows)}
    assert abs(vals[0.6] - 0.18) < 1e-6


def test_optimize_outputs(tmp_path):
    out = tmp_path / "opt.profile"
    argv = ["optimize", "--components", "XOR:1,XOR:2", "--targets", "1.0",
            "--ell", "5", "--multistart", "2", "--seed", "0", "--out", str(out)]
    for bad in ("FOO:3", "MAJ:2", "PARITY:3", "XOR"):
        assert main([*argv[:2], bad, *argv[3:]]) == EXIT_INFEASIBLE, bad
        assert not out.exists()
    assert main(argv) == EXIT_OK
    from gracecode.ensemble import parse_profile

    prof = parse_profile(_read(str(out)))
    total = sum(lam for _, lam in prof.entries)
    assert abs(total - 1.0) < 1e-6
    log = _read(str(out) + ".log")
    assert log.startswith("objective ")
    assert "start 0" in log


def test_histogram_counts(tmp_path):
    out = tmp_path / "hist.csv"
    argv = ["histogram", "--ensemble", "ldmc3", "--k", "100", "--rate", "0.5",
            "--bp-iters", "3", "--trials", "2", "--seed", "1",
            "--alpha", "1.0", "--bins", "10", "--out", str(out)]
    assert main(argv) == EXIT_OK
    rows = _read(str(out)).strip().split("\n")[1:]
    assert len(rows) == 10
    total = sum(int(float(r.split(",")[2])) for r in rows)
    assert total == 200  # k * trials


def _child_env():
    """The environment with ``PYTHONPATH`` leading to this gracecode package."""
    import gracecode

    root = str(Path(gracecode.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gracecode.cli", "--version"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0

    import gracecode

    assert proc.stdout.strip() == gracecode.__version__


# One small run of every command that either never reaches the degree laws
# (simulate) or evaluates them only on the built-in families.
_NO_SCIPY_SPECIAL = {
    "simulate": ["simulate", "--ensemble", "ldmc3", "--k", "50", "--rate", "0.5", "--alpha-grid", "1.0",
                 "--bp-iters", "2", "--trials", "1"],
    "devo-ldmc3-bec": ["devo", "--family", "ldmc3", "--alpha-grid", "0.5:1.5:0.5", "--ell", "3", "--dmax", "6"],
    "devo-ldmc3-bsc": ["devo", "--family", "ldmc3", "--alpha-grid", "0.5:1.5:0.5", "--ell", "3", "--dmax", "6",
                       "--surrogate", "BSC", "--quantity", "chi2-soft", "--x0", "0.5"],
    "devo-ldmc5-bec": ["devo", "--family", "ldmc5", "--alpha-grid", "0.5:1.5:0.5", "--ell", "3", "--dmax", "4"],
    "devo-mixed-bec": ["devo", "--family", "{mixed}", "--alpha-grid", "0.5:1.5:0.5", "--ell", "3", "--dmax", "6"],
    "converse-general2": ["converse", "--bound", "general2", "--rate", "0.5", "--anchor-eps", "0.75",
                          "--anchor-delta", "0.2501", "--eps-grid", "0.7:0.8:0.05"],
    "converse-area": ["converse", "--bound", "area", "--rate", "0.5", "--anchor-eps", "0.4", "--anchor-delta",
                      "0.001", "--eps-grid", "0.4:0.6:0.1"],
    "optimize": ["optimize", "--components", "XOR:1,MAJ:3,XOR:3", "--targets", "0.9,1.1", "--ell", "3",
                 "--multistart", "1", "--dmax", "6"],
    "efun-ldmc5": ["efun", "--family", "ldmc5-bec", "--dmax", "4"],
}  # fmt: skip


@pytest.mark.parametrize("argv", _NO_SCIPY_SPECIAL.values(), ids=_NO_SCIPY_SPECIAL.keys())
def test_command_does_not_import_scipy_special(argv, tmp_path):
    # scipy.special is imported only by the binomial degree law (xlog1py) and
    # by large_d_bound's scipy.integrate, which none of these commands reach
    mixed = tmp_path / "mixed.profile"
    mixed.write_text("MAJ 3 0.5\nXOR 3 0.25\nXOR 1 0.25\n", encoding="utf-8")
    code = (
        "import sys\n"
        "import gracecode.cli\n"
        "status = gracecode.cli.main(sys.argv[1:])\n"
        "assert status == 0, status\n"
        "print('scipy.special' in sys.modules)\n"
    )
    args = [a.format(mixed=mixed) for a in argv] + ["--out", str(tmp_path / "out.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, check=True, env=_child_env(),
    )
    assert proc.stdout.strip() == "False"
