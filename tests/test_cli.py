import dataclasses
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from neharilab import cli, fibering, params
from neharilab.invariants import BATTERY


SMALL_CONFIG = """\
[problem]
n = 3
alpha = 0.25
mu = 1.0
p = 2.0
q = 0.5
gamma3 = 1.3
gamma4 = 1.0

[grid]
r = 14.0
m = 64
grading = 2.0

[solver]
tol = 1e-4
max_iters = 300

[extremal]
sigmas = 0.5,0.7,1.0,1.4,2.0
families = gaussian,inverse_poly:1.5
descent_iters = 120

[run]
seed = 7
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_CONFIG)
    return str(path)


@pytest.fixture()
def bad_config(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(SMALL_CONFIG.replace("mu = 1.0", "mu = 2.6"))  # 2a + mu >= N
    return str(path)


def test_validate_ok(small_config, capsys):
    assert cli.main(["validate", "--config", small_config]) == 0
    out = capsys.readouterr().out
    assert "p window (1.5, 4.5)" in out


def test_validate_rejects_bad_config(bad_config, capsys):
    assert cli.main(["validate", "--config", bad_config]) == 1
    err = capsys.readouterr().err
    assert "WeightViolation" in err
    assert "2*alpha + mu" in err


def test_missing_config_is_usage_error(capsys):
    assert cli.main(["validate", "--config", "/nonexistent.ini"]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_fibering_reference_output(capsys):
    assert cli.main(["fibering", "--triple", "1,1,1", "--p", "2", "--q", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "t_n = 0.654653670708" in out
    assert "Lambda_n = 0.302676959271" in out
    assert "Lambda_e = 0.127259985015" in out


def test_fibering_with_lambda_prints_roots(capsys):
    assert cli.main(["fibering", "--triple", "1,1,1", "--p", "2", "--q", "0.5",
                     "--lambda", "0.15"]) == 0
    out = capsys.readouterr().out
    assert "t_plus" in out and "t_minus" in out
    assert "branch of t=1: NotOnNehari" in out


def test_fibering_malformed_triple_usage_error(capsys):
    assert cli.main(["fibering", "--triple", "1,1", "--p", "2", "--q", "0.5"]) == 2


@pytest.mark.parametrize("p,q", [("1", "0.5"), ("2", "1.5")])
def test_fibering_bad_exponents_fail_before_any_output(capsys, p, q):
    assert cli.main(["fibering", "--triple", "1,1,1", "--p", p, "--q", q]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ParameterValidationError")


@pytest.mark.parametrize("triple,error", [("nan,1,1", "ZeroB"), ("1,1,inf", "ZeroB"),
                                          ("1,-inf,1", "ZeroA"), ("1,nan,1", "ZeroA")])
@pytest.mark.parametrize("lam", [[], ["--lambda", "0.1"]])
def test_fibering_nonfinite_triple_fails_before_any_output(capsys, triple, error, lam):
    assert cli.main(["fibering", "--triple", triple, "--p", "2", "--q", "0.5", *lam]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}")


def test_lambda_star_with_artifacts(small_config, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    snap = tmp_path / "min.json"
    code = cli.main(["lambda-star", "--config", small_config,
                     "--trace-csv", str(trace), "--snapshot", str(snap)])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda_star" in out and "lambda_sub" in out
    assert trace.exists() and snap.exists()
    lam_star = float(next(l for l in out.splitlines() if l.startswith("lambda_star")).split("=")[1])
    lam_sub = float(next(l for l in out.splitlines() if l.startswith("lambda_sub")).split("=")[1])
    assert lam_sub == pytest.approx(lam_star * 2.0**0.75 / 4.0, rel=1e-10)
    steps, kkt = re.search(r"^descent steps: (\d+), kkt residual = (\S+)$", out, re.M).groups()
    assert int(steps) <= 20 and float(kkt) <= 1e-8


def test_lambda_star_ignores_grid_kind_key(tmp_path, capsys):
    # the energy norm is radial only, so the config has no grid kind to choose
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_CONFIG.replace("[grid]\n", "[grid]\nkind = cartesian\n"))
    assert cli.main(["lambda-star", "--config", str(path)]) == 0
    assert "lambda_star" in capsys.readouterr().out


def test_solve_writes_snapshots(small_config, tmp_path, capsys):
    outdir = tmp_path / "run"
    code = cli.main(["solve", "--config", small_config, "--lambda-frac", "0.5",
                     "--out", str(outdir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged = yes" in out
    assert (outdir / "solution_plus.json").exists()
    assert (outdir / "solution_minus.json").exists()
    import neharilab as nl
    fn, prm_dict, extra = nl.load_snapshot(outdir / "solution_plus.json")
    assert extra["branch"] == "Nplus"
    assert extra["residual"] <= 1e-4


def test_solve_unreachable_lambda_is_domain_error(small_config, capsys):
    # a lambda far above every sampled ray surfaces RayMissesNehari -> exit 1
    code = cli.main(["solve", "--config", small_config, "--lambda", "1e9"])
    err = capsys.readouterr().err
    assert code == 1
    assert "RayMissesNehari" in err


def test_lambda_star_r_sweep_report(small_config, capsys):
    code = cli.main(["lambda-star", "--config", small_config, "--r-sweep", "12,16"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("R = ") == 2
    assert "delta = " in out


def test_sweep_csv_deterministic(small_config, tmp_path, capsys):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["sweep", "--config", small_config, "--points", "5",
            "--frac-min", "0.3", "--frac-max", "0.6", "--spacing", "linear"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == ("lambda,energy_plus,energy_minus,t_plus,t_minus,norm_minus,"
                      "residual_plus,residual_minus,converged_plus,converged_minus")


def test_sweep_with_unconverged_rows_exits_1(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_CONFIG.replace("max_iters = 300", "max_iters = 1"))
    out = tmp_path / "s.csv"
    code = cli.main(["sweep", "--config", str(path), "--points", "3", "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 1
    assert "rows: 3, converged: 0" in printed
    assert "bound-state sign change: no converged rows" in printed
    assert printed.rstrip().endswith("error: NoConvergence")
    assert out.exists()   # the rows are still written, as solve writes its snapshots


@pytest.mark.parametrize("flags", [["--points", "1"], ["--points", "0", "--frac-min", "0"]])
def test_sweep_bad_grid_flags_are_usage_errors(small_config, tmp_path, capsys, monkeypatch,
                                               flags):
    def no_estimate(cfg):
        raise AssertionError("the lambda* estimate ran before the flags were checked")

    monkeypatch.setattr(cli, "_estimate", no_estimate)
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", small_config, "--out", str(out)] + flags) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("step0", ["0", "1.5"])
def test_solver_step0_outside_unit_interval_is_usage_error(tmp_path, capsys, step0):
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_CONFIG.replace("max_iters = 300", f"max_iters = 300\nstep0 = {step0}"))
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert "step0" in capsys.readouterr().err


def test_nonfinite_radius_in_config_is_named_grid_error(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_CONFIG.replace("r = 14.0", "r = inf"))
    assert cli.main(["cross-check", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "GridError: R must be finite and positive, got inf" in captured.err
    assert captured.out == ""


def test_grading_beyond_the_head_rule_in_config_is_named_grid_error(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_CONFIG.replace("grading = 2.0", "grading = 4.0"))
    assert cli.main(["cross-check", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert ("GridError: the exact-mass head rule of the radial quadrature (its first 4 "
            "cells) cannot take N = 3 with grading = 4.0") in captured.err
    assert "internal" not in captured.err
    assert captured.out == ""


def test_cross_check_within_tolerance(small_config, capsys):
    code = cli.main(["cross-check", "--config", small_config, "--box-m", "16",
                     "--tolerance", "0.05"])
    out = capsys.readouterr().out
    assert code == 0
    assert "relative gap" in out


def test_cross_check_default_config_passes(capsys):
    # the default box (m = 24) resolves the engine gap below the default
    # tolerance; m = 16 gives 0.025
    config = Path(__file__).resolve().parent.parent / "configs" / "default.ini"
    assert cli.main(["cross-check", "--config", str(config)]) == 0
    assert "above tolerance" not in capsys.readouterr().out


def test_cross_check_flags_disagreement(small_config, capsys):
    # a deliberately impossible tolerance makes the gap check fail (exit 1)
    code = cli.main(["cross-check", "--config", small_config, "--box-m", "8",
                     "--tolerance", "1e-6"])
    out = capsys.readouterr().out
    assert code == 1
    assert "above tolerance" in out


def test_invariants_pass(small_config, capsys):
    assert cli.main(["invariants", "--config", small_config]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the CLI prints the list the acceptance suite runs, in order
    assert [line.split(":")[0] for line in lines] == [f"PASS {c.__name__}" for c in BATTERY]


def _corrupt_constants(monkeypatch, field):
    """Scale one field of fibering_constants by 1.01 wherever the package binds it."""
    real = params.fibering_constants

    def corrupted(p, q):
        consts = real(p, q)
        return dataclasses.replace(consts, **{field: 1.01 * getattr(consts, field)})

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "neharilab" and getattr(module, "fibering_constants", None) is real:
            monkeypatch.setattr(module, "fibering_constants", corrupted)


def test_invariants_corrupted_constant_fails_by_name(small_config, capsys, monkeypatch):
    _corrupt_constants(monkeypatch, "c_pq")
    assert cli.main(["invariants", "--config", small_config]) == 1
    out = capsys.readouterr().out
    assert "FAIL c_pq_matches_qn_maximum" in out
    assert "failed invariants: c_pq_matches_qn_maximum" in out


def test_invariants_corrupted_ratio_fails_by_name(small_config, capsys, monkeypatch):
    _corrupt_constants(monkeypatch, "ratio")
    assert cli.main(["invariants", "--config", small_config]) == 1
    out = capsys.readouterr().out
    assert ("error: failed invariants: constants_ratio_window, lambda_e_matches_qe_maximum"
            in out.splitlines())


def test_invariants_corrupted_double_root_fails_by_name(small_config, capsys, monkeypatch):
    # a double root reported 1% off t_n breaks only the tangency identities
    real = fibering.nehari_roots

    def shifted(triple, lam, p, q):
        roots = real(triple, lam, p, q)
        if isinstance(roots, fibering.DoubleRoot):
            return fibering.DoubleRoot(t_n=1.01 * roots.t_n)
        return roots

    monkeypatch.setattr(fibering, "nehari_roots", shifted)
    assert cli.main(["invariants", "--config", small_config]) == 1
    out = capsys.readouterr().out
    assert "0 of 252 rays fail; tangency A, B residual" in out
    assert "error: failed invariants: two_root_structure" in out.splitlines()


def test_invariants_corrupted_fibering_map_fails_by_name(small_config, capsys, monkeypatch):
    # a 1% heavier singular term in phi breaks only dJ/dlambda = -t^q A/q
    real = fibering.phi

    def heavier(t, triple, lam, p, q):
        return real(t, triple, lam, p, q) - 0.01 * lam * t**q * triple.A / q

    monkeypatch.setattr(fibering, "phi", heavier)
    assert cli.main(["invariants", "--config", small_config]) == 1
    out = capsys.readouterr().out
    assert "error: failed invariants: monotone_in_lambda" in out.splitlines()


def test_invariants_deterministic_given_seed(small_config, capsys):
    cli.main(["invariants", "--config", small_config, "--seed", "3"])
    first = capsys.readouterr().out
    cli.main(["invariants", "--config", small_config, "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second
