import configparser
import dataclasses
import re
from pathlib import Path

import pytest

from neharilab import cli, params

DEFAULT_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "default.ini")

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
descent_iters = 120
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


@pytest.mark.parametrize("old,new,message", [
    ("grading = 2.0", "grading = 4.0",
     "GridError: the exact-mass head rule of the radial quadrature"),
], ids=["grading"])
def test_validate_rejects_grid_the_commands_reject(tmp_path, capsys, old, new, message):
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_CONFIG.replace(old, new))
    assert cli.main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_missing_config_is_usage_error(capsys):
    assert cli.main(["validate", "--config", "/nonexistent.ini"]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_cross_check_is_not_a_command(capsys):
    # the radial engine is checked against exact references in the tests
    with pytest.raises(SystemExit) as err:
        cli.main(["cross-check"])
    assert err.value.code == 2
    assert "invalid choice: 'cross-check'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fibering", "invariants"])
def test_scalar_calculator_commands_are_gone(capsys, command):
    # the fibering identities are checked by the acceptance suite's battery
    with pytest.raises(SystemExit) as err:
        cli.main([command])
    assert err.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_help_lists_the_four_commands():
    assert "{validate,lambda-star,solve,sweep}" in cli.build_parser().format_help()


def test_lambda_star_with_artifacts(small_config, tmp_path, capsys):
    snap = tmp_path / "min.json"
    code = cli.main(["lambda-star", "--config", small_config, "--snapshot", str(snap)])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda_star" in out and "lambda_sub" in out
    assert snap.exists()
    lam_star = float(next(l for l in out.splitlines() if l.startswith("lambda_star")).split("=")[1])
    lam_sub = float(next(l for l in out.splitlines() if l.startswith("lambda_sub")).split("=")[1])
    assert lam_sub == pytest.approx(lam_star * 2.0**0.75 / 4.0, rel=1e-10)
    steps, kkt = re.search(r"^descent steps: (\d+), kkt residual = (\S+)$", out, re.M).groups()
    assert int(steps) <= 20 and float(kkt) <= 1e-8


@pytest.mark.parametrize("command,flags,written", [
    ("lambda-star", ["--snapshot", "{0}/a/min.json"], ["a/min.json"]),
    ("solve", ["--out", "{0}/a/run"], ["a/run/solution_plus.json", "a/run/solution_minus.json"]),
    ("sweep", ["--points", "3", "--out", "{0}/a/s.csv"], ["a/s.csv"]),
], ids=["lambda-star", "solve", "sweep"])
def test_output_paths_in_missing_directories_are_created(small_config, tmp_path, capsys,
                                                         command, flags, written):
    # lambda-star once wrote its artifacts only after the whole estimate and
    # ended in a FileNotFoundError when their directory was missing
    root = tmp_path / "missing"
    argv = [command, "--config", small_config] + [flag.format(root) for flag in flags]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert all((root / path).is_file() for path in written)


@pytest.mark.parametrize("command,flags,name", [
    ("lambda-star", ["--snapshot", "{dir}"], "--snapshot"),
    ("sweep", ["--out", "{dir}"], "--out"),
    ("lambda-star", ["--snapshot", "{file}/x.json"], "--snapshot"),
    ("solve", ["--out", "{file}"], "--out"),
    ("solve", ["--out", "{file}/run"], "--out"),
    ("sweep", ["--out", "{file}/s.csv"], "--out"),
    ("sweep", ["--config", "{output_file}"], "[output] dir"),
    ("sweep", ["--config", "{output_dir}"], "[output] dir"),
], ids=["snapshot-dir", "sweep-out-dir", "snapshot-under-file",
        "solve-out-file", "solve-out-under-file",
        "sweep-out-under-file", "output-dir-key-file", "sweep-csv-dir"])
def test_output_paths_that_cannot_take_a_file_are_refused_before_the_estimate(
        small_config, tmp_path, capsys, no_estimate, command, flags, name):
    # these once ended in IsADirectoryError or FileExistsError, most of them
    # after the whole estimate
    (tmp_path / "d").mkdir()
    (tmp_path / "f").write_text("")
    (tmp_path / "d" / "sweep.csv").mkdir()
    paths = {"dir": tmp_path / "d", "file": tmp_path / "f"}
    for key, value in (("output_file", "f"), ("output_dir", "d")):
        paths[key] = tmp_path / f"{key}.ini"
        paths[key].write_text(SMALL_CONFIG + f"\n[output]\ndir = {tmp_path / value}\n")
    # a second --config overrides the first
    argv = [command, "--config", small_config] + [flag.format(**paths) for flag in flags]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"usage error: {name}: " in captured.err
    assert captured.out == ""
    assert (tmp_path / "f").read_text() == ""


@pytest.mark.parametrize("radii", ["abc", "12,-1", "12,0", "12,nan", "inf", "12,,16"])
def test_bad_r_sweep_is_usage_error_before_the_estimate(small_config, capsys, no_estimate,
                                                        radii):
    # once parsed after the estimate: "abc" printed the lambda* lines first,
    # and "12,-1" ran two estimates before failing in the grid build
    assert cli.main(["lambda-star", "--config", small_config, "--r-sweep", radii]) == 2
    captured = capsys.readouterr()
    assert "usage error: --r-sweep " in captured.err
    assert captured.out == ""


# `lambda-star` on SMALL_CONFIG prints these three lines and no others; the
# KKT residual (8.778e-13 measured) is at rounding level, so only its bound
# is checked
LAMBDA_STAR_SMALL = ["lambda_star = 1.17373009594", "lambda_sub  = 0.493492715078",
                     "descent steps: 6, kkt residual = "]


def test_lambda_star_reference_output(small_config, capsys):
    assert cli.main(["lambda-star", "--config", small_config]) == 0
    *head, steps = capsys.readouterr().out.splitlines()
    assert head == LAMBDA_STAR_SMALL[:2]
    assert steps.startswith(LAMBDA_STAR_SMALL[2])
    assert float(steps.removeprefix(LAMBDA_STAR_SMALL[2])) <= 1e-8


def test_lambda_star_ignores_grid_kind_key(tmp_path, capsys):
    # the energy norm is radial only, so the config has no grid kind to
    # choose; the lambda* start lattice is fixed, so its retired keys, even
    # set to values once refused, leave lambda* as the run without them
    lambda_star = LAMBDA_STAR_SMALL[0]
    for section, key in (("grid", "kind = cartesian"), ("extremal", "families = sobolev_bump"),
                         ("extremal", "sigmas = -1")):
        path = tmp_path / "cfg.ini"
        path.write_text(SMALL_CONFIG.replace(f"[{section}]\n", f"[{section}]\n{key}\n"))
        assert cli.main(["lambda-star", "--config", str(path)]) == 0, key
        assert capsys.readouterr().out.splitlines()[0] == lambda_star, key


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


@pytest.mark.parametrize("lam", ["1e9", "lambda_star"])
def test_solve_lambda_at_or_above_the_estimate_is_usage_error(small_config, capsys,
                                                              monkeypatch, lam):
    # both branches exist only below lambda*: an absolute lambda at or above
    # the estimate is refused after the estimate, before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("a branch solve ran above the lambda* estimate")

    monkeypatch.setattr(cli, "solve_pair", no_solve)
    est = cli._estimate(cli.load_config(small_config))[2].lambda_star
    flag = repr(est) if lam == "lambda_star" else lam
    assert cli.main(["solve", "--config", small_config, "--lambda", flag]) == 2
    captured = capsys.readouterr()
    assert (f"usage error: --lambda gives lambda = {float(flag)}, which must lie below "
            f"the lambda* estimate {cli._fmt(est)}") in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("frac", ["1", "1.5"])
def test_solve_lambda_frac_from_one_on_is_refused_before_the_estimate(small_config, capsys,
                                                                      no_estimate, frac):
    assert cli.main(["solve", "--config", small_config, "--lambda-frac", frac]) == 2
    captured = capsys.readouterr()
    assert f"usage error: --lambda-frac must lie in (0, 1), got {float(frac)}" in captured.err
    assert "below the lambda* estimate" in captured.err
    assert captured.out == ""


def test_lambda_star_r_sweep_report(small_config, tmp_path, capsys):
    # each radius reports what lambda-star reports on the config with that
    # radius, and the truncation effect shrinks with R
    assert cli.main(["lambda-star", "--config", small_config, "--r-sweep", "12,16,20"]) == 0
    rows = re.findall(r"^R = (\S+): lambda_star = (\S+)(?:  delta = (\S+))?$",
                      capsys.readouterr().out, re.M)
    assert [(R, delta == "") for R, _, delta in rows] == [("12", True), ("16", False),
                                                           ("20", False)]
    for R, value, _ in rows:
        path = tmp_path / f"r{R}.ini"
        path.write_text(SMALL_CONFIG.replace("r = 14.0", f"r = {R}.0"))
        assert cli.main(["lambda-star", "--config", str(path)]) == 0
        assert f"lambda_star = {value}\n" in capsys.readouterr().out
    deltas = [float(delta) for _, _, delta in rows[1:]]
    assert deltas[1] < deltas[0]


def test_r_sweep_radius_the_grid_builder_refuses_fails_before_the_estimate(
        small_config, capsys, no_estimate):
    # 1e300 and 1e-70 are finite and positive, but their cell moments
    # overflow or underflow: 1e300 was once found after the main estimate,
    # behind numpy overflow warnings, as a head-rule error blaming the
    # grading, and 1e-70 is still blamed on the grading by that rule
    for radii, refusal in (("12,1e300", "R = 1e+300 is too large"),
                           ("12,1e-70", "R = 1e-70 is too small")):
        assert cli.main(["lambda-star", "--config", small_config, "--r-sweep", radii]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: GridError: {refusal}")
        assert "lambda_star =" not in captured.out


def test_r_sweep_radius_no_lattice_profile_survives_is_named(small_config, capsys):
    # at R = 1e61 the grid builds, but every start profile is 0 or has B = 0
    # at every node: this once ended in a bare ZeroB
    assert cli.main(["lambda-star", "--config", small_config, "--r-sweep", "1e61"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: EmptyFamily: no lattice profile lies in the "
                                   "positive cone")
    assert "R = 1e+61, M = 64" in captured.err
    assert "R = 1e+61: lambda_star" not in captured.out
    assert "lambda_star =" not in captured.out


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


def test_sweep_on_the_default_config(tmp_path, capsys):
    # every row of the continued sweep converges, and the bound-state sign
    # change lands within one grid cell of ratio * lambda*
    assert cli.main(["sweep", "--config", DEFAULT_CONFIG, "--out", str(tmp_path / "s.csv")]) == 0
    rows, _, sign_change = capsys.readouterr().out.splitlines()
    assert rows == "rows: 9, converged: 9"
    assert sign_change.endswith("within one cell: yes)")


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


@pytest.fixture()
def no_estimate(monkeypatch):
    def estimate(cfg):
        raise AssertionError("the lambda* estimate ran before the input was checked")

    monkeypatch.setattr(cli, "_estimate", estimate)


@pytest.mark.parametrize("flags", [["--points", "1"], ["--points", "0", "--frac-min", "0"]])
def test_sweep_bad_grid_flags_are_usage_errors(small_config, tmp_path, capsys, no_estimate,
                                               flags):
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", small_config, "--out", str(out)] + flags) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_validate_refuses_the_sweep_window_sweep_refuses(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_CONFIG + "\n[sweep]\nfrac_min = 0.9\n")
    assert cli.main(["validate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert ("usage error: bad sweep grid: need 0 < frac_min < frac_max < 1"
            in captured.err)
    assert captured.out == ""
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert "bad sweep grid" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,command,message", [
    ("tol = 1e-4", "tol = inf", "sweep", "[solver] tol must be finite and positive, got inf"),
    ("tol = 1e-4", "tol = nan", "solve", "[solver] tol must be finite and positive, got nan"),
    ("max_iters = 300", "max_iters = -5", "solve", "[solver] max_iters must be >= 0, got -5"),
    ("descent_iters = 120", "descent_iters = -1", "lambda-star",
     "[extremal] descent_iters must be >= 0, got -1"),
], ids=["tol-inf", "tol-nan", "max-iters-negative", "descent-iters-negative"])
def test_out_of_range_solver_and_descent_settings_are_usage_errors(tmp_path, capsys, old, new,
                                                                   command, message):
    # each once ran and could exit 0 with a wrong answer
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_CONFIG.replace(old, new))
    for cmd in ("validate", command):
        assert cli.main([cmd, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"usage error: {message}" in captured.err
        assert captured.out == ""


def test_zero_iteration_caps_stay_legal(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_CONFIG.replace("max_iters = 300", "max_iters = 0")
                    .replace("descent_iters = 120", "descent_iters = 0"))
    cfg = cli.load_config(str(path))
    assert cfg.solver.max_iters == 0 and cfg.descent.max_iters == 0
    assert cli.main(["lambda-star", "--config", str(path)]) == 0
    assert "descent steps: 0," in capsys.readouterr().out


def test_removed_option_keys_are_ignored(small_config, tmp_path, capsys):
    # step0, floor_factor, reinit_budget and v_form each had one usable value,
    # l and m_axis set the box of a retired command, and seed the random rays
    # of another; a config that still sets them, even to values once refused,
    # loads as the config without them
    path = tmp_path / "removed-keys.ini"
    path.write_text(SMALL_CONFIG
                    .replace("grading = 2.0", "grading = 2.0\nl = nan\nm_axis = 78")
                    .replace("max_iters = 300", "max_iters = 300\nstep0 = 0\n"
                             "floor_factor = -1\nreinit_budget = 0")
                    .replace("gamma4 = 1.0", "gamma4 = 1.0\nv_form = other")
                    + "\n[run]\nseed = -1\n")
    cfg = cli.load_config(str(path))
    assert cfg == cli.load_config(small_config)
    assert [f.name for f in dataclasses.fields(cfg.solver)] == ["tol", "max_iters"]
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flags", [
    ["--lambda", "inf"], ["--lambda", "nan"], ["--lambda", "0"],
    ["--lambda-frac", "-1"], ["--lambda-frac", "inf"],
])
def test_solve_bad_lambda_flags_are_usage_errors(small_config, capsys, no_estimate, flags):
    assert cli.main(["solve", "--config", small_config] + flags) == 2
    captured = capsys.readouterr()
    assert f"usage error: {flags[0]} must be finite and positive" in captured.err
    assert captured.out == ""


def _config_with(tmp_path, section, key, value):
    """SMALL_CONFIG with [section] key set to value."""
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(SMALL_CONFIG)
    if not ini.has_section(section):
        ini.add_section(section)
    ini.set(section, key, value)
    path = tmp_path / "cfg.ini"
    with open(path, "w") as fh:
        ini.write(fh)
    return str(path)


# a value each parsed key cannot parse, and for each checked key a value its
# check refuses, with the refusal
UNPARSABLE = [
    ("problem", "n", "3.0"), ("problem", "alpha", "abc"), ("problem", "mu", "1,0"),
    ("problem", "p", ""), ("problem", "q", "half"), ("problem", "gamma3", "1.3.1"),
    ("problem", "gamma4", "x"), ("problem", "lambda", "abc"), ("problem", "choquard", "maybe"),
    ("grid", "r", "abc"), ("grid", "m", "abc"), ("grid", "m", "5%"), ("grid", "grading", ""),
    ("solver", "tol", "abc"),
    ("solver", "max_iters", "1e3"), ("sweep", "points", "many"), ("sweep", "frac_min", "abc"),
    ("sweep", "frac_max", "abc"), ("extremal", "descent_iters", "abc"),
]
OUT_OF_RANGE = [
    ("problem", "n", "4", "[problem] n must be 3, got 4"),
    ("problem", "lambda", "0", "[problem] lambda must be finite and positive, got 0.0"),
    ("problem", "lambda", "-1", "[problem] lambda must be finite and positive, got -1.0"),
    ("problem", "lambda", "inf", "[problem] lambda must be finite and positive, got inf"),
    ("solver", "tol", "0", "[solver] tol must be finite and positive, got 0.0"),
    ("solver", "tol", "-inf", "[solver] tol must be finite and positive, got -inf"),
    ("solver", "max_iters", "-5", "[solver] max_iters must be >= 0, got -5"),
    ("extremal", "descent_iters", "-1", "[extremal] descent_iters must be >= 0, got -1"),
]


def test_table_cases_cover_every_parsed_or_checked_key():
    # a row a test does not reach shows here, not in a run
    parsed = {row[:2] for row in cli._KEYS if row[4] is not str}
    checked = {row[:2] for row in cli._KEYS if len(row) > 5}
    assert parsed | checked == {case[:2] for case in UNPARSABLE}
    assert checked == {case[:2] for case in OUT_OF_RANGE}


CASES = [case + (None,) for case in UNPARSABLE] + OUT_OF_RANGE


@pytest.mark.parametrize("section,key,value,message", CASES,
                         ids=[f"{s}.{k}={v}" for s, k, v, _ in CASES])
def test_bad_config_value_is_usage_error_naming_its_key(tmp_path, capsys, section, key, value,
                                                        message):
    path = _config_with(tmp_path, section, key, value)
    assert cli.main(["validate", "--config", path]) == 2
    captured = capsys.readouterr()
    if message is None:
        assert f"usage error: [{section}] {key} cannot be parsed from {value!r}: " in captured.err
    else:
        assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate", "lambda-star", "solve", "sweep"])
def test_dimension_other_than_3_is_refused_by_every_command(tmp_path, capsys, command):
    # gamma3 = 1.7 and gamma4 = 1.0 lie inside N = 4's windows: the paper's
    # hypotheses hold, the radial kernel does not
    path = tmp_path / "n4.ini"
    path.write_text(SMALL_CONFIG.replace("n = 3", "n = 4").replace("gamma3 = 1.3", "gamma3 = 1.7"))
    assert cli.main([command, "--config", str(path)]) == 2
    assert "usage error: [problem] n must be 3, got 4" in capsys.readouterr().err


def _fields(cfg):
    """RunConfig's fields by name, each part's fields in place of the part."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            out.update({f"{f.name}.{g.name}": getattr(value, g.name)
                        for g in dataclasses.fields(value)})
        else:
            out[f.name] = value
    return out


def test_each_key_sets_its_field(tmp_path):
    # every key away from its default (n has one legal value; no key sets the
    # box or the lambda* start lattice) and from every other key's value, so a
    # row that points at the wrong field, or two rows that swap theirs, show
    path = tmp_path / "every-key.ini"
    path.write_text("""\
[problem]
n = 3
alpha = 0.2
mu = 1.1
p = 2.1
q = 0.4
gamma3 = 1.25
gamma4 = 1.2
b_form = constant
lambda = 0.3
choquard = yes

[grid]
r = 15.0
m = 96
grading = 1.5

[solver]
tol = 2e-5
max_iters = 123

[sweep]
points = 7
frac_min = 0.22
frac_max = 0.8
spacing = linear

[extremal]
descent_iters = 45

[output]
dir = results
""")
    ini = configparser.ConfigParser()
    ini.read(path)
    assert {(s, k) for s in ini.sections() for k in ini[s]} == {row[:2] for row in cli._KEYS}
    expected = cli.RunConfig(
        params=params.ProblemParams(N=3, alpha=0.2, mu=1.1, p=2.1, q=0.4, gamma3=1.25,
                                    gamma4=1.2, b_form="constant", choquard=True),
        lam=0.3, R=15.0, M=96, grading=1.5,
        solver=cli.SolverOptions(tol=2e-5, max_iters=123),
        sweep_points=7, sweep_frac_min=0.22, sweep_frac_max=0.8, sweep_spacing="linear",
        descent=cli.DescentOptions(max_iters=45), output_dir="results",
    )
    want, default = _fields(expected), _fields(cli.RunConfig())
    assert [name for name in want if want[name] == default[name]] == \
        ["params.N", "box_L", "box_m", "families", "sigmas"]
    assert _fields(cli.load_config(str(path))) == want


def test_empty_lambda_families_and_sigmas_stay_unset(tmp_path):
    path = tmp_path / "cfg.ini"
    # an empty lambda is unset; families and sigmas are retired keys
    path.write_text(SMALL_CONFIG.replace("[extremal]\n", "[extremal]\nfamilies =\nsigmas =\n")
                    .replace("gamma4 = 1.0", "gamma4 = 1.0\nlambda ="))
    cfg, default = cli.load_config(str(path)), cli.RunConfig()
    assert (cfg.lam, cfg.families, cfg.sigmas) == (None, default.families, default.sigmas)


def test_default_config_file_loads_as_the_built_in_defaults():
    assert cli.load_config(DEFAULT_CONFIG) == cli.RunConfig()


def test_nonfinite_config_lambda_is_rejected_by_name(tmp_path, capsys, no_estimate):
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_CONFIG.replace("gamma4 = 1.0", "gamma4 = 1.0\nlambda = inf"))
    for command in ("validate", "solve"):
        assert cli.main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "usage error: [problem] lambda must be finite and positive, got inf\n"
        assert captured.out == ""


def test_nonfinite_radius_in_config_is_named_grid_error(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_CONFIG.replace("r = 14.0", "r = inf"))
    assert cli.main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "GridError: R must be finite and positive, got inf" in captured.err
    assert captured.out == ""


def test_grading_beyond_the_head_rule_in_config_is_named_grid_error(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_CONFIG.replace("grading = 2.0", "grading = 4.0"))
    assert cli.main(["lambda-star", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert ("GridError: the exact-mass head rule of the radial quadrature (its first 4 "
            "cells) cannot take N = 3 with grading = 4.0") in captured.err
    assert "internal" not in captured.err
    assert captured.out == ""
