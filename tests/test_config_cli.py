"""Config validation, the preset catalog, the scenario runner, and the
command-line front end (exit codes, outputs, determinism)."""

import copy
import json
import warnings

import numpy as np
import pytest

from coesolve import run_scenario, validate_config
from coesolve.cli import build_parser, main
import coesolve.runner as runner
from coesolve.config import SCENARIOS, _component_weights, build_problem
from coesolve.errors import ConfigError
from coesolve.operators import (
    DenseMatrixOperator,
    DirichletLaplacian2D,
    PeriodicSturmLiouvilleOperator,
)
from coesolve.presets import get_preset, preset_names


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_every_preset_validates():
    for name in preset_names():
        config = get_preset(name)
        assert validate_config(config) is config


def test_preset_catalog_contents():
    names = preset_names()
    for required in ("example-4.3", "example-4.4", "problem-3.7", "problem-4.6"):
        assert required in names
    fourth = get_preset("example-4.4")
    assert fourth["problem"]["symbols"]["l"] == 4
    assert fourth["problem"]["p"] == 2
    assert fourth["scenario"] == "solve-parabolic"


def test_get_preset_returns_fresh_copies():
    a = get_preset("problem-3.7")
    a["problem"]["symbols"]["l"] = 99
    b = get_preset("problem-3.7")
    assert b["problem"]["symbols"]["l"] != 99


def test_unknown_preset_is_named_in_the_error():
    from coesolve.errors import InvalidArgumentError

    with pytest.raises(InvalidArgumentError, match="no-such-preset"):
        get_preset("no-such-preset")


def test_misspelled_key_is_pinpointed():
    config = get_preset("problem-3.7")
    section = config["solve-linear"]
    section["lamda"] = section.pop("lambda")
    with pytest.raises(ConfigError, match="lamda"):
        validate_config(config)


def test_section_scenario_mismatch_is_rejected():
    config = get_preset("problem-3.7")
    config["lambda-sweep"] = {"forcing": {"type": "zero"}, "lambdas": [1.0]}
    with pytest.raises(ConfigError, match="lambda-sweep"):
        validate_config(config)


def test_unknown_scenario_is_rejected():
    config = get_preset("problem-3.7")
    config["scenario"] = "solve-everything"
    with pytest.raises(ConfigError, match="solve-everything"):
        validate_config(config)


def test_missing_required_section_key():
    config = get_preset("example-4.3-sweep")
    del config["lambda-sweep"]["lambdas"]
    with pytest.raises(ConfigError, match="lambdas"):
        validate_config(config)


def test_problem_is_structurally_validated():
    config = get_preset("problem-3.7")
    config["problem"]["symbols"]["b"] = [0.0, 0.0]  # needs l + 1 = 3 entries
    with pytest.raises(ConfigError):
        validate_config(config)


def test_config_error_path_is_the_innermost_key():
    cases = [
        (("problem", "grid", "n"), "x", "problem.grid.n", "expected an integer"),
        (("problem", "grid", "n"), 3, "problem.grid", "n must be a power of two >= 2"),
        (("problem", "symbols", "b"), [0.0, 0.0], "problem.symbols",
         "need exactly l + 1 coefficients b_0 .. b_l"),
        (("check-condition", "sector_angle"), "x", "check-condition.sector_angle",
         "expected a finite number"),
        (("check-condition", "sector_angle"), 4.0, "check-condition.sector_angle",
         "sector angle must lie in [0, pi)"),
    ]
    for keys, value, path, message in cases:
        config = get_preset("example-4.3-condition")
        _set(config, keys, value)
        with pytest.raises(ConfigError) as info:
            validate_config(config)
        assert info.value.path == path
        assert str(info.value) == f"{path}: {message}"


def _set(config, keys, value):
    for key in keys[:-1]:
        config = config[key]
    config[keys[-1]] = value


# One edit of a preset each; every one is a config error (exit 2) whose
# message names the innermost dotted path.
BAD_EDITS = [
    ("example-4.3", ("solve-parabolic", "dt"), "abc", "solve-parabolic.dt"),
    ("example-4.3", ("solve-parabolic", "dt"), -0.1, "solve-parabolic.dt"),
    ("example-4.3", ("solve-parabolic", "store_every"), "x", "solve-parabolic.store_every"),
    ("blowup-ode", ("solve-parabolic", "blowup_threshold"), [1],
     "solve-parabolic.blowup_threshold"),
    ("example-4.3", ("solve-parabolic", "nonlinearity"), "cubic",
     "solve-parabolic.nonlinearity"),
    ("example-4.3", ("solve-parabolic", "forcing"), {"spcae": {"type": "zero"}},
     "solve-parabolic.forcing.spcae"),
    ("example-4.3", ("solve-parabolic", "forcing"), {"time": {"rtae": 1.0}},
     "solve-parabolic.forcing.time.rtae"),
    ("example-4.4", ("solve-parabolic", "t_final"), 0.505, "solve-parabolic.t_final"),
    ("problem-3.7", ("solve-linear", "lambda"), "abc", "solve-linear.lambda"),
    ("problem-3.7", ("solve-linear", "lambda"), [1, 2, 3], "solve-linear.lambda"),
    ("example-4.3-sweep", ("lambda-sweep", "lambdas"), "abc", "lambda-sweep.lambdas"),
    ("example-4.3-rbound", ("rbound", "trials"), "x", "rbound.trials"),
    ("example-4.3-rbound", ("rbound", "xi_samples"), 3, "rbound.xi_samples"),
    ("example-4.3-condition", ("check-condition", "xi_points_per_side"), "x",
     "check-condition.xi_points_per_side"),
    ("problem-4.6", ("solve-elliptic", "m"), "x", "solve-elliptic.m"),
    ("norms-gaussian", ("norms-report", "norms"), "abc", "norms-report.norms"),
    ("norms-gaussian", ("norms-report", "norms", 0, "p"), "x", "norms-report.norms[0].p"),
    ("norms-gaussian", ("norms-report", "norms", 0), {"kind": "lp", "zz": 1},
     "norms-report.norms[0].zz"),
    ("example-4.3", ("problem", "symbols", "a_kernels"), "x", "problem.symbols.a_kernels"),
    ("example-4.3", ("seed",), -1, "seed"),
    ("example-4.3", ("solve-parabolic", "dt"), float("nan"), "solve-parabolic.dt"),
    ("example-4.3", ("problem", "grid", "half_width"), 10**400, "problem.grid.half_width"),
    ("example-4.3-condition", ("problem", "operator"), {"kind": "dense-matrix", "csv": "no.csv"},
     "problem.operator"),
    # range checks the library also makes, reached from a config
    ("problem-4.6", ("solve-elliptic", "m"), 0, "solve-elliptic.m"),
    ("example-4.3-rbound", ("rbound", "trials"), 50, "rbound.trials"),
    ("example-4.3-condition", ("check-condition", "xi_points_per_side"), 1,
     "check-condition.xi_points_per_side"),
    ("norms-gaussian", ("norms-report", "field"), {"type": "band-limited-random", "max_mode": 0},
     "norms-report.field.max_mode"),
    # operator-mode weights on a Jordan block, which has no eigenbasis
    ("example-4.4", ("problem", "operator"), {"kind": "dense-matrix", "matrix": [[1, 1], [0, 1]]},
     "solve-parabolic.initial.weights"),
    # ranges of the norm exponents, the Picard loop and the family indices
    ("norms-gaussian", ("norms-report", "norms", 0, "p"), 0.5, "norms-report.norms[0].p"),
    ("norms-gaussian", ("norms-report", "norms", 4, "q"), 0.5, "norms-report.norms[4].q"),
    ("norms-gaussian", ("norms-report", "norms", 2, "s"), -1, "norms-report.norms[2].s"),
    ("norms-gaussian", ("norms-report", "norms", 3, "p"), 1.0, "norms-report.norms[3].p"),
    ("norms-gaussian", ("norms-report", "norms", 3, "l"), 0, "norms-report.norms[3].l"),
    ("norms-gaussian", ("norms-report", "norms", 1, "l"), -1, "norms-report.norms[1].l"),
    ("problem-4.6", ("solve-elliptic", "max_iter"), 0, "solve-elliptic.max_iter"),
    ("problem-4.6", ("solve-elliptic", "max_t_halvings"), -1, "solve-elliptic.max_t_halvings"),
    ("example-4.3-mikhlin", ("mikhlin", "families"), [7], "mikhlin.families[0]"),
    # lambdas outside the sector every run is gated on, and nonpositive tolerances
    ("problem-3.7", ("solve-linear", "lambda"), -5, "solve-linear.lambda"),
    ("example-4.3-sweep", ("lambda-sweep", "lambdas"), [-5], "lambda-sweep.lambdas[0]"),
    ("example-4.3-rbound", ("rbound", "lambdas"), [-5], "rbound.lambdas[0]"),
    ("example-4.3-mikhlin", ("mikhlin", "lambdas"), [-5], "mikhlin.lambdas[0]"),
    ("example-4.3-mikhlin", ("mikhlin", "lambdas"), [1.0, [-1, 0.01]], "mikhlin.lambdas[1]"),
    ("problem-4.6", ("solve-elliptic", "tol"), -1, "solve-elliptic.tol"),
    ("blowup-ode", ("solve-parabolic", "blowup_threshold"), -1,
     "solve-parabolic.blowup_threshold"),
    ("blowup-ode", ("solve-parabolic", "step_tol"), -1, "solve-parabolic.step_tol"),
    # a half-width that passes its own check but whose spacing 2 X / n overflows
    ("problem-3.7", ("problem", "grid", "half_width"), 1e308, "problem.grid"),
    # strip rules the config alone decides: the arity of F and the boundary determinant
    ("problem-4.6", ("solve-elliptic", "nonlinearity"),
     {"kind": "polynomial", "arity": 2, "terms": [{"powers": [3, 0, 0], "coeff": -1.0}]},
     "solve-elliptic.nonlinearity.arity"),
    ("problem-4.6", ("solve-elliptic", "bc"),
     {**get_preset("problem-4.6")["solve-elliptic"]["bc"],
      "alpha1": 1.0, "beta1": 0.0, "alpha2": 1.0, "beta2": 0.0},
     "solve-elliptic.bc"),
    # a step count t_final / dt that overflows a float, and one past 2**53
    ("example-4.4", ("solve-parabolic", "dt"), 1e-320, "solve-parabolic.t_final"),
    ("example-4.4", ("solve-parabolic", "dt"), 1e-300, "solve-parabolic.t_final"),
    # proportional rows: an exact zero determinant, and one of -3.9e-31 (rounding)
    # beside products of 2.1e-15
    ("problem-4.6", ("solve-elliptic", "bc"),
     {**get_preset("problem-4.6")["solve-elliptic"]["bc"],
      "alpha1": 1.0, "beta1": 2.0, "alpha2": 2.0, "beta2": 4.0},
     "solve-elliptic.bc"),
    ("problem-4.6", ("solve-elliptic", "bc"),
     {**get_preset("problem-4.6")["solve-elliptic"]["bc"],
      "alpha1": 7e-8, "beta1": 1e-8, "alpha2": 2.1e-7, "beta2": 3e-8},
     "solve-elliptic.bc"),
    # a sweep forcing of L_p norm 0, which lambda_sweep refuses
    ("example-4.3-sweep", ("lambda-sweep", "forcing"), {"type": "zero"}, "lambda-sweep.forcing"),
    ("example-4.3-sweep", ("lambda-sweep", "forcing", "amplitude"), 0, "lambda-sweep.forcing"),
]


@pytest.mark.parametrize("preset, keys, value, path", BAD_EDITS)
def test_bad_value_is_a_config_error_naming_its_path(preset, keys, value, path, tmp_path, capsys):
    config = get_preset(preset)
    _set(config, keys, value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([config["scenario"], "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


def test_every_scenario_has_a_handler():
    assert tuple(runner.HANDLERS) == SCENARIOS


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------


def test_condition_run_passes_and_persists(tmp_path):
    result = run_scenario(
        get_preset("example-4.3-condition"),
        out_dir=tmp_path,
        preset_name="example-4.3-condition",
    )
    assert result.exit_code == 0
    assert result.summary["all_pass"]
    assert abs(result.summary["c_mu"] - 1.0) < 1e-12
    report = json.loads(_read(tmp_path / "condition_report.json"))
    assert report["pass"] == [True, True, True, True]
    manifest = json.loads(_read(tmp_path / "manifest.json"))
    assert manifest["preset"] == "example-4.3-condition"
    assert manifest["outputs"] == ["condition_report.json"]
    assert manifest["seed"] == 0
    assert len(manifest["config_sha256"]) == 64
    assert "x_spectrum" not in manifest  # a fact of parabolic and elliptic runs only


def test_failed_condition_run_exits_four(tmp_path):
    config = get_preset("example-4.3-condition")
    config["problem"]["symbols"]["b"] = [0.0, 1.0, 0.0]
    result = run_scenario(config, out_dir=tmp_path)
    assert result.exit_code == 4
    assert not result.summary["all_pass"]
    report = json.loads(_read(tmp_path / "condition_report.json"))
    assert report["all_pass"] is False


def test_linear_solve_run_meets_residual_target(tmp_path):
    result = run_scenario(get_preset("problem-3.7"), out_dir=tmp_path)
    assert result.exit_code == 0
    assert result.summary["residual_sup"] <= 1e-8
    assert (tmp_path / "solution.csv").exists()
    header = _read(tmp_path / "solution.csv").decode().splitlines()[0]
    assert header.split(",")[0] == "x"


def test_sweep_run_row_count(tmp_path):
    result = run_scenario(get_preset("example-4.3-sweep"), out_dir=tmp_path)
    assert result.exit_code == 0
    lines = _read(tmp_path / "sweep.csv").decode().splitlines()
    assert len(lines) == 5  # header + one row per lambda
    assert lines[0].startswith("lambda_re,lambda_im")
    assert result.summary["ratio_spread"] <= 10.0


def test_norms_run_reports_each_requested_norm(tmp_path):
    result = run_scenario(get_preset("norms-gaussian"), out_dir=tmp_path)
    assert result.exit_code == 0
    norms = result.summary["norms"]
    assert norms["lp_p2"] == pytest.approx((np.pi / 2.0) ** 0.25, rel=1e-6)
    assert norms["mixed_p2_q2"] == pytest.approx(norms["lp_p2"] / np.sqrt(3.0), rel=1e-3)
    for key in list(norms):
        assert np.isfinite(norms[key])


def test_semilinear_elliptic_run_converges(tmp_path):
    result = run_scenario(get_preset("problem-4.6"), out_dir=tmp_path)
    assert result.exit_code == 0
    assert result.summary["converged"]
    assert result.summary["iterations"] <= 30
    iters = json.loads(_read(tmp_path / "iterations.json"))
    assert iters["converged"] is True


@pytest.mark.parametrize("max_t_halvings", [0, 2])
def test_diverging_picard_iteration_stops_at_its_last_finite_iterate(
    max_t_halvings, tmp_path, capsys
):
    """F(u) = +u^3 with large boundary data drives the Picard iterates past
    overflow.  The run stops at the first non-finite gap, on every strip it
    tries, and reports its last finite iterate: no NaN in the result files
    and no warning on stderr."""
    config = get_preset("problem-4.6")
    s = config["solve-elliptic"]
    s["bc"]["f1"]["amplitude"], s["bc"]["f2"]["amplitude"] = 50.0, 25.0
    s["nonlinearity"]["terms"] = [{"powers": [3], "coeff": 1.0}]
    s["max_iter"], s["max_t_halvings"] = 200, max_t_halvings
    cfg = tmp_path / "diverging.json"
    cfg.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve-elliptic", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert caught == [] and capsys.readouterr().err == ""
    iters = json.loads(_read(tmp_path / "out" / "iterations.json"))
    assert iters["message"] == "picard iteration lost finiteness"
    assert not iters["converged"] and iters["t_halvings"] == max_t_halvings
    assert 0 < iters["iterations"] == len(iters["gaps"]) < 200
    assert all(np.isfinite(iters["gaps"]))
    for name in ("iterations.json", "solution.csv"):
        assert b"nan" not in _read(tmp_path / "out" / name).lower()


def test_mikhlin_samples_the_certified_frequencies(monkeypatch):
    seen, bound = [], runner.mikhlin_bound

    def spy(symbol, lambdas, grid):
        seen.append(grid)
        return bound(symbol, lambdas, grid)

    monkeypatch.setattr(runner, "mikhlin_bound", spy)
    config = get_preset("example-4.3-mikhlin")
    run_scenario(config)
    certified = build_problem(config["problem"], "problem").certified_xi()
    assert len(certified) > 2 * 1200
    assert len(seen) == len(config["mikhlin"]["families"])
    assert all(np.array_equal(grid, certified) for grid in seen)


@pytest.mark.parametrize("cls", [PeriodicSturmLiouvilleOperator, DirichletLaplacian2D])
def test_omitted_operator_params_take_the_constructor_defaults(cls):
    config = get_preset("problem-3.7")
    config["problem"]["operator"] = {"kind": cls.kind}
    op = build_problem(config["problem"], "problem").operator
    assert type(op) is cls
    assert op.eigenvalues().tobytes() == cls().eigenvalues().tobytes()


def test_runner_seed_override():
    config = get_preset("example-4.3-rbound")
    base = run_scenario(config, seed=1)
    again = run_scenario(config, seed=1)
    other = run_scenario(config, seed=2)
    assert base.summary["value"] == again.summary["value"]
    assert abs(other.summary["value"] - base.summary["value"]) <= 0.1 * base.summary["value"]


@pytest.mark.parametrize("name, spectrum", [
    ("example-4.3", "real-half"),  # real dense A, F = 0
    ("example-4.4", "real-half"),  # Laplacian, cubic F
    ("blowup-ode", "complex"),  # 8 values: the tiny sample-space flow
])
def test_parabolic_manifest_records_the_x_spectrum(tmp_path, name, spectrum):
    """The manifest names the spectrum the run stepped on; a real-half run
    writes exact zeros in every im_u column."""
    run_scenario(get_preset(name), out_dir=tmp_path, preset_name=name)
    assert json.loads(_read(tmp_path / "manifest.json"))["x_spectrum"] == spectrum
    if spectrum == "real-half":
        header, *rows = _read(tmp_path / "trajectory.csv").decode().splitlines()
        im = [i for i, col in enumerate(header.split(",")) if col.startswith("im_u")]
        assert {row.split(",")[i] for row in rows for i in im} == {"0"}


@pytest.mark.parametrize("change, spectrum", [
    (None, "real-half"),  # real dense A, real boundary data, real cubic F
    ({"alpha1": [1.0, 0.1]}, "complex"),
    ({"f1": {"type": "gaussian", "weights": [1.0, [0.5, 0.1]]}}, "complex"),
], ids=["problem-4.6", "complex-alpha1", "complex-f1-weight"])
def test_elliptic_manifest_records_the_x_spectrum(tmp_path, change, spectrum):
    """An elliptic run names its spectrum as a parabolic one does; a real-half
    strip writes exact zeros in every im_u column of solution.csv."""
    config = get_preset("problem-4.6")
    config["solve-elliptic"]["bc"].update(change or {})
    run_scenario(config, out_dir=tmp_path)
    assert json.loads(_read(tmp_path / "manifest.json"))["x_spectrum"] == spectrum
    header, *rows = _read(tmp_path / "solution.csv").decode().splitlines()
    im = [i for i, col in enumerate(header.split(",")) if col.startswith("im_u")]
    values = {row.split(",")[i] for row in rows for i in im}
    assert (values == {"0"}) == (spectrum == "real-half")


def test_a_linear_elliptic_run_samples_its_forcing_once(monkeypatch):
    """The runner samples the forcing once at each t-node and hands the same
    samples to the solve and to its residual."""
    calls = []
    forcing = runner._Run.forcing

    def counted(run, section):
        fn = forcing(run, section)
        return lambda t: calls.append(t) or fn(t)

    monkeypatch.setattr(runner._Run, "forcing", counted)
    config = get_preset("problem-4.6")
    section = config["solve-elliptic"]
    section["nonlinearity"] = None
    section["forcing"] = {"space": section["bc"]["f1"], "time": {"kind": "sin-pi"}}
    result = run_scenario(config)
    assert calls == [float(t) for t in runner.TGrid(section["t_final"], section["m"]).t]
    assert result.summary["residual"] <= 1e-9


def test_semilinear_parabolic_rejects_forcing():
    config = get_preset("example-4.4")
    config["solve-parabolic"]["forcing"] = {"space": {"type": "zero"}}
    with pytest.raises(ConfigError, match="forcing"):
        run_scenario(config)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_condition_preset(tmp_path, capsys):
    rc = main(["check-condition", "--preset", "example-4.3-condition",
               "--out", str(tmp_path)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["all_pass"] is True
    assert (tmp_path / "condition_report.json").exists()


def test_cli_config_file_round_trip(tmp_path, capsys):
    config = get_preset("problem-3.7")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["solve-linear", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["residual_sup"] <= 1e-8


def test_cli_rejects_scenario_subcommand_mismatch(capsys):
    rc = main(["solve-linear", "--preset", "example-4.3-condition"])
    assert rc == 2
    assert "scenario" in capsys.readouterr().err


def test_cli_rejects_both_config_and_preset(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    rc = main(["solve-linear", "--config", str(cfg), "--preset", "problem-3.7"])
    assert rc == 2


def test_cli_requires_some_config(capsys):
    assert main(["solve-linear"]) == 2


def test_cli_rejects_unreadable_or_invalid_json(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["solve-linear", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve-linear", "--config", str(bad)]) == 2


# structured operators whose smallest eigenvalue b or (about) 2 pi^2 + c is <= 0
NON_POSITIVE = {
    "sturm-liouville-b-negative": {"kind": "periodic-sturm-liouville", "b": -1},
    "sturm-liouville-b-zero": {"kind": "periodic-sturm-liouville", "b": 0},
    "laplacian-c-negative": {"kind": "dirichlet-laplacian-2d", "c": -100},
}


@pytest.mark.parametrize("case", ["config-not-utf8", "config-too-deep", "out-is-a-file",
                                  "out-below-a-file", "result-is-a-directory",
                                  "manifest-is-a-directory", *NON_POSITIVE])
def test_cli_bad_input_exits_two_naming_the_path(case, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    config = get_preset("problem-3.7")
    if case in NON_POSITIVE:
        config["problem"]["operator"] = NON_POSITIVE[case]
    cfg.write_text(json.dumps(config))
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    argv = ["solve-linear", "--config", str(cfg)]
    if case == "config-not-utf8":
        cfg.write_bytes(b'{"scenario": "solve-linear\xff"}')
        named = cfg
    elif case == "config-too-deep":
        cfg.write_text("[" * 100000 + "]" * 100000)
        named = cfg
    elif case in NON_POSITIVE:
        kind = NON_POSITIVE[case]["kind"]
        named = f"problem.operator: {kind} operator must have eigenvalues with positive real part"
    elif case.endswith("-is-a-directory"):
        out = tmp_path / "out"
        named = out / ("solution.csv" if case == "result-is-a-directory" else "manifest.json")
        named.mkdir(parents=True)
        argv += ["--out", str(out)]
    else:
        named = blocker if case == "out-is-a-file" else blocker / "sub"
        argv += ["--out", str(named)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and str(named) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert blocker.read_text() == "kept"


# case -> (subcommand, edited keys of problem-3.7, their new value, start of the
# error message); the document root has the empty path, and the subcommand is
# checked before the problem is built
CONFIG_ERRORS = {
    "subcommand-mismatch": ("lambda-sweep", (), None, "scenario: "),
    "non-positive-operator": ("solve-linear", ("problem", "operator"),
                              NON_POSITIVE["sturm-liouville-b-zero"], "problem.operator: "),
    "unknown-section-key": ("solve-linear", ("solve-linear", "lamda"), 1.0,
                            "solve-linear.lamda: "),
    "top-level-array": ("solve-linear", (), None, "expected an object"),
    "mismatch-and-non-positive-operator": ("lambda-sweep", ("problem", "operator"),
                                           NON_POSITIVE["sturm-liouville-b-zero"], "scenario: "),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_a_config_error_creates_no_output_directory(case, tmp_path, capsys):
    command, keys, value, named = CONFIG_ERRORS[case]
    config = get_preset("problem-3.7")
    if keys:
        _set(config, keys, value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([config] if case == "top-level-array" else config))
    out = tmp_path / "out" / "D"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {named}")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_each_run_builds_its_problem_once(scenario, monkeypatch, capsys):
    """``cli.main`` and ``run_scenario`` each build a run's problem once (a dense
    build takes one eig of A)."""
    builds = []
    build = runner.build_problem

    def counted(spec, path):
        builds.append(path)
        return build(spec, path)

    monkeypatch.setattr("coesolve.config.build_problem", counted)
    monkeypatch.setattr(runner, "build_problem", counted)
    name = next(n for n in preset_names() if get_preset(n)["scenario"] == scenario)
    assert main([scenario, "--preset", name]) == 0
    assert builds == ["problem"]
    assert run_scenario(get_preset(name)).exit_code == 0
    assert builds == ["problem", "problem"]


CSV_PRESETS = [name for name in preset_names() if get_preset(name)["scenario"]
               in ("solve-linear", "lambda-sweep", "solve-parabolic", "solve-elliptic")]


@pytest.mark.parametrize("name", CSV_PRESETS)
def test_a_run_without_an_output_directory_builds_no_table(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a CSV table was built with no file to write")

    monkeypatch.setattr(runner, "field_table", refuse)
    monkeypatch.setattr(runner, "write_csv", refuse)
    result = run_scenario(get_preset(name))
    assert result.exit_code == 0 and result.files == {}


def test_cli_rejects_unknown_preset(capsys):
    assert main(["solve-linear", "--preset", "no-such-preset"]) == 2


def test_cli_exit_codes_for_failing_runs(tmp_path, capsys):
    # a symbol set that fails the admissibility check: exit 4 via the report
    config = get_preset("example-4.3-condition")
    config["problem"]["symbols"]["b"] = [0.0, 1.0, 0.0]
    cfg = tmp_path / "fail_check.json"
    cfg.write_text(json.dumps(config))
    assert main(["check-condition", "--config", str(cfg)]) == 4

    # the same symbols pushed through a solve raise AdmissibilityError: exit 4
    solve = get_preset("problem-3.7")
    solve["problem"]["symbols"]["b"] = [0.0, 1.0, 0.0]
    cfg4 = tmp_path / "fail_solve.json"
    cfg4.write_text(json.dumps(solve))
    assert main(["solve-linear", "--config", str(cfg4)]) == 4

    # degenerate boundary rows are decided by the config alone: exit 2
    elliptic = get_preset("problem-4.6")
    elliptic["solve-elliptic"]["bc"]["alpha2"] = 1.0
    elliptic["solve-elliptic"]["bc"]["beta2"] = 0.0
    cfg3 = tmp_path / "degenerate.json"
    cfg3.write_text(json.dumps(elliptic))
    assert main(["solve-elliptic", "--config", str(cfg3)]) == 2


def test_scaled_robin_rows_solve_the_same_problem(tmp_path):
    """Each Robin row and its data times 1e-7 is the same problem: the
    determinant test is relative to its two products."""
    config = get_preset("problem-4.6")
    scaled = copy.deepcopy(config)
    bc = scaled["solve-elliptic"]["bc"]
    for alpha, beta, data in (("alpha1", "beta1", "f1"), ("alpha2", "beta2", "f2")):
        bc[alpha] *= 1e-7
        bc[beta] *= 1e-7
        bc[data]["amplitude"] *= 1e-7
    tables = []
    for name, doc in (("unscaled", config), ("scaled", scaled)):
        cfg, out = tmp_path / f"{name}.json", tmp_path / name
        cfg.write_text(json.dumps(doc))
        assert main(["solve-elliptic", "--config", str(cfg), "--out", str(out)]) == 0
        tables.append(np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1))
    want, got = tables
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# Sizes the schema admits whose first array needs 8 PiB: numpy refuses it at
# once, whatever the overcommit policy, so nothing is allocated.
OVERSIZED = [
    ("problem-3.7", ("problem", "grid", "n"), 2**50),
    ("example-4.3-condition", ("check-condition", "xi_points_per_side"), 2**50),
    ("norms-gaussian", ("norms-report", "norms", 4, "time_points"), 2**50),
]


@pytest.mark.parametrize("preset, keys, value", OVERSIZED)
def test_an_oversized_run_is_a_numerical_failure(preset, keys, value, tmp_path, capsys):
    config = get_preset(preset)
    _set(config, keys, value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([config["scenario"], "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: Unable to allocate") and "Traceback" not in err


# Edits whose arithmetic overflows or divides by zero in plain Python floats.
ARITHMETIC = [
    ("norms-gaussian", ("norms-report", "norms"),
     get_preset("norms-gaussian")["norms-report"]["norms"] + [{"kind": "besov", "s": 400}]),
    ("problem-4.6", ("solve-elliptic", "t_final"), 1e300),
    ("example-4.3-sweep", ("lambda-sweep", "lambdas"), [1e200]),
]
# The class each edit raises, which the message names with the scenario.
ARITHMETIC_CLASS = {
    "norms-gaussian": "OverflowError",
    "problem-4.6": "OverflowError",
    "example-4.3-sweep": "ZeroDivisionError",
}


@pytest.mark.parametrize("preset, keys, value", ARITHMETIC)
def test_an_arithmetic_failure_is_a_numerical_failure(preset, keys, value, tmp_path, capsys):
    config = get_preset(preset)
    _set(config, keys, value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([config["scenario"], "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err
    assert err.endswith(f" ({ARITHMETIC_CLASS[preset]} in {config['scenario']})\n")


def test_a_huge_symbol_coefficient_warns_of_nothing(tmp_path, capsys):
    # the propagator's small-z series overflows on such entries, where it is not read
    config = get_preset("example-4.3")
    config["problem"]["symbols"]["b"] = [0.0, 0.0, -1e160]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve-parabolic", "--config", str(cfg)]) == 0


def test_cli_rbound_with_even_exponential_kernel(tmp_path, capsys):
    # the rbound estimator evaluates the kernel transform at scalar xi
    config = get_preset("example-4.3-rbound")
    config["problem"]["symbols"]["a_kernels"]["2"]["kind"] = "exponential-standard"
    config["rbound"].update(xi_samples=[0.1, 10.0], lambdas=[1.0, 100.0], trials=100)
    cfg = tmp_path / "rbound.json"
    cfg.write_text(json.dumps(config))
    assert main(["rbound", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["value"] >= printed["uniform_bound"] - 1e-12


def test_cli_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("example-4.3", "example-4.4", "problem-3.7", "problem-4.6"):
        assert name in out
    assert "solve-parabolic" in out


def test_cli_builds_its_parser_once_per_process(capsys):
    """Two runs in one process share one parser and print what two runs,
    each with a parser of its own, print."""
    argvs = [["check-condition", "--preset", "example-4.3-condition"],
             ["solve-linear", "--preset", "problem-3.7"]]
    build_parser.cache_clear()
    assert [main(argv) for argv in argvs] == [0, 0]
    assert build_parser.cache_info().misses == 1
    shared = capsys.readouterr().out
    separate = []
    for argv in argvs:
        build_parser.cache_clear()
        assert main(argv) == 0
        separate.append(capsys.readouterr().out)
    assert shared == "".join(separate)


def test_cli_presets_dump(capsys):
    assert main(["presets", "--dump", "example-4.3"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["scenario"] == "solve-parabolic"
    assert main(["presets", "--dump", "bogus"]) == 2


# ---------------------------------------------------------------------------
# operator-mode field weights
# ---------------------------------------------------------------------------


def _non_normal_dense(d=5):
    rng = np.random.default_rng(4)
    t = np.diag(1.0 + rng.random(d) + 1j * rng.uniform(-1.0, 1.0, d))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q @ (t + np.triu(rng.standard_normal((d, d)), 1)) @ q.conj().T


MODE_OPERATORS = [
    DenseMatrixOperator(_non_normal_dense()),
    PeriodicSturmLiouvilleOperator(b=0.7, n=12),
    DirichletLaplacian2D(4, 4, c=0.5),
    DirichletLaplacian2D(3, 5, c=0.0),
]


def _mode(op, index):
    return _component_weights({"type": "operator-mode", "index": index}, "w", op)


@pytest.mark.parametrize("op", MODE_OPERATORS, ids=lambda op: f"{op.kind}-{op.dim}")
def test_operator_mode_weights_are_eigenvectors_in_ascending_real_part(op):
    ref = np.sort(np.linalg.eigvals(op.as_dense()).real)
    for index in range(op.dim):
        v = _mode(op, index)
        assert np.max(np.abs(v)) == pytest.approx(1.0)
        av = op.apply_many(v[None, :])[0]
        lam = np.vdot(v, av) / np.vdot(v, v)
        residual = np.linalg.norm(av - lam * v)
        assert residual <= 1e-10 * abs(lam) * np.linalg.norm(v)
        assert lam.real == pytest.approx(ref[index], rel=1e-10)


def test_operator_mode_ties_follow_the_eigenbasis_position():
    # sin(pi y) sin(2 pi z) and sin(2 pi y) sin(pi z) share one eigenvalue on
    # a square grid; index 1 is the first of them in row-major (y, z) order
    h = 1.0 / 5.0
    s = lambda k: np.sin(np.pi * k * h * np.arange(1, 5))
    op = DirichletLaplacian2D(4, 4)
    for index, (ky, kz) in ((1, (1, 2)), (2, (2, 1))):
        mode = np.outer(s(ky), s(kz)).ravel()
        assert np.allclose(_mode(op, index), mode / np.max(np.abs(mode)), rtol=0.0, atol=1e-12)


def test_sturm_liouville_operator_mode_order_inside_conjugate_pairs():
    # at n = 128 the modes run 0, 1, 127, 2, 126, ...: mode k is e^{2 pi i k y}
    n = 128
    op = PeriodicSturmLiouvilleOperator(b=1.0, n=n)
    y = np.arange(n) / n
    for index, k in enumerate([0, 1, 127, 2, 126, 3, 125]):
        assert np.allclose(_mode(op, index), np.exp(2j * np.pi * k * y), rtol=0.0, atol=1e-12)


def test_dense_operator_mode_weights_are_the_normalized_eig_column():
    a = _non_normal_dense()
    eigs, vecs = np.linalg.eig(a)
    op = DenseMatrixOperator(a)
    for index, k in enumerate(np.argsort(eigs.real, kind="stable")):
        col = vecs[:, k] / np.max(np.abs(vecs[:, k]))
        assert np.allclose(_mode(op, index), col, rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_repeated_runs_are_byte_identical(tmp_path):
    for preset in ("example-4.3-condition", "example-4.3-sweep", "scalar-resolvent"):
        config = get_preset(preset)
        dirs = [tmp_path / f"{preset}-{i}" for i in (0, 1)]
        results = [
            run_scenario(copy.deepcopy(config), out_dir=d, preset_name=preset)
            for d in dirs
        ]
        assert results[0].exit_code == results[1].exit_code == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            if name == "manifest.json":  # carries wall-clock timing
                continue
            assert _read(dirs[0] / name) == _read(dirs[1] / name), (preset, name)
