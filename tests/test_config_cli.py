"""Config validation, the preset catalog, the scenario runner, and the
command-line front end (exit codes, outputs, determinism)."""

import copy
import json

import numpy as np
import pytest

from coesolve import run_scenario, validate_config
from coesolve.cli import main
from coesolve.config import SCENARIOS
from coesolve.errors import ConfigError
from coesolve.presets import get_preset, preset_names
from coesolve.runner import HANDLERS


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
    assert tuple(HANDLERS) == SCENARIOS


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


def test_runner_seed_override():
    config = get_preset("example-4.3-rbound")
    base = run_scenario(config, seed=1)
    again = run_scenario(config, seed=1)
    other = run_scenario(config, seed=2)
    assert base.summary["value"] == again.summary["value"]
    assert abs(other.summary["value"] - base.summary["value"]) <= 0.1 * base.summary["value"]


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

    # degenerate boundary rows surface as a numerical failure: exit 3
    elliptic = get_preset("problem-4.6")
    elliptic["solve-elliptic"]["bc"]["alpha2"] = 1.0
    elliptic["solve-elliptic"]["bc"]["beta2"] = 0.0
    cfg3 = tmp_path / "degenerate.json"
    cfg3.write_text(json.dumps(elliptic))
    assert main(["solve-elliptic", "--config", str(cfg3)]) == 3


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


def test_cli_presets_dump(capsys):
    assert main(["presets", "--dump", "example-4.3"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["scenario"] == "solve-parabolic"
    assert main(["presets", "--dump", "bogus"]) == 2


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
