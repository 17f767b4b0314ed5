"""Scenario execution: build from config, run, write result files.

Every run writes its result files plus a ``manifest.json`` with the config
hash, package and library versions, seed, and wall time.  Result files are
deterministic for a fixed (config, seed); the manifest carries the only
run-varying data (timing).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bvp import (
    BoundaryConditions, TGrid, bvp_discrete_residual, solve_bvp_linear, solve_bvp_semilinear,
)
from .config import build_field, build_problem, parse_run
from .errors import ConfigError
from .evolution import solve_cauchy_linear, solve_cauchy_semilinear
from .norms import besov_norm, lp_norm, mixed_norm, sobolev_norm, trace_space_norms
from .rademacher import scaled_resolvent_rbound
from .solver import apply_operator, lambda_sweep, solve_linear
from .symbols import MultiplierFamily, make_xi_grid, mikhlin_bound
from .output import field_table, write_csv, write_json


def _config_hash(config) -> str:
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class RunResult:
    def __init__(self, scenario, summary, files, exit_code=0):
        self.scenario = scenario
        self.summary = summary
        self.files = files
        self.exit_code = exit_code


class _Run:
    """What a scenario handler works on: the problem, the run's RNG, the outputs."""

    def __init__(self, problem, rng, seed, out, summary):
        self.problem = problem
        self.rng = rng
        self.seed = seed
        self.out = out
        self.summary = summary
        self.files = {}
        self.manifest = {}  # run facts that go to manifest.json only

    def field(self, parsed):
        """Sample a field spec parsed by the section schema."""
        return build_field(*parsed, self.problem.grid, self.problem.operator, self.rng)

    def forcing(self, section):
        """The section's forcing as a function of t, or None."""
        if section["forcing"] is None:
            return None
        space = self.field(section["forcing"]["space"])
        profile, t_final = section["forcing"]["time"], section["t_final"]
        return lambda t: space.values * profile(t, t_final)

    def emit(self, name, result):
        """Write ``result`` to ``name``: a dict as JSON, a callable returning a
        (header, table) pair as CSV.  The callable runs only when there is a
        file to write; a failed write is a ``ConfigError`` naming the path."""
        if self.out is None:
            return
        path = self.out / name
        try:
            if isinstance(result, dict):
                write_json(path, result)
            else:
                write_csv(path, *result())
        except OSError as exc:
            raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror or exc}")
        self.files[name] = str(path)


# ---------------------------------------------------------------------------
# scenario handlers: (run, typed section) -> exit code or None
# ---------------------------------------------------------------------------


def _check_condition(run, s):
    report = run.problem.check_condition(
        xi_grid=make_xi_grid(per_side=s["xi_points_per_side"]), lambda_sector=s["sector_angle"]
    )
    run.summary.update(report.to_dict())
    run.emit("condition_report.json", report.to_dict())
    return 0 if report.all_pass else 4


def _solve_linear(run, s):
    problem, lam = run.problem, s["lambda"]
    f = run.field(s["forcing"])
    u = solve_linear(problem, f, lam)
    residual = apply_operator(problem, u, lam).values - f.values
    run.summary.update(
        {
            "lambda": lam,
            "u_lp": lp_norm(u, problem.p),
            "f_lp": lp_norm(f, problem.p),
            "residual_sup": float(np.max(np.abs(residual))),
        }
    )
    run.emit("solution.csv", lambda: field_table(u.grid.x, u.values))
    run.emit("summary.json", run.summary)


def _lambda_sweep(run, s):
    f = run.field(s["forcing"])
    if lp_norm(f, run.problem.p) == 0.0:  # lambda_sweep's refusal, decided by the config
        raise ConfigError("sweep forcing must be nonzero", "lambda-sweep.forcing")
    sweep = lambda_sweep(run.problem, f, s["lambdas"])
    run.summary.update(
        {
            "max_resolvent_value": sweep.max_resolvent_value,
            "ratio_spread": sweep.ratio_spread,
            "rows": len(sweep.rows),
        }
    )
    orders = range(sweep.l + 1)
    header = ["lambda_re", "lambda_im", *(f"term_k{k}" for k in orders),
              *(f"conv_k{k}" for k in orders), "mu_conv_term", "au_term", "ratio",
              "resolvent_value"]
    run.emit("sweep.csv", lambda: (header, [
        [r["lambda"].real, r["lambda"].imag, *r["derivative_terms"], *r["convolution_terms"],
         r["mu_conv_term"], r["au_term"], r["ratio"], r["resolvent_value"]]
        for r in sweep.rows
    ]))
    run.emit("summary.json", run.summary)


def _mikhlin(run, s):
    lambdas, grid, symbols = s["lambdas"], run.problem.certified_xi(), run.problem.symbols
    samples = {}  # by value: each stencil row of mikhlin_bound, once for all families and lambdas

    def sample(xi):
        key = (xi.shape, xi.tobytes())
        return samples[key] if key in samples else samples.setdefault(key, symbols.sample(xi))

    bounds = {}
    for index in s["families"]:
        fams = {lam: MultiplierFamily(symbols, index, lam) for lam in lambdas}
        bounds[str(index)] = mikhlin_bound(
            lambda lam, xi: fams[lam].scalar_symbol(sample(xi)), lambdas, grid
        )
    run.summary["bounds"] = bounds
    run.emit("mikhlin.json", run.summary)


def _rbound(run, s):
    estimate, _ = scaled_resolvent_rbound(
        run.problem, s["xi_samples"], s["lambdas"], p=run.problem.p, trials=s["trials"],
        seed=run.seed,
    )
    run.summary.update(estimate.to_dict())
    run.emit("rbound.json", run.summary)


def _solve_parabolic(run, s):
    problem = run.problem
    u0 = run.field(s["initial"])
    if s["nonlinearity"] is not None:
        state, report = solve_cauchy_semilinear(
            problem, u0, s["nonlinearity"], t_final=s["t_final"], dt=s["dt"],
            blowup_threshold=s["blowup_threshold"], step_tol=s["step_tol"],
            store_every=s["store_every"],
        )
        run.summary.update(asdict(report))
        run.emit("report.json", asdict(report))
    else:
        state = solve_cauchy_linear(
            problem, u0, forcing=run.forcing(s), t_final=s["t_final"], dt=s["dt"],
            store_every=s["store_every"],
        )
        final = state.final
        report = {"completed": True, "t_max": state.t, "final_norms": {
            "u_lp": lp_norm(final, problem.p), "u_sup": float(np.max(np.abs(final.values))),
        }}
        run.summary.update(report)
        run.emit("report.json", report)
    run.manifest["x_spectrum"] = "real-half" if state.real else "complex"
    run.emit("trajectory.csv",
             lambda: field_table(problem.grid.x, state.snapshots, state.times))


def _solve_elliptic(run, s):
    problem, b = run.problem, s["bc"]
    tgrid = TGrid(t_final=s["t_final"], m=s["m"])
    bc = BoundaryConditions(**{**b, "f1": run.field(b["f1"]), "f2": run.field(b["f2"])})
    if s["nonlinearity"] is not None:
        u, report = solve_bvp_semilinear(
            problem, bc, tgrid, s["nonlinearity"], max_iter=s["max_iter"], tol=s["tol"],
            max_t_halvings=s["max_t_halvings"],
        )
        run.summary.update(asdict(report))
        run.emit("iterations.json", asdict(report))
    else:
        forcing = run.forcing(s)
        if forcing is not None:  # sampled once, for the solve and its residual
            forcing = np.stack([forcing(float(t)) for t in tgrid.t])
        u = solve_bvp_linear(problem, bc, tgrid, forcing=forcing)
        residual = bvp_discrete_residual(problem, bc, tgrid, u, forcing=forcing)
        run.summary["residual"] = residual
        run.emit("iterations.json", {"converged": True, "iterations": 0, "residual": residual})
    run.summary["u_sup"] = float(np.max(np.abs(u.values)))
    run.manifest["x_spectrum"] = "real-half" if u.real else "complex"
    run.emit("solution.csv", lambda: field_table(u.grid.x, u.values, u.tgrid.t))


def _sobolev_norms(field, e, problem):
    l = problem.symbols.l if e["l"] is None else e["l"]
    return {f"sobolev_l{l}_p{e['p']:g}": sobolev_norm(field, l, e["p"], problem.operator)}


def _trace_norms(field, e, problem):
    l = max(problem.symbols.l, 1) if e["l"] is None else e["l"]
    x0, x1 = trace_space_norms(field, field, l, e["p"], e["q"], problem.operator)
    tag = f"l{l}_p{e['p']:g}_q{e['q']:g}"
    return {f"trace_x0_{tag}": x0, f"trace_x1_{tag}": x1}


def _mixed_norm(field, e, problem):
    points = e["time_points"]
    t = (np.arange(points) + 0.5) / points
    strip = t[:, None, None] * field.values[None, :, :]
    value = mixed_norm(strip, e["p"], e["q"], 1.0 / points, field.grid.h)
    return {f"mixed_p{e['p']:g}_q{e['q']:g}": value}


# Norm kind -> (field, typed entry, problem) -> {reported name: value}.
# An entry without l takes the problem's order (at least 1 for trace).
_NORMS = {
    "lp": lambda field, e, problem: {f"lp_p{e['p']:g}": lp_norm(field, e["p"])},
    "sobolev": _sobolev_norms,
    "besov": lambda field, e, problem: {
        f"besov_s{e['s']:g}_q{e['q']:g}_p{e['p']:g}": besov_norm(field, e["s"], e["q"], e["p"])
    },
    "trace": _trace_norms,
    "mixed": _mixed_norm,
}


def _norms_report(run, s):
    field = run.field(s["field"])
    values = {}
    for entry in s["norms"]:
        values.update(_NORMS[entry["kind"]](field, entry, run.problem))
    run.summary["norms"] = values
    run.emit("norms.json", run.summary)


# Scenario name -> handler; the names and their section schemas are config.SECTIONS.
HANDLERS = {
    "check-condition": _check_condition,
    "solve-linear": _solve_linear,
    "lambda-sweep": _lambda_sweep,
    "mikhlin": _mikhlin,
    "rbound": _rbound,
    "solve-parabolic": _solve_parabolic,
    "solve-elliptic": _solve_elliptic,
    "norms-report": _norms_report,
}


def run_scenario(config: dict, out_dir=None, seed=None, preset_name=None) -> RunResult:
    """Validate (parse and build the problem once, before ``out_dir`` is made),
    execute and (optionally) persist one scenario run."""
    section, run_seed = parse_run(config, seed)
    scenario = config["scenario"]
    rng = np.random.default_rng(run_seed)
    started = time.monotonic()

    problem = build_problem(config["problem"], "problem")
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use {str(out)!r} as the output directory: {exc.strerror}")
    run = _Run(problem, rng, run_seed, out, {"scenario": scenario, "seed": run_seed})
    if scenario != "check-condition":
        problem.check_condition()  # every solve and estimate is gated on this
    exit_code = HANDLERS[scenario](run, section) or 0
    elapsed = time.monotonic() - started
    if out is not None:
        manifest = {
            "scenario": scenario,
            "preset": preset_name,
            "config_sha256": _config_hash(config),
            "seed": run_seed,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "coesolve": __version__,
            },
            "elapsed_seconds": elapsed,
            "outputs": sorted(run.files),
            **run.manifest,
        }
        run.emit("manifest.json", manifest)
    return RunResult(scenario, run.summary, run.files, exit_code)
