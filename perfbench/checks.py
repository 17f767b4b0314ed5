"""Output oracles and result-file digests for benchmark operations.

Each check reads the files an operation wrote and returns a list of
problems (empty when the output is correct).  The verdicts do not depend
on the seed: they compare against residual floors, analytic values or a
per-frequency ``scipy.linalg.expm`` reference, never against stored
numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

MANIFEST = "manifest.json"
RESIDUAL_FLOOR = 1e-9
EXPM_REL_TOL = 1e-8
POSITIVITY_REL_TOL = 1e-9


def digest(out_dir: Path, stdout: str) -> str:
    """sha256 over stdout and every result file except the manifest."""
    h = hashlib.sha256(stdout.encode())
    for path in sorted(out_dir.iterdir()):
        if path.name == MANIFEST:
            continue
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _cnum(v) -> complex:
    return complex(v) if isinstance(v, (int, float)) else complex(v[0], v[1])


def _grid_x(problem) -> np.ndarray:
    half, n = problem["grid"]["half_width"], problem["grid"]["n"]
    return -half + (2.0 * half / n) * np.arange(n)


def _field_values(spec, problem) -> np.ndarray:
    """(n, dim) samples of a gaussian or constant field with listed weights."""
    x = _grid_x(problem)
    weights = np.array([_cnum(w) for w in spec.get("weights", [1.0])])
    weights = weights * spec.get("amplitude", 1.0)
    if spec["type"] == "gaussian":
        profile = np.exp(-(((x - spec.get("center", 0.0)) / spec.get("width", 1.0)) ** 2))
    elif spec["type"] == "constant":
        profile = np.full(x.shape, _cnum(spec.get("value", 1.0)))
    else:
        raise ValueError(f"oracle cannot sample field type {spec['type']!r}")
    return profile[:, None] * weights[None, :]


def _read_csv(path: Path, width: int, keep_last_t=False):
    """Stream a result CSV; returns (row count, rows kept).

    Every row must have ``width`` finite numbers.  With ``keep_last_t`` the
    rows of the last stored time (first column) are kept.
    """
    kept, count, last_t = [], 0, None
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        _require(len(header) == width,
                 f"{path.name}: header has {len(header)} columns, want {width}")
        for line in fh:
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                raise _Bad(f"{path.name}: unparsable row {count + 1}")
            _require(len(row) == width and all(math.isfinite(v) for v in row),
                     f"{path.name}: bad row {count + 1}")
            count += 1
            if keep_last_t:
                if row[0] != last_t:
                    last_t, kept = row[0], []
                kept.append(row)
    return count, kept


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise _Bad(f"{path.name}: {exc}")


class _Bad(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise _Bad(message)


def _dim(problem) -> int:
    op = problem["operator"]
    if op["kind"] == "dense-matrix":
        return len(op["matrix"])
    if op["kind"] == "periodic-sturm-liouville":
        return op.get("n", 128)
    return op.get("n_y", 32) * op.get("n_z", 32)


def _complex_columns(rows, dim) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    cols = arr[:, -2 * dim:]
    return cols[:, 0::2] + 1j * cols[:, 1::2]


def _kernel_hat(spec, xi):
    """Closed-form transform of the kernel kinds the workloads use."""
    if spec["kind"] != "exponential-paper":
        raise ValueError(f"oracle has no transform for kernel kind {spec['kind']!r}")
    k, amp = spec.get("rate", 1.0), _cnum(spec.get("amplitude", 1.0))
    return amp * 2j * xi / (k * k + xi * xi)


def _symbol(symbols, xi):
    """(mu_hat + nu, eta) at one frequency, evaluated independently of coesolve."""
    if symbols.get("mu_kernel") is not None:
        raise ValueError("oracle does not evaluate mu kernels")
    kernels = symbols.get("a_kernels") or {}
    n_xi = sum(
        (_cnum(b) + (_kernel_hat(kernels[str(k)], xi) if str(k) in kernels else 0.0))
        * (1j * xi) ** k
        for k, b in enumerate(symbols["b"])
    )
    den = _cnum(symbols["nu"])
    return den, n_xi / den


def _expm_oracle(config, final) -> list:
    """Final state vs exp(-T (mu_hat + nu)(A + eta)) u0_hat at a few xi."""
    problem = config["problem"]
    section = config["solve-parabolic"]
    a = np.array([[_cnum(v) for v in row] for row in problem["operator"]["matrix"]])
    n = problem["grid"]["n"]
    h = 2.0 * problem["grid"]["half_width"] / n
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    u0_hat = np.fft.fft(_field_values(section["initial"], problem), axis=0)
    final_hat = np.fft.fft(final, axis=0)
    t_final = section["t_final"]
    scale = float(np.max(np.abs(u0_hat)))
    worst = 0.0
    for j in sorted({0, 1, n // 8, n // 2, n - 1}):
        den, eta = _symbol(problem["symbols"], float(xi[j]))
        ref = scipy.linalg.expm(-t_final * den * (a + eta * np.eye(a.shape[0]))) @ u0_hat[j]
        worst = max(worst, float(np.max(np.abs(final_hat[j] - ref))))
    if worst > EXPM_REL_TOL * scale:
        return [f"final state misses the expm reference by {worst:.3g} (scale {scale:.3g})"]
    return []


def _check_parabolic(config, out_dir, expect) -> list:
    problem, section = config["problem"], config["solve-parabolic"]
    report = _load_json(out_dir / "report.json")
    lo_hi = expect.get("halts_between")
    if lo_hi:
        _require(not report["completed"], "blow-up run completed")
        _require(lo_hi[0] <= report["t_max"] <= lo_hi[1],
                 f"blow-up halted at t_max = {report['t_max']}, outside {lo_hi}")
    else:
        _require(report["completed"], "run halted early")
        _require(abs(report["t_max"] - section["t_final"]) <= 1e-9,
                 f"t_max {report['t_max']} != t_final {section['t_final']}")
    dim = _dim(problem)
    count, last = _read_csv(out_dir / "trajectory.csv", 2 + 2 * dim, keep_last_t=True)
    n = problem["grid"]["n"]
    _require(count % n == 0 and len(last) == n, "trajectory.csv has partial snapshots")
    linear = section.get("nonlinearity", {"kind": "none"})["kind"] == "none"
    if linear and "forcing" not in section and problem["operator"]["kind"] == "dense-matrix":
        return _expm_oracle(config, _complex_columns(last, dim))
    return []


def _check_elliptic(config, out_dir, expect) -> list:
    problem, section = config["problem"], config["solve-elliptic"]
    report = _load_json(out_dir / "iterations.json")
    _require(report["converged"], "picard iteration did not converge")
    if section.get("nonlinearity", {"kind": "none"})["kind"] == "none":
        _require(report["residual"] <= RESIDUAL_FLOOR,
                 f"discrete residual {report['residual']:.3g} > {RESIDUAL_FLOOR:g}")
    rows = (section["m"] + 2) * problem["grid"]["n"]
    count, _ = _read_csv(out_dir / "solution.csv", 2 + 2 * _dim(problem))
    _require(count == rows, f"solution.csv has {count} rows, want {rows}")
    return []


def _check_linear(config, out_dir, expect) -> list:
    problem = config["problem"]
    summary = _load_json(out_dir / "summary.json")
    f_sup = float(np.max(np.abs(_field_values(config["solve-linear"]["forcing"], problem))))
    _require(summary["residual_sup"] <= RESIDUAL_FLOOR * f_sup,
             f"residual_sup {summary['residual_sup']:.3g} > {RESIDUAL_FLOOR:g} max|f|")
    count, _ = _read_csv(out_dir / "solution.csv", 1 + 2 * _dim(problem))
    _require(count == problem["grid"]["n"], "solution.csv row count")
    return []


def _check_sweep(config, out_dir, expect) -> list:
    n_lambdas = len(config["lambda-sweep"]["lambdas"])
    summary = _load_json(out_dir / "summary.json")
    _require(summary["rows"] == n_lambdas, "sweep summary row count")
    _require(math.isfinite(summary["max_resolvent_value"]), "non-finite resolvent value")
    width = 2 + 2 * (config["problem"]["symbols"]["l"] + 1) + 4
    count, _ = _read_csv(out_dir / "sweep.csv", width)
    _require(count == n_lambdas, f"sweep.csv has {count} rows, want {n_lambdas}")
    return []


def _check_rbound(config, out_dir, expect) -> list:
    report = _load_json(out_dir / "rbound.json")
    # Singleton tuples at top singular vectors are always tested, so the
    # estimate can never fall below the largest single-operator norm.
    _require(report["value"] >= report["uniform_bound"] * (1.0 - 1e-12),
             f"R-bound {report['value']} below uniform bound {report['uniform_bound']}")
    return []


def _check_condition(config, out_dir, expect) -> list:
    report = _load_json(out_dir / "condition_report.json")
    _require(report["all_pass"], f"admissibility verdict {report['pass']}")
    return []


def _finite_nonnegative(values, what) -> list:
    bad = [k for k, v in values.items() if not (isinstance(v, (int, float)) and 0 <= v < math.inf)]
    return [f"{what} not finite and non-negative: {bad}"] if bad else []


def _check_mikhlin(config, out_dir, expect) -> list:
    return _finite_nonnegative(_load_json(out_dir / "mikhlin.json")["bounds"], "mikhlin bounds")


def _check_norms(config, out_dir, expect) -> list:
    return _finite_nonnegative(_load_json(out_dir / "norms.json")["norms"], "norms")


def _check_positivity(config, out_dir, expect) -> list:
    """m_bound vs max (1 + |z|) / min_j |lambda_j + z| over the PSL spectrum."""
    report = _load_json(out_dir / "positivity.json")
    op = config["operator"]
    n, b = op["n"], op["b"]
    eigs = b + 4.0 * n * n * np.sin(np.pi * np.arange(n) / n) ** 2
    z = np.array([complex(re, im) for re, im in report["samples"]])
    _require(z.size == 3 * config["n_moduli"], f"{z.size} samples, want {3 * config['n_moduli']}")
    expected = (1.0 + np.abs(z)) / np.min(np.abs(eigs[None, :] + z[:, None]), axis=1)
    gap = abs(report["m_bound"] - float(np.max(expected)))
    _require(gap <= POSITIVITY_REL_TOL * float(np.max(expected)),
             f"m_bound {report['m_bound']} vs analytic {float(np.max(expected))}")
    return []


CHECKS = {
    "solve-parabolic": _check_parabolic,
    "solve-elliptic": _check_elliptic,
    "solve-linear": _check_linear,
    "lambda-sweep": _check_sweep,
    "rbound": _check_rbound,
    "check-condition": _check_condition,
    "mikhlin": _check_mikhlin,
    "norms-report": _check_norms,
    "positivity-scan": _check_positivity,
}


def check_op(op, exit_code: int, stdout: str, out_dir: Path) -> list:
    """Problems with one operation's exit code, stdout and result files."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        if op.scenario != "positivity-scan":
            json.loads(stdout)
            manifest = _load_json(out_dir / MANIFEST)
            missing = [f for f in manifest["outputs"] if not (out_dir / f).is_file()]
            _require(not missing, f"manifest lists missing files {missing}")
        return CHECKS[op.scenario](op.config, out_dir, op.expect)
    except _Bad as exc:
        return [str(exc)]
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
