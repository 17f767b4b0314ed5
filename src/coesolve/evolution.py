"""Time stepping for the parabolic problem u_t + L u = f or F(u).

The linear flow is exact per step: after FFT in x the system decouples into
per-frequency matrix ODEs with matrix M_j = (mu_hat + nu)(A + eta(xi_j)).
A commutes with eta(xi_j) I, so all frequencies share the eigenbasis of A and
the flow is a scalar exponential per eigenvalue; a dense A without a
well-conditioned eigenbasis falls back to one matrix exponential per frequency.
The state lives in spectral coefficients (x-Fourier modes in the eigenbasis
of A, or in the standard basis on the fallback) from one step to the next;
samples in x are formed only where they are read: stored snapshots, and in
semilinear runs F(u) and the halting monitors.
Forcing is treated piecewise-constant per step (left endpoint).  Nonlinear
terms use first-order exponential Lie splitting: an explicit Euler substep
for F followed by the exact linear flow, with F evaluated twice per accepted
step (at u, shared by the full step, the first half step and the F(u)
integral, and at the midpoint of the two half steps).  Semilinear runs halt
early when the sup norm crosses the blow-up threshold, the state loses
finiteness or the step-doubling error estimate exceeds its tolerance; the
report keeps the last valid time and names the reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional

import numpy as np
import scipy.linalg

from .errors import BlowUpError, InvalidArgumentError
from .grids import Field, spectral_derivative
from .norms import lp_norm
from .output import field_table, write_csv
from .solver import DiscretizedProblem

DEFAULT_BLOWUP_THRESHOLD = 1e8
DEFAULT_STEP_TOL = 1e-3


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise nonlinearity F(u, u_x, ..., d^arity u/dx^arity).

    kind "pointwise-polynomial" evaluates ``terms`` = [(powers, coeff), ...]
    as sum of coeff * prod_i args[i]**powers[i]; "pointwise-closed-form"
    calls ``fn(args)`` directly; "none" is the zero map.
    """

    kind: str = "none"
    arity: int = 0
    terms: tuple = ()
    fn: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("none", "pointwise-polynomial", "pointwise-closed-form"):
            raise InvalidArgumentError(f"unknown nonlinearity kind {self.kind!r}")
        if self.arity < 0:
            raise InvalidArgumentError("arity must be >= 0")
        if self.kind == "pointwise-polynomial":
            terms = tuple(
                (tuple(int(e) for e in powers), complex(c)) for powers, c in self.terms
            )
            for powers, _ in terms:
                if len(powers) != self.arity + 1:
                    raise InvalidArgumentError(
                        "each power tuple must list arity + 1 exponents"
                    )
            object.__setattr__(self, "terms", terms)
        if self.kind == "pointwise-closed-form" and self.fn is None:
            raise InvalidArgumentError("closed-form nonlinearity needs fn")

    @property
    def is_zero(self) -> bool:
        return self.kind == "none"

    def evaluate(self, args):
        """args is a tuple of arity + 1 arrays of identical shape."""
        if len(args) != self.arity + 1:
            raise InvalidArgumentError(f"expected {self.arity + 1} arguments")
        if self.kind == "none":
            return np.zeros_like(np.asarray(args[0], dtype=complex))
        if self.kind == "pointwise-closed-form":
            return np.asarray(self.fn(*args), dtype=complex)
        out = np.zeros_like(np.asarray(args[0], dtype=complex))
        for powers, coeff in self.terms:
            term = np.full(out.shape, coeff, dtype=complex)
            for arg, e in zip(args, powers):
                if e:
                    term = term * np.asarray(arg, dtype=complex) ** e
            out += term
        return out

    def lipschitz_probe(self, radius: float, samples: int = 200, seed: int = 0) -> float:
        """Numeric Lipschitz estimate over random argument pairs in a ball."""
        if self.is_zero:
            return 0.0
        rng = np.random.default_rng(seed)
        best = 0.0
        for _ in range(samples):
            a = [radius * (2 * rng.random(4) - 1) for _ in range(self.arity + 1)]
            b = [radius * (2 * rng.random(4) - 1) for _ in range(self.arity + 1)]
            gap = math.sqrt(sum(float(np.sum((x - y) ** 2)) for x, y in zip(a, b)))
            if gap < 1e-12:
                continue
            diff = self.evaluate(tuple(a)) - self.evaluate(tuple(b))
            best = max(best, float(np.linalg.norm(diff)) / gap)
        return best

    def of_field(self, u: Field) -> np.ndarray:
        """Evaluate on a field, feeding spectral x-derivatives as arguments."""
        args = tuple(spectral_derivative(u, k).values for k in range(self.arity + 1))
        return self.evaluate(args)


class _Propagator:
    """Per-frequency exact linear flow over one fixed step dt."""

    def __init__(self, problem: DiscretizedProblem, dt: float):
        self.problem = problem
        self.dt = float(dt)
        den = problem.denominator_on_grid()
        eta = problem.eta_on_grid()
        diag = problem.operator.diagonalization()
        self.diag = diag
        if diag is not None:
            fwd, inv, eigs = diag
            m = den[:, None] * (eigs[None, :] + eta[:, None])
            z = self.dt * m
            self.e_fac = np.exp(-z)
            small = np.abs(z) < 1e-6
            series = self.dt * (1.0 - z / 2.0 + z * z / 6.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                exact = np.where(small, 1.0, (1.0 - self.e_fac) / np.where(small, 1.0, m))
            self.p_fac = np.where(small, series, exact)
            self.fwd, self.inv = fwd, inv
        else:
            # Fallback for a defective or ill-conditioned dense A.
            a = problem.operator.as_dense()
            d = a.shape[0]
            n = problem.grid.n
            self.e_mats = np.empty((n, d, d), dtype=complex)
            self.p_mats = np.empty((n, d, d), dtype=complex)
            eye = np.eye(d)
            zero = np.zeros((d, d))
            for j in range(n):
                m = den[j] * (a + eta[j] * eye)
                block = np.block([[-self.dt * m, self.dt * eye], [zero, zero]])
                exp_block = scipy.linalg.expm(block)
                self.e_mats[j] = exp_block[:d, :d]
                self.p_mats[j] = exp_block[:d, d:]

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """(n, dim) samples -> coefficients in x-Fourier modes and A's eigenbasis."""
        vh = np.fft.fft(values, axis=0)
        return vh if self.diag is None else self.fwd(vh)

    def advance(self, w: np.ndarray, fw: Optional[np.ndarray] = None) -> np.ndarray:
        """Advance coefficients by dt; forcing coefficients ``fw`` held constant."""
        if self.diag is None:
            out = np.einsum("jab,jb->ja", self.e_mats, w)
            return out if fw is None else out + np.einsum("jab,jb->ja", self.p_mats, fw)
        return self.e_fac * w if fw is None else self.e_fac * w + self.p_fac * fw

    def from_spectral(self, w: np.ndarray) -> np.ndarray:
        """Inverse of ``to_spectral``."""
        return np.fft.ifft(w if self.diag is None else self.inv(w), axis=0)


@dataclass
class CauchyState:
    """Trajectory of a Cauchy run: stored snapshot times and fields."""

    problem: DiscretizedProblem
    times: List[float]
    snapshots: List[np.ndarray]

    @property
    def t(self) -> float:
        return self.times[-1]

    @property
    def final(self) -> Field:
        return Field(self.problem.grid, self.snapshots[-1])

    def to_csv(self, path):
        """Rows (t, x, re/im per component) for every stored snapshot."""
        write_csv(path, *field_table(self.problem.grid.x, np.stack(self.snapshots), self.times))


@dataclass
class MaximalSolutionReport:
    """Continuation record of a semilinear run.

    ``blowup_indicator`` tracks the running maxima of the sup norm and the
    time-integrated L_p norm of F(u); both are non-decreasing along the run.
    ``halt_reason`` is "threshold", "step_tol" or "non_finite" for an early
    stop and None for a completed run; ``last_error_estimate`` is the relative
    step-doubling estimate of the last step tried (None when F = 0).
    """

    completed: bool
    t_max: float
    final_norms: dict
    blowup_indicator: dict = dc_field(default_factory=dict)
    halt_reason: Optional[str] = None
    last_error_estimate: Optional[float] = None

    def to_dict(self):
        return {
            "completed": self.completed,
            "t_max": self.t_max,
            "final_norms": self.final_norms,
            "blowup_indicator": self.blowup_indicator,
            "halt_reason": self.halt_reason,
            "last_error_estimate": self.last_error_estimate,
        }


def step_count(t_final: float, dt: float) -> int:
    """Number of dt steps from 0 to t_final, which must be a multiple of dt."""
    if not (dt > 0 and t_final > 0):
        raise InvalidArgumentError("dt and t_final must be positive")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise InvalidArgumentError("t_final must be an integer multiple of dt")
    return n_steps


def _sup_norm(values) -> float:
    return float(np.max(np.abs(values))) if values.size else 0.0


def solve_cauchy_linear(
    problem: DiscretizedProblem,
    u0: Field,
    forcing: Optional[Callable[[float], np.ndarray]] = None,
    t_final: float = 1.0,
    dt: float = 1e-2,
    store_every: int = 0,
) -> CauchyState:
    """March u_t + L u = f(t) from u0 to t_final with exact linear steps.

    ``forcing`` maps t to (n, dim) samples (or None for f = 0); it is
    sampled at the left endpoint of each step.  ``store_every`` keeps every
    k-th snapshot (0 stores only endpoints).
    """
    problem.require_checked()
    problem.validate_field(u0)
    n_steps = step_count(t_final, dt)
    prop = _Propagator(problem, dt)
    w = prop.to_spectral(u0.values)
    times, snaps = [0.0], [u0.values.copy()]
    t = 0.0
    for step in range(n_steps):
        fw = prop.to_spectral(forcing(t)) if forcing is not None else None
        w = prop.advance(w, fw)
        if not np.all(np.isfinite(w)):
            raise BlowUpError(f"linear evolution lost finiteness at t = {t + dt:g}")
        t = (step + 1) * dt
        if step + 1 == n_steps or (store_every and (step + 1) % store_every == 0):
            values = prop.from_spectral(w)
            if not np.all(np.isfinite(values)):
                raise BlowUpError(f"linear evolution lost finiteness at t = {t:g}")
            times.append(t)
            snaps.append(values)
    return CauchyState(problem=problem, times=times, snapshots=snaps)


def solve_cauchy_semilinear(
    problem: DiscretizedProblem,
    u0: Field,
    nonlinearity: Nonlinearity,
    t_final: float = 1.0,
    dt: float = 1e-2,
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
    step_tol: float = DEFAULT_STEP_TOL,
    store_every: int = 0,
):
    """March u_t + L u = F(u) with Lie splitting and step-doubling control.

    Halts early (completed=False) when the sup norm exceeds
    ``blowup_threshold``, the state loses finiteness, or the relative
    step-doubling error estimate exceeds ``step_tol``; t_max is the last
    accepted time and the report's ``halt_reason`` names the test that
    fired.  The default step_tol 1e-3 is part of the blow-up detection
    contract: threshold-only halting lags first-order splitting past the
    true blow-up time.

    Returns (CauchyState, MaximalSolutionReport).
    """
    problem.require_checked()
    problem.validate_field(u0)
    n_steps = step_count(t_final, dt)
    prop = _Propagator(problem, dt)
    half = None if nonlinearity.is_zero else _Propagator(problem, dt / 2.0)

    values = u0.values.copy()
    w = prop.to_spectral(values)
    times, snaps = [0.0], [values.copy()]
    t = 0.0
    sup_max = _sup_norm(values)
    f_acc = 0.0  # running integral of ||F(u)||_p^p
    halt_reason, err = None, None
    for step in range(n_steps):
        if nonlinearity.is_zero:
            w_new = prop.advance(w)
            if not np.all(np.isfinite(w_new)):
                raise BlowUpError(f"linear evolution lost finiteness at t = {t + dt:g}")
            new = prop.from_spectral(w_new)
        else:
            f_now = nonlinearity.of_field(Field(problem.grid, values))
            fw = prop.to_spectral(f_now)
            w_new = prop.advance(w + dt * fw)
            w_mid = half.advance(w + (dt / 2.0) * fw)
            f_mid = nonlinearity.of_field(Field(problem.grid, prop.from_spectral(w_mid)))
            w_double = half.advance(w_mid + (dt / 2.0) * prop.to_spectral(f_mid))
            new = prop.from_spectral(w_new)
            sup_new = _sup_norm(new)
            err = _sup_norm(prop.from_spectral(w_double - w_new)) / max(1.0, sup_new)
            if not (math.isfinite(sup_new) and math.isfinite(err)):
                halt_reason = "non_finite"
            elif sup_new > blowup_threshold:
                halt_reason = "threshold"
            elif err > step_tol:
                halt_reason = "step_tol"
            if halt_reason is not None:
                break
            f_acc += dt * lp_norm(Field(problem.grid, f_now), problem.p) ** problem.p
        values, w = new, w_new
        t = (step + 1) * dt
        sup_max = max(sup_max, _sup_norm(values))
        if store_every and (step + 1) % store_every == 0 and step + 1 < n_steps:
            times.append(t)
            snaps.append(values)
    if times[-1] != t:
        times.append(t)
        snaps.append(values)
    state = CauchyState(problem=problem, times=times, snapshots=snaps)
    final = Field(problem.grid, values)
    report = MaximalSolutionReport(
        completed=halt_reason is None,
        t_max=t,
        final_norms={
            "u_lp": lp_norm(final, problem.p),
            "u_sup": _sup_norm(values),
        },
        blowup_indicator={
            "u_sup_max": sup_max,
            "nonlinearity_lp_time": f_acc ** (1.0 / problem.p),
        },
        halt_reason=halt_reason,
        last_error_estimate=err,
    )
    return state, report
