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
integral, and at the midpoint of the two half steps) and two forward and two
inverse transforms: the new state and the step-doubling difference go back
to samples in one stacked inverse call; an F of arity >= 1 gets its
x-derivatives from one ``x_multiply``.  F = 0 takes the same step, with F
evaluated as zeros.  ``solve_cauchy_linear`` always steps spectrally.
A semilinear run on a tiny state (N = n dim values with N^2 <=
``MATRIX_STEP_MAX_WORK``, as in the 8-point ``blowup-ode``) keeps it as
complex samples: its stepper builds the N x N dt and dt/2 flows once from the
spectral flow, and a step is one batched matmul and one matvec.  Both
steppers share the loop that halts, stores and reports.
Real u0, no forcing and F zero or an arity-0 real polynomial step float64
samples on the real rows of ``DiscretizedProblem.x_spectrum`` when it has them.
Semilinear runs halt early when the sup norm crosses the blow-up
threshold, the state loses finiteness or the step-doubling error estimate
exceeds its tolerance; the report keeps the last valid time and names the
reason.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional

import numpy as np

from .errors import BlowUpError, InvalidArgumentError
from .grids import Field, derivative_symbols, x_multiply
from .norms import lp_norm
from .solver import DiscretizedProblem, XSpectrum

DEFAULT_BLOWUP_THRESHOLD = 1e8
DEFAULT_STEP_TOL = 1e-3
# Largest N^2 for the sample-space semilinear step of N = n * dim values; per
# step, us, spectral vs one matrix: N = 8 6.1 vs 2.1, 64 10.2 vs 4.7.
MATRIX_STEP_MAX_WORK = 4096


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise nonlinearity F(u, u_x, ..., d^arity u/dx^arity).

    kind "pointwise-polynomial" evaluates ``terms`` = [(powers, coeff), ...]
    as sum of coeff * prod_i args[i]**powers[i]; "pointwise-closed-form"
    calls ``fn(args)`` directly, and ``fn`` must not modify its arguments
    (the semilinear solver passes its state array itself); "none" is the
    zero map, the polynomial with no terms.
    """

    kind: str = "none"
    arity: int = 0
    terms: tuple = ()
    fn: Optional[Callable] = None
    # zero, or a polynomial with real coefficients: real samples give real F
    real: bool = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("none", "pointwise-polynomial", "pointwise-closed-form"):
            raise InvalidArgumentError(f"unknown nonlinearity kind {self.kind!r}")
        if self.arity < 0:
            raise InvalidArgumentError("arity must be >= 0")
        if self.kind == "none" and self.terms:
            raise InvalidArgumentError("the zero nonlinearity takes no terms")
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
        object.__setattr__(self, "real", self.kind != "pointwise-closed-form"
                           and all(c.imag == 0 for _, c in self.terms))

    def evaluate(self, args):
        """args is a tuple of arity + 1 arrays of identical shape.  Zero or a real
        polynomial on float arrays gives float64, else complex."""
        if len(args) != self.arity + 1:
            raise InvalidArgumentError(f"expected {self.arity + 1} arguments")
        if self.kind == "pointwise-closed-form":
            return np.asarray(self.fn(*args), dtype=complex)
        # float powers are repeated products: ``**`` on floats calls libm
        # pow, about 80 times slower for a cube
        first = np.asarray(args[0])
        real = self.real and first.dtype.kind != "c" and not any(map(np.iscomplexobj, args[1:]))
        dtype = float if real else complex
        # coeff * factor first, then one new product per factor: numpy's
        # in-place complex product rounds differently on 1-element arrays
        out = np.zeros(first.shape, dtype=dtype)
        for powers, coeff in self.terms:
            term = coeff.real if real else coeff
            for arg, e in zip(args, powers):
                if e:
                    arg = np.asarray(arg, dtype=dtype)
                    term = term * (functools.reduce(np.multiply, [arg] * e) if real else arg**e)
            out += term
        return out

    def of_field(self, u: Field) -> np.ndarray:
        """Evaluate on a copy of u and its x-derivatives from one ``x_multiply``."""
        derivs = x_multiply(u.values, derivative_symbols(u.grid.xi, range(1, self.arity + 1)))
        return self.evaluate((u.values.copy(), *derivs))


class _Propagator:
    """Per-frequency exact linear flow over one fixed step dt, on spectral
    coefficients on the rows of ``spectrum``, an ``x_spectrum`` of ``problem``
    (``self.real``: the real ones).  ``_sample_flow`` builds a tiny state's flow from it."""

    def __init__(self, problem: DiscretizedProblem, dt: float, spectrum: XSpectrum):
        self.problem = problem
        self.dt = float(dt)
        self.spectrum = spectrum
        self.real = self.spectrum.real
        den, eta = self.spectrum.den, self.spectrum.eta
        self.diag = problem.operator.diagonalization()
        if self.diag is not None:
            fwd, inv, eigs = self.diag
            m = den[:, None] * (eigs[None, :] + eta[:, None])
            z = self.dt * m
            self.e_fac = np.exp(-z)
            small = np.abs(z) < 1e-6
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                series = self.dt * (1.0 - z / 2.0 + z * z / 6.0)
                exact = np.where(small, 1.0, (1.0 - self.e_fac) / np.where(small, 1.0, m))
            self.p_fac = np.where(small, series, exact)
            self.fwd, self.inv = fwd, inv
        else:
            # Fallback for a defective or ill-conditioned dense A: one batched
            # expm of the blocks [[-dt M_j, dt I], [0, 0]] over the frequencies.
            import scipy.linalg  # only this fallback uses it; kept out of start-up

            a = problem.operator.as_dense()
            d, eye = a.shape[0], np.eye(a.shape[0])
            blocks = np.zeros((len(den), 2 * d, 2 * d), dtype=complex)
            blocks[:, :d, :d] = -self.dt * (den[:, None, None] * (a + eta[:, None, None] * eye))
            blocks[:, :d, d:] = self.dt * eye
            exp_blocks = scipy.linalg.expm(blocks)
            self.e_mats = np.ascontiguousarray(exp_blocks[:, :d, :d])
            self.p_mats = np.ascontiguousarray(exp_blocks[:, :d, d:])

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """(n, dim) samples -> coefficients in x-Fourier modes and A's eigenbasis."""
        vh = self.spectrum.forward(values)
        return vh if self.diag is None else self.fwd(vh)

    def advance(self, w: np.ndarray, fw: Optional[np.ndarray] = None) -> np.ndarray:
        """Advance coefficients by dt; forcing coefficients ``fw`` held constant."""
        if self.diag is None:
            out = np.einsum("jab,...jb->...ja", self.e_mats, w)
            return out if fw is None else out + np.einsum("jab,...jb->...ja", self.p_mats, fw)
        return self.e_fac * w if fw is None else self.e_fac * w + self.p_fac * fw

    def from_spectral(self, w: np.ndarray) -> np.ndarray:
        """Inverse of ``to_spectral``; leading axes before (n, dim) stack
        coefficient arrays that share the one call.  The result is a new
        array, never a view of ``w``, which the semilinear loop reuses."""
        return self.spectrum.inverse(w if self.diag is None else self.inv(w))


def _sample_flow(prop: _Propagator) -> np.ndarray:
    """The N x N flow of ``prop`` on samples, row k the image of sample k."""
    eye = np.eye(prop.problem.grid.n * prop.problem.operator.dim, dtype=complex)
    basis = eye.reshape(len(eye), prop.problem.grid.n, prop.problem.operator.dim)
    return prop.from_spectral(prop.advance(prop.to_spectral(basis))).reshape(eye.shape)


@dataclass
class CauchyState:
    """Trajectory of a Cauchy run: stored snapshot times and fields."""

    problem: DiscretizedProblem
    times: List[float]
    snapshots: List[np.ndarray]
    real: bool = False  # float64 samples, stepped on the real x-spectrum

    @property
    def t(self) -> float:
        return self.times[-1]

    @property
    def final(self) -> Field:
        return Field(self.problem.grid, self.snapshots[-1])


@dataclass
class MaximalSolutionReport:
    """Continuation record of a semilinear run.

    ``blowup_indicator`` tracks the running maxima of the sup norm and the
    time-integrated L_p norm of F(u); both are non-decreasing along the run.
    ``halt_reason`` is "threshold", "step_tol" or "non_finite" for an early
    stop and None for a completed run; ``last_error_estimate`` is the relative
    step-doubling estimate of the last step tried (None when no step ran).
    """

    completed: bool
    t_max: float
    final_norms: dict
    blowup_indicator: dict = dc_field(default_factory=dict)
    halt_reason: Optional[str] = None
    last_error_estimate: Optional[float] = None


def step_count(t_final: float, dt: float) -> int:
    """Number of dt steps from 0 to t_final, which must be a multiple of dt."""
    if not (dt > 0 and t_final > 0):
        raise InvalidArgumentError("dt and t_final must be positive")
    ratio = t_final / dt
    if not math.isfinite(ratio):
        raise InvalidArgumentError("t_final / dt overflows a float")
    n_steps = int(round(ratio))
    if n_steps > 2**53:
        raise InvalidArgumentError(f"t_final / dt = {ratio:g} steps: past 2**53 the times k dt repeat")
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise InvalidArgumentError("t_final must be an integer multiple of dt")
    return n_steps


def _sup_norm(values) -> float:
    return float(np.maximum.reduce(np.abs(values), axis=None)) if values.size else 0.0


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
    real = forcing is None and not np.any(u0.values.imag)
    prop = _Propagator(problem, dt, problem.x_spectrum(real))
    values = u0.values.real.copy() if prop.real else u0.values.copy()
    w = prop.to_spectral(values)
    times, snaps = [0.0], [values]
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
    return CauchyState(problem, times, snaps, prop.real)


class _FIntegral:
    """Running integral of ||F(u)||_p^p over accepted steps.  F(u) rows wait
    in a buffer of max(1, MATRIX_STEP_MAX_WORK // N) rows, and each full block
    is reduced as ``lp_norm`` reduces a step (``np.linalg.norm``, then the
    powers summed), so the bits are those of one ``lp_norm`` per step."""

    def __init__(self, values: np.ndarray, dt: float, h: float, p: float):
        rows = max(1, MATRIX_STEP_MAX_WORK // values.size)
        self.buf, self.rows, self.total = np.empty((rows,) + values.shape, values.dtype), 0, 0.0
        self.dt, self.h, self.p = dt, h, p

    def add(self, f: np.ndarray):
        self.buf[self.rows] = f
        self.rows += 1
        if self.rows == len(self.buf):
            self.flush()

    def flush(self) -> float:
        block, dt, h, p = self.buf[: self.rows], self.dt, self.h, self.p
        mags = np.linalg.norm(block, axis=-1)
        for s in np.add.reduce(mags**p, axis=-1).tolist():
            self.total += dt * ((h * s) ** (1.0 / p)) ** p
        self.rows = 0
        return self.total


def _spectral_steps(prop: _Propagator, half: _Propagator, nonlinear, values, dt: float):
    """Steps in spectral coefficients.  Yields F(u) and the samples of the
    stacked (u_new, u_double - u_new); resuming accepts u_new."""
    w = prop.to_spectral(values)
    pair = np.empty((2,) + w.shape, dtype=complex)  # brought back in one call
    while True:
        f_now = nonlinear(values)
        fw = prop.to_spectral(f_now)
        w_new = prop.advance(w + dt * fw)
        w_mid = half.advance(w + (dt / 2.0) * fw)
        f_mid = nonlinear(prop.from_spectral(w_mid))
        w_double = half.advance(w_mid + (dt / 2.0) * prop.to_spectral(f_mid))
        pair[0] = w_new
        np.subtract(w_double, w_new, out=pair[1])
        samples = prop.from_spectral(pair)
        yield f_now, samples
        values, w = samples[0], w_new


def _sample_steps(prop: _Propagator, half: _Propagator, nonlinear, values, dt: float):
    """``_spectral_steps`` for a tiny state kept as samples: the dt and dt/2
    flows from u are one batched matmul (a gemv per row), the second half
    step one matvec."""
    size = values.size
    half_flow = _sample_flow(half)
    flows = np.stack([_sample_flow(prop), half_flow])
    # complex, as dt itself becomes against F(u), so the products keep their bits
    scale = np.array([dt, dt / 2.0], dtype=complex).reshape(2, 1, 1)
    # rows 0, u_new, u_mid then u_double: rows[1:] - rows[:2] is the pair
    rows = np.zeros((3,) + values.shape, dtype=complex)
    starts = np.empty((2,) + values.shape, dtype=complex)
    flat_rows, flat_starts = rows.reshape(3, 1, size), starts.reshape(2, 1, size)
    new_double, zero_new, mid, start2 = rows[1:], rows[:2], rows[2], starts[1]
    flat_new_mid, flat_mid, flat_start2 = flat_rows[1:], flat_rows[2], flat_starts[1]
    while True:
        f_now = nonlinear(values)
        np.add(values, np.multiply(scale, f_now, out=starts), out=starts)
        np.matmul(flat_starts, flows, out=flat_new_mid)
        f_mid = nonlinear(mid)
        np.add(mid, np.multiply(dt / 2.0, f_mid, out=start2), out=start2)
        np.matmul(flat_start2, half_flow, out=flat_mid)
        samples = np.subtract(new_double, zero_new)
        yield f_now, samples
        values = samples[0]


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
    tiny = u0.values.size ** 2 <= MATRIX_STEP_MAX_WORK
    real = nonlinearity.real and nonlinearity.arity == 0 and not np.any(u0.values.imag)
    prop = _Propagator(problem, dt, problem.x_spectrum(real and not tiny))
    half = _Propagator(problem, dt / 2.0, prop.spectrum)  # den and eta sampled once

    values = u0.values.real.copy() if prop.real else u0.values.copy()
    times, snaps = [0.0], [values.copy()]
    t = 0.0
    sup_max = _sup_norm(values)
    f_int = _FIntegral(values, dt, problem.grid.h, problem.p)
    halt_reason, err = None, None
    if nonlinearity.arity == 0:
        nonlinear = lambda u: nonlinearity.evaluate((u,))
    else:
        nonlinear = lambda u: nonlinearity.of_field(Field(problem.grid, u))
    steps = (_sample_steps if tiny else _spectral_steps)(prop, half, nonlinear, values, dt)
    for step, (f_now, samples) in zip(range(n_steps), steps):
        # both sup norms in one abs and one reduce; max is exact, so the bits
        # are _sup_norm's
        sups = np.maximum.reduce(np.abs(samples), axis=(1, 2)).tolist()
        sup_new = sups[0]
        err = sups[1] / max(1.0, sup_new)
        if not (math.isfinite(sup_new) and math.isfinite(err)):
            halt_reason = "non_finite"
        elif sup_new > blowup_threshold:
            halt_reason = "threshold"
        elif err > step_tol:
            halt_reason = "step_tol"
        if halt_reason is not None:
            break
        f_int.add(f_now)
        values = samples[0]
        t = (step + 1) * dt
        sup_max = max(sup_max, sup_new)
        if store_every and (step + 1) % store_every == 0 and step + 1 < n_steps:
            times.append(t)
            snaps.append(values.copy())  # values views the step's stacked output
    if times[-1] != t:
        times.append(t)
        snaps.append(values.copy())
    state = CauchyState(problem, times, snaps, prop.real)
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
            "nonlinearity_lp_time": f_int.flush() ** (1.0 / problem.p),
        },
        halt_reason=halt_reason,
        last_error_estimate=err,
    )
    return state, report
