"""Cauchy-problem marching: exact linear flow per frequency, semigroup and
equilibrium identities, semilinear splitting, and blow-up detection."""

import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from coesolve import (
    DiscretizedProblem,
    Field,
    Grid,
    Kernel,
    Nonlinearity,
    SymbolSet,
    lp_norm,
    solve_cauchy_linear,
    solve_cauchy_semilinear,
    solve_linear,
)
from coesolve import evolution, grids, solver
from coesolve.errors import BlowUpError, InvalidArgumentError
from coesolve.evolution import (
    DEFAULT_STEP_TOL,
    MaximalSolutionReport,
    _Propagator,
    step_count,
)
from coesolve.grids import band_limited_random, on_grid, spectral_derivative
from coesolve.operators import (
    DenseMatrixOperator,
    DirichletLaplacian2D,
    PeriodicSturmLiouvilleOperator,
)


def scalar_problem(c=1.0, half_width=np.pi * 16.0, n=64):
    sym = SymbolSet(l=0, b=(1.0,), nu=1.0)
    op = DenseMatrixOperator(np.array([[c]]))
    prob = DiscretizedProblem(sym, op, Grid(half_width=half_width, n=n), p=2.0)
    prob.check_condition()
    return prob


def convolution_problem(n=256):
    sym = SymbolSet(
        l=2,
        b=(0.0, 0.0, -1.0),
        a_kernels={2: Kernel("exponential-paper", rate=1.0)},
        nu=1.0,
    )
    op = DenseMatrixOperator(np.diag([1.0, 2.0]))
    prob = DiscretizedProblem(sym, op, Grid(half_width=16.0, n=n), p=2.0)
    prob.check_condition()
    return prob


def square_nonlinearity():
    return Nonlinearity(kind="pointwise-polynomial", arity=0, terms=(((2,), 1.0),))


# ---------------------------------------------------------------------------
# linear flow
# ---------------------------------------------------------------------------


def test_scalar_mode_decays_at_the_symbol_rate():
    # u_t + (1 + A) u = 0 with A = 1: cos decays like exp(-2t)
    prob = scalar_problem()
    u0 = Field.from_function(prob.grid, np.cos)
    state = solve_cauchy_linear(prob, u0, t_final=0.5, dt=0.01)
    expected = np.exp(-1.0) * np.cos(prob.grid.x)
    assert np.allclose(state.final.values[:, 0], expected, atol=1e-12)


def test_linear_flow_matches_matrix_exponential_oracle():
    """One-shot exp(-T M_j) per frequency against the marched flow."""
    prob = convolution_problem()
    u0 = Field.from_function(
        prob.grid, lambda x: np.exp(-(x**2) / 4.0), weights=(1.0, 0.5)
    )
    state = solve_cauchy_linear(prob, u0, t_final=1.0, dt=0.01)

    den = prob.denominator_on_grid()
    eta = prob.eta_on_grid()
    a = prob.operator.as_dense()
    u0h = np.fft.fft(u0.values, axis=0)
    uth = np.empty_like(u0h)
    for j in range(prob.grid.n):
        m = den[j] * (a + eta[j] * np.eye(2))
        uth[j] = scipy.linalg.expm(-m) @ u0h[j]
    oracle = np.fft.ifft(uth, axis=0)
    assert np.max(np.abs(state.final.values - oracle)) < 1e-6
    assert np.max(np.abs(state.final.values - oracle)) < 1e-10


def test_diagonalized_and_dense_propagators_agree(monkeypatch):
    """The structured FFT path, the dense eigenbasis path and the dense
    per-frequency expm fallback integrate the same flow."""
    n_op = 6
    sl = PeriodicSturmLiouvilleOperator(b=1.0, n=n_op)
    dense = DenseMatrixOperator(sl.as_dense())
    fallback = DenseMatrixOperator(sl.as_dense())
    monkeypatch.setattr(fallback, "diagonalization", lambda: None)
    sym = SymbolSet(l=2, b=(0.0, 0.0, -1.0), nu=1.0)
    grid = Grid(half_width=8.0, n=32)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((32, n_op)) + 1j * rng.standard_normal((32, n_op))
    forcing = rng.standard_normal((32, n_op)) + 1j * rng.standard_normal((32, n_op))

    finals = []
    for op in (sl, dense, fallback):
        prob = DiscretizedProblem(sym, op, grid, p=2.0)
        prob.check_condition()
        state = solve_cauchy_linear(
            prob, Field(grid, vals), forcing=lambda t: forcing, t_final=0.3, dt=0.01
        )
        finals.append(state.final.values)
    assert dense.diagonalization() is not None
    for other in finals[1:]:
        assert np.max(np.abs(finals[0] - other)) < 1e-10


# Non-normal, eigenvalues 1, 2, 3: a well-conditioned but non-orthogonal basis.
_NON_NORMAL = np.array([[1.0, 0.5, 0.2], [0.0, 2.0, 0.7], [0.0, 0.0, 3.0]])


def _operator(kind):
    if kind == "psl":
        return PeriodicSturmLiouvilleOperator(b=1.0, n=4)
    if kind == "laplacian":
        return DirichletLaplacian2D(n_y=2, n_z=3, c=0.5)
    op = DenseMatrixOperator(_NON_NORMAL)
    if kind == "fallback":
        op.diagonalization = lambda: None
    return op


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["psl", "laplacian", "dense", "fallback"]),
    n_steps=st.integers(1, 12),
    store_every=st.integers(0, 5),
    dt=st.sampled_from([0.003, 0.01, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_stepping_matches_per_step_round_trips(kind, n_steps, store_every, dt, seed):
    """Coefficients kept between steps give the same snapshots as
    transforming to samples in x and back on every step."""
    op = _operator(kind)
    assert (op.diagonalization() is None) == (kind == "fallback")
    sym = SymbolSet(
        l=2, b=(0.5, 0.0, -1.0), a_kernels={2: Kernel("exponential-paper", rate=1.0)}, nu=1.0
    )
    grid = Grid(half_width=4.0, n=16)
    prob = DiscretizedProblem(sym, op, grid, p=2.0)
    prob.check_condition()
    rng = np.random.default_rng(seed)
    shape = (grid.n, op.dim)
    u0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f0, f1 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))

    def forcing(t):
        return np.cos(3.0 * t) * f0 + t * f1

    state = solve_cauchy_linear(
        prob, Field(grid, u0), forcing=forcing, t_final=n_steps * dt, dt=dt,
        store_every=store_every,
    )
    prop = _Propagator(prob, dt, prob.x_spectrum())
    values, expected = u0, [u0]
    for k in range(1, n_steps + 1):
        w = prop.advance(prop.to_spectral(values), prop.to_spectral(forcing((k - 1) * dt)))
        values = prop.from_spectral(w)
        if k == n_steps or (store_every and k % store_every == 0):
            expected.append(values)
    assert len(state.snapshots) == len(expected)
    for got, ref in zip(state.snapshots, expected):
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_non_finite_forcing_names_the_step_it_entered():
    prob = convolution_problem(n=32)
    u0 = Field.from_function(prob.grid, lambda x: np.exp(-(x**2)), weights=(1.0, 1.0))
    dt, k = 0.01, 7

    def forcing(t):
        # sampled at the left endpoint (k - 1) dt of step k
        return np.full((32, 2), np.nan if t > (k - 1.5) * dt else 0.0)

    with pytest.raises(BlowUpError, match=r"at t = 0\.07$"):
        solve_cauchy_linear(prob, u0, forcing=forcing, t_final=0.2, dt=dt)


def test_semigroup_property():
    prob = convolution_problem(n=64)
    u0 = Field.from_function(prob.grid, lambda x: np.exp(-(x**2)), weights=(1.0, 1.0))
    first = solve_cauchy_linear(prob, u0, t_final=0.3, dt=0.01)
    second = solve_cauchy_linear(prob, first.final, t_final=0.4, dt=0.01)
    direct = solve_cauchy_linear(prob, u0, t_final=0.7, dt=0.01)
    assert np.max(np.abs(second.final.values - direct.final.values)) < 1e-11


def test_equilibrium_is_preserved_under_constant_forcing():
    # u0 = L^{-1} f is a fixed point of u_t + L u = f
    prob = convolution_problem(n=64)
    f = Field.from_function(prob.grid, lambda x: np.exp(-(x**2)), weights=(1.0, 0.5))
    u0 = solve_linear(prob, f, 0.0)
    state = solve_cauchy_linear(
        prob, u0, forcing=lambda t: f.values, t_final=0.5, dt=0.01
    )
    assert np.max(np.abs(state.final.values - u0.values)) < 1e-12


def test_linear_flow_is_dissipative_without_forcing():
    prob = convolution_problem(n=64)
    u0 = Field.from_function(prob.grid, lambda x: np.exp(-(x**2)), weights=(1.0, 1.0))
    state = solve_cauchy_linear(prob, u0, t_final=1.0, dt=0.05, store_every=1)
    norms = [lp_norm(Field(prob.grid, s), 2.0) for s in state.snapshots]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_snapshot_bookkeeping():
    prob = scalar_problem(n=32)
    u0 = Field.from_function(prob.grid, np.cos)
    state = solve_cauchy_linear(prob, u0, t_final=1.0, dt=0.01, store_every=10)
    # initial + steps 10..90 + final
    assert len(state.times) == 11
    assert state.times[0] == 0.0
    assert state.times[-1] == pytest.approx(1.0)
    assert state.t == state.times[-1]


def test_t_final_must_be_a_step_multiple():
    prob = scalar_problem(n=32)
    u0 = Field.from_function(prob.grid, np.cos)
    with pytest.raises(InvalidArgumentError):
        solve_cauchy_linear(prob, u0, t_final=0.25, dt=0.1)
    with pytest.raises(InvalidArgumentError):
        solve_cauchy_linear(prob, u0, t_final=1.0, dt=-0.1)
    # the semilinear solver takes the same rule instead of rounding the step count
    with pytest.raises(InvalidArgumentError, match="multiple"):
        solve_cauchy_semilinear(prob, u0, square_nonlinearity(), t_final=0.505, dt=0.01)


# ---------------------------------------------------------------------------
# semilinear marching
# ---------------------------------------------------------------------------


def test_zero_nonlinearity_reduces_to_linear_flow():
    prob = convolution_problem(n=64)
    u0 = Field.from_function(prob.grid, lambda x: np.exp(-(x**2)), weights=(1.0, 1.0))
    linear = solve_cauchy_linear(prob, u0, t_final=0.5, dt=0.01)
    state, report = solve_cauchy_semilinear(
        prob, u0, Nonlinearity(kind="none"), t_final=0.5, dt=0.01
    )
    assert report.completed
    assert report.t_max == pytest.approx(0.5)
    assert np.max(np.abs(state.final.values - linear.final.values)) < 1e-15
    # F = 0 takes the general step, step-doubling monitor included
    assert 0.0 <= report.last_error_estimate < 1e-12


def test_zero_nonlinearity_keeps_the_dtype_of_its_samples():
    nl = Nonlinearity(kind="none")
    for dtype in (np.float64, np.complex128):
        out = nl.evaluate((np.ones((4, 2), dtype=dtype),))
        assert out.dtype == dtype and not np.any(out)
    with pytest.raises(InvalidArgumentError, match="no terms"):
        Nonlinearity(kind="none", terms=(((1,), 1.0),))


def test_splitting_error_shrinks_at_first_order():
    """Lie splitting is first order: halving dt should cut the final-time
    error by roughly half (ratio safely inside [1.5, 4.5])."""
    prob = scalar_problem(n=32)
    u0 = Field.from_function(prob.grid, lambda x: 0.1 * np.cos(x))
    nl = square_nonlinearity()

    def final_at(dt):
        state, report = solve_cauchy_semilinear(prob, u0, nl, t_final=0.5, dt=dt)
        assert report.completed
        return state.final.values

    ref = final_at(1.0 / 512.0)
    err_coarse = np.max(np.abs(final_at(1.0 / 32.0) - ref))
    err_fine = np.max(np.abs(final_at(1.0 / 64.0) - ref))
    assert 1.5 <= err_coarse / err_fine <= 4.5


def test_blowup_is_detected_in_the_expected_window():
    """For u_t = u^2 + (tiny linear part), u0 = 1, the exact blow-up time is
    1; the step-doubling monitor must stop inside [0.9, 1.0]."""
    sym = SymbolSet(l=2, b=(0.0, 0.0, -1.0), nu=1.0)
    op = DenseMatrixOperator(np.array([[1e-12]]))
    prob = DiscretizedProblem(sym, op, Grid(half_width=4.0, n=8), p=2.0)
    prob.check_condition()
    u0 = Field.from_function(prob.grid, lambda x: np.ones_like(x))
    state, report = solve_cauchy_semilinear(
        prob,
        u0,
        square_nonlinearity(),
        t_final=1.2,
        dt=1e-4,
        blowup_threshold=1e8,
        step_tol=1e-3,
    )
    assert not report.completed
    assert 0.9 <= report.t_max <= 1.0
    assert report.blowup_indicator["u_sup_max"] >= 100.0
    assert report.blowup_indicator["nonlinearity_lp_time"] > 0.0
    assert state.t == pytest.approx(report.t_max)
    assert report.halt_reason == "step_tol"
    assert report.last_error_estimate > 1e-3
    assert asdict(report)["halt_reason"] == "step_tol"


@pytest.mark.parametrize("fn, reason", [
    (lambda u: u * u, "threshold"),
    (lambda u: np.where(np.abs(u) > 1.5, np.nan, u * u), "non_finite"),
])
def test_halt_reason_names_the_test_that_fired(fn, reason):
    """u_t = u^2 again; with the error monitor off, the threshold or a
    non-finite F stops the run."""
    sym = SymbolSet(l=2, b=(0.0, 0.0, -1.0), nu=1.0)
    prob = DiscretizedProblem(
        sym, DenseMatrixOperator(np.array([[1e-12]])), Grid(half_width=4.0, n=8), p=2.0
    )
    prob.check_condition()
    u0 = Field.from_function(prob.grid, lambda x: np.ones_like(x))
    nl = Nonlinearity(kind="pointwise-closed-form", arity=0, fn=fn)
    state, report = solve_cauchy_semilinear(
        prob, u0, nl, t_final=1.2, dt=1e-3, blowup_threshold=1e8, step_tol=math.inf
    )
    assert not report.completed
    assert report.halt_reason == reason
    assert np.all(np.isfinite(state.final.values))
    assert report.final_norms["u_sup"] <= 1e8


def test_damped_semilinear_run_completes_and_decays():
    prob = convolution_problem(n=64)
    u0 = Field.from_function(
        prob.grid, lambda x: 0.1 * np.exp(-(x**2)), weights=(1.0, 1.0)
    )
    cubic = Nonlinearity(kind="pointwise-polynomial", arity=0, terms=(((3,), -1.0),))
    state, report = solve_cauchy_semilinear(prob, u0, cubic, t_final=1.0, dt=0.01)
    assert report.completed
    assert report.t_max == pytest.approx(1.0)
    assert report.final_norms["u_sup"] <= 0.1
    assert report.blowup_indicator["u_sup_max"] <= 0.1 + 1e-9
    assert report.halt_reason is None
    assert 0.0 < report.last_error_estimate <= DEFAULT_STEP_TOL
    assert asdict(report)["halt_reason"] is None


def test_semilinear_step_evaluates_the_nonlinearity_twice():
    """F at u serves the full step, the first half step and the F(u)
    integral; the second evaluation is at the midpoint of the half steps."""
    calls = []

    def damped_cubic(u):
        calls.append(1)
        return -(u**3)

    prob = convolution_problem(n=64)
    u0 = Field.from_function(prob.grid, lambda x: 0.1 * np.exp(-(x**2)), weights=(1.0, 1.0))
    nl = Nonlinearity(kind="pointwise-closed-form", arity=0, fn=damped_cubic)
    _, report = solve_cauchy_semilinear(prob, u0, nl, t_final=0.25, dt=0.01)
    assert report.completed
    assert len(calls) == 2 * 25


@pytest.mark.parametrize("imag", [0.0, 1e-3])
def test_semilinear_run_samples_the_symbols_once(imag, monkeypatch):
    """The dt/2 propagator steps on the x-spectrum of the dt one, so the
    symbols are sampled once per run, on the real half and on all n rows:
    one ``x_spectrum``, which makes the run's one ``on_grid`` call."""
    prob = convolution_problem(n=64)
    calls = []
    for name in ("x_spectrum", "eta_on_grid"):
        def counted(*args, _name=name, _fn=getattr(prob, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(prob, name, counted)
    sampled = []
    for module in (grids, solver):
        monkeypatch.setattr(module, "on_grid", lambda *a: sampled.append(1) or on_grid(*a))
    u0 = Field.from_function(prob.grid, lambda x: 0.1 * np.exp(-(x**2)) + imag * 1j,
                             weights=(1.0, 1.0))
    cubic = Nonlinearity(kind="pointwise-polynomial", arity=0, terms=(((3,), -1.0),))
    state, _ = solve_cauchy_semilinear(prob, u0, cubic, t_final=0.05, dt=0.01)
    assert state.real == (imag == 0.0)
    assert calls == ["x_spectrum"] and len(sampled) == 1


def _record_steppers(patch):
    """Patch both semilinear steppers so that each run appends the name of
    the one it takes to the returned list."""
    used = []
    for name in ("_spectral_steps", "_sample_steps"):
        def recorded(*args, _name=name, _stepper=getattr(evolution, name)):
            used.append(_name)
            return _stepper(*args)
        patch.setattr(evolution, name, recorded)
    return used


def _count_polynomial_evaluations(monkeypatch, n):
    """Per-call argument counts of ``Nonlinearity.evaluate`` over 25 steps of
    a damped polynomial run on ``convolution_problem(n)`` (N = 2 n values)."""
    calls = []
    evaluate = Nonlinearity.evaluate

    def counted(self, args):
        calls.append(len(args))
        return evaluate(self, args)

    monkeypatch.setattr(Nonlinearity, "evaluate", counted)
    prob = convolution_problem(n=n)
    used = _record_steppers(monkeypatch)
    u0 = Field.from_function(prob.grid, lambda x: 0.1 * np.exp(-(x**2)), weights=(1.0, 1.0))
    cubic = Nonlinearity(
        kind="pointwise-polynomial", arity=0, terms=(((3,), -1.0), ((1,), 0.5), ((0,), 0.01))
    )
    _, report = solve_cauchy_semilinear(prob, u0, cubic, t_final=0.25, dt=0.01)
    assert report.completed
    assert used == ["_sample_steps" if 2 * n <= 64 else "_spectral_steps"]
    return calls


def test_polynomial_step_evaluates_the_nonlinearity_twice(monkeypatch):
    """The per-step count goes through ``Nonlinearity.evaluate`` for a
    polynomial F too, so a counter wrapped around that method reads 2 per
    accepted step (spectral path, N = 128)."""
    assert _count_polynomial_evaluations(monkeypatch, n=64) == [1] * (2 * 25)


def test_tiny_polynomial_step_evaluates_the_nonlinearity_twice(monkeypatch):
    """The sample-space loop of a tiny state (N = 64) reads 2 per step too."""
    assert _count_polynomial_evaluations(monkeypatch, n=32) == [1] * (2 * 25)


def _reference_evaluate(nl, args):
    """``Nonlinearity.evaluate`` as first written: each argument converted
    again for every factor, one new array per product."""
    if nl.kind == "none":
        return np.zeros_like(np.asarray(args[0], dtype=complex))
    if nl.kind == "pointwise-closed-form":
        return np.asarray(nl.fn(*args), dtype=complex)
    out = np.zeros_like(np.asarray(args[0], dtype=complex))
    for powers, coeff in nl.terms:
        term = np.full(out.shape, coeff, dtype=complex)
        for arg, e in zip(args, powers):
            if e:
                term = term * np.asarray(arg, dtype=complex) ** e
        out += term
    return out


def _reference_of_field(nl, u):
    args = tuple(spectral_derivative(u, k).values for k in range(nl.arity + 1))
    return _reference_evaluate(nl, args)


def _reference_sup(values):
    return float(np.max(np.abs(values))) if values.size else 0.0


class _MatrixFlow:
    """The one-matrix propagator of a tiny state as first written: samples
    are their own coefficients, and a step is one vector-matrix product with
    the flow of ``evolution._sample_flow``."""

    def __init__(self, prop):
        self.flow = evolution._sample_flow(prop)

    def to_spectral(self, values):
        return values

    def from_spectral(self, w):
        return w

    def advance(self, w):
        return (w.reshape(-1) @ self.flow).reshape(w.shape)


def _reference_semilinear(problem, u0, nl, t_final, dt, blowup_threshold, step_tol, store_every):
    """The semilinear step loop as first written: a ``Field`` around every
    F argument, five transforms per step (the step-doubling difference
    inverted on its own), a second sup norm per step and one ``lp_norm``
    call for the F(u) integral.  A tiny state steps on samples through the
    one-matrix flows.  Returns (times, snapshots, report)."""
    n_steps = step_count(t_final, dt)
    prop = _Propagator(problem, dt, problem.x_spectrum())
    half = _Propagator(problem, dt / 2.0, problem.x_spectrum())
    if u0.values.size ** 2 <= evolution.MATRIX_STEP_MAX_WORK:
        prop, half = _MatrixFlow(prop), _MatrixFlow(half)
    values = u0.values.copy()
    w = prop.to_spectral(values)
    times, snaps = [0.0], [values.copy()]
    t = 0.0
    sup_max = _reference_sup(values)
    f_acc = 0.0
    halt_reason, err = None, None
    for step in range(n_steps):
        f_now = _reference_of_field(nl, Field(problem.grid, values))
        fw = prop.to_spectral(f_now)
        w_new = prop.advance(w + dt * fw)
        w_mid = half.advance(w + (dt / 2.0) * fw)
        f_mid = _reference_of_field(nl, Field(problem.grid, prop.from_spectral(w_mid)))
        w_double = half.advance(w_mid + (dt / 2.0) * prop.to_spectral(f_mid))
        new = prop.from_spectral(w_new)
        sup_new = _reference_sup(new)
        err = _reference_sup(prop.from_spectral(w_double - w_new)) / max(1.0, sup_new)
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
        sup_max = max(sup_max, _reference_sup(values))
        if store_every and (step + 1) % store_every == 0 and step + 1 < n_steps:
            times.append(t)
            snaps.append(values)
    if times[-1] != t:
        times.append(t)
        snaps.append(values)
    report = MaximalSolutionReport(
        completed=halt_reason is None,
        t_max=t,
        final_norms={
            "u_lp": lp_norm(Field(problem.grid, values), problem.p),
            "u_sup": _reference_sup(values),
        },
        blowup_indicator={
            "u_sup_max": sup_max,
            "nonlinearity_lp_time": f_acc ** (1.0 / problem.p),
        },
        halt_reason=halt_reason,
        last_error_estimate=err,
    )
    return times, snaps, report


def _growth_nonlinearity(form, g, c2, c0):
    """g u + c2 u^2 + c0, or g u + c2 u u_x + c0 for ``arity1``."""
    if form == "closed":
        return Nonlinearity(
            kind="pointwise-closed-form", arity=0, fn=lambda u: g * u + c2 * u * u + c0
        )
    if form == "arity1":
        terms = (((1, 0), g), ((1, 1), c2), ((0, 0), c0))
        return Nonlinearity(kind="pointwise-polynomial", arity=1, terms=terms)
    terms = (((1,), g), ((2,), c2), ((0,), c0))
    return Nonlinearity(kind="pointwise-polynomial", arity=0, terms=terms)


# (growth g, u^2 or u u_x coefficient, amplitude of u0, threshold, step_tol)
_HALTS = {
    None: (0.0, 0.1, 0.2, math.inf, math.inf),
    "threshold": (40.0, 0.3, 0.3, 5.0, math.inf),
    "non_finite": (60.0, 2.0, 2.0, math.inf, math.inf),
    "step_tol": (40.0, 0.3, 1.0, math.inf, 0.06),
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["psl", "laplacian", "dense", "fallback"]),
    form=st.sampled_from(["polynomial", "closed", "arity1"]),
    halt=st.sampled_from(sorted(_HALTS, key=str)),
    c0=st.floats(-0.5, 0.5),
    store_every=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_semilinear_loop_matches_the_reference_loop_bit_for_bit(
    kind, form, halt, c0, store_every, seed
):
    """The fused step loop (two transforms back, one of them stacked; no
    per-step wrappers) gives the snapshots, times and report of the loop
    as first written, to the last bit, for every operator kind, form of F
    and halting test."""
    g, c2, amplitude, threshold, step_tol = _HALTS[halt]
    op = _operator(kind)
    sym = SymbolSet(
        l=2, b=(0.5, 0.0, -1.0), a_kernels={2: Kernel("exponential-paper", rate=1.0)}, nu=1.0
    )
    grid = Grid(half_width=4.0, n=16)
    prob = DiscretizedProblem(sym, op, grid, p=2.0)
    prob.check_condition()
    rng = np.random.default_rng(seed)
    shape = (grid.n, op.dim)
    u0 = Field(grid, amplitude * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    nl = _growth_nonlinearity(form, g, c2, c0)
    run = dict(
        t_final=0.4, dt=0.01, blowup_threshold=threshold, step_tol=step_tol,
        store_every=store_every,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        state, report = solve_cauchy_semilinear(prob, u0, nl, **run)
        times, snaps, ref = _reference_semilinear(prob, u0, nl, **run)
    assert ref.halt_reason == halt
    assert state.times == times
    assert len(state.snapshots) == len(snaps)
    for got, want in zip(state.snapshots, snaps):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert repr(asdict(report)) == repr(asdict(ref))
    # every snapshot owns its samples: none is a view of a buffer the loop reuses
    assert all(snap.flags.owndata for snap in state.snapshots)
    assert not np.shares_memory(state.snapshots[0], u0.values)
    for a, b in itertools.combinations(state.snapshots, 2):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("kind, halt", [
    ("dense", None),  # N = 48, sample space, 85 rows per block
    ("psl", None),  # N = 64, sample space, 64 rows per block
    ("laplacian", None),  # N = 96, spectral, 42 rows per block
    ("psl", "threshold"),
])
def test_f_integral_blocks_match_the_reference_loop_bit_for_bit(kind, halt):
    """200 steps fill the F(u) accumulator's block more than once, and the
    threshold run halts inside a block; snapshots, times and report are the
    reference loop's to the last bit."""
    op = _operator(kind)
    prob = _tiny_problem(op)
    grid = prob.grid
    g, c2, amplitude, _, step_tol = _HALTS[halt]
    threshold = 50.0 if halt else math.inf  # psl halts at step 79, inside its second block
    rng = np.random.default_rng(7)
    shape = (grid.n, op.dim)
    u0 = Field(grid, amplitude * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    nl = _growth_nonlinearity("polynomial", g, c2, 0.1)
    run = dict(
        t_final=0.4, dt=0.002, blowup_threshold=threshold, step_tol=step_tol, store_every=50
    )
    state, report = solve_cauchy_semilinear(prob, u0, nl, **run)
    times, snaps, ref = _reference_semilinear(prob, u0, nl, **run)
    rows = evolution.MATRIX_STEP_MAX_WORK // (grid.n * op.dim)
    accepted = round(ref.t_max / run["dt"])
    assert ref.halt_reason == halt
    assert accepted > rows and (accepted == 200 if halt is None else accepted % rows)
    assert state.times == times
    for got, want in zip(state.snapshots, snaps, strict=True):
        assert got.tobytes() == want.tobytes()
    assert repr(asdict(report)) == repr(asdict(ref))


# Operators whose state on a 16-point grid has N = 16 dim <= 64 values, so
# that N^2 <= MATRIX_STEP_MAX_WORK and a semilinear run steps on samples.
_TINY = {
    "dense": lambda: DenseMatrixOperator(_NON_NORMAL),  # N = 48
    "jordan": lambda: DenseMatrixOperator([[1.0, 1.0], [0.0, 1.0]]),  # N = 32, expm
    "psl": lambda: PeriodicSturmLiouvilleOperator(b=1.0, n=4),  # N = 64
    "laplacian": lambda: DirichletLaplacian2D(n_y=2, n_z=2, c=0.5),  # N = 64
}


def _tiny_problem(op, n=16):
    sym = SymbolSet(
        l=2, b=(0.5, 0.0, -1.0), a_kernels={2: Kernel("exponential-paper", rate=1.0)}, nu=1.0
    )
    prob = DiscretizedProblem(sym, op, Grid(half_width=4.0, n=n), p=2.0)
    prob.check_condition()
    return prob


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(_TINY)),
    run=st.sampled_from(["semilinear", "threshold"]),
    store_every=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_tiny_propagator_matches_the_spectral_path(kind, run, store_every, seed):
    """The sample-space steps of a tiny state give the snapshots and report
    of the spectral steps (forced with ``MATRIX_STEP_MAX_WORK = 0``), to
    rounding.  A threshold-halted run reports its last accepted state, not
    the one it rejected."""
    op = _TINY[kind]()
    assert (op.diagonalization() is None) == (kind == "jordan")
    prob = _tiny_problem(op)
    rng = np.random.default_rng(seed)
    shape = (prob.grid.n, op.dim)
    u0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g, c2, amplitude, threshold, _ = _HALTS[run if run == "threshold" else None]
    nl = _growth_nonlinearity("polynomial", g, c2, 0.1)

    def solve(patch, stepper):
        used = _record_steppers(patch)
        result = solve_cauchy_semilinear(prob, Field(prob.grid, amplitude * u0), nl, t_final=0.4,
                                         dt=0.01, blowup_threshold=threshold, step_tol=math.inf,
                                         store_every=store_every)
        assert used == [stepper]
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evolution, "MATRIX_STEP_MAX_WORK", 0)
        ref_state, ref = solve(patch, "_spectral_steps")
    with pytest.MonkeyPatch.context() as patch:
        state, report = solve(patch, "_sample_steps")
    assert state.times == ref_state.times
    for got, want in zip(state.snapshots, ref_state.snapshots, strict=True):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert report.halt_reason == ref.halt_reason == ("threshold" if run == "threshold" else None)
    assert report.t_max == ref.t_max
    assert report.final_norms["u_sup"] <= threshold
    assert report.final_norms["u_sup"] == pytest.approx(ref.final_norms["u_sup"], rel=1e-12)


@pytest.mark.parametrize("dim, composed", [(32, True), (33, False)])
def test_only_states_of_at_most_64_values_compose(dim, composed, monkeypatch):
    # N = 2 dim values: 64^2 = MATRIX_STEP_MAX_WORK steps on samples, 66^2 does
    # not; F = 0 takes the same stepper as any other F
    prob = _tiny_problem(PeriodicSturmLiouvilleOperator(b=1.0, n=dim), n=2)
    u0 = Field(prob.grid, np.full((2, dim), 0.1 + 0.1j))
    used = _record_steppers(monkeypatch)
    for nl in (_cubic(), Nonlinearity(kind="none")):
        solve_cauchy_semilinear(prob, u0, nl, t_final=0.02, dt=0.01)
    assert used == ["_sample_steps" if composed else "_spectral_steps"] * 2


# ---------------------------------------------------------------------------
# real problems on the half spectrum
# ---------------------------------------------------------------------------

# Real operators whose state on a 32-point grid has N = 32 dim > 64 values,
# so that the propagator steps in spectral coefficients.
_REAL_OPS = {
    "psl": lambda: PeriodicSturmLiouvilleOperator(b=1.0, n=4),
    "laplacian": lambda: DirichletLaplacian2D(n_y=2, n_z=3, c=0.5),
    "dense": lambda: DenseMatrixOperator(_NON_NORMAL),
    "jordan": lambda: DenseMatrixOperator([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]),
}


def _real_problem(op, nu=1.0, kernel="exponential-paper"):
    sym = SymbolSet(l=2, b=(0.5, 0.0, -1.0), a_kernels={2: Kernel(kernel, rate=1.0)}, nu=nu)
    prob = DiscretizedProblem(sym, op, Grid(half_width=4.0, n=32), p=2.0)
    prob.check_condition()
    return prob


def _real_run(prob, u0, nl, store_every):
    """(state, report) of a linear run (``nl`` None, report None) or a semilinear one."""
    if nl is None:
        return solve_cauchy_linear(prob, u0, t_final=0.2, dt=0.01, store_every=store_every), None
    return solve_cauchy_semilinear(prob, u0, nl, t_final=0.2, dt=0.01, store_every=store_every)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(_REAL_OPS)),
    kernel=st.sampled_from(["exponential-paper", "exponential-standard", "gaussian"]),
    form=st.sampled_from(["linear", "zero", "polynomial"]),
    coeffs=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
    max_mode=st.integers(1, 8),
    store_every=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_path_matches_the_complex_path(
    kind, kernel, form, coeffs, max_mode, store_every, seed
):
    """Real band-limited data under a real operator steps on the n/2 + 1
    non-negative frequencies with float64 samples, and gives the complex
    path's snapshots and report to rounding: both sample every symbol with
    the one Nyquist rule, so they integrate one operator, also for the odd
    kernel and a cubic F, which feeds the Nyquist mode."""
    op = _REAL_OPS[kind]()
    assert (op.diagonalization() is None) == (kind == "jordan")
    prob = _real_problem(op, kernel=kernel)
    u0 = band_limited_random(prob.grid, np.random.default_rng(seed), max_mode, dim=op.dim)
    u0 = Field(prob.grid, 0.3 * u0.values)
    c0, c1, c2, c3 = coeffs
    nl = {
        "linear": None,
        "zero": Nonlinearity(kind="none"),
        "polynomial": Nonlinearity(kind="pointwise-polynomial", arity=0, terms=(
            ((0,), c0), ((1,), c1), ((2,), c2), ((3,), c3))),
    }[form]
    assert prob.x_spectrum(True).real
    state, report = _real_run(prob, u0, nl, store_every)
    with pytest.MonkeyPatch.context() as patch:
        # the one realness rule, asked for all n rows
        patch.setattr(prob, "x_spectrum", lambda real=False, rule=prob.x_spectrum: rule(False))
        ref_state, ref = _real_run(prob, u0, nl, store_every)
    assert state.real and not ref_state.real
    assert state.times == ref_state.times
    scale = max(np.max(np.abs(want)) for want in ref_state.snapshots)
    for got, want in zip(state.snapshots, ref_state.snapshots, strict=True):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
    if report is not None:
        # F = 0 runs the step-doubling monitor like any F
        assert isinstance(report.last_error_estimate, float)
        assert (report.halt_reason, report.t_max) == (ref.halt_reason, ref.t_max)
        for key in ("u_lp", "u_sup"):
            assert report.final_norms[key] == pytest.approx(ref.final_norms[key], rel=1e-12,
                                                            abs=1e-12 * scale)


@pytest.mark.parametrize("real", [False, True])
def test_fallback_flow_is_the_expm_of_each_frequency(real):
    """The defective-A fallback takes one batched ``expm`` over the rows of
    its spectrum; each row's flow and forcing matrices are that row's own
    ``expm`` of [[-dt M_j, dt I], [0, 0]], on complex and on real-half rows."""
    op, dt = _REAL_OPS["jordan"](), 0.05
    prob = _real_problem(op)
    prop = _Propagator(prob, dt, prob.x_spectrum(real))
    spectrum = prob.x_spectrum(real)
    den, eta = spectrum.den, spectrum.eta
    assert prop.diag is None and prop.real == real
    a, d = op.as_dense(), op.dim
    assert prop.e_mats.shape == prop.p_mats.shape == (len(den), d, d)
    for j in range(len(den)):
        block = np.zeros((2 * d, 2 * d), dtype=complex)
        block[:d, :d] = -dt * (den[j] * (a + eta[j] * np.eye(d)))
        block[:d, d:] = dt * np.eye(d)
        want = scipy.linalg.expm(block)
        for got, ref in ((prop.e_mats[j], want[:d, :d]), (prop.p_mats[j], want[:d, d:])):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _cubic(coeff=-1.0):
    return Nonlinearity(kind="pointwise-polynomial", arity=0, terms=(((3,), coeff),))


@pytest.mark.parametrize("case", [
    "complex data", "complex coefficient", "complex dense A", "forcing", "closed-form F",
    "arity 1", "complex F coefficient", "tiny state",
])
def test_what_takes_the_complex_path(case):
    """Each departure from a real problem with real data and no forcing
    keeps the complex spectrum, on the propagator and on the run."""
    op = _REAL_OPS["dense"]()
    if case == "complex dense A":
        op = DenseMatrixOperator(_NON_NORMAL + 0.1j * np.eye(3))
    prob = _real_problem(op, nu=1.0 + 0.1j if case == "complex coefficient" else 1.0)
    if case == "tiny state":
        prob = _tiny_problem(op)
    grid = prob.grid
    u0 = band_limited_random(grid, np.random.default_rng(0), 2, dim=op.dim).values
    if case == "complex data":
        u0 = u0 + 1e-3j
    nl = {
        "closed-form F": Nonlinearity(kind="pointwise-closed-form", arity=0, fn=lambda u: -u**3),
        "arity 1": Nonlinearity(kind="pointwise-polynomial", arity=1, terms=(((1, 1), -1.0),)),
        "complex F coefficient": _cubic(-1.0 + 0.5j),
    }.get(case, _cubic())
    # the size rule is the semilinear run's, not the spectrum's: a tiny
    # state's problem allows the real spectrum, but its run steps on samples
    spectrum_real = case not in ("complex coefficient", "complex dense A")
    assert prob.x_spectrum(True).real == spectrum_real
    if case == "forcing":
        state = solve_cauchy_linear(prob, Field(grid, u0), forcing=lambda t: 0.0 * u0,
                                    t_final=0.05, dt=0.01)
    else:
        state, _ = solve_cauchy_semilinear(prob, Field(grid, u0), nl, t_final=0.05, dt=0.01)
    assert not state.real
    assert all(snap.dtype == complex for snap in state.snapshots)


# ---------------------------------------------------------------------------
# nonlinearity plumbing
# ---------------------------------------------------------------------------


def test_polynomial_evaluation():
    nl = Nonlinearity(
        kind="pointwise-polynomial", arity=0, terms=(((2,), 1.0), ((1,), -2.0))
    )
    u = np.array([1.0, 2.0, -1.0], dtype=complex)
    assert np.allclose(nl.evaluate((u,)), u**2 - 2.0 * u)


_COEFFS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]))
_FLOATS = st.one_of(_COEFFS, st.sampled_from([math.inf, -math.inf, math.nan, -math.nan]))


@st.composite
def _polynomial_case(draw):
    """A polynomial F of arity 0-2 (zero powers and constant-only terms
    included) with finite coefficients, as the config admits, and real or
    complex arguments with -0.0, inf and nan of either sign."""
    arity = draw(st.integers(0, 2))
    powers = st.tuples(*[st.integers(0, 3)] * (arity + 1))
    coeff = st.builds(complex, _COEFFS, _COEFFS)
    terms = draw(st.lists(st.tuples(powers, coeff), min_size=1, max_size=4))
    shape = draw(st.sampled_from([(1,), (5,), (8, 1), (3, 2)]))
    size = math.prod(shape)
    args = []
    for _ in range(arity + 1):
        real = np.array(draw(st.lists(_FLOATS, min_size=size, max_size=size))).reshape(shape)
        if draw(st.booleans()):
            arg = np.empty(shape, dtype=complex)
            arg.real = real
            arg.imag = np.array(draw(st.lists(_FLOATS, min_size=size, max_size=size))).reshape(shape)
            real = arg
        args.append(real)
    return Nonlinearity(kind="pointwise-polynomial", arity=arity, terms=terms), tuple(args)


@settings(max_examples=300, deadline=None)
@given(case=_polynomial_case())
def test_polynomial_evaluation_matches_the_reference_bit_for_bit(case):
    """Complex evaluation keeps the reference's bits.  Float arguments with
    real coefficients take the float path (tested below against this one),
    so such a case is evaluated here on complex arguments."""
    nl, args = case
    if nl.real and not any(map(np.iscomplexobj, args)):
        args = tuple(np.asarray(arg, dtype=complex) for arg in args)
    with np.errstate(all="ignore"):
        got, want = nl.evaluate(args), _reference_evaluate(nl, args)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def _real_polynomial_case(draw):
    """A polynomial F of arity 0-2 and powers up to 4 with real coefficients,
    and finite float arguments."""
    arity = draw(st.integers(0, 2))
    powers = st.tuples(*[st.integers(0, 4)] * (arity + 1))
    terms = draw(st.lists(st.tuples(powers, _COEFFS), min_size=1, max_size=4))
    shape = draw(st.sampled_from([(1,), (5,), (8, 1), (3, 2)]))
    size = math.prod(shape)
    args = tuple(np.array(draw(st.lists(_COEFFS, min_size=size, max_size=size))).reshape(shape)
                 for _ in range(arity + 1))
    return Nonlinearity(kind="pointwise-polynomial", arity=arity, terms=terms), args


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_real_polynomial_case())
def test_float_polynomial_evaluation_matches_the_complex_real_part(case):
    """Float arguments and real coefficients give float64, within 1e-15 of
    the complex evaluation's real part relative to the size of the terms."""
    nl, args = case
    got = nl.evaluate(args)
    want = nl.evaluate(tuple(arg.astype(complex) for arg in args))
    assert got.dtype == np.float64 and got.shape == want.shape
    assert not np.any(want.imag)
    size = sum(abs(c) * math.prod(np.abs(arg) ** e for arg, e in zip(args, powers))
               for powers, c in nl.terms)
    assert np.all(np.abs(got - want.real) <= 1e-15 * size)


def test_arity_one_feeds_the_spatial_derivative():
    # F(u, u_x) = u u_x on cos gives -cos sin
    grid = Grid(half_width=16.0 * np.pi, n=512)
    u = Field.from_function(grid, np.cos)
    nl = Nonlinearity(kind="pointwise-polynomial", arity=1, terms=(((1, 1), 1.0),))
    vals = nl.of_field(u)
    expected = -np.cos(grid.x) * np.sin(grid.x)
    assert np.allclose(vals[:, 0], expected, atol=1e-10)


def test_closed_form_nonlinearity():
    nl = Nonlinearity(kind="pointwise-closed-form", arity=0, fn=lambda u: np.sin(u))
    u = np.array([0.0, np.pi / 2.0], dtype=complex)
    assert np.allclose(nl.evaluate((u,)), np.sin(u))


def test_nonlinearity_validation():
    with pytest.raises(InvalidArgumentError):
        Nonlinearity(kind="cubic-spline")
    with pytest.raises(InvalidArgumentError):
        Nonlinearity(kind="pointwise-polynomial", arity=0, terms=(((1, 2), 1.0),))
    with pytest.raises(InvalidArgumentError):
        Nonlinearity(kind="pointwise-closed-form", arity=0)
    nl = square_nonlinearity()
    with pytest.raises(InvalidArgumentError):
        nl.evaluate((np.ones(3), np.ones(3)))
