"""Cauchy-problem marching: exact linear flow per frequency, semigroup and
equilibrium identities, semilinear splitting, and blow-up detection."""

import numpy as np
import pytest
import scipy.linalg

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
from coesolve.errors import InvalidArgumentError
from coesolve.operators import DenseMatrixOperator, PeriodicSturmLiouvilleOperator


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


# ---------------------------------------------------------------------------
# nonlinearity plumbing
# ---------------------------------------------------------------------------


def test_polynomial_evaluation():
    nl = Nonlinearity(
        kind="pointwise-polynomial", arity=0, terms=(((2,), 1.0), ((1,), -2.0))
    )
    u = np.array([1.0, 2.0, -1.0], dtype=complex)
    assert np.allclose(nl.evaluate((u,)), u**2 - 2.0 * u)


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


def test_lipschitz_probe_scales_linearly_for_the_square():
    nl = square_nonlinearity()
    probe1 = nl.lipschitz_probe(1.0)
    probe3 = nl.lipschitz_probe(3.0)
    # |a^2 - b^2| <= (|a| + |b|) |a - b| gives slope between R and 2R
    assert 1.0 <= probe1 <= 2.05
    assert probe3 == pytest.approx(3.0 * probe1, rel=1e-9)
    assert Nonlinearity(kind="none").lipschitz_probe(1.0) == 0.0


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
