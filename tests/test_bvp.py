"""Two-point boundary value problems on the strip: nondegeneracy gating,
discretization order, residuals, Picard iteration with strip shortening."""

import numpy as np
import pytest

from coesolve import (
    BoundaryConditions,
    DiscretizedProblem,
    Field,
    Grid,
    Kernel,
    Nonlinearity,
    StripField,
    SymbolSet,
    TGrid,
    bvp_discrete_residual,
    check_nondegenerate,
    solve_bvp_linear,
    solve_bvp_semilinear,
)
from coesolve.bvp import _boundary_rows
from coesolve.errors import DegenerateBoundaryError, InvalidArgumentError
from coesolve.operators import DenseMatrixOperator, PeriodicSturmLiouvilleOperator


def scalar_problem(half_width=np.pi, n=16, a=1.0):
    """l = 0, b_0 = 1, nu = 1, A = a: every frequency sees M = a + 1."""
    sym = SymbolSet(l=0, b=(1.0,), nu=1.0)
    op = DenseMatrixOperator(np.array([[a]]))
    prob = DiscretizedProblem(sym, op, Grid(half_width=half_width, n=n), p=2.0)
    prob.check_condition()
    return prob


def cos_field(grid, amp=1.0):
    return Field.from_function(grid, lambda x: amp * np.cos(x))


def zero_field(grid, dim=1):
    return Field(grid, np.zeros((grid.n, dim), dtype=complex))


# ---------------------------------------------------------------------------
# nondegeneracy
# ---------------------------------------------------------------------------


def test_nondegeneracy_determinants():
    grid = Grid(half_width=np.pi, n=16)
    f = zero_field(grid)
    cases = [
        ((1.0, 0.0, 0.0, 1.0), 1.0),  # value at 0, derivative at T
        ((0.0, 1.0, 1.0, 0.0), -1.0),  # derivative at 0, value at T
        ((1.0, 0.0, 1.0, 0.0), 0.0),  # value at both ends: degenerate
        ((2.0, 3.0, 1.0, 2.0), 1.0),  # Robin mix
    ]
    for coeffs, det in cases:
        bc = BoundaryConditions(*coeffs, f1=f, f2=f)
        assert check_nondegenerate(bc) == pytest.approx(det)


def test_degenerate_rows_are_rejected_exactly():
    prob = scalar_problem()
    f = cos_field(prob.grid)
    bc = BoundaryConditions(1.0, 0.0, 1.0, 0.0, f1=f, f2=f)
    with pytest.raises(DegenerateBoundaryError):
        solve_bvp_linear(prob, bc, TGrid(1.0, 8))


def test_boundary_data_must_share_grid():
    g1 = Grid(half_width=np.pi, n=16)
    g2 = Grid(half_width=np.pi, n=32)
    with pytest.raises(InvalidArgumentError):
        BoundaryConditions(1.0, 0.0, 0.0, 1.0, f1=zero_field(g1), f2=zero_field(g2))


def test_tgrid_validation():
    with pytest.raises(InvalidArgumentError):
        TGrid(0.0, 8)
    with pytest.raises(InvalidArgumentError):
        TGrid(1.0, 0)
    tg = TGrid(1.0, 9)
    assert tg.dt == pytest.approx(0.1)
    assert tg.t[0] == 0.0
    assert tg.t[-1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# discretization accuracy
# ---------------------------------------------------------------------------


def test_strip_time_derivative_exact_on_quadratics():
    grid = Grid(half_width=np.pi, n=4)
    tg = TGrid(2.0, 9)
    t = tg.t
    vals = np.tile((3.0 * t**2 - t + 1.0)[:, None, None], (1, grid.n, 1))
    strip = StripField(tgrid=tg, grid=grid, values=vals.astype(complex))
    expected = np.tile((6.0 * t - 1.0)[:, None, None], (1, grid.n, 1))
    assert np.allclose(strip.t_derivative(), expected, atol=1e-11)


def test_single_mode_matches_dense_assembly_oracle():
    """Assemble the (m+2) x (m+2) one-frequency system directly with the
    same second-order rows and compare solutions."""
    prob = scalar_problem()
    tg = TGrid(1.0, 12)
    dt = tg.dt
    npts = tg.m + 2
    big_m = 2.0  # A + eta = 1 + 1 on every frequency
    f1 = cos_field(prob.grid, amp=0.7)
    f2 = cos_field(prob.grid, amp=-0.2)
    bc = BoundaryConditions(1.0, 0.5, 0.3, 1.0, f1=f1, f2=f2)
    g_profile = np.sin(np.pi * tg.t)  # forcing amplitude per time node
    forcing = g_profile[:, None, None] * np.cos(prob.grid.x)[None, :, None]

    u = solve_bvp_linear(prob, bc, tg, forcing=forcing.astype(complex))

    (c00, c01, c02), (c10, c11, c12) = _boundary_rows(bc, dt)
    mat = np.zeros((npts, npts), dtype=complex)
    rhs = np.zeros(npts, dtype=complex)
    mat[0, :3] = [c00, c01, c02]
    rhs[0] = 0.7
    for i in range(1, npts - 1):
        mat[i, i - 1 : i + 2] = [-1.0 / dt**2, 2.0 / dt**2 + big_m, -1.0 / dt**2]
        rhs[i] = g_profile[i]
    mat[-1, -3:] = [c12, c11, c10]
    rhs[-1] = -0.2
    amp_oracle = np.linalg.solve(mat, rhs)

    cosx = np.cos(prob.grid.x)
    amps = (u.values[:, :, 0].real @ cosx) / (cosx @ cosx)
    assert np.allclose(amps, amp_oracle.real, atol=1e-11)
    assert np.max(np.abs(u.values.imag)) < 1e-11


def test_manufactured_solution_second_order_convergence():
    # u = sin(pi t / T) cos(x) solves -u_tt + 2u = ((pi/T)^2 + 2) u with
    # u(0) = 0 (Dirichlet) and u_t(T) = -(pi/T) cos x (Neumann)
    prob = scalar_problem()
    t_final = 1.0
    x = prob.grid.x
    errs = []
    ms = [10, 20, 40, 80]
    for m in ms:
        tg = TGrid(t_final, m)
        t = tg.t
        exact = np.sin(np.pi * t / t_final)[:, None] * np.cos(x)[None, :]
        forcing = ((np.pi / t_final) ** 2 + 2.0) * exact[:, :, None]
        bc = BoundaryConditions(
            1.0,
            0.0,
            0.0,
            1.0,
            f1=zero_field(prob.grid),
            f2=cos_field(prob.grid, amp=-(np.pi / t_final)),
        )
        u = solve_bvp_linear(prob, bc, tg, forcing=forcing.astype(complex))
        errs.append(np.max(np.abs(u.values[:, :, 0] - exact)))
    slopes = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert 1.8 <= slopes[-1] <= 2.2
    assert 1.8 <= np.mean(slopes) <= 2.2


def test_homogeneous_profile_second_order_convergence():
    # g = 0 with u_t(0) and u(T) prescribed: exact solution is the
    # hyperbolic profile sinh(sqrt(2) t) / sinh(sqrt(2) T) cos x
    prob = scalar_problem()
    t_final = 1.0
    root = np.sqrt(2.0)
    x = prob.grid.x
    errs = []
    for m in (24, 96):
        tg = TGrid(t_final, m)
        exact = (
            np.sinh(root * tg.t)[:, None] / np.sinh(root * t_final) * np.cos(x)[None, :]
        )
        bc = BoundaryConditions(
            0.0,
            1.0,
            1.0,
            0.0,
            f1=cos_field(prob.grid, amp=root / np.sinh(root * t_final)),
            f2=cos_field(prob.grid),
        )
        u = solve_bvp_linear(prob, bc, tg)
        errs.append(np.max(np.abs(u.values[:, :, 0] - exact)))
    assert errs[1] <= 1e-4
    # a 4x finer t grid cuts the error by about 16
    assert 10.0 <= errs[0] / errs[1] <= 22.0


def test_discrete_residual_vanishes_at_the_solution():
    sym = SymbolSet(
        l=2,
        b=(0.0, 0.0, -1.0),
        a_kernels={2: Kernel("exponential-paper", rate=1.0)},
        nu=1.0,
    )
    op = DenseMatrixOperator(np.diag([1.0, 2.0]))
    prob = DiscretizedProblem(sym, op, Grid(half_width=16.0, n=64), p=2.0)
    prob.check_condition()
    f1 = Field.from_function(prob.grid, lambda x: np.exp(-(x**2)), weights=(1.0, 0.5))
    f2 = Field.from_function(prob.grid, lambda x: np.exp(-(x**2)), weights=(0.5, 1.0))
    bc = BoundaryConditions(1.0, 0.0, 0.0, 1.0, f1=f1, f2=f2)
    tg = TGrid(0.5, 24)
    u = solve_bvp_linear(prob, bc, tg)
    assert bvp_discrete_residual(prob, bc, tg, u) < 1e-10


def test_zero_data_gives_zero_solution():
    prob = scalar_problem()
    bc = BoundaryConditions(
        1.0, 0.0, 0.0, 1.0, f1=zero_field(prob.grid), f2=zero_field(prob.grid)
    )
    u = solve_bvp_linear(prob, bc, TGrid(1.0, 16))
    assert np.max(np.abs(u.values)) < 1e-14


def test_diagonalized_and_dense_paths_agree(monkeypatch):
    """The structured FFT path, the dense eigenbasis path and the dense
    block-solve fallback solve the same discrete system."""
    n_op = 6
    sl = PeriodicSturmLiouvilleOperator(b=1.0, n=n_op)
    dense = DenseMatrixOperator(sl.as_dense())
    fallback = DenseMatrixOperator(sl.as_dense())
    monkeypatch.setattr(fallback, "diagonalization", lambda: None)
    sym = SymbolSet(l=2, b=(0.0, 0.0, -1.0), nu=1.0)
    grid = Grid(half_width=8.0, n=32)
    rng = np.random.default_rng(14)
    f1 = Field(grid, rng.standard_normal((32, n_op)).astype(complex))
    f2 = Field(grid, rng.standard_normal((32, n_op)).astype(complex))
    tg = TGrid(1.0, 10)
    forcing = rng.standard_normal((tg.m + 2, 32, n_op)).astype(complex)
    outs = []
    for op in (sl, dense, fallback):
        prob = DiscretizedProblem(sym, op, grid, p=2.0)
        prob.check_condition()
        bc = BoundaryConditions(1.0, 0.25, 0.5, 1.0, f1=f1, f2=f2)
        u = solve_bvp_linear(prob, bc, tg, forcing=forcing)
        assert bvp_discrete_residual(prob, bc, tg, u, forcing=forcing) < 1e-10
        outs.append(u.values)
    assert dense.diagonalization() is not None
    for other in outs[1:]:
        assert np.max(np.abs(outs[0] - other)) < 1e-9


def test_interior_bounded_by_boundary_for_homogeneous_problem():
    # with g = 0 and M > 0 the single-mode profile is a combination of
    # decaying exponentials, so the strip sup equals the boundary sup
    prob = scalar_problem()
    bc = BoundaryConditions(
        1.0, 0.0, 0.0, 1.0, f1=cos_field(prob.grid), f2=zero_field(prob.grid)
    )
    u = solve_bvp_linear(prob, bc, TGrid(2.0, 40))
    assert np.max(np.abs(u.values)) <= 1.0 + 1e-10


def test_forcing_shape_is_checked():
    prob = scalar_problem()
    bc = BoundaryConditions(
        1.0, 0.0, 0.0, 1.0, f1=zero_field(prob.grid), f2=zero_field(prob.grid)
    )
    with pytest.raises(InvalidArgumentError):
        solve_bvp_linear(
            prob, bc, TGrid(1.0, 8), forcing=np.zeros((3, prob.grid.n, 1))
        )


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------


def test_zero_nonlinearity_converges_immediately():
    prob = scalar_problem()
    bc = BoundaryConditions(
        1.0, 0.0, 0.0, 1.0, f1=cos_field(prob.grid), f2=zero_field(prob.grid)
    )
    u, report = solve_bvp_semilinear(prob, bc, TGrid(1.0, 16), Nonlinearity())
    assert report.converged
    assert report.iterations == 1
    assert report.gaps[0] == 0.0
    assert report.t_halvings == 0
    linear = solve_bvp_linear(prob, bc, TGrid(1.0, 16))
    assert np.max(np.abs(u.values - linear.values)) == 0.0


def test_linear_feedback_matches_shifted_direct_solve():
    """F(u) = eps u is absorbed exactly by shifting A -> A - eps, giving an
    independent solution of the same fixed-point equation."""
    eps = 0.2
    prob = scalar_problem(a=1.0)
    shifted = scalar_problem(a=1.0 - eps)
    f1 = cos_field(prob.grid, amp=1.0)
    f2 = zero_field(prob.grid)
    tg = TGrid(1.0, 24)
    nl = Nonlinearity(kind="pointwise-polynomial", arity=0, terms=(((1,), eps),))
    bc = BoundaryConditions(1.0, 0.0, 0.0, 1.0, f1=f1, f2=f2)
    u, report = solve_bvp_semilinear(prob, bc, tg, nl, max_iter=40, tol=1e-12)
    assert report.converged
    direct = solve_bvp_linear(shifted, bc, tg)
    assert np.max(np.abs(u.values - direct.values)) < 1e-10
    # the contraction factor stays well below the convergence threshold
    ratios = [b / a for a, b in zip(report.gaps, report.gaps[1:]) if a > 0]
    assert all(r <= 0.9 for r in ratios)


def test_strip_shortening_rescues_strong_feedback():
    """F(u) = 5u makes the Picard map expansive on a long strip; halving
    T twice brings it inside the contraction regime."""
    prob = scalar_problem()
    bc = BoundaryConditions(
        1.0, 0.0, 0.0, 1.0, f1=cos_field(prob.grid), f2=zero_field(prob.grid)
    )
    nl = Nonlinearity(kind="pointwise-polynomial", arity=0, terms=(((1,), 5.0),))
    tg = TGrid(2.0, 40)

    _, stuck = solve_bvp_semilinear(prob, bc, tg, nl, max_iter=25, tol=1e-8)
    assert not stuck.converged
    assert stuck.t_halvings == 0
    assert stuck.message != ""

    _, rescued = solve_bvp_semilinear(
        prob, bc, tg, nl, max_iter=25, tol=1e-8, max_t_halvings=3
    )
    assert rescued.converged
    assert rescued.t_halvings == 2
    assert rescued.t_final == pytest.approx(0.5)


def test_derivative_feedback_uses_u_t():
    # F(u, u_t) = 0.1 u_t converges and differs from the F = 0 solve
    prob = scalar_problem()
    bc = BoundaryConditions(
        1.0, 0.0, 0.0, 1.0, f1=cos_field(prob.grid), f2=zero_field(prob.grid)
    )
    tg = TGrid(1.0, 16)
    nl = Nonlinearity(kind="pointwise-polynomial", arity=1, terms=(((0, 1), 0.1),))
    u, report = solve_bvp_semilinear(prob, bc, tg, nl)
    assert report.converged
    base = solve_bvp_linear(prob, bc, tg)
    assert np.max(np.abs(u.values - base.values)) > 1e-4


def test_picard_validation():
    prob = scalar_problem()
    bc = BoundaryConditions(
        1.0, 0.0, 0.0, 1.0, f1=zero_field(prob.grid), f2=zero_field(prob.grid)
    )
    with pytest.raises(InvalidArgumentError):
        solve_bvp_semilinear(prob, bc, TGrid(1.0, 8), Nonlinearity(), max_iter=0)
    two_args = Nonlinearity(
        kind="pointwise-polynomial", arity=2, terms=(((1, 0, 0), 1.0),)
    )
    with pytest.raises(InvalidArgumentError):
        solve_bvp_semilinear(prob, bc, TGrid(1.0, 8), two_args)
