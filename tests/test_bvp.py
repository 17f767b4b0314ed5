"""Two-point boundary value problems on the strip: nondegeneracy gating,
discretization order, residuals, the dense-assembly oracle of the
t-eigenbasis solve, Picard iteration with strip shortening."""

import contextlib
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

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
    band_limited_random,
    bvp_discrete_residual,
    check_nondegenerate,
    solve_bvp_linear,
    solve_bvp_semilinear,
)
from coesolve import bvp
from coesolve.bvp import BOUNDARY_AMPLIFICATION_LIMIT, _boundary_rows
from coesolve.cli import main
from coesolve.errors import DegenerateBoundaryError, InvalidArgumentError
from coesolve.operators import (
    DenseMatrixOperator,
    DirichletLaplacian2D,
    OperatorRealization,
    PeriodicSturmLiouvilleOperator,
)
from coesolve.presets import get_preset


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


def dense_bvp_oracle(problem, bc, tgrid, forcing=None):
    """The whole discrete system, every node, frequency and component at
    once, assembled with ``np.kron`` and solved densely; returns the
    (m+2, n, dim) solution in x."""
    n, d, m, dt = problem.grid.n, problem.operator.dim, tgrid.m, tgrid.dt
    (c00, c01, c02), (c10, c11, c12) = _boundary_rows(bc, dt)
    t_rows = np.zeros((m + 2, m + 2), dtype=complex)  # boundary rows and -v''
    t_rows[0, :3] = c00, c01, c02
    t_rows[-1, -3:] = c12, c11, c10
    i = np.arange(1, m + 1)
    t_rows[i, i - 1] = t_rows[i, i + 1] = -1.0 / dt**2
    t_rows[i, i] = 2.0 / dt**2
    den, eta = problem.denominator_on_grid(), problem.eta_on_grid()
    m_blocks = np.kron(np.diag(den), problem.operator.as_dense()) + np.kron(
        np.diag(den * eta), np.eye(d)
    )
    interior = np.diag(np.r_[0.0, np.ones(m), 0.0])
    system = np.kron(t_rows, np.eye(n * d)) + np.kron(interior, m_blocks)
    rhs = np.zeros((m + 2, n, d), dtype=complex)
    if forcing is not None:
        rhs[:] = np.fft.fft(forcing, axis=1)
    rhs[0] = np.fft.fft(bc.f1.values, axis=0)
    rhs[-1] = np.fft.fft(bc.f2.values, axis=0)
    uh = np.linalg.solve(system, rhs.reshape(-1)).reshape(m + 2, n, d)
    return np.fft.ifft(uh, axis=1)


def scaled_gap(x, ref):
    return np.max(np.abs(x - ref)) / max(1.0, np.max(np.abs(ref)))


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
    """One cosine mode in x with Robin rows at both ends and a forcing
    profile in t, against the assembled system."""
    prob = scalar_problem()
    tg = TGrid(1.0, 12)
    f1 = cos_field(prob.grid, amp=0.7)
    f2 = cos_field(prob.grid, amp=-0.2)
    bc = BoundaryConditions(1.0, 0.5, 0.3, 1.0, f1=f1, f2=f2)
    g_profile = np.sin(np.pi * tg.t)  # forcing amplitude per time node
    forcing = (g_profile[:, None, None] * np.cos(prob.grid.x)[None, :, None]).astype(complex)

    u = solve_bvp_linear(prob, bc, tg, forcing=forcing)

    assert np.max(np.abs(u.values - dense_bvp_oracle(prob, bc, tg, forcing))) < 1e-11
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
    """The structured FFT eigenbasis, the dense eigenbasis and the dense LU
    resolvent (no eigenbasis) solve the same discrete system."""
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
# the t-eigenbasis solve against the dense assembly
# ---------------------------------------------------------------------------

ORACLE_SYMBOLS = SymbolSet(
    l=2,
    b=(0.5, 0.0, -1.0),
    a_kernels={2: Kernel("exponential-paper", rate=1.0, amplitude=0.5)},
    nu=1.0,
)
ORACLE_OPERATORS = {
    "psl": PeriodicSturmLiouvilleOperator(b=1.0, n=4),
    "laplacian-2d": DirichletLaplacian2D(2, 2, c=0.5),
    # upper triangular with distinct eigenvalues: an eigenbasis, but not a normal A
    "non-normal": DenseMatrixOperator([[1.0, 2.0, -1.0j], [0.0, 1.5, 1.0], [0.0, 0.0, 2.0]]),
    # defective: no eigenbasis, so the resolvent runs its batched LU
    "jordan": DenseMatrixOperator([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]),
}


def oracle_problem(kind):
    prob = DiscretizedProblem(ORACLE_SYMBOLS, ORACLE_OPERATORS[kind], Grid(4.0, 8), p=2.0)
    prob.check_condition()
    return prob


def random_data(prob, tg, seed):
    """Complex boundary data and forcing drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    shape = (prob.grid.n, prob.operator.dim)
    draw = lambda *lead: rng.standard_normal(lead + shape) + 1j * rng.standard_normal(lead + shape)
    return Field(prob.grid, draw()), Field(prob.grid, draw()), draw(tg.m + 2)


def _amplification(bc, tg):
    """||K_bb^{-1} K_bu||_inf of the boundary rows, assembled here."""
    (c00, c01, c02), (c10, c11, c12) = _boundary_rows(bc, tg.dt)
    rows = np.zeros((2, tg.m + 2), dtype=complex)
    rows[0, :3] = c00, c01, c02
    rows[1, -3:] = c12, c11, c10
    try:
        return np.linalg.norm(np.linalg.solve(rows[:, [0, -1]], rows[:, 1:-1]), np.inf)
    except np.linalg.LinAlgError:
        return np.inf


complex_coeff = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@pytest.mark.parametrize("kind", sorted(ORACLE_OPERATORS))
@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.tuples(complex_coeff, complex_coeff, complex_coeff, complex_coeff),
    m=st.sampled_from([1, 2, 3]) | st.integers(4, 40),
    t_final=st.floats(0.25, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_robin_rows_match_the_dense_assembly(kind, coeffs, m, t_final, seed):
    prob, tg = oracle_problem(kind), TGrid(t_final, m)
    f1, f2, forcing = random_data(prob, tg, seed)
    bc = BoundaryConditions(*coeffs, f1=f1, f2=f2)
    assume(abs(check_nondegenerate(bc)) > 0.05)
    assume(_amplification(bc, tg) < 100.0)
    u = solve_bvp_linear(prob, bc, tg, forcing=forcing)
    assert scaled_gap(u.values, dense_bvp_oracle(prob, bc, tg, forcing)) <= 1e-10


@pytest.mark.parametrize("kind", sorted(ORACLE_OPERATORS))
def test_one_resolvent_call_per_solve(kind, monkeypatch):
    """One solve is one ``resolvent_solve_many`` call over all n m rows: no
    banded solve for any kind, and no dense matrix for a unitary kind."""
    prob = oracle_problem(kind)
    calls = []
    resolvent = OperatorRealization.resolvent_solve_many

    def counted(self, z_rows, w_rows):
        calls.append(len(z_rows))
        return resolvent(self, z_rows, w_rows)

    def forbidden(*args, **kwargs):
        raise AssertionError("the BVP solve left the one resolvent path")

    monkeypatch.setattr(OperatorRealization, "resolvent_solve_many", counted)
    monkeypatch.setattr(scipy.linalg, "solve_banded", forbidden)
    if prob.operator.unitary:
        monkeypatch.setattr(OperatorRealization, "as_dense", forbidden)
    tg = TGrid(1.0, 6)
    f1, f2, forcing = random_data(prob, tg, 5)
    bc = BoundaryConditions(1.0, 0.5, 0.3, 1.0, f1=f1, f2=f2)
    solve_bvp_linear(prob, bc, tg, forcing=forcing)
    assert calls == [tg.m * prob.grid.n]


# alpha1 = 1.5 beta1 / dt leaves row 0 without a u(0) coefficient (dt = 1)
ZERO_ROW = dict(alpha1=1.5, beta1=1.0, alpha2=0.0, beta2=1.0)


def test_a_row_without_its_boundary_value_is_rejected():
    prob = oracle_problem("psl")
    tg = TGrid(3.0, 2)
    f1, f2, _ = random_data(prob, tg, 1)
    with pytest.raises(DegenerateBoundaryError, match="boundary row 0 does not determine u"):
        solve_bvp_linear(prob, BoundaryConditions(**ZERO_ROW, f1=f1, f2=f2), tg)


def test_a_row_without_its_boundary_value_exits_three(tmp_path, capsys):
    config = get_preset("problem-4.6")
    section = config["solve-elliptic"]
    section.update(t_final=3.0, m=2)
    section["bc"].update(ZERO_ROW)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["solve-elliptic", "--config", str(path)]) == 3
    assert "boundary row 0" in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(ORACLE_OPERATORS))
def test_just_inside_the_amplification_limit(kind):
    # c00 = 1.5 eps is 2.5 / limit * 0.9 of the off-diagonal pair (2, -0.5)
    eps = 2.5 / BOUNDARY_AMPLIFICATION_LIMIT / 1.5 / 0.9
    prob, tg = oracle_problem(kind), TGrid(3.0, 2)
    f1, f2, forcing = random_data(prob, tg, 2)
    bc = BoundaryConditions(**{**ZERO_ROW, "alpha1": 1.5 + 1.5 * eps}, f1=f1, f2=f2)
    assert 0.8 * BOUNDARY_AMPLIFICATION_LIMIT < _amplification(bc, tg) < BOUNDARY_AMPLIFICATION_LIMIT
    u = solve_bvp_linear(prob, bc, tg, forcing=forcing)
    assert scaled_gap(u.values, dense_bvp_oracle(prob, bc, tg, forcing)) <= 1e-9


def test_a_defective_t_operator_is_rejected():
    """Complex Robin rows can make the eliminated 2 x 2 t-operator defective
    (T = 3, m = 2: dt = 1, beta1 = beta2 = 1, alpha2 = 1/2 and 1 / (alpha1 -
    3/2) a root of x^2 + 11/8 x + 1); it then has no eigenbasis."""
    prob = oracle_problem("psl")
    tg = TGrid(3.0, 2)
    f1, f2, _ = random_data(prob, tg, 3)
    alpha1 = 1.5 + 1.0 / np.roots([1.0, 1.375, 1.0])[0]
    bc = BoundaryConditions(alpha1, 1.0, 0.5, 1.0, f1=f1, f2=f2)
    with pytest.raises(DegenerateBoundaryError, match="eigenbasis"):
        solve_bvp_linear(prob, bc, tg)


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


@pytest.mark.parametrize("max_t_halvings, halvings", [(0, 0), (3, 2)])
def test_t_modes_are_taken_once_per_strip_length(max_t_halvings, halvings, monkeypatch):
    """Every Picard iterate on one strip reuses its t-eigenbasis; only a
    T-halving takes a new one."""
    calls = []
    t_modes = bvp._t_modes

    def counted(bc, tgrid):
        calls.append(tgrid.t_final)
        return t_modes(bc, tgrid)

    monkeypatch.setattr(bvp, "_t_modes", counted)
    prob = scalar_problem()
    bc = BoundaryConditions(
        1.0, 0.0, 0.0, 1.0, f1=cos_field(prob.grid), f2=zero_field(prob.grid)
    )
    nl = Nonlinearity(kind="pointwise-polynomial", arity=0, terms=(((1,), 5.0),))
    _, report = solve_bvp_semilinear(
        prob, bc, TGrid(2.0, 40), nl, max_iter=25, tol=1e-8, max_t_halvings=max_t_halvings
    )
    assert report.t_halvings == halvings
    assert report.iterations > 1
    assert len(calls) == 1 + report.t_halvings
    assert calls == [2.0 / 2**k for k in range(1 + halvings)]


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



# ---------------------------------------------------------------------------
# real strip solves on the half spectrum
# ---------------------------------------------------------------------------

# Real A of the three kinds; the dense one is not normal.
REAL_OPERATORS = {
    "dense": lambda: DenseMatrixOperator([[1.0, 0.5], [-0.25, 2.0]]),
    "psl": lambda: PeriodicSturmLiouvilleOperator(b=1.0, n=4),
    "laplacian-2d": lambda: DirichletLaplacian2D(2, 3, c=0.5),
}


def real_problem(op, kernel="exponential-paper", amplitude=0.5):
    sym = SymbolSet(l=2, b=(0.5, 0.0, -1.0), nu=1.0,
                    a_kernels={2: Kernel(kernel, rate=1.0, amplitude=amplitude)})
    prob = DiscretizedProblem(sym, op, Grid(4.0, 16), p=2.0)
    prob.check_condition()
    return prob


def real_strip_data(prob, tg, seed, max_mode):
    """Real band-limited boundary data and a real forcing with every mode."""
    rng = np.random.default_rng(seed)
    dim = prob.operator.dim
    draw = lambda: Field(prob.grid, 0.3 * band_limited_random(prob.grid, rng, max_mode, dim).values)
    return draw(), draw(), 0.3 * rng.standard_normal((tg.m + 2, prob.grid.n, dim))


@contextlib.contextmanager
def complex_path(prob):
    """``prob`` fails the one realness rule inside and solves on all n rows of
    its unchanged symbols, which the Nyquist rule makes the real path's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prob, "x_spectrum", lambda real=False, rule=prob.x_spectrum: rule(False))
        yield


def strip_run(prob, bc, tg, form, coeffs, forcing):
    """The linear solve (with or without ``forcing``) or a Picard run."""
    c1, c2 = coeffs
    if form == "linear":
        return solve_bvp_linear(prob, bc, tg), None
    if form == "forcing":
        return solve_bvp_linear(prob, bc, tg, forcing=forcing), None
    terms = {
        "arity 0": (((1,), c1), ((3,), c2)),
        "arity 1": (((0, 1), c1), ((1, 1), c2)),
    }[form]
    nl = Nonlinearity(kind="pointwise-polynomial", arity=len(terms[0][0]) - 1, terms=terms)
    u, report = solve_bvp_semilinear(prob, bc, tg, nl, max_iter=60, tol=1e-13)
    assert report.converged
    return u, bvp._evaluate_rhs(nl, u)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(REAL_OPERATORS)),
    kernel=st.sampled_from(["exponential-paper", "exponential-standard", "gaussian"]),
    form=st.sampled_from(["linear", "forcing", "arity 0", "arity 1"]),
    rows=st.tuples(*[st.floats(-2.0, 2.0)] * 4),
    coeffs=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    m=st.integers(1, 24),
    t_final=st.floats(0.25, 1.0),
    max_mode=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_strip_matches_the_complex_path(
    kind, kernel, form, rows, coeffs, m, t_final, max_mode, seed
):
    """Real rows, data, forcing or polynomial F under a real A solve on the
    n/2 + 1 rows of x_rfft: float64 samples (every im exactly 0), the complex
    path's answer to rounding, and a discrete residual, checked through
    ``apply_many``, at rounding level."""
    prob, tg = real_problem(REAL_OPERATORS[kind](), kernel), TGrid(t_final, m)
    f1, f2, forcing = real_strip_data(prob, tg, seed, max_mode)
    if form.startswith("arity"):  # dissipative rows, under which Picard converges
        a1, b1, a2, b2 = map(abs, rows)
        rows = (a1, -b1, a2, b2)
    bc = BoundaryConditions(*rows, f1=f1, f2=f2)
    assume(abs(check_nondegenerate(bc)) > 0.05)
    assume(_amplification(bc, tg) < 100.0)
    u, rhs = strip_run(prob, bc, tg, form, coeffs, forcing)
    assert u.real and u.values.dtype == np.float64
    residual_forcing = forcing if form == "forcing" else rhs
    assert bvp_discrete_residual(prob, bc, tg, u, forcing=residual_forcing) <= 1e-9
    with complex_path(prob):
        ref, _ = strip_run(prob, bc, tg, form, coeffs, forcing)
    assert not ref.real and ref.values.dtype == complex
    assert np.max(np.abs(u.values - ref.values)) <= 1e-10 * np.max(np.abs(ref.values))


@pytest.mark.parametrize("case", [
    "none", "alpha", "boundary weight at 0", "boundary weight at T", "forcing weight",
    "entry of A", "kernel amplitude", "closed-form F", "complex F coefficient",
])
def test_one_complex_input_takes_the_complex_path(case):
    """A real problem with one complex input solves in complex arithmetic on
    all n rows, with the bits of the complex path; with none it is real."""
    op = REAL_OPERATORS["dense"]()
    if case == "entry of A":
        op = DenseMatrixOperator([[1.0, 0.5], [-0.25 + 0.1j, 2.0]])
    prob = real_problem(op, amplitude=0.5 + 0.1j if case == "kernel amplitude" else 0.5)
    tg = TGrid(0.5, 12)
    f1, f2, forcing = real_strip_data(prob, tg, 4, 3)
    weight = np.array([1.0, 1.0 + 0.1j])
    if case == "boundary weight at 0":
        f1 = Field(prob.grid, f1.values * weight)
    if case == "boundary weight at T":
        f2 = Field(prob.grid, f2.values * weight)
    if case == "forcing weight":
        forcing = forcing * np.array([1.0 + 0.1j, 1.0])
    bc = BoundaryConditions(1.0 + 0.1j if case == "alpha" else 1.0, 0.0, 0.0, 1.0, f1=f1, f2=f2)
    nl = {
        "closed-form F": Nonlinearity(kind="pointwise-closed-form", fn=lambda u: -u**3),
        "complex F coefficient": Nonlinearity(kind="pointwise-polynomial",
                                              terms=(((3,), -1.0 + 0.1j),)),
    }.get(case)
    run = lambda: (solve_bvp_linear(prob, bc, tg, forcing=forcing) if nl is None
                   else solve_bvp_semilinear(prob, bc, tg, nl)[0])
    u = run()
    if case == "none":
        assert u.real
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prob, "x_spectrum", lambda real=False, rule=prob.x_spectrum: rule(False))
        ref = run()
    assert not u.real and u.values.dtype == complex
    assert u.values.tobytes() == ref.values.tobytes()
