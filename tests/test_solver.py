"""Spectral solver for the stationary operator equation: exactness on single
modes, residuals on random data, gating, coercive reports, lambda sweeps and
norm equivalence."""

import numpy as np
import pytest

from coesolve import (
    DiscretizedProblem,
    Field,
    Grid,
    Kernel,
    Sector,
    SymbolSet,
    apply_operator,
    band_limited_random,
    char_poly,
    coercive_report,
    lambda_sweep,
    lp_norm,
    make_xi_grid,
    norm_equivalence,
    reduced_symbol,
    solve_linear,
)
from coesolve.errors import (
    AdmissibilityError,
    ConditionNotCheckedError,
    DegenerateSymbolError,
    InvalidArgumentError,
)
from coesolve.grids import on_grid, x_fft, x_ifft, x_irfft, x_rfft
from coesolve.kernels import KERNEL_KINDS
from coesolve.operators import (
    DenseMatrixOperator,
    DirichletLaplacian2D,
    PeriodicSturmLiouvilleOperator,
)


def scalar_problem(c=1.0, half_width=16.0 * np.pi, n=512):
    """l = 0 problem (1 + A + lambda) u = f with A = c."""
    sym = SymbolSet(l=0, b=(1.0,), nu=1.0)
    op = DenseMatrixOperator(np.array([[c]]))
    grid = Grid(half_width=half_width, n=n)
    prob = DiscretizedProblem(sym, op, grid, p=2.0)
    prob.check_condition()
    return prob


def convolution_problem(n=256, mu_kernel=None, nu=1.0):
    """Second-order problem with the odd exponential kernel and a 2x2
    diagonal operator."""
    sym = SymbolSet(
        l=2,
        b=(0.0, 0.0, -1.0),
        a_kernels={2: Kernel("exponential-paper", rate=1.0)},
        mu_kernel=mu_kernel,
        nu=nu,
    )
    op = DenseMatrixOperator(np.diag([1.0, 2.0]))
    grid = Grid(half_width=16.0, n=n)
    prob = DiscretizedProblem(sym, op, grid, p=2.0)
    prob.check_condition()
    return prob


# ---------------------------------------------------------------------------
# per-frequency symbols and the certified frequencies
# ---------------------------------------------------------------------------


def test_eta_on_grid_is_the_reduced_symbol():
    """Bit for bit off the unpaired Nyquist row j = n/2.  On it, eta is the
    mean N over -xi_N and +xi_N divided by the mean den; den = 1 here, so
    that is the mean of eta itself, the real part of either value."""
    prob = convolution_problem()
    xi, half = prob.grid.xi, prob.grid.n // 2
    eta = prob.eta_on_grid()
    both = reduced_symbol(prob.symbols, np.append(xi, -xi[half]))
    assert np.delete(eta, half).tobytes() == np.delete(both[:-1], half).tobytes()
    assert eta[half] == 0.5 * both[half] + 0.5 * both[-1] == both[half].real
    assert both[half].imag != 0.0
    poly = on_grid(lambda x: char_poly(prob.symbols, x), xi)
    assert eta.tobytes() == (poly / prob.denominator_on_grid()).tobytes()


def test_eta_on_grid_refuses_a_vanishing_denominator():
    sym = SymbolSet(l=0, b=(1.0,), nu=0.0)
    prob = DiscretizedProblem(sym, DenseMatrixOperator(np.eye(1)), Grid(half_width=1.0, n=8))
    with pytest.raises(DegenerateSymbolError):
        prob.eta_on_grid()


def test_certified_xi_joins_the_log_grid_and_the_solved_frequencies():
    prob = scalar_problem(half_width=1.0, n=2048)
    xi = prob.certified_xi(make_xi_grid(per_side=50))
    # the solver grid and +xi_N, which the Nyquist rule samples too
    solved = np.append(prob.grid.xi, -prob.grid.xi[prob.grid.n // 2])
    solved = solved[solved != 0.0]
    assert -prob.grid.xi[prob.grid.n // 2] in xi
    assert np.all(np.diff(xi) > 0.0) and np.all(xi != 0.0)
    assert len(xi) == len(set(make_xi_grid(per_side=50)) | set(solved))
    assert np.all(np.isin(solved, xi)) and np.abs(solved).max() > 1e3
    assert np.array_equal(prob.certified_xi(), np.union1d(make_xi_grid(), solved))


SPECTRUM_OPERATORS = {
    "dense": lambda: DenseMatrixOperator([[1.0, 0.5], [-0.25, 2.0]]),
    "psl": lambda: PeriodicSturmLiouvilleOperator(b=1.0, n=4),
    "laplacian-2d": lambda: DirichletLaplacian2D(2, 3, c=0.5),
    "complex dense": lambda: DenseMatrixOperator([[1.0, 0.5], [-0.25 + 0.1j, 2.0]]),
}


def spectrum_problem(kind, kernel, b=(0.5, 0.0, -1.0)):
    """A real second-order problem (but for a complex dense A) whose eta and
    den carry ``kernel``: the odd exponential-paper kernel gives both an odd
    imaginary part, which the Nyquist rule averages to 0 on row n/2."""
    make = lambda amplitude: Kernel(kernel, amplitude=amplitude,
                                    fourier_fn=lambda xi: 1.0 / (1.0 + xi * xi))
    sym = SymbolSet(l=2, b=b, nu=1.0, a_kernels={2: make(0.5)},
                    mu_kernel=make(0.25))
    return DiscretizedProblem(sym, SPECTRUM_OPERATORS[kind](), Grid(half_width=4.0, n=16))


def spectrum_samples(prob):
    """(3, n, dim) real samples: three stacked fields."""
    return np.random.default_rng(3).standard_normal((3, prob.grid.n, prob.operator.dim))


@pytest.mark.parametrize("kernel", KERNEL_KINDS)
@pytest.mark.parametrize("kind", sorted(SPECTRUM_OPERATORS))
def test_the_complex_x_spectrum_is_every_row_of_x_fft(kind, kernel):
    prob = spectrum_problem(kind, kernel)
    values = spectrum_samples(prob) * (1.0 - 0.5j)
    for spec in (prob.x_spectrum(False), prob.x_spectrum()):
        assert not spec.real and spec.n == prob.grid.n
        assert spec.den.tobytes() == prob.denominator_on_grid().tobytes()
        assert spec.eta.tobytes() == prob.eta_on_grid().tobytes()
        assert spec.forward(values).tobytes() == x_fft(values).tobytes()
        assert spec.inverse(values).tobytes() == x_ifft(values).tobytes()


@pytest.mark.parametrize("kernel", KERNEL_KINDS)
@pytest.mark.parametrize("kind", sorted(set(SPECTRUM_OPERATORS) - {"complex dense"}))
def test_the_real_x_spectrum_is_the_rows_of_x_rfft(kind, kernel):
    """The first n/2 + 1 rows of the full symbols, whose unpaired Nyquist row
    is real by the Nyquist rule, and the transforms of ``x_rfft``/``x_irfft``,
    which drop an imaginary part."""
    prob = spectrum_problem(kind, kernel)
    n, half = prob.grid.n, prob.grid.n // 2
    spec = prob.x_spectrum(True)
    assert spec.real and spec.n == n
    for got, full in ((spec.den, prob.denominator_on_grid()), (spec.eta, prob.eta_on_grid())):
        assert got.shape == (half + 1,) and got.dtype == complex
        assert got.tobytes() == full[:half + 1].tobytes() and full[half].imag == 0.0
    values = spectrum_samples(prob)
    coeffs = x_rfft(values)
    assert spec.forward(values).tobytes() == coeffs.tobytes()
    assert spec.forward(values + 1j).tobytes() == coeffs.tobytes()
    assert spec.inverse(coeffs).tobytes() == x_irfft(coeffs, n).tobytes()
    assert spec.inverse(coeffs).dtype == np.float64


@pytest.mark.parametrize("kernel", KERNEL_KINDS)
def test_a_complex_dense_a_keeps_every_row(kernel):
    prob = spectrum_problem("complex dense", kernel)
    spec = prob.x_spectrum(True)
    assert not spec.real and len(spec.den) == len(spec.eta) == prob.grid.n
    assert spec.den.tobytes() == prob.denominator_on_grid().tobytes()
    assert spec.eta.tobytes() == prob.eta_on_grid().tobytes()


@pytest.mark.parametrize("kernel", KERNEL_KINDS + ("complex b",))
def test_every_grid_symbol_takes_the_mean_on_the_nyquist_row(kernel):
    """On row n/2, which stands for both -xi_N and +xi_N, den and the
    char_poly N that ``apply_operator`` applies each take 0.5 s(xi_N) +
    0.5 s(-xi_N), and eta is N / den there too, so that ``solve_linear``
    inverts what ``apply_operator`` applies: for every kernel kind the real
    part of a Hermitian symbol.  A complex b_0 and an imaginary b_1 make eta
    non-Hermitian: its odd part averages to 0, the complex b_0 stays, and the
    problem keeps all n rows."""
    b = (0.5 + 0.2j, 0.3j, -1.0) if kernel == "complex b" else (0.5, 0.0, -1.0)
    prob = spectrum_problem("dense", "gaussian" if kernel == "complex b" else kernel, b)
    prob.check_condition()
    grid, half, sym = prob.grid, prob.grid.n // 2, prob.symbols
    signs = np.array([-grid.xi[half], grid.xi[half]])  # +xi_N, -xi_N
    poly = lambda xi: char_poly(sym, xi)
    den, n_val = (0.5 * s[0] + 0.5 * s[1] for s in (sym.denominator(signs), poly(signs)))
    eta = n_val / den
    assert prob.denominator_on_grid()[half] == pytest.approx(den, rel=1e-15)
    assert prob.eta_on_grid()[half] == pytest.approx(eta, rel=1e-15)
    assert on_grid(poly, grid.xi)[half] == pytest.approx(n_val, rel=1e-15)
    if kernel == "complex b":
        assert eta.imag == pytest.approx(0.2 / den.real, rel=1e-12)
        assert not prob.x_spectrum(True).real
    else:
        assert den.imag == eta.imag == n_val.imag == 0.0 and prob.x_spectrum(True).real
        assert n_val == pytest.approx(poly(signs[1]).real, rel=1e-15)
    # the alternating field lives on row n/2 alone: (L u)_j = N u_j + den A u_j there
    u = Field(grid, np.outer((-1.0) ** np.arange(grid.n), [1.0, 2.0]))
    want = n_val * u.values + den * prob.operator.apply_many(u.values)
    got = apply_operator(prob, u).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    back = solve_linear(prob, Field(grid, got)).values
    assert np.max(np.abs(back - u.values)) <= 1e-13 * np.max(np.abs(u.values))


# ---------------------------------------------------------------------------
# exact solves
# ---------------------------------------------------------------------------


def test_scalar_solve_single_mode():
    # (1 + 1 + 1) u = cos  =>  u = cos / 3 (eta = 1, A = 1, lambda = 1)
    prob = scalar_problem()
    f = Field.from_function(prob.grid, np.cos)
    u = solve_linear(prob, f, 1.0)
    assert np.allclose(u.values[:, 0], np.cos(prob.grid.x) / 3.0, atol=1e-12)


def test_zero_forcing_gives_zero_solution():
    prob = convolution_problem()
    f = Field(prob.grid, np.zeros((prob.grid.n, 2), dtype=complex))
    u = solve_linear(prob, f, 10.0)
    assert np.max(np.abs(u.values)) < 1e-15


def test_apply_operator_zero_order():
    # l = 0, b = (2,), nu = 1, A = 3: L u = (2 + 3) u pointwise
    sym = SymbolSet(l=0, b=(2.0,), nu=1.0)
    op = DenseMatrixOperator(np.array([[3.0]]))
    grid = Grid(half_width=8.0, n=64)
    prob = DiscretizedProblem(sym, op, grid, p=2.0)
    prob.check_condition()
    u = Field.from_function(grid, lambda x: np.exp(-(x**2)))
    out = apply_operator(prob, u)
    assert np.allclose(out.values, 5.0 * u.values, atol=1e-12)


def test_apply_operator_cosine_second_order():
    # L u = -u'' + A u with A = 2: cos -> 3 cos on a 2 pi-periodic window
    sym = SymbolSet(l=2, b=(0.0, 0.0, -1.0), nu=1.0)
    op = DenseMatrixOperator(np.array([[2.0]]))
    grid = Grid(half_width=16.0 * np.pi, n=512)
    prob = DiscretizedProblem(sym, op, grid, p=2.0)
    prob.check_condition()
    u = Field.from_function(grid, np.cos)
    out = apply_operator(prob, u)
    assert np.allclose(out.values[:, 0], 3.0 * np.cos(grid.x), atol=1e-10)


def denominator_problems():
    """``convolution_problem`` with the factor mu_hat + nu of its symbol equal
    to 1, varying with xi, and a constant other than 1."""
    mu = Kernel("exponential-standard", rate=1.0, amplitude=0.5)
    return [convolution_problem(), convolution_problem(mu_kernel=mu), convolution_problem(nu=2.5)]


def test_round_trip_apply_then_solve():
    for prob in denominator_problems():
        rng = np.random.default_rng(21)
        u = band_limited_random(prob.grid, rng, max_mode=20, dim=2, decay=1.0)
        lam = 10.0
        f = apply_operator(prob, u, lam)
        back = solve_linear(prob, f, lam)
        assert np.max(np.abs(back.values - u.values)) < 1e-10


def test_residuals_small_on_random_band_limited_data():
    for prob in denominator_problems():
        rng = np.random.default_rng(17)
        for lam in (1.0, 10.0, 100.0, 1000.0 * np.exp(1j * np.pi / 4)):
            f = band_limited_random(prob.grid, rng, max_mode=30, dim=2, decay=1.0)
            u = solve_linear(prob, f, lam)
            resid = apply_operator(prob, u, lam)
            err = np.max(np.abs(resid.values - f.values))
            scale = max(1.0, np.max(np.abs(f.values)))
            assert err / scale < 1e-8


def test_solver_is_linear():
    prob = convolution_problem(n=128)
    rng = np.random.default_rng(30)
    shape = (prob.grid.n, 2)
    f = Field(prob.grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    g = Field(prob.grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    lam = 5.0
    uf = solve_linear(prob, f, lam)
    ug = solve_linear(prob, g, lam)
    combo = Field(prob.grid, 2.0 * f.values - 1.5j * g.values)
    ucombo = solve_linear(prob, combo, lam)
    assert np.allclose(ucombo.values, 2.0 * uf.values - 1.5j * ug.values, atol=1e-12)


def test_real_data_gives_real_solution():
    prob = convolution_problem(n=128)
    f = Field.from_function(prob.grid, lambda x: np.exp(-(x**2)), weights=(1.0, 0.5))
    u = solve_linear(prob, f, 1.0)
    assert np.max(np.abs(u.values.imag)) < 1e-12


# ---------------------------------------------------------------------------
# gating
# ---------------------------------------------------------------------------


def test_solve_requires_condition_check():
    sym = SymbolSet(l=0, b=(1.0,), nu=1.0)
    op = DenseMatrixOperator(np.array([[1.0]]))
    grid = Grid(half_width=4.0, n=32)
    prob = DiscretizedProblem(sym, op, grid, p=2.0)
    f = Field(grid, np.ones(32, dtype=complex))
    with pytest.raises(ConditionNotCheckedError):
        solve_linear(prob, f, 1.0)


def test_solve_refuses_failed_condition_check():
    sym = SymbolSet(l=2, b=(0.0, 1.0, 0.0), nu=1.0)
    op = DenseMatrixOperator(np.array([[1.0]]))
    grid = Grid(half_width=4.0, n=32)
    prob = DiscretizedProblem(sym, op, grid, p=2.0)
    report = prob.check_condition()
    assert not report.all_pass
    f = Field(grid, np.ones(32, dtype=complex))
    with pytest.raises(AdmissibilityError):
        solve_linear(prob, f, 1.0)


def test_lambda_outside_sector_rejected():
    prob = scalar_problem(half_width=4.0, n=32)
    f = Field(prob.grid, np.ones(32, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        solve_linear(prob, f, -1.0)


def test_narrowed_sector_is_respected():
    sym = SymbolSet(l=0, b=(1.0,), nu=1.0)
    op = DenseMatrixOperator(np.array([[1.0]]))
    grid = Grid(half_width=4.0, n=32)
    prob = DiscretizedProblem(sym, op, grid, p=2.0)
    prob.check_condition(lambda_sector=Sector(np.pi / 4))
    f = Field(grid, np.ones(32, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        solve_linear(prob, f, 1.0j)


def test_field_grid_mismatch_rejected():
    prob = scalar_problem(half_width=4.0, n=32)
    other = Grid(half_width=4.0, n=64)
    f = Field(other, np.ones(64, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        solve_linear(prob, f, 1.0)


def test_field_dimension_mismatch_rejected():
    prob = convolution_problem(n=64)
    f = Field(prob.grid, np.ones((64, 1), dtype=complex))
    with pytest.raises(InvalidArgumentError):
        solve_linear(prob, f, 1.0)


# ---------------------------------------------------------------------------
# coercive report
# ---------------------------------------------------------------------------


def test_coercive_report_scalar_balance():
    # for the scalar problem u = f/3 at lambda = 1, so the k = 0 term
    # carries weight |lambda| ||u|| = ||f|| / 3, as does ||Au||
    prob = scalar_problem()
    f = Field.from_function(prob.grid, np.cos)
    report = coercive_report(prob, f, 1.0)
    assert report.f_norm == pytest.approx(lp_norm(f, 2.0))
    assert report.derivative_terms[0] == pytest.approx(report.f_norm / 3.0, rel=1e-9)
    assert report.au_term == pytest.approx(report.f_norm / 3.0, rel=1e-9)
    assert report.ratio == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_coercive_report_convolution_terms_present():
    prob = convolution_problem()
    rng = np.random.default_rng(5)
    f = band_limited_random(prob.grid, rng, max_mode=20, dim=2, decay=1.0)
    report = coercive_report(prob, f, 10.0)
    assert len(report.derivative_terms) == 3
    assert len(report.convolution_terms) == 3
    assert report.convolution_terms[2] > 0.0
    assert report.mu_conv_term == 0.0
    assert report.ratio <= 10.0


def test_odd_order_convolution_terms_zero_the_nyquist_row():
    """The alternating field u_j = (-1)^j lives on the unpaired Nyquist row
    alone, which odd orders zero: the term a_1 * d^1 u reads 0.0, as d^1 u
    does, while the even orders see the field."""
    sym = SymbolSet(l=2, b=(1.0, 0.0, -1.0), nu=1.0,
                    a_kernels={1: Kernel("gaussian", amplitude=0.5), 2: Kernel("gaussian")})
    prob = DiscretizedProblem(sym, DenseMatrixOperator(np.eye(1)), Grid(half_width=4.0, n=16))
    u = Field(prob.grid, (-1.0) ** np.arange(16))
    report = coercive_report(prob, u, 1.0, u=u)
    assert report.derivative_terms[1] == report.convolution_terms[1] == 0.0
    assert report.derivative_terms[2] > 0.0 and report.convolution_terms[2] > 0.0


def test_coercive_report_rejects_zero_forcing():
    prob = scalar_problem(half_width=4.0, n=32)
    f = Field(prob.grid, np.zeros(32, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        coercive_report(prob, f, 1.0)


# ---------------------------------------------------------------------------
# lambda sweep
# ---------------------------------------------------------------------------


def test_sweep_resolvent_values_scalar():
    # (2 + lam) u = cos: resolvent value (1 + |lam|) ||u|| / ||f||
    prob = scalar_problem()
    f = Field.from_function(prob.grid, np.cos)
    table = lambda_sweep(prob, f, [1.0, 10.0])
    vals = [row["resolvent_value"] for row in table.rows]
    assert vals[0] == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert vals[1] == pytest.approx(11.0 / 12.0, rel=1e-9)
    assert table.max_resolvent_value == pytest.approx(11.0 / 12.0, rel=1e-9)


def test_sweep_rows_sorted_by_modulus():
    prob = scalar_problem(half_width=4.0, n=64)
    f = Field.from_function(prob.grid, lambda x: np.exp(-(x**2)))
    table = lambda_sweep(prob, f, [100.0, 1.0, 10.0])
    moduli = [abs(row["lambda"]) for row in table.rows]
    assert moduli == sorted(moduli)


def test_sweep_spread_stays_bounded_over_decades():
    prob = convolution_problem()
    rng = np.random.default_rng(40)
    f = band_limited_random(prob.grid, rng, max_mode=20, dim=2, decay=1.0)
    table = lambda_sweep(prob, f, list(np.geomspace(1.0, 1e3, 7)))
    assert table.ratio_spread <= 10.0


def test_sweep_accepts_boundary_ray_lambdas():
    prob = scalar_problem(half_width=4.0, n=64)
    f = Field.from_function(prob.grid, lambda x: np.exp(-(x**2)))
    lam = 10.0 * np.exp(1j * np.pi / 2)
    table = lambda_sweep(prob, f, [lam])
    assert np.isfinite(table.max_resolvent_value)


def test_sweep_rejects_empty_lambda_list():
    prob = scalar_problem(half_width=4.0, n=32)
    f = Field(prob.grid, np.ones(32, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        lambda_sweep(prob, f, [])


def test_sweep_rejects_zero_forcing():
    prob = scalar_problem(half_width=4.0, n=32)
    f = Field(prob.grid, np.zeros(32, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        lambda_sweep(prob, f, [1.0])


# ---------------------------------------------------------------------------
# norm equivalence
# ---------------------------------------------------------------------------


def test_norm_equivalence_scalar_exact_ratio():
    # L u = (1 + A) u = 2u; sobolev norm of u (l = 0, with operator) is
    # ||u|| + ||Au|| + ||u|| = 3 ||u||, so every ratio is 2/3
    prob = scalar_problem(half_width=8.0, n=64)
    rng = np.random.default_rng(1)
    fields = [band_limited_random(prob.grid, rng, max_mode=10) for _ in range(5)]
    ratios, spread = norm_equivalence(prob, fields)
    assert len(ratios) == 5
    assert np.allclose(ratios, 2.0 / 3.0, rtol=1e-9)
    assert spread == pytest.approx(1.0, rel=1e-9)


def test_norm_equivalence_spread_bounded_for_convolution_problem():
    prob = convolution_problem()
    rng = np.random.default_rng(8)
    fields = [
        band_limited_random(prob.grid, rng, max_mode=30, dim=2) for _ in range(20)
    ]
    ratios, spread = norm_equivalence(prob, fields)
    assert len(ratios) == 20
    assert spread <= 50.0


def test_norm_equivalence_skips_zero_fields():
    prob = scalar_problem(half_width=8.0, n=64)
    rng = np.random.default_rng(2)
    zero = Field(prob.grid, np.zeros(64, dtype=complex))
    fields = [zero, band_limited_random(prob.grid, rng, max_mode=5)]
    ratios, _ = norm_equivalence(prob, fields)
    assert len(ratios) == 1


def test_norm_equivalence_rejects_all_zero_input():
    prob = scalar_problem(half_width=8.0, n=64)
    zero = Field(prob.grid, np.zeros(64, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        norm_equivalence(prob, [zero, zero])
