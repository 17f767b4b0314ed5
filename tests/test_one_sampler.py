"""One sampler per frequency grid, and the duplicate computations it removed.

``DiscretizedProblem.x_spectrum`` samples den and N on the solver grid in one
``on_grid`` call; ``apply_operator``, ``denominator_on_grid`` and
``eta_on_grid`` read it.  The admissibility gate transforms each kernel once
and hands the transform to ``_derivative_sup``.  The references below are the
code those paths ran before (their own den and N samples, ``x_fft``/``x_ifft``
called directly, a second kernel transform in the gate), and each new path
must give the same bits.  So must ``sobolev_norm``, ``rademacher_lp_norm`` and
the F(u) integral of a semilinear run, which now compute a norm once or call
``np.linalg.norm`` instead of a hand copy of it.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coesolve import Field, Grid, Kernel, SymbolSet, get_preset, run_scenario
from coesolve import grids, solver
from coesolve.errors import AdmissibilityError, DegenerateSymbolError, InvalidArgumentError
from coesolve.config import build_problem
from coesolve.evolution import MATRIX_STEP_MAX_WORK, _FIntegral, step_count
from coesolve.grids import derivative_symbols, on_grid, x_fft, x_ifft, x_multiply
from coesolve.norms import lp_norm, sobolev_norm
from coesolve.operators import (
    DenseMatrixOperator, DirichletLaplacian2D, PeriodicSturmLiouvilleOperator,
)
from coesolve.rademacher import RademacherSample, rademacher_lp_norm
from coesolve.solver import DiscretizedProblem, apply_operator
from coesolve.symbols import (
    DEFAULT_LAMBDA_SECTOR, DENOM_FLOOR, ConditionReport, char_poly, check_symbol_conditions,
    checked_denominator, make_xi_grid,
)

# ---------------------------------------------------------------------------
# the code each path ran before
# ---------------------------------------------------------------------------


def ref_apply_operator(problem, u, lam=0.0):
    problem.require_checked()
    problem.validate_field(u)
    den = on_grid(problem.symbols.denominator, problem.grid.xi)
    n_vals = on_grid(lambda xi: char_poly(problem.symbols, xi), problem.grid.xi)
    uh = x_fft(u.values)
    auh = x_fft(problem.operator.apply_many(u.values))
    out = (n_vals + den * lam)[:, None] * uh + den[:, None] * auh
    return Field(problem.grid, x_ifft(out))


def ref_x_spectrum(problem, real):
    """(den, N, eta, real rows) as ``denominator_on_grid`` and ``eta_on_grid`` sampled
    them, each with its own ``on_grid`` call, under the same realness rule."""
    xi, n = problem.grid.xi, problem.grid.n
    den = on_grid(problem.symbols.denominator, xi)
    poly = on_grid(lambda x: char_poly(problem.symbols, x), xi)
    eta = poly / checked_denominator(on_grid(problem.symbols.denominator, xi), xi)
    hermitian = lambda s: np.array_equal(s, np.roll(s[::-1], 1).conj())
    if real and problem.operator.real and hermitian(den) and hermitian(eta):
        return den[:n // 2 + 1], poly[:n // 2 + 1], eta[:n // 2 + 1], True
    return den, poly, eta, False


def ref_derivative_sup(kernel, xi):
    vals = np.abs(np.asarray(kernel.fourier(xi), dtype=complex))
    dervs = np.abs(xi * np.asarray(kernel.fourier_deriv(xi), dtype=complex))
    return float(max(vals.max(), dervs.max()))


def ref_check_symbol_conditions(symbols, xi_grid, lambda_sector=DEFAULT_LAMBDA_SECTOR):
    xi_grid = np.asarray(xi_grid, dtype=float)
    den = np.asarray(symbols.denominator(xi_grid), dtype=complex)
    c_mu = float(np.min(np.abs(den)))
    mu_inf = symbols.mu_kernel.fourier_at_infinity() if symbols.mu_kernel is not None else 0j
    if mu_inf is not None:
        c_mu = min(c_mu, abs(symbols.nu + mu_inf))
    n_vals = np.asarray(char_poly(symbols, xi_grid), dtype=complex)
    c_n = float(np.min(np.abs(n_vals) / np.abs(xi_grid) ** symbols.l))
    top = symbols.a_kernels.get(symbols.l)
    top_inf = 0j if top is None else top.fourier_at_infinity()
    if top_inf is not None:
        c_n = min(c_n, abs(symbols.b[symbols.l] + top_inf))
    valid = np.abs(den) >= DENOM_FLOOR
    if np.any(valid):
        eta_vals = n_vals[valid] / den[valid]
        nonzero = eta_vals != 0
        phi1 = float(np.max(np.abs(np.angle(eta_vals[nonzero])))) if np.any(nonzero) else 0.0
    else:
        phi1 = math.pi
    c1 = 0.0
    for ker in symbols.a_kernels.values():
        c1 = max(c1, ref_derivative_sup(ker, xi_grid))
    c2 = ref_derivative_sup(symbols.mu_kernel, xi_grid) if symbols.mu_kernel else 0.0
    phi2 = lambda_sector.angle
    return ConditionReport(
        c_mu=c_mu, c_n=c_n, c1=c1, c2=c2, phi1=phi1, phi2=phi2,
        pass1=c_mu > 0.0, pass2=c_n > 0.0,
        pass3=(phi1 < math.pi) and (phi1 + phi2 < math.pi),
        pass4=math.isfinite(c1) and math.isfinite(c2),
    )


def ref_sobolev_norm(field, l, p, operator=None):
    total = lp_norm(field, p)
    if operator is not None:
        total += lp_norm(Field(field.grid, operator.apply_many(field.values)), p)
    else:
        total += lp_norm(field, p)
    total += lp_norm(field, p)
    for dk in x_multiply(field.values, derivative_symbols(field.grid.xi, range(1, l + 1))):
        total += lp_norm(Field(field.grid, dk), p)
    return float(total)


def ref_rademacher_lp_norm(vectors, p, sample):
    v = np.asarray(vectors, dtype=complex)
    sums = sample.signs().astype(complex) @ v
    squares = sums.conj()
    squares *= sums
    mags = np.sqrt(np.add.reduce(squares.real, axis=1))
    return float(np.mean(mags**p) ** (1.0 / p))


def ref_f_integral(rows, dt, h, p):
    total, size = 0.0, max(1, MATRIX_STEP_MAX_WORK // rows[0].size)
    for block in np.array_split(rows, range(0, len(rows), size)[1:]):
        mags = np.sqrt(np.add.reduce((block.conj() * block).real, axis=-1))
        for s in np.add.reduce(mags**p, axis=-1).tolist():
            total += dt * ((h * s) ** (1.0 / p)) ** p
    return total


# ---------------------------------------------------------------------------
# strategies and comparison
# ---------------------------------------------------------------------------

finite = st.floats(-3.0, 3.0, allow_nan=False)
cplx = st.builds(complex, finite, finite)
KINDS = ["dirac-scaled", "exponential-paper", "exponential-standard", "gaussian"]
kernels = st.builds(Kernel, kind=st.sampled_from(KINDS), rate=st.floats(0.2, 4.0), amplitude=cplx)


@st.composite
def symbol_sets(draw):
    l = draw(st.integers(0, 3))
    orders = draw(st.sets(st.integers(0, l)))
    return SymbolSet(
        l=l,
        b=tuple(draw(cplx) for _ in range(l + 1)),
        a_kernels={k: draw(kernels) for k in sorted(orders)},
        mu_kernel=draw(st.none() | kernels),
        nu=draw(cplx),
    )


lambdas = st.builds(
    lambda r, t: complex(r * math.cos(t), r * math.sin(t)),
    st.floats(0.0, 50.0),
    st.floats(-math.pi / 2, math.pi / 2),
)

OPERATORS = {
    "dense": lambda: DenseMatrixOperator([[2.0, 1.0 + 0.5j], [0.0, 3.0]]),
    "psl": lambda: PeriodicSturmLiouvilleOperator(b=0.7, n=4),
    "laplacian-2d": lambda: DirichletLaplacian2D(2, 3, c=0.5),
}
CUSTOM = Kernel("custom-closed-form", amplitude=1.0, fourier_fn=lambda xi: 0.5 / (1.0 + xi * xi))
ODD_MU = SymbolSet(l=2, b=(0.5, 0.0, -1.0), nu=1.0,
                   a_kernels={2: Kernel("exponential-paper", amplitude=0.5)},
                   mu_kernel=Kernel("exponential-paper", amplitude=0.25))
COMPLEX_B = SymbolSet(l=2, b=(0.5 + 0.2j, 0.3j, -1.0), nu=1.0,
                      a_kernels={1: Kernel("gaussian", rate=0.5, amplitude=0.3)})
CUSTOM_KERNELS = SymbolSet(l=2, b=(1.0, 0.0, -1.0), nu=1.0, a_kernels={0: CUSTOM, 2: CUSTOM},
                           mu_kernel=CUSTOM)
DEGENERATE = SymbolSet(l=0, b=(1.0,), nu=1.0, mu_kernel=Kernel("dirac-scaled", amplitude=-1.0))
NAMED = {"odd mu": ODD_MU, "complex b": COMPLEX_B, "custom": CUSTOM_KERNELS,
         "degenerate": DEGENERATE}


def report_bits(report):
    return [np.float64(getattr(report, f.name)).tobytes() for f in dataclasses.fields(report)]


def outcome(fn, *args):
    """``fn(*args)``, or the class and message of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def problem_of(symbols, kind, n=16):
    return DiscretizedProblem(symbols, OPERATORS[kind](), Grid(half_width=4.0, n=n))


# ---------------------------------------------------------------------------
# bit for bit against the references
# ---------------------------------------------------------------------------


def assert_gate_matches(symbols, xi):
    new, ref = outcome(check_symbol_conditions, symbols, xi), outcome(ref_check_symbol_conditions, symbols, xi)
    if isinstance(ref, tuple):
        assert new == ref
    else:
        assert report_bits(new) == report_bits(ref)
    return ref


@settings(max_examples=120)
@given(symbol_sets())
@example(ODD_MU)
@example(COMPLEX_B)
@example(CUSTOM_KERNELS)  # its limit at infinity is unknown
def test_the_gate_reports_the_old_bits(symbols):
    xi = make_xi_grid(per_side=60)
    assert_gate_matches(symbols, xi)
    assert_gate_matches(symbols, problem_of(symbols, "dense").certified_xi(xi))


def test_a_degenerate_denominator_reports_the_old_bits():
    ref = assert_gate_matches(DEGENERATE, make_xi_grid(per_side=60))
    assert ref.c_mu == 0.0 and not ref.pass1 and ref.phi1 == math.pi


@settings(max_examples=100)
@given(symbol_sets(), st.sampled_from(sorted(OPERATORS)), st.booleans())
@example(ODD_MU, "psl", True)
@example(COMPLEX_B, "dense", True)
@example(CUSTOM_KERNELS, "laplacian-2d", True)
@example(DEGENERATE, "dense", False)
def test_x_spectrum_gives_the_old_bits(symbols, kind, real):
    problem = problem_of(symbols, kind)
    new, ref = outcome(problem.x_spectrum, real), outcome(ref_x_spectrum, problem, real)
    if isinstance(ref, tuple) and isinstance(ref[0], type):
        assert new == ref
    else:
        assert [a.tobytes() for a in ref[:3]] == [new.den.tobytes(), new.poly.tobytes(), new.eta.tobytes()]
        assert new.real == ref[3] and new.n == problem.grid.n


def assert_apply_matches(problem, lam, seed=0):
    """``apply_operator`` gives the bits of the reference, or both refuse alike.
    The reference never checked den, so a den below the floor on the grid now
    raises where it ran: the one allowed difference."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((problem.grid.n, problem.operator.dim)) * (1.0 - 0.5j)
    u = Field(problem.grid, values)
    try:
        ref = ref_apply_operator(problem, u, lam)
    except AdmissibilityError:
        with pytest.raises(AdmissibilityError):
            apply_operator(problem, u, lam)
        return
    try:
        new = apply_operator(problem, u, lam)
    except DegenerateSymbolError:
        assert np.min(np.abs(on_grid(problem.symbols.denominator, problem.grid.xi))) < DENOM_FLOOR
        return
    assert new.values.tobytes() == ref.values.tobytes()


@settings(max_examples=200)  # about a quarter pass the gate and compare bits
@given(symbol_sets(), lambdas, st.sampled_from(sorted(OPERATORS)))
def test_apply_operator_gives_the_old_bits(symbols, lam, kind):
    problem = problem_of(symbols, kind)
    problem.check_condition(make_xi_grid(per_side=60))
    assert_apply_matches(problem, lam)


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize("name", sorted(NAMED))
def test_apply_operator_gives_the_old_bits_on_the_named_cases(name, kind):
    problem = problem_of(NAMED[name], kind)
    report = problem.check_condition()
    assert report.all_pass == (name != "degenerate")
    for lam in (0.0, 2.5, 1.0 + 3.0j):
        assert_apply_matches(problem, lam, seed=1)


# ---------------------------------------------------------------------------
# how often each path samples
# ---------------------------------------------------------------------------


def count_on_grid(monkeypatch):
    """Count every ``on_grid`` call, by ``grids`` itself and through ``solver``."""
    calls = []
    for module in (grids, solver):
        monkeypatch.setattr(module, "on_grid", lambda *a: calls.append(1) or on_grid(*a))
    return calls


def count_x_spectrum(monkeypatch, problem):
    calls = []
    monkeypatch.setattr(problem, "x_spectrum",
                        lambda *a, _fn=problem.x_spectrum: calls.append(a) or _fn(*a))
    return calls


@pytest.mark.parametrize("real", [False, True])
def test_x_spectrum_makes_one_on_grid_call(monkeypatch, real):
    problem = problem_of(ODD_MU, "psl")
    calls = count_on_grid(monkeypatch)
    spec = problem.x_spectrum(real)
    assert len(calls) == 1
    assert spec.poly.tobytes() == on_grid(lambda x: char_poly(ODD_MU, x), problem.grid.xi)[: len(spec.poly)].tobytes()


@pytest.mark.parametrize("reader", ["apply_operator", "denominator_on_grid", "eta_on_grid"])
def test_the_readers_ask_x_spectrum_once_and_sample_nothing_themselves(monkeypatch, reader):
    problem = problem_of(COMPLEX_B, "dense")
    problem.check_condition()
    u = Field(problem.grid, np.ones((problem.grid.n, 2)))
    sampled, asked = count_on_grid(monkeypatch), count_x_spectrum(monkeypatch, problem)
    if reader == "apply_operator":
        apply_operator(problem, u, 1.0)
    else:
        getattr(problem, reader)()
    assert asked == [()] and len(sampled) == 1


@pytest.mark.parametrize("kind", KINDS + ["custom-closed-form"])
def test_the_gate_transforms_each_kernel_once(monkeypatch, kind):
    """Once per kernel, mu included; a gaussian's closed-form derivative is
    its transform times -xi / 2k, which takes a call of its own."""
    a, mu = (Kernel(kind, amplitude=0.5, fourier_fn=CUSTOM.fourier_fn) for _ in range(2))
    symbols = SymbolSet(l=2, b=(1.0, 0.0, -1.0), nu=1.0, a_kernels={2: a}, mu_kernel=mu)
    calls = []
    fourier = Kernel.fourier
    monkeypatch.setattr(Kernel, "fourier", lambda self, xi: calls.append(1) or fourier(self, xi))
    check_symbol_conditions(symbols, make_xi_grid(per_side=60))
    assert len(calls) == (4 if kind == "gaussian" else 2)


@pytest.mark.parametrize("preset, on_grid_calls", [("problem-3.7", 2), ("example-4.3-sweep", 12)])
def test_a_run_samples_the_solver_grid_once_per_solve(monkeypatch, preset, on_grid_calls):
    calls = count_on_grid(monkeypatch)
    run_scenario(get_preset(preset), seed=0)
    assert len(calls) == on_grid_calls


def test_a_condition_run_transforms_its_kernel_once_on_the_certified_grid(monkeypatch):
    config = get_preset("example-4.3-condition")
    sizes = []
    fourier = Kernel.fourier
    monkeypatch.setattr(Kernel, "fourier",
                        lambda self, xi: sizes.append(np.size(xi)) or fourier(self, xi))
    run_scenario(config, seed=0)
    certified = build_problem(config["problem"], "problem").certified_xi()
    assert sizes.count(certified.size) == 1


# ---------------------------------------------------------------------------
# norms computed once, and np.linalg.norm in place of its hand copy
# ---------------------------------------------------------------------------


@settings(max_examples=60)
@given(st.integers(0, 3), st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.booleans(), st.integers(0, 10**6))
def test_sobolev_norm_gives_the_old_bits(l, p, with_operator, seed):
    grid = Grid(half_width=3.0, n=32)
    u = grids.band_limited_random(grid, np.random.default_rng(seed), max_mode=6, dim=2)
    op = DenseMatrixOperator([[2.0, 1.0 + 0.5j], [0.0, 3.0]]) if with_operator else None
    assert np.float64(sobolev_norm(u, l, p, op)).tobytes() == np.float64(ref_sobolev_norm(u, l, p, op)).tobytes()


@settings(max_examples=80)
@given(st.integers(1, 7), st.integers(1, 5), st.sampled_from([1.0, 1.5, 3.0]), st.integers(0, 10**6))
def test_rademacher_lp_norm_gives_the_old_bits(m, d, p, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    for sample in (RademacherSample.plan(m), RademacherSample(m, "random", 11, seed)):
        assert rademacher_lp_norm(v, p, sample) == ref_rademacher_lp_norm(v, p, sample)


@settings(max_examples=60)
@given(st.integers(1, 20), st.sampled_from([1, 9, 300, 1500]), st.booleans(),
       st.sampled_from([1.0, 2.0, 2.5]), st.integers(0, 10**6))
def test_the_f_integral_gives_the_old_bits(steps, n, real, p, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((steps, n, 2)) + (0.0 if real else 1j * rng.standard_normal((steps, n, 2)))
    acc = _FIntegral(rows[0], 0.01, 0.25, p)  # blocks of 227, 13 or 1 rows
    for row in rows:
        acc.add(row)
    assert np.float64(acc.flush()).tobytes() == np.float64(ref_f_integral(rows, 0.01, 0.25, p)).tobytes()


def test_the_step_count_stops_at_2_to_the_53():
    assert step_count(2.0**53, 1.0) == 2**53
    with pytest.raises(InvalidArgumentError, match=r"past 2\*\*53"):
        step_count(2.0**53 + 2.0, 1.0)
    with pytest.raises(InvalidArgumentError, match=r"past 2\*\*53"):
        step_count(0.5, 1e-300)
