"""Per-frequency spectral solver for the stationary operator equation.

After FFT the equation (L + lambda) u = f decouples into one shifted
operator solve per frequency:

    (mu_hat(xi_j) + nu) (A + eta(xi_j) + lambda) u_hat_j = f_hat_j .

Solves, the forward application, the term-by-term coercive-estimate report,
lambda sweeps and norm-equivalence scans all live here.  Every solve is
gated on a stored admissibility report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import (
    AdmissibilityError,
    ConditionNotCheckedError,
    InvalidArgumentError,
)
from .grids import Field, Grid, derivative_symbols, on_grid, x_fft, x_ifft, x_irfft, x_multiply, x_rfft
from .norms import lp_norm, sobolev_norm
from .operators import OperatorRealization
from .symbols import (
    DEFAULT_LAMBDA_SECTOR,
    ConditionReport,
    Sector,
    SymbolSet,
    char_poly,
    check_symbol_conditions,
    checked_denominator,
    lambda_weights,
    make_xi_grid,
)


@dataclass
class DiscretizedProblem:
    """Symbols + operator realization + grid + Lebesgue exponent p.

    ``check_condition`` must run (and pass) before any solve; the stored
    report also fixes the admissible lambda sector.
    """

    symbols: SymbolSet
    operator: OperatorRealization
    grid: Grid
    p: float = 2.0
    condition_report: Optional[ConditionReport] = None
    lambda_sector: Sector = DEFAULT_LAMBDA_SECTOR

    def __post_init__(self):
        if not self.p >= 1:
            raise InvalidArgumentError("p must be >= 1")

    def certified_xi(self, xi_grid=None):
        """``xi_grid`` (default ``make_xi_grid()``) joined with every nonzero frequency
        that ``on_grid`` samples (grid and +xi_N): what the gate and the Mikhlin bound see."""
        solved = np.append(self.grid.xi, -self.grid.xi[self.grid.n // 2])
        return np.union1d(make_xi_grid() if xi_grid is None else xi_grid, solved[solved != 0.0])

    def check_condition(self, xi_grid=None, lambda_sector: Optional[Sector] = None):
        """Run the four clauses on ``certified_xi(xi_grid)``, so the gate
        covers each frequency a solve uses."""
        if lambda_sector is not None:
            self.lambda_sector = lambda_sector
        self.condition_report = check_symbol_conditions(
            self.symbols, xi_grid=self.certified_xi(xi_grid), lambda_sector=self.lambda_sector
        )
        return self.condition_report

    def require_checked(self):
        if self.condition_report is None:
            raise ConditionNotCheckedError(
                "run check_condition before solving"
            )
        if not self.condition_report.all_pass:
            raise AdmissibilityError(
                "admissibility check failed; solves are blocked"
            )

    # per-frequency scalar symbols on the solver grid, read off its one sampler
    def denominator_on_grid(self):
        return self.x_spectrum().den

    def eta_on_grid(self):
        """eta = N / den on all n rows, as ``x_spectrum`` samples it."""
        return self.x_spectrum().eta

    def x_spectrum(self, real: bool = False) -> XSpectrum:
        """The one sampler of the solver grid (den and N in one ``on_grid`` call, eta =
        N / den, den checked) and the one realness rule for the rows of every solve: for
        ``real`` samples under a real A with den and eta Hermitian on the grid bit for
        bit, the n/2 + 1 of ``x_rfft``, else all n of ``x_fft``."""
        n, sym, xi = self.grid.n, self.symbols, self.grid.xi
        den, poly = on_grid(lambda x: np.array([sym.denominator(x), char_poly(sym, x)]), xi)
        eta = poly / checked_denominator(den, xi)
        hermitian = lambda s: np.array_equal(s, np.roll(s[::-1], 1).conj())  # s[j] == conj(s[-j])
        if not (real and self.operator.real and hermitian(den) and hermitian(eta)):
            return XSpectrum(n, den, poly, eta, False)
        return XSpectrum(n, *(s[:n // 2 + 1] for s in (den, poly, eta)), True)

    def validate_field(self, f: Field):
        if f.grid != self.grid:
            raise InvalidArgumentError("field lives on a different grid")
        if f.dim != self.operator.dim:
            raise InvalidArgumentError(
                f"field dim {f.dim} != operator dim {self.operator.dim}"
            )


@dataclass(frozen=True)
class XSpectrum:
    """The rows of ``DiscretizedProblem.x_spectrum``: den, N, eta = N / den and the
    x-transforms to them, the only ones in this module."""

    n: int
    den: np.ndarray
    poly: np.ndarray  # N, the characteristic polynomial
    eta: np.ndarray
    real: bool  # the rows of x_rfft, for float64 samples

    def forward(self, values: np.ndarray) -> np.ndarray:
        return x_rfft(values.real) if self.real else x_fft(values)

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        return x_irfft(coeffs, self.n) if self.real else x_ifft(coeffs)


def solve_linear(problem: DiscretizedProblem, f: Field, lam: complex = 0.0) -> Field:
    """Solve (L + lambda) u = f by per-frequency resolvent solves."""
    problem.require_checked()
    problem.validate_field(f)
    if not problem.lambda_sector.contains(lam):
        raise InvalidArgumentError("lambda outside the admissible sector")
    spec = problem.x_spectrum()
    rhs = spec.forward(f.values) / spec.den[:, None]
    uh = problem.operator.resolvent_solve_many(spec.eta + lam, rhs)
    return Field(problem.grid, spec.inverse(uh))


def apply_operator(problem: DiscretizedProblem, u: Field, lam: complex = 0.0) -> Field:
    """(L + lambda) u: (N + den lambda) u_hat + den (A u)^ on the rows of
    ``x_spectrum``, the symbols that ``solve_linear`` divides by."""
    problem.require_checked()
    problem.validate_field(u)
    spec = problem.x_spectrum()
    uh = spec.forward(u.values)
    auh = spec.forward(problem.operator.apply_many(u.values))
    out = (spec.poly + spec.den * lam)[:, None] * uh + spec.den[:, None] * auh
    return Field(problem.grid, spec.inverse(out))


@dataclass
class CoerciveReport:
    """Term-by-term left side of the a-priori estimate, normalized by ||f||_p.

    ``derivative_terms[k]`` holds |lambda|^(1-k/l) ||d^k u|| and
    ``convolution_terms[k]`` the matching |lambda|^(1-k/l) ||a_k * d^k u||.
    """

    lam: complex
    derivative_terms: List[float]
    convolution_terms: List[float]
    mu_conv_term: float
    au_term: float
    f_norm: float

    @property
    def total(self) -> float:
        return (
            sum(self.derivative_terms)
            + sum(self.convolution_terms)
            + self.mu_conv_term
            + self.au_term
        )

    @property
    def ratio(self) -> float:
        return self.total / self.f_norm if self.f_norm > 0 else math.inf


def coercive_report(
    problem: DiscretizedProblem, f: Field, lam: complex, u: Optional[Field] = None
) -> CoerciveReport:
    """Evaluate every term of the coercive estimate for (L + lambda) u = f."""
    p = problem.p
    f_norm = lp_norm(f, p)
    if f_norm == 0.0:
        raise InvalidArgumentError("coercive report needs nonzero forcing")
    if u is None:
        u = solve_linear(problem, f, lam)
    sym = problem.symbols
    w = lambda_weights(sym.l, lam)
    xi = problem.grid.xi
    norm = lambda values: lp_norm(Field(problem.grid, values), p)

    conv_ks = [k for k in range(sym.l + 1) if sym.a_kernels.get(k) is not None]
    # one stack: a_hat_k (i xi)^k at each kernel order, then mu_hat
    conv = on_grid(lambda x: np.array([sym.a_hat(k, x) * (1j * x) ** k for k in conv_ks]
                                      + [sym.mu_hat(x)]), xi)
    symbols = np.vstack([derivative_symbols(xi, range(1, sym.l + 1)), conv[:-1]])
    norms = [lp_norm(u, p)] + [norm(v) for v in x_multiply(u.values, symbols)]
    conv_norms = dict(zip(conv_ks, norms[sym.l + 1:]))
    deriv_terms = [float(w[k]) * norms[k] for k in range(sym.l + 1)]
    conv_terms = [float(w[k]) * conv_norms[k] if k in conv_norms else 0.0 for k in range(sym.l + 1)]

    au = problem.operator.apply_many(u.values)
    mu_term = 0.0 if sym.mu_kernel is None else norm(x_multiply(au, conv[-1:])[0])
    return CoerciveReport(lam=lam, derivative_terms=deriv_terms, convolution_terms=conv_terms,
                          mu_conv_term=mu_term, au_term=norm(au), f_norm=f_norm)


@dataclass
class SweepTable:
    """Coercive-term table over a lambda sweep, one row per lambda.

    Rows are sorted by |lambda|.  ``resolvent_value`` is
    (1 + |lambda|) ||u||_p / ||f||_p.
    """

    l: int
    rows: List[dict]

    @property
    def max_resolvent_value(self) -> float:
        return max(r["resolvent_value"] for r in self.rows)

    @property
    def ratio_spread(self) -> float:
        ratios = [r["ratio"] for r in self.rows]
        return max(ratios) / min(ratios)


def lambda_sweep(problem: DiscretizedProblem, f: Field, lambdas) -> SweepTable:
    """Coercive report and resolvent value across a set of shifts."""
    rows = []
    lambdas = list(lambdas)
    if not lambdas:
        raise InvalidArgumentError("sweep needs at least one lambda")
    fn = lp_norm(f, problem.p)
    if fn == 0.0:
        raise InvalidArgumentError("sweep forcing must be nonzero")
    for lam in sorted(lambdas, key=lambda z: abs(complex(z))):
        lam = complex(lam)
        u = solve_linear(problem, f, lam)
        rep = coercive_report(problem, f, lam, u=u)
        rows.append(
            {
                "lambda": lam,
                "derivative_terms": rep.derivative_terms,
                "convolution_terms": rep.convolution_terms,
                "mu_conv_term": rep.mu_conv_term,
                "au_term": rep.au_term,
                "ratio": rep.ratio,
                "resolvent_value": (1.0 + abs(lam)) * lp_norm(u, problem.p) / fn,
            }
        )
    return SweepTable(l=problem.symbols.l, rows=rows)


def norm_equivalence(problem: DiscretizedProblem, fields: List[Field]):
    """Ratios ||L u||_p / ||u||_{W_p^l} over test fields.

    Zero fields are skipped.  Returns (ratios, spread); spread = max/min
    quantifies two-sided equivalence on the sampled set.
    """
    ratios = []
    for u in fields:
        wnorm = sobolev_norm(u, problem.symbols.l, problem.p, problem.operator)
        if wnorm == 0.0:
            continue
        lu = apply_operator(problem, u)
        ratios.append(lp_norm(lu, problem.p) / wnorm)
    if not ratios:
        raise InvalidArgumentError("every test field was zero")
    return ratios, max(ratios) / min(ratios)
