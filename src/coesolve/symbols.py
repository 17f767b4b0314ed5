"""Scalar symbol machinery for the operator equation.

The full operator acts per frequency as

    (mu_hat(xi) + nu) * (A + eta(xi)) ,

where the characteristic polynomial N(xi) = sum_k (b_k + a_hat_k(xi)) (i xi)^k
collects the differential and convolution terms and eta = N / (mu_hat + nu).
This module evaluates those symbols, checks the four admissibility clauses
(nonvanishing denominator, polynomial lower bound, sector containment,
Mikhlin-type derivative bounds) on log-spaced grids, and builds the scalar
prefactors of the bounded multiplier families used in the verification
suite.

A ``SymbolSet.sample`` holds den, N, eta, mu_hat, each a_hat_k and (i xi)^k on
one frequency array, each evaluated once as its own function would, and the
family members read it: the Mikhlin scenario shares one per stencil row among
all families and lambdas, the scaled-resolvent R-bound one per xi.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from .errors import (
    DegenerateSymbolError,
    InvalidArgumentError,
    SymbolBlowupError,
)
from .kernels import Kernel

DENOM_FLOOR = 1e-14


@dataclass(frozen=True)
class Sector:
    """Closed sector S_phi = {z != 0 : |arg z| <= phi} union {0}."""

    angle: float
    angle_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 <= self.angle < math.pi:
            raise InvalidArgumentError("sector angle must lie in [0, pi)")

    def contains(self, z) -> bool:
        z = complex(z)
        if z == 0:
            return True
        return abs(cmath.phase(z)) <= self.angle + self.angle_tol


# The lambda sector a DiscretizedProblem is checked on unless told otherwise.
DEFAULT_LAMBDA_SECTOR = Sector(math.pi / 2)


@dataclass(frozen=True)
class SymbolSet:
    """Coefficients of one operator equation.

    ``b`` lists b_0 .. b_l; ``a_kernels`` maps derivative order k to its
    convolution kernel (orders without a kernel contribute b_k alone).
    """

    l: int
    b: tuple
    a_kernels: Dict[int, Kernel] = field(default_factory=dict)
    mu_kernel: Optional[Kernel] = None
    nu: complex = 0.0

    def __post_init__(self):
        if self.l < 0:
            raise InvalidArgumentError("order l must be >= 0")
        object.__setattr__(self, "b", tuple(complex(v) for v in self.b))
        if len(self.b) != self.l + 1:
            raise InvalidArgumentError("need exactly l + 1 coefficients b_0 .. b_l")
        for k in self.a_kernels:
            if not 0 <= k <= self.l:
                raise InvalidArgumentError(f"kernel order {k} outside 0..{self.l}")
        object.__setattr__(self, "nu", complex(self.nu))

    def a_hat(self, k: int, xi):
        ker = self.a_kernels.get(k)
        if ker is None:
            return np.zeros(np.shape(xi), dtype=complex) if np.ndim(xi) else 0j
        return ker.fourier(xi)

    def mu_hat(self, xi):
        if self.mu_kernel is None:
            return np.zeros(np.shape(xi), dtype=complex) if np.ndim(xi) else 0j
        return self.mu_kernel.fourier(xi)

    def denominator(self, xi):
        """mu_hat(xi) + nu."""
        return self.mu_hat(xi) + self.nu

    def sample(self, xi) -> SymbolSample:
        """Every scalar symbol on ``xi``, the denominator checked first; a sample comes back as is."""
        if isinstance(xi, SymbolSample):
            return xi
        xi = np.asarray(xi, dtype=float)
        mu_hat = self.mu_hat(xi)
        den = checked_denominator(np.asarray(mu_hat + self.nu, dtype=complex), xi)
        n, a_hat, powers = _char_poly(self, xi)
        return SymbolSample(xi, mu_hat, den, a_hat, powers[:-1], n, n / den)


# on the float array xi: den checked, n = N, eta = N / den, a_hat[k], powers[k] = (i xi)^k
SymbolSample = namedtuple("SymbolSample", "xi mu_hat den a_hat powers n eta")


def _shaped(out):
    """``out`` as a complex array, or a Python complex when it is 0-d."""
    out = np.asarray(out, dtype=complex)
    return out if out.shape else complex(out)


def _char_poly(symbols: SymbolSet, xi):
    """N on the float array ``xi``, with the a_hat_k and the (i xi)^k, k = 0..l + 1, it used."""
    ix, a_hat, powers = 1j * xi, [], [np.ones(xi.shape, dtype=complex)]
    out = np.zeros(xi.shape, dtype=complex)
    for k in range(symbols.l + 1):
        a_hat.append(symbols.a_hat(k, xi))
        out += (symbols.b[k] + a_hat[k]) * powers[k]
        powers.append(powers[k] * ix)
    return out, a_hat, powers


def char_poly(symbols: SymbolSet, xi):
    """N(xi) = sum_{k=0}^{l} (b_k + a_hat_k(xi)) (i xi)^k."""
    return _shaped(_char_poly(symbols, np.asarray(xi, dtype=float))[0])


def checked_denominator(den, xi):
    """``den`` (mu_hat + nu on ``xi``), or ``DegenerateSymbolError`` where it is below the floor."""
    small = np.abs(den) < DENOM_FLOOR
    if np.any(small):
        bad = np.atleast_1d(np.asarray(xi)[small])[0]
        raise DegenerateSymbolError(f"|mu_hat + nu| below {DENOM_FLOOR:g} at xi = {bad:g}")
    return den


def reduced_symbol(symbols: SymbolSet, xi):
    """eta(xi) = N(xi) / (mu_hat(xi) + nu), the denominator by ``checked_denominator``."""
    return _shaped(symbols.sample(xi).eta)


def lambda_weights(l: int, lam: complex):
    """|lambda|^(1 - k/l) for k = 0..l; the single k = 0 weight is |lambda| when l = 0."""
    mod = abs(lam)
    if l == 0:
        return np.array([mod])
    return np.array([mod ** (1.0 - k / l) for k in range(l + 1)])


def scalar_prefactor(symbols: SymbolSet, index: Union[int, str], xi, lam: complex):
    """Scalar prefactor of multiplier family ``index`` at (xi, lambda).

    Indices 0..4 follow the standard family ladder (resolvent, weighted
    derivatives, operator part, weighted convolutions, convolved operator
    part); ``"sigma"`` is the scaled resolvent prefactor (1 + lambda).
    Families 2 and 4 compose with A afterwards; the composition is not part
    of the scalar value returned here.  ``xi`` may be a ``SymbolSample``.
    """
    s = symbols.sample(xi)
    if index == "sigma":
        out = (1.0 + lam) / s.den
    elif index in (0, 2):
        out = 1.0 / s.den
    elif index == 4:
        out = np.asarray(s.mu_hat, dtype=complex) / s.den
    elif index in (1, 3):
        w = lambda_weights(symbols.l, lam)
        acc = np.zeros(s.xi.shape, dtype=complex)
        for w_k, a_k, power in zip(w, s.a_hat, s.powers):
            acc += w_k * (a_k if index == 3 else 1.0) * power
        out = acc / s.den
    else:
        raise InvalidArgumentError(f"unknown multiplier family index {index!r}")
    return _shaped(out)


def composes_with_operator(index: Union[int, str]) -> bool:
    """Whether family ``index`` multiplies the operator A into the resolvent."""
    return index in (2, 4)


@dataclass(frozen=True)
class MultiplierFamily:
    """One member of the bounded multiplier ladder, frozen at lambda.

    ``operator`` is an optional realization handle used to materialize the
    full matrix symbol or its eigenvalues; the scalar part alone never needs
    it.  Every member takes a ``SymbolSample`` of ``symbols`` in place of ``xi``.
    """

    symbols: SymbolSet
    index: Union[int, str]
    lam: complex
    operator: object = None

    def prefactor(self, xi):
        return scalar_prefactor(self.symbols, self.index, xi, self.lam)

    def scalar_symbol(self, xi):
        """Full symbol with the operator replaced by the scalar 1."""
        s = self.symbols.sample(xi)
        return _shaped(np.asarray(self.prefactor(s), dtype=complex) / (1.0 + s.eta + self.lam))

    def _operator(self):
        if self.operator is None:
            raise InvalidArgumentError("multiplier family has no operator handle")
        return self.operator

    def diagonal(self, xi: float):
        """Eigenvalues of the member at one frequency, in the order of the
        operator's ``eigenvalues()`` (requires ``operator``)."""
        op, s = self._operator(), self.symbols.sample(xi)
        out = complex(self.prefactor(s)) * op.resolvent_eigenvalues(complex(s.eta) + self.lam)
        if composes_with_operator(self.index):
            out = op.eigenvalues() * out
        return out

    def matrix(self, xi: float):
        """Dense matrix symbol at one frequency (requires ``operator``).

        Row j of ``resolvent_solve_many`` on the identity is column j of
        (A + eta + lambda)^{-1}, so the operator's one resolvent builds the
        transpose, which ``apply_many`` composes with A for indices 2 and 4.
        """
        op, s = self._operator(), self.symbols.sample(xi)
        rows = op.resolvent_solve_many(np.full(op.dim, complex(s.eta) + self.lam), np.eye(op.dim))
        rows = complex(self.prefactor(s)) * rows
        if composes_with_operator(self.index):
            rows = op.apply_many(rows)
        return rows.T


def make_xi_grid(lo: float = 1e-3, hi: float = 1e3, per_side: int = 1200):
    """Symmetric log-spaced frequency grid excluding 0.

    Doubling the density with ``2 * per_side - 1`` points per side yields a
    superset of the original grid, so grid-based infima/suprema move
    monotonically under refinement.
    """
    if not (0 < lo < hi) or per_side < 2:
        raise InvalidArgumentError("need 0 < lo < hi and per_side >= 2")
    pos = np.geomspace(lo, hi, per_side)
    return np.concatenate([-pos[::-1], pos])


@dataclass(frozen=True)
class ConditionReport:
    """Verdict of the four-clause admissibility check.

    Infima (c_mu, c_n) combine grid minima with the analytic |xi| -> inf
    limits of the built-in kernel kinds, so genuinely degenerate symbols
    report exactly 0. Suprema (c1, c2, phi1) are grid estimates from below.
    """

    c_mu: float
    c_n: float
    c1: float
    c2: float
    phi1: float
    phi2: float
    pass1: bool
    pass2: bool
    pass3: bool
    pass4: bool

    @property
    def all_pass(self) -> bool:
        return self.pass1 and self.pass2 and self.pass3 and self.pass4

    def to_dict(self) -> dict:
        return {
            "c_mu": self.c_mu,
            "c_n": self.c_n,
            "c1": self.c1,
            "c2": self.c2,
            "phi1": self.phi1,
            "phi2": self.phi2,
            "pass": [self.pass1, self.pass2, self.pass3, self.pass4],
            "all_pass": self.all_pass,
        }


def _derivative_sup(kernel: Kernel, xi, a_hat):
    """sup over m = 0, 1 of |xi^m d^m a_hat / d xi^m| on the grid, given the
    kernel's transform ``a_hat`` on ``xi``; only the derivative is evaluated."""
    vals = np.abs(np.asarray(a_hat, dtype=complex))
    dervs = np.abs(xi * np.asarray(kernel.fourier_deriv(xi), dtype=complex))
    return float(max(vals.max(), dervs.max()))


def check_symbol_conditions(
    symbols: SymbolSet,
    xi_grid=None,
    lambda_sector: Sector = DEFAULT_LAMBDA_SECTOR,
) -> ConditionReport:
    """Run the four admissibility clauses on a frequency grid.

    Clause 1: inf |mu_hat + nu| > 0.  Clause 2: |N(xi)| >= c |xi|^l.
    Clause 3: eta stays in a sector of half-angle phi1 with
    phi1 + phi2 < pi for the requested lambda sector.  Clause 4: the
    kernel symbols and their scaled first derivatives stay bounded.
    """
    if xi_grid is None:
        xi_grid = make_xi_grid()
    xi_grid = np.asarray(xi_grid, dtype=float)
    if xi_grid.size < 2 or np.any(xi_grid == 0.0):
        raise InvalidArgumentError("xi grid must exclude 0 and have >= 2 points")

    mu_hat = symbols.mu_hat(xi_grid)
    den = np.asarray(mu_hat + symbols.nu, dtype=complex)
    c_mu = float(np.min(np.abs(den)))
    mu_inf = (
        symbols.mu_kernel.fourier_at_infinity() if symbols.mu_kernel is not None else 0j
    )
    if mu_inf is not None:
        c_mu = min(c_mu, abs(symbols.nu + mu_inf))

    n_vals, a_hat, _ = _char_poly(symbols, xi_grid)
    ratio = np.abs(n_vals) / np.abs(xi_grid) ** symbols.l
    c_n = float(np.min(ratio))
    # analytic tail: |N|/|xi|^l -> |b_l + a_hat_l(inf)| when that limit is known
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
    for k, ker in symbols.a_kernels.items():
        c1 = max(c1, _derivative_sup(ker, xi_grid, a_hat[k]))
    c2 = _derivative_sup(symbols.mu_kernel, xi_grid, mu_hat) if symbols.mu_kernel else 0.0

    phi2 = lambda_sector.angle
    return ConditionReport(
        c_mu=c_mu,
        c_n=c_n,
        c1=c1,
        c2=c2,
        phi1=phi1,
        phi2=phi2,
        pass1=c_mu > 0.0,
        pass2=c_n > 0.0,
        pass3=(phi1 < math.pi) and (phi1 + phi2 < math.pi),
        pass4=math.isfinite(c1) and math.isfinite(c2),
    )


def mikhlin_bound(symbol_fns, h_samples, xi_grid, deriv_fns=None) -> float:
    """sup over h and xi of max(|m_h(xi)|, |xi dm_h/dxi|).

    ``symbol_fns`` is a callable (h, xi_array) -> values; the derivative is
    taken from ``deriv_fns`` when given, otherwise by central differences
    with relative step 1e-5.  Non-finite values raise ``SymbolBlowupError``
    carrying the offending (h, xi).
    """
    xi_grid = np.asarray(xi_grid, dtype=float)
    if np.any(xi_grid == 0.0):
        raise InvalidArgumentError("xi grid must exclude 0")
    step = 1e-5 * np.abs(xi_grid)
    plus, minus = xi_grid + step, xi_grid - step
    bound = 0.0
    for h in h_samples:
        vals = np.asarray(symbol_fns(h, xi_grid), dtype=complex)
        if deriv_fns is not None:
            dervs = np.asarray(deriv_fns(h, xi_grid), dtype=complex)
        else:
            dervs = (
                np.asarray(symbol_fns(h, plus), dtype=complex)
                - np.asarray(symbol_fns(h, minus), dtype=complex)
            ) / (2.0 * step)
        local = np.maximum(np.abs(vals), np.abs(xi_grid * dervs))
        if not np.all(np.isfinite(local)):
            idx = int(np.argmax(~np.isfinite(local)))
            raise SymbolBlowupError(
                f"multiplier symbol non-finite at h={h!r}, xi={xi_grid[idx]:g}",
                h=h,
                xi=float(xi_grid[idx]),
            )
        bound = max(bound, float(local.max()))
    return bound
