"""Two-point boundary value problems on the strip [0, T] x [-X, X).

The elliptic equation -u_tt + L_x u = f decouples per x-frequency into a
two-point BVP -v'' + M_j v = g with Robin rows alpha u + beta u' = data at
both ends.  Time is discretized by second-order centered differences with
one-sided second-order stencils in the boundary rows.  The solve is the
tensor-product "fast diagonalization" of Lynch, Rice & Thomas (Numer. Math.
6, 1964): the boundary values are eliminated, the m x m interior t-operator
is diagonalized once, and every (frequency, t-mode) pair becomes one
shifted resolvent solve of A, for every operator kind through
``OperatorRealization.resolvent_solve_many``.  One strip solve is prepared
per strip length, so each Picard iterate of a semilinear right-hand side
pays only for its forcing.  Real Robin rows, boundary fields and forcing
(or a real polynomial F of u or (u, u_t)) solve on the rows of
``DiscretizedProblem.x_spectrum(True)``, float64 samples on its real rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import DegenerateBoundaryError, InvalidArgumentError
from .evolution import Nonlinearity
from .grids import Field, Grid
from .operators import EIGENBASIS_COND_LIMIT
from .solver import DiscretizedProblem, XSpectrum

DEGENERACY_FLOOR = 1e-12
# Largest ||row of K_bb^{-1} K_bu||_1 that ``_t_modes`` accepts.  Against a
# dense solve of the whole system the scaled error grew as about 1e-16 times
# this norm (up to 9e-11 at 1.7e6, 1.5e-8 at 1.7e8), so it stays below 1e-9.
BOUNDARY_AMPLIFICATION_LIMIT = 1e6


@dataclass(frozen=True)
class BoundaryConditions:
    """Robin rows alpha1 u(0) + beta1 u'(0) = f1, alpha2 u(T) + beta2 u'(T) = f2."""

    alpha1: complex
    beta1: complex
    alpha2: complex
    beta2: complex
    f1: Field
    f2: Field

    def __post_init__(self):
        for name in ("alpha1", "beta1", "alpha2", "beta2"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.f1.grid != self.f2.grid or self.f1.dim != self.f2.dim:
            raise InvalidArgumentError("boundary data must share grid and dim")


def check_nondegenerate(bc: BoundaryConditions) -> complex:
    """Nondegeneracy determinant alpha1 beta2 - alpha2 beta1."""
    return bc.alpha1 * bc.beta2 - bc.alpha2 * bc.beta1


def is_degenerate(bc) -> bool:
    """Whether the determinant vanishes beside its two products:
    |alpha1 beta2 - alpha2 beta1| <= DEGENERACY_FLOOR (|alpha1 beta2| +
    |alpha2 beta1|).  A row scaled with its data keeps the answer, and an
    exact zero is degenerate."""
    left, right = bc.alpha1 * bc.beta2, bc.alpha2 * bc.beta1
    return abs(left - right) <= DEGENERACY_FLOOR * (abs(left) + abs(right))


@dataclass(frozen=True)
class TGrid:
    """Uniform nodes t_i = i dt, i = 0..m+1, dt = T/(m+1); m interior points."""

    t_final: float
    m: int

    def __post_init__(self):
        if not self.t_final > 0:
            raise InvalidArgumentError("T must be positive")
        if self.m < 1:
            raise InvalidArgumentError("need at least one interior point")

    @property
    def dt(self) -> float:
        return self.t_final / (self.m + 1)

    @property
    def t(self):
        return self.dt * np.arange(self.m + 2)


@dataclass
class StripField:
    """Samples on the strip: shape (m+2, n, dim) over (t, x)."""

    tgrid: TGrid
    grid: Grid
    values: np.ndarray
    real: bool = False  # float64 samples, solved on the real x-spectrum

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float if self.real else complex)
        if v.ndim != 3 or v.shape[0] != self.tgrid.m + 2 or v.shape[1] != self.grid.n:
            raise InvalidArgumentError("values must have shape (m+2, n, dim)")
        self.values = v

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    def t_derivative(self) -> np.ndarray:
        """Second-order du/dt: centered inside, one-sided at the ends."""
        v = self.values
        dt = self.tgrid.dt
        out = np.empty_like(v)
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
        return out


def _normalize_forcing(problem, tgrid, forcing) -> Optional[np.ndarray]:
    shape = (tgrid.m + 2, problem.grid.n, problem.operator.dim)
    if forcing is None:
        return None
    arr = np.asarray(forcing, dtype=complex)
    if arr.shape != shape:
        raise InvalidArgumentError(f"forcing must have shape {shape}")
    return arr


def _boundary_rows(bc: BoundaryConditions, dt: float):
    """Coefficients of the two one-sided second-order boundary rows."""
    b1, b2 = bc.beta1, bc.beta2
    r0 = (bc.alpha1 - 1.5 * b1 / dt, 2.0 * b1 / dt, -0.5 * b1 / dt)
    r1 = (bc.alpha2 + 1.5 * b2 / dt, -2.0 * b2 / dt, 0.5 * b2 / dt)
    return r0, r1


def _t_modes(bc: BoundaryConditions, tgrid: TGrid):
    """Eigenbasis of the t-operator once the boundary rows are eliminated.

    The boundary rows read K_bb (u(0), u(T)) + K_bu u_int = (f1, f2), with
    K_bb diagonal for m >= 2 (coupled at m = 1).  Substituting the boundary
    values into -v'' leaves K_int = K_ii - K_ib K_bb^{-1} K_bu on the m
    interior nodes, and one ``eig`` gives K_int = W diag(kappa) W^{-1}.
    Returns (kappa, W, W^{-1}, K_ib, K_bb^{-1}, K_bu).

    Raises ``DegenerateBoundaryError`` where the eliminated system loses
    accuracy: a row that does not determine its boundary value, ||row of
    K_bb^{-1} K_bu||_1 > ``BOUNDARY_AMPLIFICATION_LIMIT`` (a row with no
    u(0) or u(T) term leaves the pencil without a t-eigenbasis), or cond(W) >
    ``EIGENBASIS_COND_LIMIT`` (K_int at or near a defective matrix, which
    complex Robin rows can reach).
    """
    m = tgrid.m
    (c00, c01, c02), (c10, c11, c12) = _boundary_rows(bc, tgrid.dt)
    rows = np.zeros((2, m + 2), dtype=complex)
    rows[0, :3] = c00, c01, c02
    rows[1, -3:] = c12, c11, c10
    k_bb, k_bu = rows[:, [0, -1]], rows[:, 1:-1]
    adj = np.array([[k_bb[1, 1], -k_bb[0, 1]], [-k_bb[1, 0], k_bb[0, 0]]])
    det = k_bb[0, 0] * k_bb[1, 1] - k_bb[0, 1] * k_bb[1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = np.abs(adj @ k_bu).sum(axis=1) / abs(det)
    if not np.all(amp <= BOUNDARY_AMPLIFICATION_LIMIT):  # 0/0 fails too
        k = int(np.argmax(np.nan_to_num(amp, nan=0.0)))
        raise DegenerateBoundaryError(
            f"boundary row {k} does not determine u({('0', 'T')[k]}): "
            f"amplification {amp[k]:.3g} exceeds {BOUNDARY_AMPLIFICATION_LIMIT:g}"
        )
    k_bb_inv = adj / det
    eye = lambda k: np.eye(m, m + 2, k)
    second = (2.0 * eye(1) - eye(0) - eye(2)) / tgrid.dt**2  # -v'' on interior rows
    k_ib = second[:, [0, -1]]
    kappa, w = np.linalg.eig(second[:, 1:-1] - k_ib @ k_bb_inv @ k_bu)
    if not np.linalg.cond(w) <= EIGENBASIS_COND_LIMIT:
        raise DegenerateBoundaryError("the t-operator has no well-conditioned eigenbasis")
    return kappa, w, np.linalg.inv(w), k_ib, k_bb_inv, k_bu


def solve_bvp_linear(
    problem: DiscretizedProblem,
    bc: BoundaryConditions,
    tgrid: TGrid,
    forcing=None,
) -> StripField:
    """Solve -u_tt + L_x u = f on the strip with Robin boundary rows.

    ``forcing`` is None or its (m+2, n, dim) samples at the t-nodes.  After
    the FFT in x and the t-eigenbasis of ``_t_modes``, every
    (frequency j, t-mode k) pair is one resolvent solve
    den_j (A + eta_j + kappa_k / den_j) w = h, all in one
    ``resolvent_solve_many`` call.
    """
    garr = _normalize_forcing(problem, tgrid, forcing)
    modes = _checked_t_modes(problem, bc, tgrid, garr is None or not np.any(garr.imag))
    return _solve_in_modes(problem, tgrid, modes, garr)


def _strip_spectrum(problem: DiscretizedProblem, bc: BoundaryConditions,
                    real_rhs: bool) -> XSpectrum:
    """``problem.x_spectrum``, asked for real rows if the boundary rows and
    data and the right-hand side (``real_rhs``) are real."""
    data = (bc.alpha1, bc.beta1, bc.alpha2, bc.beta2, bc.f1.values, bc.f2.values)
    return problem.x_spectrum(real_rhs and not any(np.any(np.imag(x)) for x in data))


def _checked_t_modes(problem: DiscretizedProblem, bc: BoundaryConditions, tgrid: TGrid,
                     real_rhs: bool):
    """Check the problem and the boundary rows, then prepare all of the strip
    solve of ``tgrid`` but the forcing: t-modes, x-spectrum, shifts,
    boundary data, on the rows of ``_strip_spectrum``."""
    problem.require_checked()
    if is_degenerate(bc):
        raise DegenerateBoundaryError("boundary rows have vanishing determinant")
    problem.validate_field(bc.f1)
    problem.validate_field(bc.f2)
    kappa, w, w_inv, k_ib, k_bb_inv, k_bu = _t_modes(bc, tgrid)
    spec = _strip_spectrum(problem, bc, real_rhs)
    fb = spec.forward(np.stack([bc.f1.values, bc.f2.values])).reshape(2, -1)
    z = spec.eta[None, :] + kappa[:, None] / spec.den[None, :]
    lift = -k_ib @ (k_bb_inv @ fb)  # boundary data lifted into the interior rows
    return w, w_inv, spec, z.reshape(-1), fb, lift, k_bb_inv, k_bu


def _solve_in_modes(problem: DiscretizedProblem, tgrid: TGrid, modes, forcing) -> StripField:
    """``solve_bvp_linear`` on the strip solve of ``_checked_t_modes``."""
    d, m = problem.operator.dim, tgrid.m
    w, w_inv, spec, z, fb, lift, k_bb_inv, k_bu = modes
    rows = len(spec.den)  # n, or n/2 + 1 on the real rows
    garr = _normalize_forcing(problem, tgrid, forcing)
    rhs = lift
    if garr is not None:
        rhs = lift + spec.forward(garr[1:-1]).reshape(m, rows * d)
    hw = (w_inv @ rhs).reshape(m, rows, d) / spec.den[None, :, None]
    vw = problem.operator.resolvent_solve_many(z, hw.reshape(m * rows, d))
    interior = w @ vw.reshape(m, rows * d)
    ends = k_bb_inv @ (fb - k_bu @ interior)
    uh = np.concatenate([ends[:1], interior, ends[1:]]).reshape(m + 2, rows, d)
    return StripField(tgrid=tgrid, grid=problem.grid, values=spec.inverse(uh), real=spec.real)


def bvp_discrete_residual(
    problem: DiscretizedProblem,
    bc: BoundaryConditions,
    tgrid: TGrid,
    solution: StripField,
    forcing=None,
) -> float:
    """Max-abs residual of the discrete system at a candidate solution.

    M u comes from ``apply_many``, not the solver's eigenbasis, so an error
    in that basis shows here.  A real solution of real data is checked on
    the real rows of ``x_spectrum``, the system its solve took.
    """
    garr = _normalize_forcing(problem, tgrid, forcing)
    dt = tgrid.dt
    spec = _strip_spectrum(problem, bc,
                           solution.real and (garr is None or not np.any(garr.imag)))
    uh = spec.forward(solution.values)
    a_u = problem.operator.apply_many(uh.reshape(-1, uh.shape[2])).reshape(uh.shape)
    m_u = spec.den[None, :, None] * (a_u + spec.eta[None, :, None] * uh)
    interior = (
        -(uh[:-2] - 2.0 * uh[1:-1] + uh[2:]) / dt**2 + m_u[1:-1]
    )
    if garr is not None:
        interior = interior - spec.forward(garr)[1:-1]
    (c00, c01, c02), (c10, c11, c12) = _boundary_rows(bc, dt)
    row0 = c00 * uh[0] + c01 * uh[1] + c02 * uh[2] - spec.forward(bc.f1.values)
    row1 = c10 * uh[-1] + c11 * uh[-2] + c12 * uh[-3] - spec.forward(bc.f2.values)
    scale = max(1.0, float(np.max(np.abs(uh))))
    worst = max(
        float(np.max(np.abs(interior))) if interior.size else 0.0,
        float(np.max(np.abs(row0))),
        float(np.max(np.abs(row1))),
    )
    return worst / scale


@dataclass
class IterationReport:
    """Picard iteration record: gap history and convergence verdict."""

    converged: bool
    iterations: int
    gaps: List[float]
    t_halvings: int = 0
    t_final: float = 0.0
    message: str = ""


def _evaluate_rhs(nonlinearity: Nonlinearity, u: StripField) -> np.ndarray:
    if nonlinearity.arity == 0:
        return nonlinearity.evaluate((u.values,))
    if nonlinearity.arity == 1:
        return nonlinearity.evaluate((u.values, u.t_derivative()))
    raise InvalidArgumentError("strip nonlinearities take (u,) or (u, u_t)")


def solve_bvp_semilinear(
    problem: DiscretizedProblem,
    bc: BoundaryConditions,
    tgrid: TGrid,
    nonlinearity: Nonlinearity,
    max_iter: int = 30,
    tol: float = 1e-8,
    max_t_halvings: int = 0,
):
    """Picard iteration for -u_tt + L_x u = F(u, u_t).

    Starts from the F = 0 solve, refeeds F(u_n) as forcing, and stops when
    the sup gap between iterates drops below tol * max(1, sup |u|).
    Non-convergence is reported, not raised, and a non-finite gap stops the
    iteration at its last finite iterate; with ``max_t_halvings`` > 0 the
    strip is shortened (T -> T/2) and the iteration restarted.

    Returns (StripField, IterationReport).
    """
    if max_iter < 1:
        raise InvalidArgumentError("max_iter must be >= 1")
    halvings = 0
    current = tgrid
    while True:
        modes = _checked_t_modes(problem, bc, current, nonlinearity.real)  # once per length
        u = _solve_in_modes(problem, current, modes, None)
        gaps: List[float] = []
        converged, message = False, "picard iteration did not converge"
        for _ in range(max_iter):
            with np.errstate(over="ignore", invalid="ignore"):  # a diverging F overflows
                rhs = _evaluate_rhs(nonlinearity, u)
                u_next = _solve_in_modes(problem, current, modes, rhs)
                gap = float(np.max(np.abs(u_next.values - u.values)))
            if not np.isfinite(gap):
                message = "picard iteration lost finiteness"
                break
            gaps.append(gap)
            u = u_next
            if gap <= tol * max(1.0, float(np.max(np.abs(u.values)))):
                converged, message = True, ""
                break
        if converged or halvings >= max_t_halvings:
            report = IterationReport(
                converged=converged,
                iterations=len(gaps),
                gaps=gaps,
                t_halvings=halvings,
                t_final=current.t_final,
                message=message,
            )
            return u, report
        halvings += 1
        current = TGrid(t_final=current.t_final / 2.0, m=current.m)
