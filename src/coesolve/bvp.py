"""Two-point boundary value problems on the strip [0, T] x [-X, X).

The elliptic equation -u_tt + L_x u = f decouples per x-frequency into a
two-point BVP -v'' + M_j v = g with Robin rows alpha u + beta u' = data at
both ends.  Time is discretized by second-order centered differences with
one-sided second-order stencils in the boundary rows.  In the eigenbasis of A
each frequency splits into scalar banded systems; a dense A without a
well-conditioned eigenbasis falls back to one block system per frequency.
Semilinear right-hand sides are handled by Picard iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional

import numpy as np
import scipy.linalg

from .errors import DegenerateBoundaryError, InvalidArgumentError
from .evolution import Nonlinearity
from .grids import Field, Grid
from .output import field_table, write_csv
from .solver import DiscretizedProblem

DEGENERACY_FLOOR = 1e-12


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

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
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

    def to_csv(self, path):
        """Rows (t, x, re/im per component) over the whole strip."""
        write_csv(path, *field_table(self.grid.x, self.values, self.tgrid.t))


def _normalize_forcing(problem, tgrid, forcing) -> Optional[np.ndarray]:
    shape = (tgrid.m + 2, problem.grid.n, problem.operator.dim)
    if forcing is None:
        return None
    if callable(forcing):
        rows = [np.asarray(forcing(float(t)), dtype=complex) for t in tgrid.t]
        arr = np.stack([r[:, None] if r.ndim == 1 else r for r in rows])
    else:
        arr = np.asarray(forcing, dtype=complex)
        if arr.ndim == 2:
            arr = arr[:, :, None]
    if arr.shape != shape:
        raise InvalidArgumentError(f"forcing must have shape {shape}")
    return arr


def _boundary_rows(bc: BoundaryConditions, dt: float):
    """Coefficients of the two one-sided second-order boundary rows."""
    r0 = (
        bc.alpha1 - 1.5 * bc.beta1 / dt,
        2.0 * bc.beta1 / dt,
        -0.5 * bc.beta1 / dt,
    )
    r1 = (
        bc.alpha2 + 1.5 * bc.beta2 / dt,
        -2.0 * bc.beta2 / dt,
        0.5 * bc.beta2 / dt,
    )
    return r0, r1


def _solve_scalar_bvp(m_vals, rhs, bc, dt):
    """Banded solves of the scalar two-point systems.

    m_vals: (k,) shifts; rhs: (k, m+2) right sides (row 0 and -1 hold the
    boundary data).  Returns (k, m+2) solutions.
    """
    k, npts = rhs.shape
    (c00, c01, c02), (c10, c11, c12) = _boundary_rows(bc, dt)
    idt2 = 1.0 / dt**2
    out = np.empty_like(rhs)
    ab = np.zeros((5, npts), dtype=complex)
    for i in range(k):
        ab[:] = 0.0
        # interior rows: -v'' + m v
        ab[1, 2:] = -idt2  # superdiagonal entries a[j, j+1]
        ab[2, 1:-1] = 2.0 * idt2 + m_vals[i]  # diagonal
        ab[3, :-2] = -idt2  # subdiagonal a[j, j-1]
        # boundary rows overwrite
        ab[2, 0] = c00
        ab[1, 1] = c01
        ab[0, 2] = c02
        ab[2, -1] = c10
        ab[3, -2] = c11
        ab[4, -3] = c12
        out[i] = scipy.linalg.solve_banded((2, 2), ab, rhs[i])
    return out


def _solve_block_bvp(m_mat, rhs, bc, dt):
    """Dense block solve of one frequency (fallback for A without an eigenbasis)."""
    npts, d = rhs.shape
    (c00, c01, c02), (c10, c11, c12) = _boundary_rows(bc, dt)
    idt2 = 1.0 / dt**2
    eye = np.eye(d)
    size = npts * d
    sys = np.zeros((size, size), dtype=complex)
    for i in range(1, npts - 1):
        r = slice(i * d, (i + 1) * d)
        sys[r, (i - 1) * d : i * d] = -idt2 * eye
        sys[r, i * d : (i + 1) * d] = 2.0 * idt2 * eye + m_mat
        sys[r, (i + 1) * d : (i + 2) * d] = -idt2 * eye
    sys[0:d, 0:d] = c00 * eye
    sys[0:d, d : 2 * d] = c01 * eye
    sys[0:d, 2 * d : 3 * d] = c02 * eye
    last = slice((npts - 1) * d, npts * d)
    sys[last, (npts - 1) * d : npts * d] = c10 * eye
    sys[last, (npts - 2) * d : (npts - 1) * d] = c11 * eye
    sys[last, (npts - 3) * d : (npts - 2) * d] = c12 * eye
    sol = np.linalg.solve(sys, rhs.reshape(size))
    return sol.reshape(npts, d)


def solve_bvp_linear(
    problem: DiscretizedProblem,
    bc: BoundaryConditions,
    tgrid: TGrid,
    forcing=None,
) -> StripField:
    """Solve -u_tt + L_x u = f on the strip with Robin boundary rows.

    ``forcing`` is None, an (m+2, n, dim) array, or a callable t -> (n, dim)
    samples.  Each frequency reduces to scalar banded solves in the eigenbasis
    of A; block solves are the fallback for a dense A without one.
    """
    problem.require_checked()
    if abs(check_nondegenerate(bc)) < DEGENERACY_FLOOR:
        raise DegenerateBoundaryError("boundary rows have vanishing determinant")
    problem.validate_field(bc.f1)
    problem.validate_field(bc.f2)
    n, d = problem.grid.n, problem.operator.dim
    npts = tgrid.m + 2
    dt = tgrid.dt

    garr = _normalize_forcing(problem, tgrid, forcing)
    den = problem.denominator_on_grid()
    eta = problem.eta_on_grid()
    f1h = np.fft.fft(bc.f1.values, axis=0)
    f2h = np.fft.fft(bc.f2.values, axis=0)
    gh = None if garr is None else np.fft.fft(garr, axis=1)

    diag = problem.operator.diagonalization()
    uh = np.empty((npts, n, d), dtype=complex)
    if diag is not None:
        fwd, inv, eigs = diag
        f1w, f2w = fwd(f1h), fwd(f2h)
        gw = None if gh is None else fwd(gh)
        shifts = den[:, None] * (eigs[None, :] + eta[:, None])  # (n, d)
        rhs = np.zeros((n * d, npts), dtype=complex)
        rhs[:, 0] = f1w.reshape(-1)
        rhs[:, -1] = f2w.reshape(-1)
        if gw is not None:
            rhs[:, 1:-1] = gw[1:-1].transpose(1, 2, 0).reshape(n * d, npts - 2)
        sols = _solve_scalar_bvp(shifts.reshape(-1), rhs, bc, dt)
        uw = sols.reshape(n, d, npts).transpose(2, 0, 1)
        uh[:] = inv(uw)
    else:
        a = problem.operator.as_dense()
        eye = np.eye(d)
        for j in range(n):
            rhs = np.zeros((npts, d), dtype=complex)
            rhs[0] = f1h[j]
            rhs[-1] = f2h[j]
            if gh is not None:
                rhs[1:-1] = gh[1:-1, j, :]
            m_mat = den[j] * (a + eta[j] * eye)
            uh[:, j, :] = _solve_block_bvp(m_mat, rhs, bc, dt)

    values = np.fft.ifft(uh, axis=1)
    return StripField(tgrid=tgrid, grid=problem.grid, values=values)


def bvp_discrete_residual(
    problem: DiscretizedProblem,
    bc: BoundaryConditions,
    tgrid: TGrid,
    solution: StripField,
    forcing=None,
) -> float:
    """Max-abs residual of the discrete system at a candidate solution.

    M u comes from ``apply_many``, not the solver's eigenbasis, so an error
    in that basis shows here.
    """
    garr = _normalize_forcing(problem, tgrid, forcing)
    dt = tgrid.dt
    den = problem.denominator_on_grid()
    eta = problem.eta_on_grid()
    uh = np.fft.fft(solution.values, axis=1)
    a_u = problem.operator.apply_many(uh.reshape(-1, uh.shape[2])).reshape(uh.shape)
    m_u = den[None, :, None] * (a_u + eta[None, :, None] * uh)
    interior = (
        -(uh[:-2] - 2.0 * uh[1:-1] + uh[2:]) / dt**2 + m_u[1:-1]
    )
    if garr is not None:
        interior = interior - np.fft.fft(garr, axis=1)[1:-1]
    (c00, c01, c02), (c10, c11, c12) = _boundary_rows(bc, dt)
    row0 = c00 * uh[0] + c01 * uh[1] + c02 * uh[2] - np.fft.fft(bc.f1.values, axis=0)
    row1 = c10 * uh[-1] + c11 * uh[-2] + c12 * uh[-3] - np.fft.fft(bc.f2.values, axis=0)
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

    def to_dict(self):
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "gaps": self.gaps,
            "t_halvings": self.t_halvings,
            "t_final": self.t_final,
            "message": self.message,
        }


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
    Non-convergence is reported, not raised; with ``max_t_halvings`` > 0
    the strip is shortened (T -> T/2) and the iteration restarted.

    Returns (StripField, IterationReport).
    """
    if max_iter < 1:
        raise InvalidArgumentError("max_iter must be >= 1")
    halvings = 0
    current = tgrid
    while True:
        u = solve_bvp_linear(problem, bc, current, forcing=None)
        gaps: List[float] = []
        converged = False
        for _ in range(max_iter):
            rhs = _evaluate_rhs(nonlinearity, u)
            u_next = solve_bvp_linear(problem, bc, current, forcing=rhs)
            gap = float(np.max(np.abs(u_next.values - u.values)))
            gaps.append(gap)
            u = u_next
            if gap <= tol * max(1.0, float(np.max(np.abs(u.values)))):
                converged = True
                break
        if converged or halvings >= max_t_halvings:
            report = IterationReport(
                converged=converged,
                iterations=len(gaps),
                gaps=gaps,
                t_halvings=halvings,
                t_final=current.t_final,
                message="" if converged else "picard iteration did not converge",
            )
            return u, report
        halvings += 1
        current = TGrid(t_final=current.t_final / 2.0, m=current.m)
