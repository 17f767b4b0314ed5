"""Discrete function-space norms used by the verification suite.

All integrals are rectangle rules on the sampled grids.  The E-valued
magnitude is the Euclidean norm across components.  Besov norms use sharp
Littlewood-Paley cutoffs (characteristic functions of dyadic annuli), and
the trace-space norms are upper-equivalent surrogates built from those
cutoffs plus a pointwise graph-norm interpolant; they are positively
homogeneous but not subadditive.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .grids import Field, derivative_symbols, x_multiply


def _component_norms(values) -> np.ndarray:
    return np.linalg.norm(np.atleast_2d(values), axis=-1)


def lp_norm(field: Field, p: float) -> float:
    """(h sum_i ||u_i||_E^p)^(1/p) on the field's grid."""
    if not p >= 1:
        raise InvalidArgumentError("p must be >= 1")
    mags = _component_norms(field.values)
    return float((field.grid.h * np.sum(mags**p)) ** (1.0 / p))


def mixed_norm(values, p: float, q: float, dt: float, h: float) -> float:
    """L_p in the outer (first) axis of the L_q inner-axis norms.

    ``values`` has shape (nt, nx) or (nt, nx, dim); spacings ``dt`` (outer)
    and ``h`` (inner) weight the rectangle rules.  For p == q this equals
    the flattened lp norm with weight dt * h.
    """
    if not (p >= 1 and q >= 1):
        raise InvalidArgumentError("p and q must be >= 1")
    v = np.asarray(values, dtype=complex)
    if v.ndim == 2:
        v = v[:, :, None]
    if v.ndim != 3:
        raise InvalidArgumentError("values must have shape (nt, nx) or (nt, nx, dim)")
    mags = np.linalg.norm(v, axis=2)
    inner = (h * np.sum(mags**q, axis=1)) ** (1.0 / q)
    return float((dt * np.sum(inner**p)) ** (1.0 / p))


def sobolev_norm(field: Field, l: int, p: float, operator=None) -> float:
    """Graph part ||u|| + ||Au|| plus sum_{k=0}^{l} ||d^k u/dx^k||, each in L_p."""
    if l < 0:
        raise InvalidArgumentError("l must be >= 0")
    u_norm = lp_norm(field, p)
    au = None if operator is None else Field(field.grid, operator.apply_many(field.values))
    total = u_norm + (u_norm if au is None else lp_norm(au, p)) + u_norm  # ||u||, ||Au||, k = 0
    for dk in x_multiply(field.values, derivative_symbols(field.grid.xi, range(1, l + 1))):
        total += lp_norm(Field(field.grid, dk), p)
    return float(total)


def _dyadic_pieces(field: Field):
    """(low, [(j, piece)]) sharp Littlewood-Paley decomposition of the field:
    |xi| <= 1 and the nonempty annuli 2^(j-1) < |xi| <= 2^j as 0/1 symbols,
    j up to the bit length of max|xi|, the last j with 2^(j-1) <= max|xi|."""
    xi = np.abs(field.grid.xi)
    annuli = [(j, (xi > 2.0 ** (j - 1)) & (xi <= 2.0**j))
              for j in range(1, int(xi.max()).bit_length() + 1)]
    bands = [(0, xi <= 1.0)] + [(j, mask) for j, mask in annuli if np.any(mask)]
    symbols = np.array([mask for _, mask in bands], dtype=float)
    pieces = [(j, Field(field.grid, v))
              for (j, _), v in zip(bands, x_multiply(field.values, symbols))]
    return pieces[0][1], pieces[1:]


def besov_norm(field: Field, s: float, q: float, p: float) -> float:
    """||S_0 u||_q + (sum_j (2^{js} ||Delta_j u||_q)^p)^(1/p), sharp cutoffs."""
    if not s > 0:
        raise InvalidArgumentError("smoothness s must be positive")
    if not (p >= 1 and q >= 1):
        raise InvalidArgumentError("p and q must be >= 1")
    low, pieces = _dyadic_pieces(field)
    acc = 0.0
    for j, piece in pieces:
        acc += (2.0 ** (j * s) * lp_norm(piece, q)) ** p
    return float(lp_norm(low, q) + acc ** (1.0 / p))


def trace_exponents(l: int, p: float):
    """(s0, s1) Besov smoothness of the two trace spaces: l(2p-1)/2p and l(p-1)/2p."""
    if l < 1 or not p > 1:
        raise InvalidArgumentError("need l >= 1 and p > 1")
    return l * (2.0 * p - 1.0) / (2.0 * p), l * (p - 1.0) / (2.0 * p)


def trace_interpolation_thetas(p: float):
    """(theta0, theta1) graph-interpolant weights 1/2p and (p+1)/2p."""
    if not p > 1:
        raise InvalidArgumentError("need p > 1")
    return 1.0 / (2.0 * p), (p + 1.0) / (2.0 * p)


def _graph_interpolant_norm(field: Field, operator, theta: float, q: float) -> float:
    """L_q norm of the pointwise interpolant ||u||^(1-theta) ||Au||^theta."""
    mags = _component_norms(field.values)
    amags = _component_norms(operator.apply_many(field.values))
    vals = mags ** (1.0 - theta) * amags**theta
    return float((field.grid.h * np.sum(vals**q)) ** (1.0 / q))


def trace_space_norms(u0: Field, u1: Field, l: int, p: float, q: float, operator):
    """Surrogate norms of the two trace spaces for (initial, derivative) data.

    Each is the matching Besov norm plus the L_q norm of the graph-norm
    interpolant with the companion theta.  Returns (x0_norm, x1_norm).
    """
    s0, s1 = trace_exponents(l, p)
    th0, th1 = trace_interpolation_thetas(p)
    x0 = besov_norm(u0, s0, q, p) + _graph_interpolant_norm(u0, operator, th0, q)
    x1 = besov_norm(u1, s1, q, p) + _graph_interpolant_norm(u1, operator, th1, q)
    return float(x0), float(x1)
