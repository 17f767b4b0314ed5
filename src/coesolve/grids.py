"""Periodic truncation of the line and sampled fields on it.

The whole-line problem is truncated to [-X, X) with n equispaced points
(n a power of two), so FFT frequencies are xi_j = pi j / X.  Fields carry
(n, dim) complex samples; dim is the dimension of the operator stand-in.
Every transform in x is ``x_fft``/``x_ifft``, or ``x_rfft``/``x_irfft`` on
the n/2 + 1 rows of real samples (chosen by ``DiscretizedProblem.x_spectrum``),
along axis -2 of (..., n, dim).  Every scalar multiplier in x (derivatives,
convolutions, Littlewood-Paley cutoffs) is applied by ``x_multiply``, and
every symbol is sampled by ``on_grid``, the one rule for the Nyquist row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class Grid:
    """Equispaced periodic grid on [-X, X) with a power-of-two point count."""

    half_width: float
    n: int

    def __post_init__(self):
        if not self.half_width > 0:
            raise InvalidArgumentError("half_width must be positive")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise InvalidArgumentError("n must be a power of two >= 2")
        if not np.isfinite(self.h):
            raise InvalidArgumentError("grid spacing 2 half_width / n must be finite")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def x(self):
        return -self.half_width + self.h * np.arange(self.n)

    @property
    def xi(self):
        """FFT-ordered frequencies pi j / X, j = -n/2 .. n/2 - 1."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)


@dataclass
class Field:
    """Complex samples of an E-valued function on a grid, shape (n, dim)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.n:
            raise InvalidArgumentError("values must have shape (n,) or (n, dim)")
        self.values = v

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_function(cls, grid: Grid, fn, weights=None) -> "Field":
        """Sample scalar profile ``fn(x)`` times per-component ``weights``."""
        profile = np.asarray(fn(grid.x), dtype=complex)
        w = np.asarray([1.0] if weights is None else weights, dtype=complex)
        return cls(grid, profile[:, None] * w[None, :])


def x_fft(values: np.ndarray) -> np.ndarray:
    """DFT along axis -2, the x axis of (..., n, dim) arrays."""
    return np.fft.fft(values, axis=-2)


def x_ifft(values: np.ndarray) -> np.ndarray:
    """Inverse of ``x_fft``, also along axis -2."""
    return np.fft.ifft(values, axis=-2)


def x_rfft(values: np.ndarray) -> np.ndarray:
    """``x_fft`` of real samples, rows 0 .. n/2 only (the rest are their conjugates)."""
    return np.fft.rfft(values, axis=-2)


def x_irfft(values: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``x_rfft`` to n real samples along axis -2."""
    return np.fft.irfft(values, n=n, axis=-2)


def on_grid(symbol, xi: np.ndarray) -> np.ndarray:
    """Complex ``symbol`` (of a frequency array, stacked on leading axes) on the n
    frequencies ``xi``; row n/2, both -xi_N and +xi_N, takes 0.5 s(xi_N) + 0.5 s(-xi_N):
    Hermitian symbols keep real data real, odd ones vanish there, even ones keep their bits."""
    n = len(xi)
    vals = np.array(symbol(np.append(xi, -xi[n // 2])), dtype=complex)  # a copy, written below
    vals[..., n // 2] = 0.5 * vals[..., n // 2] + 0.5 * vals[..., n]  # halves cannot overflow
    return vals[..., :n]


def derivative_symbols(xi: np.ndarray, orders) -> np.ndarray:
    """(len(orders), n) stack of the symbols (i xi)^k of d^k/dx^k, by ``on_grid``."""
    return on_grid(lambda x: np.array([(1j * x) ** k for k in orders]).reshape(-1, len(x)), xi)


def x_multiply(values: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Each row of the (k, n) per-frequency ``symbols`` applied to the (n, dim)
    samples, shape (k, n, dim): one forward and one stacked inverse transform,
    none for an empty stack."""
    if not len(symbols):
        return np.empty((0,) + values.shape, dtype=complex)
    return x_ifft(symbols[:, :, None] * x_fft(values))


def spectral_derivative(field: Field, order: int) -> Field:
    """Order-th x-derivative via the symbol of ``derivative_symbols``."""
    if order < 0:
        raise InvalidArgumentError("derivative order must be >= 0")
    if order == 0:
        return Field(field.grid, field.values.copy())
    symbol = derivative_symbols(field.grid.xi, [order])
    return Field(field.grid, x_multiply(field.values, symbol)[0])


def band_limited_random(
    grid: Grid, rng, max_mode: int = 8, dim: int = 1, decay: float = 1.0
) -> Field:
    """Real random field from modes |j| <= max_mode with algebraic decay."""
    if max_mode < 1 or max_mode >= grid.n // 2:
        raise InvalidArgumentError("max_mode must lie in 1 .. n/2 - 1")
    x = grid.x
    vals = np.zeros((grid.n, dim))
    base = np.pi / grid.half_width
    for d in range(dim):
        for m in range(1, max_mode + 1):
            amp = 1.0 / m**decay
            vals[:, d] += amp * rng.normal() * np.cos(base * m * x)
            vals[:, d] += amp * rng.normal() * np.sin(base * m * x)
    return Field(grid, vals.astype(complex))
