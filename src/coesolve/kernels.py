"""Convolution kernels and their Fourier transforms.

A kernel enters the equations only through its transform a_hat(xi), so the
class stores closed forms for a_hat and its xi-derivative per kind.  The
transform convention is a_hat(xi) = integral a(x) exp(-i xi x) dx.

Two exponential kinds coexist on purpose: ``exponential-standard`` is the
transform 2k/(k^2 + xi^2) of exp(-k|x|) under the convention above, while
``exponential-paper`` is the odd variant 2 i xi/(k^2 + xi^2) (the transform
of -sign(x) exp(-k|x|)).  Both are useful test symbols; neither is treated
as a typo of the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError, UnsupportedKernelError

KERNEL_KINDS = (
    "dirac-scaled",
    "exponential-paper",
    "exponential-standard",
    "gaussian",
    "custom-closed-form",
)

_FD_REL_STEP = 1e-5


@dataclass(frozen=True)
class Kernel:
    """One convolution kernel, identified by kind and scalar parameters.

    Parameters
    ----------
    kind : str
        One of ``KERNEL_KINDS``.
    rate : float
        Decay rate k > 0 (ignored by ``dirac-scaled``).
    amplitude : complex
        Multiplicative weight of the kernel, default 1.
    fourier_fn, fourier_deriv_fn : callable, optional
        Closed forms for ``custom-closed-form`` kernels.  The derivative is
        optional; central differences with relative step 1e-5 are used when
        it is absent.
    """

    kind: str
    rate: float = 1.0
    amplitude: complex = 1.0
    fourier_fn: Optional[Callable] = None
    fourier_deriv_fn: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise UnsupportedKernelError(f"unknown kernel kind {self.kind!r}")
        if self.kind in ("exponential-paper", "exponential-standard", "gaussian"):
            if not self.rate > 0:
                raise InvalidArgumentError("kernel rate must be positive")
        if self.kind == "custom-closed-form" and self.fourier_fn is None:
            raise InvalidArgumentError("custom-closed-form kernel needs fourier_fn")

    def fourier(self, xi):
        """a_hat(xi), vectorized over xi."""
        xi = np.asarray(xi, dtype=float)
        k, c = self.rate, self.amplitude
        if self.kind == "dirac-scaled":
            out = np.broadcast_to(c, xi.shape).copy().astype(complex)
        elif self.kind == "exponential-paper":
            out = c * 2j * xi / (k * k + xi * xi)
        elif self.kind == "exponential-standard":
            out = c * 2.0 * k / (k * k + xi * xi) + 0j
        elif self.kind == "gaussian":
            out = c * np.sqrt(np.pi / k) * np.exp(-(xi * xi) / (4.0 * k)) + 0j
        else:
            out = self.fourier_fn(xi)
        out = np.asarray(out, dtype=complex)
        return out if out.shape else complex(out)

    def fourier_deriv(self, xi):
        """d a_hat/d xi, closed form per kind, central differences for custom."""
        xi = np.asarray(xi, dtype=float)
        k, c = self.rate, self.amplitude
        if self.kind == "dirac-scaled":
            out = np.zeros(xi.shape, dtype=complex)
        elif self.kind == "exponential-paper":
            d = k * k + xi * xi
            out = c * 2j * (k * k - xi * xi) / (d * d)
        elif self.kind == "exponential-standard":
            d = k * k + xi * xi
            out = c * (-4.0 * k * xi) / (d * d) + 0j
        elif self.kind == "gaussian":
            out = -xi / (2.0 * k) * self.fourier(xi)
        elif self.fourier_deriv_fn is not None:
            out = np.asarray(self.fourier_deriv_fn(xi), dtype=complex)
        else:
            step = _FD_REL_STEP * np.maximum(np.abs(xi), 1.0)
            out = (
                np.asarray(self.fourier_fn(xi + step), dtype=complex)
                - np.asarray(self.fourier_fn(xi - step), dtype=complex)
            ) / (2.0 * step)
        out = np.asarray(out, dtype=complex)
        return out if out.shape else complex(out)

    def fourier_at_infinity(self):
        """Analytic limit of a_hat as |xi| -> inf, or None if unknown (custom)."""
        if self.kind == "dirac-scaled":
            return complex(self.amplitude)
        if self.kind in ("exponential-paper", "exponential-standard", "gaussian"):
            return 0.0 + 0.0j
        return None
