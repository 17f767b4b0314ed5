"""Kernel transform values against quadrature oracles and closed forms."""

import numpy as np
import pytest

from coesolve import KERNEL_KINDS, Kernel
from coesolve.errors import InvalidArgumentError, UnsupportedKernelError

# Frozen oracle values, computed once by adaptive quadrature of the defining
# integral a_hat(xi) = int a(x) exp(-i xi x) dx on [-40, 40]:
#   exp(-|x|) at xi=1          -> 1.0000000000000002 - 0.0j
#   -sign(x) exp(-|x|) at xi=1 -> 0.0 + 0.9999999999999998j
#   exp(-x^2) at xi=2          -> 0.6520493321732921
QUAD_STD_XI1 = 1.0000000000000002
QUAD_PAPER_XI1 = 0.9999999999999998
QUAD_GAUSS_XI2 = 0.6520493321732921


def test_exponential_standard_matches_quadrature():
    ker = Kernel("exponential-standard", rate=1.0)
    val = ker.fourier(1.0)
    assert abs(val - QUAD_STD_XI1) < 1e-9
    assert abs(val.imag) < 1e-12
    # 2k / (k^2 + xi^2) at xi = 0, k = 2
    assert Kernel("exponential-standard", rate=2.0).fourier(0.0) == 1.0


def test_exponential_paper_matches_quadrature():
    ker = Kernel("exponential-paper", rate=1.0)
    val = ker.fourier(1.0)
    assert abs(val - 1j * QUAD_PAPER_XI1) < 1e-9


def test_gaussian_matches_quadrature():
    ker = Kernel("gaussian", rate=1.0)
    val = ker.fourier(2.0)
    assert abs(val - QUAD_GAUSS_XI2) < 1e-9
    # closed form sqrt(pi) e^{-1}
    assert abs(val - np.sqrt(np.pi) * np.exp(-1.0)) < 1e-12


def test_paper_kernel_is_odd_and_vanishes_at_origin():
    ker = Kernel("exponential-paper", rate=2.0, amplitude=1.5)
    assert ker.fourier(0.0) == 0
    xi = np.linspace(-4, 4, 17)
    vals = ker.fourier(xi)
    assert np.allclose(vals, -vals[::-1], atol=1e-14)


def test_dirac_scaled_is_constant():
    ker = Kernel("dirac-scaled", amplitude=3.0 - 1.0j)
    assert ker.fourier(0.7) == 3.0 - 1.0j
    vals = ker.fourier(np.array([0.0, 1.0, -5.0]))
    assert np.all(vals == 3.0 - 1.0j)
    assert np.all(ker.fourier_deriv(np.array([1.0, 2.0])) == 0)


def test_hermitian_symmetry_of_real_kernels():
    """Kernels that are real in x satisfy a_hat(-xi) = conj(a_hat(xi))."""
    xi = np.linspace(0.1, 9.0, 25)
    for kind in ("exponential-standard", "exponential-paper", "gaussian"):
        ker = Kernel(kind, rate=1.3)
        assert np.allclose(ker.fourier(-xi), np.conj(ker.fourier(xi)), atol=1e-14)


@pytest.mark.parametrize(
    "kind", ["exponential-paper", "exponential-standard", "gaussian"]
)
def test_closed_form_derivative_matches_finite_differences(kind):
    ker = Kernel(kind, rate=0.8, amplitude=1.2)
    xi = np.array([-3.0, -0.5, 0.2, 1.0, 7.0])
    step = 1e-6
    fd = (ker.fourier(xi + step) - ker.fourier(xi - step)) / (2 * step)
    assert np.allclose(ker.fourier_deriv(xi), fd, atol=1e-7)


def test_custom_kernel_uses_given_closed_forms():
    ker = Kernel(
        "custom-closed-form",
        fourier_fn=lambda xi: 1.0 / (1.0 + xi**2),
        fourier_deriv_fn=lambda xi: -2.0 * xi / (1.0 + xi**2) ** 2,
    )
    assert abs(ker.fourier(2.0) - 0.2) < 1e-14
    assert abs(ker.fourier_deriv(2.0) - (-4.0 / 25.0)) < 1e-14


def test_custom_kernel_derivative_falls_back_to_differences():
    ker = Kernel("custom-closed-form", fourier_fn=lambda xi: 1.0 / (1.0 + xi**2))
    xi = np.array([0.5, 2.0, 10.0])
    exact = -2.0 * xi / (1.0 + xi**2) ** 2
    assert np.allclose(ker.fourier_deriv(xi), exact, rtol=1e-6, atol=1e-9)


def test_scalar_input_gives_scalar_output():
    ker = Kernel("exponential-standard")
    assert isinstance(ker.fourier(1.0), complex)
    assert isinstance(ker.fourier_deriv(1.0), complex)
    arr = ker.fourier(np.array([1.0, 2.0]))
    assert arr.shape == (2,)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("amplitude", [1.0, 1.5 - 0.5j])
def test_every_kind_accepts_scalar_and_array_xi(kind, amplitude):
    ker = Kernel(
        kind,
        rate=0.7,
        amplitude=amplitude,
        fourier_fn=lambda xi: amplitude / (1.0 + xi**2),
    )
    xi = np.array([-2.0, 0.0, 0.5, 3.0])
    for method in (ker.fourier, ker.fourier_deriv):
        arr = method(xi)
        assert isinstance(arr, np.ndarray) and arr.shape == xi.shape
        for i, x in enumerate(xi):
            val = method(float(x))
            assert isinstance(val, complex)
            # loose: the custom derivative differences amplify rounding
            assert np.isclose(val, arr[i], rtol=1e-9, atol=1e-12)


def test_fourier_at_infinity_limits():
    assert Kernel("dirac-scaled", amplitude=2.0).fourier_at_infinity() == 2.0
    assert Kernel("exponential-paper").fourier_at_infinity() == 0
    assert Kernel("gaussian").fourier_at_infinity() == 0
    custom = Kernel("custom-closed-form", fourier_fn=lambda xi: 0 * xi)
    assert custom.fourier_at_infinity() is None


def test_unknown_kind_rejected():
    with pytest.raises(UnsupportedKernelError):
        Kernel("triangular")


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidArgumentError):
        Kernel("exponential-standard", rate=0.0)
    with pytest.raises(InvalidArgumentError):
        Kernel("custom-closed-form")
