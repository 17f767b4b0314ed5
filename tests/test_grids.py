"""The x-transform pairs ``x_fft``/``x_ifft`` and ``x_rfft``/``x_irfft``
against the ``np.fft`` oracle.

Each is one ``np.fft`` call along axis -2 at every size, so the test
requires the same bytes as the oracle, and a round trip back to the input
within 2 n eps of its largest value.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from coesolve.grids import x_fft, x_ifft, x_irfft, x_rfft

EPS = np.finfo(float).eps


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
    assert got.tobytes() == oracle.tobytes()
    back = x_ifft(x_fft(values))
    assert np.max(np.abs(back - values)) <= 2 * n * EPS * np.max(np.abs(values))


@settings(max_examples=100, deadline=None)
@given(stacks())
def test_real_x_transforms_match_the_fft_oracle(values):
    """``x_rfft`` is the first n/2 + 1 rows of ``x_fft`` on real samples and
    ``x_irfft`` brings them back to the n real samples."""
    values = values.real.copy()
    n = values.shape[-2]
    got = x_rfft(values)
    oracle = np.fft.rfft(values, axis=-2)
    assert got.tobytes() == oracle.tobytes()
    full = x_fft(values)
    assert np.max(np.abs(got - full[..., : n // 2 + 1, :])) <= 2 * n * EPS * np.max(np.abs(full))
    back = x_irfft(got, n)
    assert back.dtype == np.float64 and back.shape == values.shape
    assert back.tobytes() == np.fft.irfft(oracle, n=n, axis=-2).tobytes()
    assert np.max(np.abs(back - values)) <= 2 * n * EPS * np.max(np.abs(values))
