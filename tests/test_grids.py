"""The x-transform pairs ``x_fft``/``x_ifft`` and ``x_rfft``/``x_irfft``
against the ``np.fft`` oracle, and the multiplier kernel ``x_multiply``.

Each is one ``np.fft`` call along axis -2 at every size, so the test
requires the same bytes as the oracle, and a round trip back to the input
within 2 n eps of its largest value.  ``x_multiply`` gives the bytes of one
transform pair per symbol, and each caller of it transforms once each way.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coesolve import (
    DiscretizedProblem,
    Field,
    Grid,
    Kernel,
    Nonlinearity,
    SymbolSet,
    band_limited_random,
    besov_norm,
    coercive_report,
    lp_norm,
    sobolev_norm,
)
from coesolve.grids import derivative_symbols, x_fft, x_ifft, x_irfft, x_multiply, x_rfft
from coesolve.operators import DenseMatrixOperator

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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    log_n=st.integers(1, 8),
    dim=st.integers(1, 40),
    k=st.integers(1, 6),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_x_multiply_matches_one_transform_pair_per_symbol(log_n, dim, k, real, seed):
    """The stacked inverse transform gives, row for row, the bytes of one
    ``np.fft`` forward and inverse call per symbol."""
    rng = np.random.default_rng(seed)
    n = 2**log_n
    values = rng.normal(size=(n, dim))
    if not real:
        values = values + 1j * rng.normal(size=(n, dim))
    symbols = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    got = x_multiply(values, symbols)
    assert got.shape == (k, n, dim) and got.dtype == np.complex128
    for row, sym in zip(got, symbols):
        want = np.fft.ifft(sym[:, None] * np.fft.fft(values, axis=0), axis=0)
        assert row.tobytes() == want.tobytes()


def test_derivative_symbols_zero_the_nyquist_row_of_odd_orders():
    xi = Grid(half_width=4.0, n=8).xi
    syms = derivative_symbols(xi, [1, 2, 3])
    assert syms.shape == (3, 8)
    assert syms[:, 4].tolist() == [0, (1j * xi[4]) ** 2, 0]
    for row, order in zip(syms, [1, 2, 3]):
        assert np.array_equal(np.delete(row, 4), np.delete((1j * xi) ** order, 4))
    assert derivative_symbols(xi, []).shape == (0, 8)


def _count_transforms(monkeypatch):
    """A dict that counts the ``np.fft.fft`` and ``np.fft.ifft`` calls made."""
    counts = {"fft": 0, "ifft": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.mark.parametrize("mu", [False, True])
def test_coercive_report_transforms_u_once(mu, monkeypatch):
    """l = 2 with a kernel at orders 0 and 2: both derivative terms and both
    convolution terms share one transform pair, the mu term takes one more."""
    sym = SymbolSet(
        l=2, b=(0.0, 0.0, -1.0),
        a_kernels={0: Kernel("gaussian", rate=1.0, amplitude=0.1),
                   2: Kernel("exponential-paper", rate=1.0)},
        mu_kernel=Kernel("exponential-standard", rate=1.0, amplitude=0.5) if mu else None,
        nu=1.0,
    )
    prob = DiscretizedProblem(sym, DenseMatrixOperator(np.diag([1.0, 2.0])),
                              Grid(half_width=8.0, n=64), p=2.0)
    prob.check_condition()
    u = band_limited_random(prob.grid, np.random.default_rng(3), max_mode=6, dim=2)
    counts = _count_transforms(monkeypatch)
    report = coercive_report(prob, u, 2.0, u=u)
    assert counts == ({"fft": 2, "ifft": 2} if mu else {"fft": 1, "ifft": 1})
    assert all(t > 0 for t in report.derivative_terms)
    assert report.convolution_terms[1] == 0.0 and report.convolution_terms[0] > 0
    assert (report.mu_conv_term > 0) == mu


@pytest.mark.parametrize("l, pairs", [(0, 0), (1, 1), (3, 1)])
def test_sobolev_norm_transforms_once(l, pairs, monkeypatch):
    u = band_limited_random(Grid(half_width=8.0, n=64), np.random.default_rng(4), dim=2)
    counts = _count_transforms(monkeypatch)
    sobolev_norm(u, l, 2.0)
    assert counts == {"fft": pairs, "ifft": pairs}


def test_besov_norm_transforms_once(monkeypatch):
    u = band_limited_random(Grid(half_width=8.0, n=256), np.random.default_rng(5), dim=2)
    counts = _count_transforms(monkeypatch)
    besov_norm(u, 1.5, 2.0, 2.0)
    assert counts == {"fft": 1, "ifft": 1}


@pytest.mark.parametrize("arity, pairs", [(0, 0), (1, 1), (3, 1)])
def test_of_field_transforms_once(arity, pairs, monkeypatch):
    nl = Nonlinearity(kind="pointwise-polynomial", arity=arity,
                      terms=(((1,) * (arity + 1), 1.0),))
    u = band_limited_random(Grid(half_width=8.0, n=64), np.random.default_rng(6), dim=2)
    counts = _count_transforms(monkeypatch)
    nl.of_field(Field(u.grid, u.values))
    assert counts == {"fft": pairs, "ifft": pairs}


def _one_pair_per_term(values, symbol):
    return np.fft.ifft(symbol[:, None] * np.fft.fft(values, axis=0), axis=0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_n=st.integers(2, 8), dim=st.integers(1, 4), l=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_multiplier_norms_keep_the_bits_of_one_transform_pair_per_term(log_n, dim, l, seed):
    """``sobolev_norm``, ``besov_norm`` and the derivative and convolution
    terms of ``coercive_report`` equal their per-term loops as first written."""
    grid = Grid(half_width=6.0, n=2**log_n)
    rng = np.random.default_rng(seed)
    u = Field(grid, rng.normal(size=(grid.n, dim)) + 1j * rng.normal(size=(grid.n, dim)))
    xi = grid.xi
    lp = lambda values: lp_norm(Field(grid, values), 2.0)
    derivs = [u.values] + [_one_pair_per_term(u.values, derivative_symbols(xi, [k])[0])
                           for k in range(1, l + 1)]
    sobolev = 2 * lp(u.values)
    for dk in derivs:
        sobolev += lp(dk)
    assert sobolev_norm(u, l, 2.0) == sobolev

    axi, fh = np.abs(xi), np.fft.fft(u.values, axis=0)
    piece = lambda mask: lp(np.fft.ifft(np.where(mask[:, None], fh, 0), axis=0))
    acc = 0.0
    for j in range(1, 12):
        mask = (axi > 2.0 ** (j - 1)) & (axi <= 2.0**j)
        if np.any(mask):
            acc += (2.0 ** (j * 1.5) * piece(mask)) ** 2
    assert besov_norm(u, 1.5, 2.0, 2.0) == piece(axi <= 1.0) + acc**0.5

    kernels = {k: Kernel("gaussian", rate=1.0 + k, amplitude=0.1) for k in range(0, l + 1, 2)}
    sym = SymbolSet(l=l, b=(1.0,) + (0.0,) * l, a_kernels=kernels, nu=1.0)
    prob = DiscretizedProblem(sym, DenseMatrixOperator(np.eye(dim)), grid, p=2.0)
    report = coercive_report(prob, u, 1.0, u=u)
    assert report.derivative_terms == [lp(dk) for dk in derivs]
    assert report.convolution_terms == [
        lp(_one_pair_per_term(u.values, kernels[k].fourier(xi) * (1j * xi) ** k))
        if k in kernels else 0.0 for k in range(l + 1)]
