"""Norm layer: Lebesgue, mixed, Sobolev-by-symbol, Besov via dyadic blocks,
and trace-space quantities."""

import numpy as np
import pytest

from coesolve import (
    Field,
    Grid,
    band_limited_random,
    besov_norm,
    lp_norm,
    mixed_norm,
    sobolev_norm,
    spectral_derivative,
    trace_exponents,
    trace_interpolation_thetas,
    trace_space_norms,
)
from coesolve.errors import InvalidArgumentError
from coesolve.operators import DenseMatrixOperator


def gaussian_field(grid, width=1.0):
    return Field.from_function(grid, lambda x: np.exp(-(x**2) / (2.0 * width**2)))


# ---------------------------------------------------------------------------
# Lebesgue norms
# ---------------------------------------------------------------------------


def test_lp_norm_of_indicator():
    grid = Grid(half_width=4.0, n=256)
    vals = ((grid.x >= 0.0) & (grid.x < 1.0)).astype(complex)
    f = Field(grid, vals)
    # the rectangle rule resolves the indicator exactly on a grid that
    # contains 0 and 1 as nodes
    assert lp_norm(f, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert lp_norm(f, 4.0) == pytest.approx(1.0, abs=1e-12)


def test_lp_norm_gaussian_quadrature_value():
    # ||exp(-x^2/2)||_2^2 = int exp(-x^2) = sqrt(pi)
    grid = Grid(half_width=16.0, n=512)
    f = gaussian_field(grid)
    assert abs(lp_norm(f, 2.0) - np.pi**0.25) < 1e-6


def test_lp_norm_homogeneity_and_triangle():
    grid = Grid(half_width=8.0, n=128)
    rng = np.random.default_rng(2)
    u = Field(grid, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    v = Field(grid, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    for p in (1.0, 2.0, 3.5):
        assert lp_norm(Field(grid, 3.0 * u.values), p) == pytest.approx(
            3.0 * lp_norm(u, p), rel=1e-12
        )
        assert lp_norm(Field(grid, u.values + v.values), p) <= (
            lp_norm(u, p) + lp_norm(v, p) + 1e-10
        )


def test_lp_norm_vector_components_use_euclidean_length():
    grid = Grid(half_width=1.0, n=8)
    vals = np.zeros((8, 2), dtype=complex)
    vals[:, 0] = 3.0
    vals[:, 1] = 4.0
    f = Field(grid, vals)
    # |(3,4)| = 5 pointwise, measure of the window is 2
    assert lp_norm(f, 2.0) == pytest.approx(5.0 * np.sqrt(2.0), rel=1e-12)


def test_lp_norm_validation():
    grid = Grid(half_width=1.0, n=8)
    f = Field(grid, np.ones(8, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        lp_norm(f, 0.5)


# ---------------------------------------------------------------------------
# mixed norms
# ---------------------------------------------------------------------------


def test_mixed_norm_collapses_when_exponents_match():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
    dt, h = 0.25, 0.5
    got = mixed_norm(vals, 2.0, 2.0, dt, h)
    flat = np.sqrt(np.sum(np.abs(vals) ** 2) * dt * h)
    assert got == pytest.approx(flat, rel=1e-12)


def test_mixed_norm_separates_products():
    # u(t, x) = g(t) w(x) gives ||u|| = ||g||_p ||w||_q exactly
    t = np.linspace(0.0, 1.0, 9)[:, None]
    x = np.linspace(-1.0, 1.0, 13)[None, :]
    g = 1.0 + t**2
    w = np.cos(x)
    vals = (g * w).astype(complex)
    dt, h = 0.125, 2.0 / 12.0
    p, q = 3.0, 2.0
    norm_g = (np.sum(np.abs(g) ** p) * dt) ** (1.0 / p)
    norm_w = (np.sum(np.abs(w) ** q) * h) ** (1.0 / q)
    assert mixed_norm(vals, p, q, dt, h) == pytest.approx(
        norm_g * norm_w, rel=1e-12
    )


def test_mixed_norm_linear_ramp():
    # u(t, x) = t on [0,1] x [0,1] at midpoints: L2-in-t of t is 1/sqrt(3)
    nt, nx = 2048, 4
    t = (np.arange(nt) + 0.5) / nt
    vals = np.repeat(t[:, None], nx, axis=1).astype(complex)
    got = mixed_norm(vals, 2.0, 2.0, 1.0 / nt, 1.0 / nx)
    assert abs(got - 1.0 / np.sqrt(3.0)) < 1e-4


def test_mixed_norm_validation():
    with pytest.raises(InvalidArgumentError):
        mixed_norm(np.ones((4, 4)), 0.5, 2.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Sobolev norms
# ---------------------------------------------------------------------------


def test_sobolev_norm_of_plane_wave():
    # u = cos(x), l = 2, A = I: ||u|| + ||Au|| + (||u|| + ||u'|| + ||u''||);
    # every term equals ||cos|| = sqrt(16 pi) on a 32 pi window
    grid = Grid(half_width=16.0 * np.pi, n=512)
    f = Field.from_function(grid, np.cos)
    op = DenseMatrixOperator(np.array([[1.0]]))
    val = sobolev_norm(f, l=2, p=2.0, operator=op)
    assert val == pytest.approx(5.0 * np.sqrt(16.0 * np.pi), rel=1e-9)


def test_sobolev_norm_without_operator_stands_in_identity():
    # no operator: the ||Au|| slot falls back to ||u||, so l = 0 gives
    # ||u|| + ||u|| + ||u|| = 3 ||u||
    grid = Grid(half_width=16.0 * np.pi, n=512)
    f = Field.from_function(grid, np.cos)
    val = sobolev_norm(f, l=0, p=2.0)
    assert val == pytest.approx(3.0 * np.sqrt(16.0 * np.pi), rel=1e-9)


def test_sobolev_norm_stable_under_grid_refinement():
    grid = Grid(half_width=16.0 * np.pi, n=512)
    fine = Grid(half_width=16.0 * np.pi, n=1024)
    op = DenseMatrixOperator(np.array([[1.0]]))
    a = sobolev_norm(Field.from_function(grid, np.cos), l=2, p=2.0, operator=op)
    b = sobolev_norm(Field.from_function(fine, np.cos), l=2, p=2.0, operator=op)
    assert abs(a - b) < 1e-9


def test_sobolev_norm_validation():
    grid = Grid(half_width=4.0, n=32)
    f = Field(grid, np.ones(32, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        sobolev_norm(f, l=-1, p=2.0)


# ---------------------------------------------------------------------------
# Besov norms
# ---------------------------------------------------------------------------


def test_besov_norm_of_zero_field():
    grid = Grid(half_width=8.0, n=64)
    f = Field(grid, np.zeros(64, dtype=complex))
    assert besov_norm(f, s=1.0, q=2.0, p=2.0) == 0.0


def test_besov_norm_single_annulus_mode():
    # cos(2 pi x) concentrates at |xi| = 2 pi in (4, 8], the j = 3 block,
    # so the norm is exactly 2^{3 s} ||u||_2
    grid = Grid(half_width=16.0, n=256)
    f = Field.from_function(grid, lambda x: np.cos(2.0 * np.pi * x))
    u2 = lp_norm(f, 2.0)
    for s in (0.5, 1.0, 1.5):
        assert besov_norm(f, s=s, q=2.0, p=2.0) == pytest.approx(
            2.0 ** (3.0 * s) * u2, rel=1e-9
        )


def test_besov_norm_monotone_in_smoothness():
    grid = Grid(half_width=16.0, n=256)
    rng = np.random.default_rng(12)
    f = band_limited_random(grid, rng, max_mode=40, decay=1.0)
    n1 = besov_norm(f, s=0.5, q=2.0, p=2.0)
    n2 = besov_norm(f, s=1.5, q=2.0, p=2.0)
    assert n2 >= n1


def test_besov_h1_comparison_window():
    """At s = 1, p = q = 2 the Besov norm is equivalent to ||u|| + ||u'||;
    on band-limited samples the ratio sits comfortably inside [0.3, 3]."""
    grid = Grid(half_width=16.0, n=256)
    rng = np.random.default_rng(9)
    for _ in range(10):
        f = band_limited_random(grid, rng, max_mode=30, decay=1.5)
        h1 = lp_norm(f, 2.0) + lp_norm(spectral_derivative(f, 1), 2.0)
        ratio = besov_norm(f, s=1.0, q=2.0, p=2.0) / h1
        assert 0.3 <= ratio <= 3.0


def test_besov_norm_validation():
    grid = Grid(half_width=4.0, n=32)
    f = Field(grid, np.ones(32, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        besov_norm(f, s=0.0, q=2.0, p=2.0)
    with pytest.raises(InvalidArgumentError):
        besov_norm(f, s=1.0, q=2.0, p=0.5)


# ---------------------------------------------------------------------------
# trace-space quantities
# ---------------------------------------------------------------------------


def test_trace_exponents_fourth_order_l2():
    s0, s1 = trace_exponents(4, 2.0)
    assert (s0, s1) == (3.0, 1.0)


def test_trace_interpolation_thetas():
    t0, t1 = trace_interpolation_thetas(2.0)
    assert t0 == pytest.approx(0.25)
    assert t1 == pytest.approx(0.75)


def test_trace_exponents_validation():
    with pytest.raises(InvalidArgumentError):
        trace_exponents(0, 2.0)
    with pytest.raises(InvalidArgumentError):
        trace_exponents(2, 1.0)


def test_trace_space_norms_zero_data():
    grid = Grid(half_width=8.0, n=64)
    z = Field(grid, np.zeros(64, dtype=complex))
    op = DenseMatrixOperator(np.array([[1.0]]))
    x0, x1 = trace_space_norms(z, z, l=2, p=2.0, q=2.0, operator=op)
    assert x0 == 0.0
    assert x1 == 0.0


def test_trace_space_norms_stable_under_refinement():
    op = DenseMatrixOperator(np.array([[1.0]]))
    vals = []
    for n in (256, 512, 1024):
        grid = Grid(half_width=16.0, n=n)
        f = gaussian_field(grid)
        vals.append(trace_space_norms(f, f, l=4, p=2.0, q=2.0, operator=op))
    for a, b in zip(vals, vals[1:]):
        assert abs(a[0] - b[0]) <= 0.01 * abs(b[0])
        assert abs(a[1] - b[1]) <= 0.01 * abs(b[1])


def test_trace_x1_smaller_than_x0_for_smooth_data():
    # the derivative trace space asks for less smoothness, so its Besov
    # part is smaller on the same gaussian profile
    grid = Grid(half_width=16.0, n=512)
    f = gaussian_field(grid)
    op = DenseMatrixOperator(np.array([[1.0]]))
    x0, x1 = trace_space_norms(f, f, l=4, p=2.0, q=2.0, operator=op)
    assert x1 < x0
