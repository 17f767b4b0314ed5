"""Property test: the eigenbasis route for dense non-normal A against the
per-frequency matrix exponential and the dense assembly of the strip BVP."""

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st

from coesolve import (
    BoundaryConditions,
    DiscretizedProblem,
    Field,
    Grid,
    Kernel,
    SymbolSet,
    TGrid,
    solve_bvp_linear,
)
from coesolve.evolution import _Propagator
from coesolve.operators import DenseMatrixOperator
from test_bvp import dense_bvp_oracle

N = 16


@st.composite
def non_normal_matrices(draw):
    """Q T Q^H with T upper triangular and its spectrum in the right half-plane.

    Real parts are spaced at least 0.1 apart, so the eigenvalues stay distinct
    and the eigenvector basis well conditioned; the strictly upper part makes
    A non-normal and the unitary Q hides the triangular structure.
    """
    d = draw(st.integers(1, 5))
    unit = st.floats(-1.0, 1.0)
    gaps = draw(st.lists(st.floats(0.1, 0.6), min_size=d, max_size=d))
    imag = draw(st.lists(unit, min_size=d, max_size=d))
    upper = np.array(draw(st.lists(unit, min_size=d * d, max_size=d * d))).reshape(d, d)
    seed = draw(st.integers(0, 2**32 - 1))
    t = np.diag(0.5 + np.cumsum(gaps) + 1j * np.array(imag)) + np.triu(upper, 1)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q @ t @ q.conj().T


def _problem(a):
    sym = SymbolSet(
        l=2,
        b=(0.5, 0.0, -1.0),
        a_kernels={2: Kernel("exponential-paper", rate=1.0, amplitude=0.5)},
        nu=1.0,
    )
    prob = DiscretizedProblem(sym, DenseMatrixOperator(a), Grid(half_width=4.0, n=N), p=2.0)
    prob.check_condition()
    return prob


def _scaled_gap(x, ref):
    return np.max(np.abs(x - ref)) / max(1.0, np.max(np.abs(ref)))


@settings(max_examples=30, deadline=None)
@given(a=non_normal_matrices(), seed=st.integers(0, 2**32 - 1))
def test_eigenbasis_route_matches_expm_and_block_solve(a, seed):
    prob = _problem(a)
    assert prob.operator.diagonalization() is not None
    d = a.shape[0]
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((N, d)) + 1j * rng.standard_normal((N, d))
    forcing = rng.standard_normal((N, d)) + 1j * rng.standard_normal((N, d))

    # one step of the propagator against the per-frequency expm of the
    # augmented block [[-dt M_j, dt I], [0, 0]]
    dt = 0.05
    prop = _Propagator(prob, dt, prob.x_spectrum())
    stepped = prop.from_spectral(prop.advance(prop.to_spectral(vals), prop.to_spectral(forcing)))
    den, eta = prob.denominator_on_grid(), prob.eta_on_grid()
    vh, fh = np.fft.fft(vals, axis=0), np.fft.fft(forcing, axis=0)
    ref = np.empty_like(vh)
    eye, zero = np.eye(d), np.zeros((d, d))
    for j in range(N):
        m = den[j] * (a + eta[j] * eye)
        block = scipy.linalg.expm(np.block([[-dt * m, dt * eye], [zero, zero]]))
        ref[j] = block[:d, :d] @ vh[j] + block[:d, d:] @ fh[j]
    assert _scaled_gap(stepped, np.fft.ifft(ref, axis=0)) < 1e-10

    # the linear BVP against the dense assembly of the whole system
    tg = TGrid(0.5, 8)
    f1 = Field(prob.grid, vals)
    f2 = Field(prob.grid, forcing)
    bc = BoundaryConditions(1.0, 0.25, 0.5, 1.0, f1=f1, f2=f2)
    g = rng.standard_normal((tg.m + 2, N, d)) + 1j * rng.standard_normal((tg.m + 2, N, d))
    u = solve_bvp_linear(prob, bc, tg, forcing=g)
    assert _scaled_gap(u.values, dense_bvp_oracle(prob, bc, tg, g)) < 1e-10
