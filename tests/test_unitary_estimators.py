"""Estimators on the eigenbasis of the unitary operator kinds (periodic
Sturm-Liouville, Dirichlet Laplacian) against their dense oracles: analytic
resolvent norms in the positivity scan, the multiplier-family matrix built
through the operator's resolvent (dense operators too), and R-bounds of
diagonal families."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coesolve import DiscretizedProblem, Grid, Kernel, Sector, SymbolSet
from coesolve.operators import (
    DenseMatrixOperator,
    DirichletLaplacian2D,
    OperatorRealization,
    PeriodicSturmLiouvilleOperator,
    positivity_scan,
    sector_samples,
)
from coesolve.rademacher import (
    RademacherSample,
    _tuple_ratio,
    empirical_rbound,
    scaled_resolvent_rbound,
)
from coesolve.symbols import MultiplierFamily, composes_with_operator, reduced_symbol

SYMBOLS = SymbolSet(
    l=2,
    b=(1.0, 0.0, -1.0),
    a_kernels={2: Kernel("exponential-paper", rate=1.0)},
    nu=1.0,
)
FAMILY_INDICES = (0, 1, 2, 3, 4, "sigma")


@st.composite
def unitary_operators(draw):
    if draw(st.booleans()):
        return PeriodicSturmLiouvilleOperator(draw(st.floats(0.5, 5.0)), draw(st.integers(3, 40)))
    ny, nz = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return DirichletLaplacian2D(ny, nz, draw(st.floats(0.0, 5.0)))


@st.composite
def dense_operators(draw):
    """A non-normal Q T Q^H with distinct eigenvalues, or a Jordan block,
    which has no eigenbasis and takes the LU resolvent."""
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if d > 1 and draw(st.booleans()):
        return DenseMatrixOperator(1.5 * np.eye(d) + np.eye(d, k=1))
    t = np.diag(0.5 + np.cumsum(rng.uniform(0.1, 0.6, d)) + 1j * rng.uniform(-1.0, 1.0, d))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return DenseMatrixOperator(q @ (t + np.triu(rng.uniform(-1.0, 1.0, (d, d)), 1)) @ q.conj().T)


def _problem(op):
    prob = DiscretizedProblem(SYMBOLS, op, Grid(half_width=8.0, n=16), p=2.0)
    prob.check_condition(lambda_sector=Sector(np.pi / 2))
    return prob


# ---------------------------------------------------------------------------
# dense oracles
# ---------------------------------------------------------------------------


@settings(max_examples=60)
@given(
    op=unitary_operators(),
    angle=st.floats(0.0, 0.75 * np.pi),
    n_moduli=st.integers(1, 8),
    lo=st.floats(1e-3, 1.0),
)
def test_analytic_positivity_scan_matches_the_svd(op, angle, n_moduli, lo):
    sector = Sector(angle)
    samples = sector_samples(sector, n_moduli=n_moduli, lo=lo, hi=1e4)
    got = positivity_scan(op, sector, samples)
    ref = positivity_scan(DenseMatrixOperator(op.as_dense()), sector, samples)
    assert np.allclose(got.values, ref.values, rtol=1e-10, atol=0.0)
    assert got.m_bound == pytest.approx(ref.m_bound, rel=1e-10)


@settings(max_examples=80)
@given(
    op=st.one_of(unitary_operators(), dense_operators()),
    index=st.sampled_from(FAMILY_INDICES),
    xi=st.floats(-50.0, 50.0),
    lam_mod=st.floats(1e-2, 1e3),
    lam_arg=st.floats(-0.5 * np.pi, 0.5 * np.pi),
)
def test_family_matrix_matches_the_shifted_inverse(op, index, xi, lam_mod, lam_arg):
    lam = lam_mod * np.exp(1j * lam_arg)
    fam = MultiplierFamily(SYMBOLS, index, lam, operator=op)
    a = op.as_dense()
    eta = complex(reduced_symbol(SYMBOLS, xi))
    ref = complex(fam.prefactor(xi)) * np.linalg.inv(a + (eta + lam) * np.eye(op.dim))
    if composes_with_operator(index):
        ref = a @ ref
    got = fam.matrix(xi)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
    if op.unitary:
        # the member's spectrum is the diagonal the R-bound estimator consumes
        assert np.max(np.abs(fam.diagonal(xi))) == pytest.approx(np.linalg.norm(ref, 2), rel=1e-10)


@settings(max_examples=40)
@given(
    op=unitary_operators(),
    m=st.integers(1, 8),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonal_tuple_ratio_is_that_of_the_dense_conjugate(op, m, p, seed):
    """For one tuple, diag(d_j) on fwd(x_j) and U diag(d_j) U^H on x_j give
    the same ratio: both Rademacher averages are unitarily invariant."""
    fwd, inv, _ = op.diagonalization()
    rng = np.random.default_rng(seed)
    diagonals = rng.standard_normal((m, op.dim)) + 1j * rng.standard_normal((m, op.dim))
    eye = np.eye(op.dim)
    dense = np.stack([inv(d * fwd(eye)).T for d in diagonals])
    xs = rng.standard_normal((m, op.dim)) + 1j * rng.standard_normal((m, op.dim))
    sample = RademacherSample.plan(m)
    got = _tuple_ratio(diagonals, fwd(xs), p, sample)
    ref = _tuple_ratio(dense, xs, p, sample)
    assert got == pytest.approx(ref, rel=1e-10)


@settings(max_examples=30)
@given(
    n_members=st.integers(1, 6),
    dim=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonal_rbound_at_p2_is_the_largest_modulus(n_members, dim, seed):
    rng = np.random.default_rng(seed)
    family = rng.standard_normal((n_members, dim)) + 1j * rng.standard_normal((n_members, dim))
    top = float(np.max(np.abs(family)))
    est = empirical_rbound(list(family), p=2.0, trials=100, seed=seed % 1000)
    assert est.uniform_bound == top
    assert est.value >= top
    assert est.value == pytest.approx(top, rel=1e-12)


# ---------------------------------------------------------------------------
# no dense materialization for the unitary kinds
# ---------------------------------------------------------------------------


def _dense_path_taken(*args, **kwargs):
    raise AssertionError("dense path taken")


@pytest.mark.parametrize(
    "op",
    [PeriodicSturmLiouvilleOperator(b=0.8, n=24), DirichletLaplacian2D(5, 4, c=0.3)],
    ids=lambda op: op.kind,
)
def test_unitary_kinds_never_build_a_dense_matrix(op, monkeypatch):
    prob = _problem(op)
    sector = Sector(np.pi / 3)
    samples = sector_samples(sector, n_moduli=6)
    xi, lams = [0.5, 4.0], [1.0, 20.0 + 5.0j]
    fam = MultiplierFamily(SYMBOLS, "sigma", lams[1], operator=op)

    monkeypatch.setattr(OperatorRealization, "as_dense", _dense_path_taken)
    monkeypatch.setattr(np.linalg, "svd", _dense_path_taken)
    monkeypatch.setattr(np.linalg, "inv", _dense_path_taken)
    scan = positivity_scan(op, sector, samples)
    est, uniform = scaled_resolvent_rbound(prob, xi, lams, trials=100)
    matrix = fam.matrix(xi[1])
    monkeypatch.undo()

    dense = DenseMatrixOperator(op.as_dense())
    assert scan.m_bound == pytest.approx(positivity_scan(dense, sector, samples).m_bound, rel=1e-10)
    ref_est, ref_uniform = scaled_resolvent_rbound(_problem(dense), xi, lams, trials=100)
    assert uniform == pytest.approx(ref_uniform, rel=1e-10)
    assert est.value == pytest.approx(ref_est.value, rel=1e-10)
    assert np.allclose(matrix, MultiplierFamily(SYMBOLS, "sigma", lams[1], dense).matrix(xi[1]),
                       rtol=0.0, atol=1e-12 * np.linalg.norm(matrix))
