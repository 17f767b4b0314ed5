"""Operator realizations: application, resolvents, diagonalization, sector
positivity scans, and the CSV loader."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, given, settings, strategies as st

from coesolve import Sector, operators
from coesolve.errors import InvalidArgumentError, SingularResolventError
from coesolve.operators import (
    DenseMatrixOperator,
    DirichletLaplacian2D,
    PeriodicSturmLiouvilleOperator,
    make_operator,
    positivity_scan,
    sector_samples,
)


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def test_dense_apply_diagonal():
    op = DenseMatrixOperator(np.diag([1.0, 2.0]))
    out = op.apply_many(np.array([[1.0, 1.0]], dtype=complex))[0]
    assert np.allclose(out, [1.0, 2.0])


def test_sturm_liouville_annihilates_constants_when_b_zero():
    op = PeriodicSturmLiouvilleOperator(b=0.0, n=4)
    out = op.apply_many(np.ones((1, 4), dtype=complex))[0]
    assert np.allclose(out, 0.0, atol=1e-12)


def test_sturm_liouville_eigenvalues_match_stencil():
    n = 8
    op = PeriodicSturmLiouvilleOperator(b=1.0, n=n)
    eigs = np.sort_complex(op.eigenvalues())
    expected = np.sort(1.0 + 4.0 * n**2 * np.sin(np.pi * np.arange(n) / n) ** 2)
    assert np.allclose(eigs, expected, atol=1e-9)


def test_sturm_liouville_conjugate_pairs_tie_exactly():
    for n in (3, 8, 127, 128):
        eigs = PeriodicSturmLiouvilleOperator(b=0.7, n=n).eigenvalues()
        assert np.array_equal(eigs[1:], eigs[1:][::-1])
    # ties keep the eigenbasis position: each mode j, then its twin n - j
    eigs = PeriodicSturmLiouvilleOperator(b=1.0, n=128).eigenvalues()
    order = np.argsort(eigs.real, kind="stable")
    assert order[:7].tolist() == [0, 1, 127, 2, 126, 3, 125]
    assert order[-3:].tolist() == [63, 65, 64]


def test_dirichlet_laplacian_eigenvector():
    # v_{jk} = sin(pi j h) sin(pi k h) on a 3x3 interior grid, h = 1/4
    n = 3
    h = 1.0 / (n + 1)
    j = np.arange(1, n + 1)
    v = np.outer(np.sin(np.pi * j * h), np.sin(np.pi * j * h)).ravel()
    op = DirichletLaplacian2D(n, n, c=0.0)
    out = op.apply_many(v.astype(complex)[None, :])[0]
    lam = 2.0 * (2.0 - 2.0 * np.cos(np.pi * h)) / h**2
    assert lam == pytest.approx(32.0 * (2.0 - np.sqrt(2.0)))
    assert np.allclose(out, lam * v, atol=1e-10)


# ---------------------------------------------------------------------------
# resolvents
# ---------------------------------------------------------------------------


def test_dense_resolvent_scaled_identity():
    op = DenseMatrixOperator(2.0 * np.eye(2))
    out = op.resolvent_solve_many([3.0], np.array([[5.0, 10.0]], dtype=complex))[0]
    assert np.allclose(out, [1.0, 2.0])


def test_dense_resolvent_diagonal():
    op = DenseMatrixOperator(np.diag([1.0, 2.0]))
    out = op.resolvent_solve_many([1.0], np.array([[1.0, 1.0]], dtype=complex))[0]
    assert np.allclose(out, [0.5, 1.0 / 3.0])


def test_diagonalized_resolvent_matches_dense_lu():
    n = 64
    op = PeriodicSturmLiouvilleOperator(b=1.0, n=n)
    dense = op.as_dense()
    rng = np.random.default_rng(3)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z = 2.0 + 0.5j
    via_fft = op.resolvent_solve_many([z], f[None, :])[0]
    via_lu = np.linalg.solve(dense + z * np.eye(n), f)
    assert np.allclose(via_fft, via_lu, atol=1e-10)


def test_resolvent_identity():
    """(A+z)^{-1} - (A+w)^{-1} = (w - z) (A+z)^{-1} (A+w)^{-1}."""
    op = DenseMatrixOperator(np.array([[2.0, 1.0], [0.0, 3.0]]))
    f = np.array([1.0, -1.0], dtype=complex)
    z, w = 1.0, 4.0 + 1.0j
    solve = lambda shift, b: op.resolvent_solve_many([shift], b[None, :])[0]
    lhs = solve(z, f) - solve(w, f)
    rhs = (w - z) * solve(z, solve(w, f))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_resolvent_batch_matches_loop():
    op = DirichletLaplacian2D(4, 4, c=1.0)
    rng = np.random.default_rng(11)
    fs = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    zs = np.array([1.0, 2.0 + 1.0j, 10.0])
    batched = op.resolvent_solve_many(zs, fs)
    for i in range(3):
        single = op.resolvent_solve_many(zs[i : i + 1], fs[i : i + 1])[0]
        assert np.allclose(batched[i], single, atol=1e-12)


@pytest.mark.parametrize(
    "op",
    [
        DenseMatrixOperator(np.diag(np.arange(1.0, 9.0))),
        PeriodicSturmLiouvilleOperator(1.0, 8),
        DirichletLaplacian2D(2, 4, c=1.0),
    ],
    ids=lambda op: op.kind,
)
def test_resolvent_needs_one_shift_per_row(op):
    w = np.ones((3, op.dim))
    for shifts in ([1.0], [1.0, 2.0], np.ones((3, 1)), 1.0):
        with pytest.raises(InvalidArgumentError, match="one shift per right-hand-side row"):
            op.resolvent_solve_many(shifts, w)


@pytest.mark.parametrize(
    "op", [PeriodicSturmLiouvilleOperator(1.0, 8), DirichletLaplacian2D(3, 5, c=0.5)],
    ids=lambda op: op.kind,
)
def test_shift_within_rounding_of_an_eigenvalue_is_singular(op):
    lam = np.min(op.eigenvalues().real)
    w = np.ones((1, op.dim))
    for z in (-lam, -np.nextafter(lam, np.inf), -np.nextafter(lam, 0.0)):
        with pytest.raises(SingularResolventError):
            op.resolvent_solve_many([z], w)
    # a shift a million ulps away is an ordinary, if ill-conditioned, solve
    far = -lam * (1.0 + 1e6 * np.finfo(float).eps)
    assert np.all(np.isfinite(op.resolvent_solve_many([far], w)))


def _eye(n):
    return np.eye(n, dtype=complex)


def _second_difference(n, h2):
    return h2 * (2.0 * _eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))


@st.composite
def structured_operators(draw):
    """A small structured operator and its matrix, written out entry by entry."""
    if draw(st.booleans()):
        b, n = draw(st.floats(0.5, 5.0)), draw(st.integers(3, 40))
        ring = np.roll(_eye(n), 1, axis=1) + np.roll(_eye(n), -1, axis=1)
        return PeriodicSturmLiouvilleOperator(b, n), (2.0 * n * n + b) * _eye(n) - n * n * ring
    ny, nz, c = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.floats(0.0, 5.0))
    matrix = (
        np.kron(_second_difference(ny, (ny + 1) ** 2), _eye(nz))
        + np.kron(_eye(ny), _second_difference(nz, (nz + 1) ** 2))
        + c * _eye(ny * nz)
    )
    return DirichletLaplacian2D(ny, nz, c), matrix


@settings(max_examples=60)
@given(
    case=structured_operators(),
    moduli=st.lists(st.floats(1e-1, 1e3), min_size=1, max_size=4),
    args=st.lists(st.floats(-0.75 * np.pi, 0.75 * np.pi), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_derived_methods_match_the_dense_oracle(case, moduli, args, seed):
    """as_dense, the eigenbasis resolvent and the spectrum of the structured
    kinds against the explicit matrix, LU solves and LAPACK eigenvalues."""
    op, matrix = case
    dense = op.as_dense()
    assert np.allclose(dense, matrix, rtol=1e-14, atol=0.0)

    zs = np.array([r * np.exp(1j * a) for r, a in zip(moduli, args)])
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((zs.size, op.dim)) + 1j * rng.standard_normal((zs.size, op.dim))
    got = op.resolvent_solve_many(zs, w)
    for z, wi, gi in zip(zs, w, got):
        ref = np.linalg.solve(dense + z * np.eye(op.dim), wi)
        assert np.linalg.norm(gi - ref) <= 1e-10 * np.linalg.norm(ref)

    ref = np.linalg.eigvals(dense)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(ref.imag)) <= 1e-12 * scale
    assert np.allclose(np.sort(op.eigenvalues().real), np.sort(ref.real), rtol=0.0, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# diagonalization helpers
# ---------------------------------------------------------------------------


def test_diagonalization_round_trip():
    for op in (
        PeriodicSturmLiouvilleOperator(b=0.5, n=16),
        DirichletLaplacian2D(4, 5, c=2.0),
    ):
        diag = op.diagonalization()
        assert diag is not None
        fwd, inv, eigs = diag
        rng = np.random.default_rng(5)
        v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        assert np.allclose(inv(fwd(v)), v, atol=1e-10)
        # A v computed through the eigenbasis matches the stencil
        assert np.allclose(inv(eigs * fwd(v)), op.apply_many(v[None, :])[0], atol=1e-9)


@st.composite
def laplacian_rows(draw):
    """A Laplacian of n_y, n_z in 1..33 and complex rows with 0-2 leading axes."""
    ny, nz = draw(st.integers(1, 33)), draw(st.integers(1, 33))
    shape = tuple(draw(st.lists(st.integers(1, 4), max_size=2))) + (ny * nz,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    return DirichletLaplacian2D(ny, nz, c=1.0), scale * (
        rng.normal(size=shape) + 1j * rng.normal(size=shape))


@settings(max_examples=150)
@given(laplacian_rows())
def test_laplacian_sine_matrices_match_the_dst_oracle(case):
    """The two sine-matrix products are the orthonormal 2-D DST-I, and their
    own inverse, to (n_y + n_z) eps relative to the largest input; over 3000
    random shapes the worst ratios seen were 0.43 and 0.57."""
    op, v = case
    ny, nz = op._ny, op._nz
    fwd, inv, _ = op.diagonalization()
    assert fwd is inv
    got = fwd(v)
    grids = v.reshape(v.shape[:-1] + (ny, nz))
    oracle = scipy.fft.dstn(grids, type=1, axes=(-2, -1), norm="ortho").reshape(v.shape)
    eps, largest = np.finfo(float).eps, np.max(np.abs(v))
    assert got.shape == v.shape and got.dtype == complex
    assert np.max(np.abs(got - oracle)) <= (ny + nz) * eps * largest
    assert np.max(np.abs(fwd(got) - v)) <= (ny + nz) * eps * largest
    for n in (ny, nz):
        mat = operators._sine_matrix(n)
        assert mat is operators._sine_matrix(n) and not mat.flags.writeable


def test_dense_diagonalization_of_non_normal_matrix():
    rng = np.random.default_rng(11)
    t = np.triu(rng.standard_normal((5, 5)), 1) + np.diag(
        [1.0, 1.5 + 0.5j, 2.0 - 0.5j, 2.5, 3.0 + 1.0j]
    )
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    op = DenseMatrixOperator(q @ t @ q.conj().T)
    diag = op.diagonalization()
    assert diag is not None
    fwd, inv, eigs = diag
    rows = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    assert np.allclose(inv(fwd(rows)), rows, rtol=0.0, atol=1e-12)
    # forward conjugates A to multiplication by its eigenvalues
    assert np.allclose(fwd(op.apply_many(rows)), eigs * fwd(rows), rtol=0.0, atol=1e-12)
    assert np.allclose(np.sort_complex(eigs), np.sort_complex(op.eigenvalues()))
    # the decomposition is computed once and shared by every caller
    assert op.diagonalization()[2] is eigs


def test_defective_dense_operator_has_no_diagonalization():
    # a Jordan block has cond(V) ~ 1e16: no eigenbasis, the callers fall back
    assert DenseMatrixOperator(np.array([[1.0, 1.0], [0.0, 1.0]])).diagonalization() is None
    # distinct eigenvalues give a well-conditioned basis, non-normal or not
    assert DenseMatrixOperator(np.array([[1.0, 1.0], [0.0, 2.0]])).diagonalization() is not None


# ---------------------------------------------------------------------------
# the dense kind through the shared resolvent
# ---------------------------------------------------------------------------


def _unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


@st.composite
def graded_non_normal_matrices(draw):
    """Q T Q^H, T upper triangular with distinct eigenvalues in the right
    half-plane and its strictly upper part scaled so that cond(V) lands near
    10^k, k uniform in [0, 5.9]: from normal to just inside the
    ``EIGENBASIS_COND_LIMIT`` guard."""
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    diag = np.diag(0.5 + np.cumsum(rng.uniform(0.1, 0.6, d)) + 1j * rng.uniform(-1.0, 1.0, d))
    upper = np.triu(rng.uniform(0.1, 1.0, (d, d)) * np.exp(2j * np.pi * rng.random((d, d))), 1)
    goal = 10.0 ** rng.uniform(0.0, 5.9)
    lo, hi = -3.0, 6.0  # bisect log10 of the scale of the upper part
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        cond = np.linalg.cond(np.linalg.eig(diag + 10.0**mid * upper)[1])
        lo, hi = (mid, hi) if cond < goal else (lo, mid)
    q = _unitary(rng, d)
    return q @ (diag + 10.0**lo * upper) @ q.conj().T


@st.composite
def jordan_blocks(draw):
    """lambda I + c N with N the nilpotent shift, optionally hidden by a unitary Q."""
    d = draw(st.integers(2, 6))
    lam = complex(draw(st.floats(0.5, 3.0)), draw(st.floats(-1.0, 1.0)))
    a = lam * np.eye(d) + draw(st.floats(0.5, 2.0)) * np.eye(d, k=1)
    if draw(st.booleans()):
        q = _unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d)
        a = q @ a @ q.conj().T
    return a


def _shifts_and_rows(draw, d):
    m = draw(st.integers(1, 6))
    moduli = draw(st.lists(st.floats(1e-3, 1e3), min_size=m, max_size=m))
    args = draw(st.lists(st.floats(-0.5 * np.pi, 0.5 * np.pi), min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zs = np.array([r * np.exp(1j * a) for r, a in zip(moduli, args)])
    return zs, rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))


@settings(max_examples=120)
@given(a=graded_non_normal_matrices(), data=st.data())
def test_dense_eigen_divide_has_a_small_backward_error(a, data):
    """Dividing in an eigenbasis with cond(V) <= 1e6 loses at most about
    cond(V) eps: the normwise backward error of every solve stays below
    1e-9.  (The residual over ||w|| alone also carries cond(A + z), which
    reaches 1e10 on these matrices, so no solver keeps that below 1e-9.)"""
    op = DenseMatrixOperator(a)
    assume(op.diagonalization() is not None)
    zs, w = _shifts_and_rows(data.draw, op.dim)
    x = op.resolvent_solve_many(zs, w)
    for z, wi, xi in zip(zs, w, x):
        shifted = a + z * np.eye(op.dim)
        residual = np.linalg.norm(shifted @ xi - wi)
        scale = np.linalg.norm(shifted, 2) * np.linalg.norm(xi) + np.linalg.norm(wi)
        assert residual <= 1e-9 * scale


@settings(max_examples=40)
@given(a=jordan_blocks(), data=st.data())
def test_defective_dense_resolvent_is_the_lu_solve(a, data):
    op = DenseMatrixOperator(a)
    assert op.diagonalization() is None
    zs, w = _shifts_and_rows(data.draw, op.dim)
    got = op.resolvent_solve_many(zs, w)
    for z, wi, gi in zip(zs, w, got):
        ref = np.linalg.solve(a + z * np.eye(op.dim), wi)
        assert np.linalg.norm(gi - ref) <= 1e-12 * np.linalg.norm(ref)


def test_defective_dense_resolvent_at_its_eigenvalue_is_singular():
    op = DenseMatrixOperator(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(SingularResolventError):
        op.resolvent_solve_many([2.0, -1.0], np.ones((2, 2)))


def _forbidden(*args, **kwargs):
    raise AssertionError("forbidden path taken")


def test_diagonalizable_dense_resolvent_takes_no_lu_solve(monkeypatch):
    rng = np.random.default_rng(4)
    t = np.diag([1.0, 1.5 + 0.5j, 2.0 - 0.5j, 3.0]) + np.triu(rng.standard_normal((4, 4)), 1)
    monkeypatch.setattr(np.linalg, "solve", _forbidden)
    op = DenseMatrixOperator(t)
    w = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    zs = np.array([0.1, 2.0 + 1.0j, 50.0])
    x = op.resolvent_solve_many(zs, w)
    assert np.allclose(op.apply_many(x) + zs[:, None] * x, w, rtol=0.0, atol=1e-12)


def test_dense_operator_takes_one_eig(monkeypatch):
    calls = []
    eig = np.linalg.eig

    def counted_eig(m):
        calls.append(m.shape)
        return eig(m)

    monkeypatch.setattr(np.linalg, "eig", counted_eig)
    monkeypatch.setattr(np.linalg, "eigvals", _forbidden)
    a = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [0.5, 0.0, 4.0]])
    op = DenseMatrixOperator(a)
    fwd, inv, eigs = op.diagonalization()
    assert np.array_equal(op.eigenvalues(), eigs)
    op.resolvent_solve_many([1.0, 2.0], np.ones((2, 3)))
    op.diagonalization()
    assert calls == [(3, 3)]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_positive_spectrum_required():
    with pytest.raises(InvalidArgumentError):
        DenseMatrixOperator(np.diag([1.0, -2.0]))


def test_size_gates():
    with pytest.raises(InvalidArgumentError):
        PeriodicSturmLiouvilleOperator(n=2)
    with pytest.raises(InvalidArgumentError):
        DirichletLaplacian2D(0, 3)
    with pytest.raises(InvalidArgumentError):
        DenseMatrixOperator(np.ones((2, 3)))


def test_make_operator_dispatch():
    op = make_operator("periodic-sturm-liouville", n=8, b=1.0)
    assert isinstance(op, PeriodicSturmLiouvilleOperator)
    assert op.dim == 8
    # omitted params take the constructor's defaults
    psl = make_operator("periodic-sturm-liouville")
    assert psl.eigenvalues().tobytes() == PeriodicSturmLiouvilleOperator().eigenvalues().tobytes()
    assert make_operator("dirichlet-laplacian-2d", n_z=4).dim == DirichletLaplacian2D(n_z=4).dim
    with pytest.raises(InvalidArgumentError):
        make_operator("unknown-thing")


def test_csv_loader_round_trip(tmp_path):
    mat = np.array([[1.0 + 2.0j, 0.5], [0.0, 3.0 - 1.0j]])
    path = tmp_path / "op.csv"
    rows = []
    for r in mat:
        cells = []
        for z in r:
            cells.extend([f"{z.real:.17g}", f"{z.imag:.17g}"])
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n")
    op = DenseMatrixOperator.from_csv(str(path))
    assert np.allclose(op.as_dense(), mat, atol=0.0)
    loaded = make_operator("dense-matrix", csv=str(path))
    assert loaded.as_dense().tobytes() == op.as_dense().tobytes()


def test_csv_loader_rejects_odd_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,0.0,2.0\n")
    with pytest.raises(InvalidArgumentError):
        DenseMatrixOperator.from_csv(str(path))


# ---------------------------------------------------------------------------
# positivity scan
# ---------------------------------------------------------------------------


def test_sector_samples_cover_rays():
    samples = sector_samples(Sector(np.pi / 4), n_moduli=5)
    args = np.angle(np.array(samples))
    assert np.any(np.isclose(args, 0.0))
    assert np.any(np.isclose(args, np.pi / 4))
    assert np.any(np.isclose(args, -np.pi / 4))


def test_positivity_scan_diagonal_on_the_real_ray():
    op = DenseMatrixOperator(np.diag([1.0, 2.0]))
    samples = list(np.geomspace(1e-2, 1e4, 30))
    report = positivity_scan(op, Sector(0.0), samples)
    # (1+|z|) / sigma_min(A + z) = (1+z)/(1+z) = 1 on the positive axis
    assert report.m_bound == pytest.approx(1.0, abs=1e-12)


def test_positivity_scan_scalar_on_tilted_ray():
    op = DenseMatrixOperator(np.array([[1.0]]))
    sec = Sector(np.pi / 4)
    samples = sector_samples(sec, n_moduli=40)
    report = positivity_scan(op, sec, samples)
    # worst case (1+r)/|1 + r e^{i pi/4}| stays below 2 / sqrt(2 + sqrt 2)
    assert report.m_bound <= 2.0 / np.sqrt(2.0 + np.sqrt(2.0)) + 1e-9
    assert report.m_bound >= 1.0


def test_positivity_scan_rejects_a_numerically_singular_shift():
    # A + z = diag(2e-17, 1): singular to working precision, though far above
    # any absolute floor
    op = DenseMatrixOperator(np.diag([1e-17, 1.0]))
    with pytest.raises(SingularResolventError, match="singular"):
        positivity_scan(op, Sector(np.pi / 4), [1e-17])
    assert positivity_scan(op, Sector(np.pi / 4), [1e-3]).m_bound == pytest.approx(1.001 / 1e-3)


def test_positivity_scan_rejects_a_numerically_singular_shift_on_the_eigenbasis():
    # the PSL twin of the dense case: the lowest eigenvalue b = 1e-17 plus the
    # shift is lost against dim eps times the top of the spectrum
    op = PeriodicSturmLiouvilleOperator(b=1e-17, n=8)
    with pytest.raises(SingularResolventError, match="singular"):
        positivity_scan(op, Sector(np.pi / 4), [1.0, 1e-17])
    assert positivity_scan(op, Sector(np.pi / 4), [1e-3]).m_bound == pytest.approx(1.001 / 1e-3)
    # a shift of the Laplacian onto its lowest eigenvalue, hit by z = 0
    lap = DirichletLaplacian2D(3, 4)
    lap = DirichletLaplacian2D(3, 4, c=-np.min(lap.eigenvalues().real))
    with pytest.raises(SingularResolventError, match="singular"):
        positivity_scan(lap, Sector(np.pi / 4), [0.0])


def test_positivity_scan_rejects_bad_input():
    op = DenseMatrixOperator(np.eye(2))
    with pytest.raises(InvalidArgumentError):
        positivity_scan(op, Sector(np.pi / 4), [])
    with pytest.raises(InvalidArgumentError):
        positivity_scan(op, Sector(np.pi / 4), [-1.0])
