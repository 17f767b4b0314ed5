"""Concrete realizations of the positive operator A on finite-dimensional stand-ins.

Three kinds: an arbitrary dense matrix (eigenvalues must have positive real
part), a periodic Sturm-Liouville operator -d^2/dy^2 + b on [0, 1] (circulant,
diagonalized by the FFT), and a 5-point Dirichlet Laplacian on the unit square
plus a constant shift (diagonalized by the DST-I, applied as two products with
cached sine matrices).

The spectral contract: a kind defines how A acts (``apply_many``) and its
eigenbasis (``diagonalization``).  ``OperatorRealization`` derives the rest
from those two: batched resolvent solves (A + z)^{-1} w with one shift per
row, which is what the per-frequency solvers consume, the dense matrix and
the spectrum.  The resolvent divides in the eigenbasis; only a dense A
without an accepted eigenbasis (a defective or nearly defective one) falls
back to a batched LU solve of the shifted dense matrix.

A kind whose eigenbasis transforms are unitary sets ``unitary``: the
structured kinds, whose ``norm="ortho"`` FFT and DST are.  Such an A is
normal, so the 2-norm of any function of it, the resolvent included, is the
largest modulus of that function over the spectrum, and the estimators read
it off the eigenvalues without a dense matrix.  A dense A is not unitarily
diagonalizable in general, and for a non-normal A the eigenvalues do not
give the resolvent norm (Trefethen & Embree, "Spectra and Pseudospectra",
2005), so it keeps ``unitary`` False and the SVD.

A kind whose matrix is real sets ``real`` (the structured kinds; a dense A
with zero imaginary part): the time stepper then keeps real data real.
"""

from __future__ import annotations

import csv
import functools

import numpy as np

from .errors import InvalidArgumentError, SingularResolventError
from .symbols import Sector

# Largest cond(V) of a dense A's eigenvectors that diagonalization() accepts:
# transforms through V lose about cond(V) * eps (Moler & Van Loan, "Nineteen
# dubious ways to compute the exponential of a matrix", SIAM Rev. 2003).
EIGENBASIS_COND_LIMIT = 1e6


class OperatorRealization:
    """A kind defines ``dim``, ``apply_many`` and ``diagonalization``; the
    resolvent, ``as_dense`` and ``eigenvalues`` are derived from them."""

    kind = "abstract"
    # True when ``diagonalization`` transforms are unitary (see the module docstring).
    unitary = False
    real = False  # see the module docstring

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def apply_many(self, rows):
        """A applied to every row of ``rows`` (shape (m, dim))."""
        raise NotImplementedError

    def resolvent_solve_many(self, z_rows, w_rows):
        """(A + z_i)^{-1} w_i per row; ``z_rows`` has one shift per row of ``w_rows``.

        Divides by lambda_j + z_i in the eigenbasis.  A quotient whose
        denominator is lost to rounding, |lambda_j + z_i| <= 4 eps
        (|lambda_j| + |z_i|), raises ``SingularResolventError``.  Without an
        eigenbasis, each row is an LU solve of the shifted ``as_dense()``,
        and a singular one raises the same error.
        """
        z_rows = np.asarray(z_rows, dtype=complex)
        w_rows = np.asarray(w_rows, dtype=complex)
        if w_rows.ndim != 2 or z_rows.shape != w_rows.shape[:1]:
            raise InvalidArgumentError("one shift per right-hand-side row required")
        diag = self.diagonalization()
        if diag is None:
            shifted = self.as_dense()[None] + z_rows[:, None, None] * np.eye(self.dim)[None]
            try:
                return np.linalg.solve(shifted, w_rows[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError as exc:
                raise SingularResolventError(str(exc)) from exc
        fwd, inv, eigs = diag
        return inv(fwd(w_rows) / _shifted_spectrum(eigs, z_rows))

    def resolvent_eigenvalues(self, z):
        """1 / (lambda_j + z) in the order of ``eigenvalues()``, guarded as above."""
        return 1.0 / _shifted_spectrum(self.eigenvalues(), np.asarray([z], dtype=complex))[0]

    def as_dense(self):
        """The dim x dim matrix of A, column j being A e_j."""
        return self.apply_many(np.eye(self.dim)).T

    def eigenvalues(self):
        """Spectrum of the stand-in, in the order of the eigenbasis."""
        return self.diagonalization()[2]

    def diagonalization(self):
        """(forward, inverse, eigs) transforms to the eigenbasis, or None.

        ``forward``/``inverse`` act along the last axis and conjugate the
        operator to multiplication by ``eigs``.  None only for a dense A whose
        eigenvectors fail the ``EIGENBASIS_COND_LIMIT`` guard.
        """
        raise NotImplementedError


def _shifted_spectrum(eigs, z_rows):
    """(m, dim) denominators lambda_j + z_i; raises ``SingularResolventError``
    where |lambda_j + z_i| <= 4 eps (|lambda_j| + |z_i|)."""
    den = eigs[None, :] + z_rows[:, None]
    scale = np.abs(eigs)[None, :] + np.abs(z_rows)[:, None]
    if np.any(np.abs(den) <= 4.0 * np.finfo(float).eps * scale):
        raise SingularResolventError("shift hits the operator spectrum")
    return den


class DenseMatrixOperator(OperatorRealization):
    """A given by an explicit complex matrix with spectrum in the open right half-plane."""

    kind = "dense-matrix"

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError("dense operator needs a square matrix")
        eigs, vecs = np.linalg.eig(m)
        if np.any(eigs.real <= 0):
            raise InvalidArgumentError(
                "dense operator must have eigenvalues with positive real part"
            )
        self._m = m
        self._eigs, self._vecs = eigs, vecs
        self.real = not np.any(m.imag)

    @classmethod
    def from_csv(cls, path):
        """Load a complex matrix stored as alternating re, im columns."""
        rows = []
        with open(path, newline="") as fh:
            for rec in csv.reader(fh):
                nums = [float(v) for v in rec if v.strip() != ""]
                if len(nums) % 2 != 0:
                    raise InvalidArgumentError(
                        "matrix CSV rows need an even count of re, im columns"
                    )
                rows.append([complex(a, b) for a, b in zip(nums[::2], nums[1::2])])
        return cls(rows)

    @property
    def dim(self):
        return self._m.shape[0]

    def apply_many(self, rows):
        return np.asarray(rows, dtype=complex) @ self._m.T

    def eigenvalues(self):
        # kept for a defective A, which has no diagonalization to derive them from
        return self._eigs.copy()

    @functools.cached_property
    def _eigenbasis(self):
        """(eigs, V^T, V^{-T}) from the ``eig`` of A taken at construction;
        None if cond(V) fails the guard."""
        vecs = self._vecs
        if not np.linalg.cond(vecs) <= EIGENBASIS_COND_LIMIT:
            return None
        return self._eigs, vecs.T, np.linalg.inv(vecs).T

    def diagonalization(self):
        if self._eigenbasis is None:
            return None
        eigs, vecs_t, inv_t = self._eigenbasis
        return (lambda rows: rows @ inv_t), (lambda rows: rows @ vecs_t), eigs


class PeriodicSturmLiouvilleOperator(OperatorRealization):
    """-d^2/dy^2 + b on [0, 1] with periodic boundary, n-point second differences.

    Circulant, so eigenvalues are b + 4 n^2 sin^2(pi j / n) and every solve
    is an FFT diagonalization.  Modes j and n - j share an eigenvalue, so it
    is computed from min(j, n - j) and the pair ties exactly.
    """

    kind = "periodic-sturm-liouville"
    unitary = True
    real = True

    def __init__(self, b: float = 1.0, n: int = 128):
        if n < 3:
            raise InvalidArgumentError("need at least 3 grid points")
        self._b = float(b)
        self._n = int(n)
        j = np.arange(self._n)
        j = np.minimum(j, self._n - j)
        self._eigs = self._b + 4.0 * self._n**2 * np.sin(np.pi * j / self._n) ** 2

    @property
    def dim(self):
        return self._n

    def apply_many(self, rows):
        rows = np.asarray(rows, dtype=complex)
        n2 = float(self._n) ** 2
        return (
            n2 * (2.0 * rows - np.roll(rows, 1, axis=1) - np.roll(rows, -1, axis=1))
            + self._b * rows
        )

    def diagonalization(self):
        # The y-axis eigenbasis: the one FFT outside grids.x_fft/x_ifft, whose
        # size rule is for the x axis (tests/test_import_hygiene.py).
        fwd = lambda rows: np.fft.fft(rows, axis=-1, norm="ortho")
        inv = lambda rows: np.fft.ifft(rows, axis=-1, norm="ortho")
        return fwd, inv, self._eigs.astype(complex)


class DirichletLaplacian2D(OperatorRealization):
    """5-point -Laplace + c on the unit square with zero boundary values.

    Interior grid (n_y, n_z); vectors are row-major flattenings.  DST-I
    diagonalizes both directions, so solves are fast transforms.
    """

    kind = "dirichlet-laplacian-2d"
    unitary = True
    real = True

    def __init__(self, n_y: int = 32, n_z: int = 32, c: float = 0.0):
        if n_y < 1 or n_z < 1:
            raise InvalidArgumentError("need at least one interior point per direction")
        self._ny, self._nz, self._c = int(n_y), int(n_z), float(c)
        hy = 1.0 / (self._ny + 1)
        hz = 1.0 / (self._nz + 1)
        jy = np.arange(1, self._ny + 1)
        jz = np.arange(1, self._nz + 1)
        ey = (2.0 - 2.0 * np.cos(np.pi * jy * hy)) / hy**2
        ez = (2.0 - 2.0 * np.cos(np.pi * jz * hz)) / hz**2
        self._eigs2d = ey[:, None] + ez[None, :] + self._c

    @property
    def dim(self):
        return self._ny * self._nz

    def apply_many(self, rows):
        rows = np.asarray(rows, dtype=complex)
        m, hy2, hz2 = rows.shape[0], (self._ny + 1) ** 2, (self._nz + 1) ** 2
        padded = np.zeros((m, self._ny + 2, self._nz + 2), dtype=complex)
        padded[:, 1:-1, 1:-1] = rows.reshape(m, self._ny, self._nz)
        inner = padded[:, 1:-1, 1:-1]
        lap = hy2 * (2.0 * inner - padded[:, :-2, 1:-1] - padded[:, 2:, 1:-1]) + hz2 * (
            2.0 * inner - padded[:, 1:-1, :-2] - padded[:, 1:-1, 2:]
        )
        return (lap + self._c * inner).reshape(m, self.dim)

    def diagonalization(self):
        s_y, s_z = _sine_matrix(self._ny), _sine_matrix(self._nz)

        def fwd(rows):
            # y: one real batched matmul on the float view; z: one gemm
            grids = np.ascontiguousarray(rows, dtype=complex).reshape(
                rows.shape[:-1] + (self._ny, self._nz))
            along_y = (s_y @ grids.view(float)).view(complex)
            return (along_y.reshape(-1, self._nz) @ s_z).reshape(rows.shape)

        return fwd, fwd, self._eigs2d.reshape(-1).astype(complex)


@functools.cache
def _sine_matrix(n: int) -> np.ndarray:
    """The orthonormal DST-I matrix sqrt(2/(n+1)) sin(pi jk/(n+1)), j, k = 1..n,
    with jk reduced mod 2(n+1): symmetric, its own inverse, and read-only,
    since every Laplacian of that size shares it."""
    jk = np.outer(np.arange(1, n + 1), np.arange(1, n + 1)) % (2 * (n + 1))
    mat = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * jk / (n + 1))
    mat.flags.writeable = False
    return mat


_KINDS = {cls.kind: cls for cls in (
    DenseMatrixOperator, PeriodicSturmLiouvilleOperator, DirichletLaplacian2D)}


def make_operator(kind: str, **params) -> OperatorRealization:
    """Construct a realization by kind name; the constructor's own defaults
    fill in omitted params, and a ``csv`` param loads the matrix from a file."""
    if kind not in _KINDS:
        raise InvalidArgumentError(f"unknown operator kind {kind!r}")
    if "csv" in params:
        return _KINDS[kind].from_csv(params["csv"])
    return _KINDS[kind](**params)


def sector_samples(sector: Sector, n_moduli: int = 24, lo: float = 1e-2, hi: float = 1e6):
    """Log-spaced moduli on the positive real axis and both boundary rays."""
    if n_moduli < 1:
        raise InvalidArgumentError("need at least one modulus")
    moduli = np.geomspace(lo, hi, n_moduli)
    args = {0.0, sector.angle, -sector.angle}
    out = [r * np.exp(1j * a) for a in sorted(args) for r in moduli]
    return np.array(out, dtype=complex)


class PositivityReport:
    """Result of a sector positivity scan: sup of (1 + |z|) ||(A + z)^{-1}||_2."""

    def __init__(self, sector: Sector, samples, values):
        self.sector = sector
        self.samples = np.asarray(samples, dtype=complex)
        self.values = np.asarray(values, dtype=float)
        self.m_bound = float(np.max(self.values))

    def to_dict(self):
        return {
            "angle": self.sector.angle,
            "m_bound": self.m_bound,
            "n_samples": int(self.samples.size),
        }


def positivity_scan(
    operator: OperatorRealization, sector: Sector, lambda_samples
) -> PositivityReport:
    """Estimate the positivity constant of A on a sector from samples.

    ||(A + z)^{-1}||_2 is the reciprocal smallest singular value of A + z:
    for a ``unitary`` kind the smallest |lambda_j + z|, in one pass over
    samples x spectrum; otherwise from an SVD of the shifted dense
    materialization.  A + z counts as singular once that value is at most
    dim eps times the largest.  Samples outside the sector are rejected.
    """
    samples = np.atleast_1d(np.asarray(lambda_samples, dtype=complex))
    if samples.size == 0:
        raise InvalidArgumentError("positivity scan needs at least one sample")
    for z in samples:
        if not sector.contains(z):
            raise InvalidArgumentError(f"sample {z} lies outside the sector")
    if operator.unitary:
        dist = np.abs(operator.eigenvalues()[None, :] + samples[:, None])
        smin, smax = dist.min(axis=1), dist.max(axis=1)
    else:
        a, eye = operator.as_dense(), np.eye(operator.dim)
        sv = np.array([np.linalg.svd(a + z * eye, compute_uv=False) for z in samples])
        smin, smax = sv[:, -1], sv[:, 0]
    singular = smin <= operator.dim * np.finfo(float).eps * smax
    if np.any(singular):
        raise SingularResolventError(f"A + z singular at z = {samples[np.argmax(singular)]}")
    return PositivityReport(sector, samples, (1.0 + np.abs(samples)) / smin)
