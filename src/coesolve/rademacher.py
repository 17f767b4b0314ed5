"""Monte-Carlo and exhaustive Rademacher-average estimators.

The L_p norm over the sign space is evaluated exactly by enumerating all
2^m sign patterns while 2^m <= 4096, and by at least 4096 uniform draws
beyond that.  R-bounds are estimated from below by maximizing the ratio of
output to input Rademacher averages over sampled operator tuples; the
search always includes singleton tuples at top singular vectors, so the
estimate never falls under the largest single-operator norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, InvalidArgumentError
from .symbols import MultiplierFamily

EXHAUSTIVE_LIMIT = 4096


@dataclass(frozen=True)
class RademacherSample:
    """Sign-pattern sample plan for m terms.

    mode is "exhaustive" (all 2^m patterns) or "random" (>= 4096 draws).
    """

    m: int
    mode: str
    n_draws: int = EXHAUSTIVE_LIMIT
    seed: int = 0

    @classmethod
    def plan(cls, m: int, seed: int = 0, n_draws: int = EXHAUSTIVE_LIMIT):
        if m < 1:
            raise InvalidArgumentError("need at least one term")
        if 2**m <= EXHAUSTIVE_LIMIT:
            return cls(m=m, mode="exhaustive")
        return cls(m=m, mode="random", n_draws=max(n_draws, EXHAUSTIVE_LIMIT), seed=seed)

    def signs(self) -> np.ndarray:
        """(n_patterns, m) matrix of +-1 signs."""
        if self.mode == "exhaustive":
            count = 2**self.m
            bits = (np.arange(count)[:, None] >> np.arange(self.m)[None, :]) & 1
            return 1.0 - 2.0 * bits
        rng = np.random.default_rng(self.seed)
        return 1.0 - 2.0 * rng.integers(0, 2, size=(self.n_draws, self.m)).astype(float)


def rademacher_lp_norm(vectors, p: float, sample: RademacherSample = None) -> float:
    """(E ||sum_j r_j v_j||_2^p)^(1/p) over the sign space.

    ``vectors`` is an (m, d) array (scalars allowed as (m,)).
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2:
        raise InvalidArgumentError("vectors must have shape (m,) or (m, d)")
    if not p >= 1:
        raise InvalidArgumentError("p must be >= 1")
    m = v.shape[0]
    if sample is None:
        sample = RademacherSample.plan(m)
    if sample.m != m:
        raise InvalidArgumentError("sample plan sized for a different m")
    signs = sample.signs()
    sums = signs.astype(complex) @ v
    mags = np.linalg.norm(sums, axis=1)
    return float(np.mean(mags**p) ** (1.0 / p))


@dataclass(frozen=True)
class RBoundEstimate:
    """Lower estimate of an R-bound with its provenance."""

    value: float
    tuples_tested: int
    mode: str
    seed: int

    def to_dict(self):
        return {
            "value": self.value,
            "tuples_tested": self.tuples_tested,
            "mode": self.mode,
            "seed": self.seed,
        }


def _top_singular_vector(matrix):
    _, _, vh = np.linalg.svd(matrix)
    return vh[0].conj()


def empirical_rbound(
    operators, p: float = 2.0, trials: int = 200, seed: int = 0, m_max: int = 8
) -> RBoundEstimate:
    """Estimate the R_p-bound of a finite family of matrices from below.

    Each trial draws a tuple of at most ``m_max`` family members (with
    repetition) and complex Gaussian inputs, and evaluates the ratio of the
    output to input Rademacher L_p averages.  Singleton tuples at the top
    right singular vector of every member are always included.
    """
    ops = [np.asarray(t, dtype=complex) for t in operators]
    if not ops:
        raise InvalidArgumentError("empty operator family")
    d_out, d_in = ops[0].shape
    for t in ops:
        if t.shape != (d_out, d_in):
            raise InvalidArgumentError("family members must share shape")
    if trials < 100:
        raise InvalidArgumentError("need at least 100 trials")
    rng = np.random.default_rng(seed)

    best = 0.0
    tested = 0
    mode = "exhaustive"
    for t in ops:
        x = _top_singular_vector(t)
        num = float(np.linalg.norm(t @ x))
        den = float(np.linalg.norm(x))
        if den > 0:
            best = max(best, num / den)
            tested += 1

    for _ in range(trials):
        m = int(rng.integers(1, m_max + 1))
        idx = rng.integers(0, len(ops), size=m)
        xs = (
            rng.standard_normal((m, d_in)) + 1j * rng.standard_normal((m, d_in))
        ) / np.sqrt(2.0)
        sample = RademacherSample.plan(m, seed=int(rng.integers(0, 2**31)))
        if sample.mode == "random":
            mode = "random"
        den = rademacher_lp_norm(xs, p, sample)
        if den < 1e-300:
            continue
        ys = np.stack([ops[i] @ x for i, x in zip(idx, xs)])
        num = rademacher_lp_norm(ys, p, sample)
        best = max(best, num / den)
        tested += 1

    if tested == 0:
        raise DegenerateSampleError("every sampled tuple was degenerate")
    return RBoundEstimate(value=best, tuples_tested=tested, mode=mode, seed=seed)


def kahane_check(alpha, beta, vectors, p: float = 2.0) -> float:
    """Contraction ratio ||sum a_j r_j x_j|| / ||sum b_j r_j x_j|| in L_p.

    Requires |alpha_j| <= |beta_j| for all j and a nonzero denominator.
    The ratio is <= 2 always and <= 1 when every coefficient is real.
    """
    a = np.asarray(alpha, dtype=complex)
    b = np.asarray(beta, dtype=complex)
    v = np.asarray(vectors, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    if not (a.shape == b.shape == (v.shape[0],)):
        raise InvalidArgumentError("alpha, beta, vectors must agree in length")
    if np.any(np.abs(a) > np.abs(b) * (1 + 1e-12)):
        raise InvalidArgumentError("need |alpha_j| <= |beta_j| for every j")
    if np.all(b == 0):
        raise InvalidArgumentError("beta must have a nonzero entry")
    sample = RademacherSample.plan(v.shape[0])
    den = rademacher_lp_norm(b[:, None] * v, p, sample)
    if den == 0.0:
        raise DegenerateSampleError("denominator Rademacher average is zero")
    num = rademacher_lp_norm(a[:, None] * v, p, sample)
    return float(num / den)


def scaled_resolvent_rbound(
    problem,
    xi_samples,
    lambda_samples,
    p: float = 2.0,
    trials: int = 200,
    seed: int = 0,
):
    """R-bound estimate for the scaled resolvent family of a problem.

    Builds sigma(xi, lambda) = (1 + lambda) (mu_hat + nu)^{-1}
    (A + eta(xi) + lambda)^{-1} (``MultiplierFamily`` index ``"sigma"``) as
    dense matrices over the sample product and estimates the family R_p-bound;
    also reports the uniform norm bound.
    """
    xi_samples = np.atleast_1d(np.asarray(xi_samples, dtype=float))
    lambda_samples = np.atleast_1d(np.asarray(lambda_samples, dtype=complex))
    if xi_samples.size == 0 or lambda_samples.size == 0:
        raise InvalidArgumentError("need nonempty xi and lambda samples")
    for lam in lambda_samples:
        if not problem.lambda_sector.contains(lam):
            raise InvalidArgumentError(f"lambda {lam} outside the sector")
    mats = [
        MultiplierFamily(problem.symbols, "sigma", lam, problem.operator).matrix(xi)
        for xi in xi_samples
        for lam in lambda_samples
    ]
    estimate = empirical_rbound(mats, p=p, trials=trials, seed=seed)
    uniform = max(float(np.linalg.norm(m, 2)) for m in mats)
    return estimate, uniform
