"""Monte-Carlo and exhaustive Rademacher-average estimators.

The L_p norm over the sign space is evaluated exactly by enumerating all
2^m sign patterns while 2^m <= 4096, and by at least 4096 uniform draws
beyond that.

At p = 2 the R-bound of a family in C^d with the Euclidean norm is known in
closed form: Rademacher sums are orthogonal, E||sum_j r_j T_j x_j||^2 =
sum_j ||T_j x_j||^2, so the R_2-bound is max_j ||T_j|| (in a Hilbert space
R-boundedness is boundedness; Arendt & Bu, Math. Z. 240, 2002), and
``empirical_rbound`` returns that norm without trials.  For p != 2 it
estimates the R-bound from below by maximizing the ratio of output to input
Rademacher averages over sampled operator tuples; the maximum starts at the
largest single-operator norm (a singleton tuple's R-bound is its norm), so
the estimate never falls under it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

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
        """(n_patterns, m) matrix of +-1 signs (read-only when exhaustive)."""
        if self.mode == "exhaustive":
            return _all_signs(self.m)
        rng = np.random.default_rng(self.seed)
        return 1.0 - 2.0 * rng.integers(0, 2, size=(self.n_draws, self.m)).astype(float)


@lru_cache(maxsize=None)
def _all_signs(m: int) -> np.ndarray:
    """Every +-1 pattern of length m, built once per m."""
    bits = (np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1
    signs = 1.0 - 2.0 * bits
    signs.flags.writeable = False
    return signs


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
    mags = np.linalg.norm(sample.signs().astype(complex) @ v, axis=1)
    return float(np.mean(mags**p) ** (1.0 / p))


@dataclass(frozen=True)
class RBoundEstimate:
    """R-bound of a family with its provenance, and the uniform bound
    max ||T|| over the family.

    ``mode`` is "closed-form" at p = 2, where ``value`` is the uniform bound
    itself and ``tuples_tested`` the member count; otherwise ``value`` is a
    lower estimate and ``mode`` says whether the largest tuple's sign space
    was enumerated ("exhaustive") or sampled ("random").  ``argmax`` is the
    index of the first member attaining the uniform bound, and
    ``attained_at`` names it where the family's parametrization is known.
    """

    value: float
    tuples_tested: int
    mode: str
    seed: int
    uniform_bound: float
    argmax: int = 0
    attained_at: Optional[dict] = None

    def to_dict(self):
        return {
            "value": self.value,
            "tuples_tested": self.tuples_tested,
            "mode": self.mode,
            "seed": self.seed,
            "uniform_bound": self.uniform_bound,
            "attained_at": self.attained_at,
        }


def _member_norm(member):
    """||T||_2: max |d| for a diagonal d, the top singular value of a matrix."""
    if member.ndim == 1:
        return float(np.max(np.abs(member)))
    # the full SVD: compute_uv=False rounds s[0] differently in over half of
    # random small complex matrices, which would move dense rbound.json bits
    return float(np.linalg.svd(member)[1][0])


def _tuple_ratio(members, xs, p, sample):
    """Output over input Rademacher L_p average of the tuple T_j x_j, or None
    when the input average vanishes; ``members`` is (m, d) diagonals or
    (m, d, d) matrices."""
    den = rademacher_lp_norm(xs, p, sample)
    if den < 1e-300:
        return None
    if members.ndim == 2:
        ys = members * xs
    else:
        ys = np.stack([t @ x for t, x in zip(members, xs)])
    return rademacher_lp_norm(ys, p, sample) / den


def empirical_rbound(
    operators, p: float = 2.0, trials: int = 200, seed: int = 0, m_max: int = 8
) -> RBoundEstimate:
    """The R_p-bound of a finite family of matrices: exact at p = 2, from
    below otherwise.

    At p = 2 the value is the largest member norm and no trial runs.  For
    p != 2 each of ``trials`` trials draws a tuple of at most ``m_max``
    family members (with repetition) and complex Gaussian inputs, and
    evaluates the ratio of the output to input Rademacher L_p averages; the
    maximum starts at the uniform bound, the singleton tuples' value, so
    ``value >= uniform_bound``.  ``trials`` is range-checked at every p.

    Members are all matrices or all 1-D vectors d, each standing for diag(d).
    A family diagonal in one unitary basis passes its eigenvalues, and the
    inputs are then drawn in that basis: the complex Gaussian law and the
    Euclidean norm are unitarily invariant, so the estimate is the same.
    """
    ops = [np.asarray(t, dtype=complex) for t in operators]
    if not ops:
        raise InvalidArgumentError("empty operator family")
    shape = ops[0].shape
    if len(shape) not in (1, 2) or any(t.shape != shape for t in ops):
        raise InvalidArgumentError("family members must share shape")
    if trials < 100:
        raise InvalidArgumentError("need at least 100 trials")

    norms = [_member_norm(t) for t in ops]
    argmax = int(np.argmax(norms))
    uniform = norms[argmax]
    if p == 2:
        return RBoundEstimate(
            value=uniform, tuples_tested=len(ops), mode="closed-form", seed=seed,
            uniform_bound=uniform, argmax=argmax,
        )

    d_in = shape[-1]
    rng = np.random.default_rng(seed)
    best = uniform
    tested = len(ops)
    mode = "exhaustive"
    family = np.stack(ops)
    for _ in range(trials):
        m = int(rng.integers(1, m_max + 1))
        idx = rng.integers(0, len(ops), size=m)
        xs = (
            rng.standard_normal((m, d_in)) + 1j * rng.standard_normal((m, d_in))
        ) / np.sqrt(2.0)
        sample = RademacherSample.plan(m, seed=int(rng.integers(0, 2**31)))
        if sample.mode == "random":
            mode = "random"
        ratio = _tuple_ratio(family[idx], xs, p, sample)
        if ratio is not None:
            best = max(best, ratio)
            tested += 1

    return RBoundEstimate(
        value=best, tuples_tested=tested, mode=mode, seed=seed, uniform_bound=uniform,
        argmax=argmax,
    )


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
    """R-bound of the scaled resolvent family of a problem.

    Builds sigma(xi, lambda) = (1 + lambda) (mu_hat + nu)^{-1}
    (A + eta(xi) + lambda)^{-1} (``MultiplierFamily`` index ``"sigma"``) over
    the sample product, xi-major, and returns its R_p-bound estimate (exact at
    p = 2) with the uniform norm bound; ``attained_at`` is the (xi, lambda)
    of the first member attaining that bound.  For a ``unitary`` operator
    kind the members are their eigenvalue vectors
    (``MultiplierFamily.diagonal``), otherwise dense matrices.
    """
    xi_samples = np.atleast_1d(np.asarray(xi_samples, dtype=float))
    lambda_samples = np.atleast_1d(np.asarray(lambda_samples, dtype=complex))
    if xi_samples.size == 0 or lambda_samples.size == 0:
        raise InvalidArgumentError("need nonempty xi and lambda samples")
    for lam in lambda_samples:
        if not problem.lambda_sector.contains(lam):
            raise InvalidArgumentError(f"lambda {lam} outside the sector")
    member = MultiplierFamily.diagonal if problem.operator.unitary else MultiplierFamily.matrix
    fams = [MultiplierFamily(problem.symbols, "sigma", lam, problem.operator)
            for lam in lambda_samples]
    family = [member(fam, sample) for xi in xi_samples
              for sample in [problem.symbols.sample(xi)] for fam in fams]
    estimate = empirical_rbound(family, p=p, trials=trials, seed=seed)
    xi, lam = divmod(estimate.argmax, lambda_samples.size)
    estimate = replace(estimate, attained_at={
        "xi": float(xi_samples[xi]),
        "lambda": [float(lambda_samples[lam].real), float(lambda_samples[lam].imag)],
    })
    return estimate, estimate.uniform_bound
