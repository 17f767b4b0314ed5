"""Rademacher averages, empirical R-bound estimates, the contraction
inequality, and the scaled-resolvent family."""

import itertools

import numpy as np
import pytest

from coesolve import (
    DiscretizedProblem,
    Grid,
    RademacherSample,
    Sector,
    SymbolSet,
    empirical_rbound,
    kahane_check,
    rademacher_lp_norm,
    scaled_resolvent_rbound,
)
from coesolve.errors import InvalidArgumentError
from coesolve.operators import DenseMatrixOperator


# ---------------------------------------------------------------------------
# sample plans
# ---------------------------------------------------------------------------


def test_plan_is_exhaustive_for_small_m():
    sample = RademacherSample.plan(3)
    assert sample.mode == "exhaustive"
    signs = sample.signs()
    assert signs.shape == (8, 3)
    assert set(map(tuple, signs)) == set(itertools.product((-1.0, 1.0), repeat=3))


def test_plan_switches_to_random_for_large_m():
    sample = RademacherSample.plan(13, seed=5)
    assert sample.mode == "random"
    assert sample.n_draws >= 4096
    assert sample.signs().shape == (sample.n_draws, 13)


def test_plan_rejects_empty():
    with pytest.raises(InvalidArgumentError):
        RademacherSample.plan(0)


# ---------------------------------------------------------------------------
# Rademacher L_p averages
# ---------------------------------------------------------------------------


def test_lp_norm_two_scalars():
    # E|±3 ± 4|^2 = (49 + 1 + 1 + 49)/4 = 25
    assert rademacher_lp_norm([3.0, 4.0], 2.0) == pytest.approx(5.0)


def test_lp_norm_single_vector_is_its_length():
    v = np.array([[1.0, 2.0, 2.0]])
    assert rademacher_lp_norm(v, 2.0) == pytest.approx(3.0)
    assert rademacher_lp_norm(v, 7.0) == pytest.approx(3.0)


def test_lp_norm_cancelling_pair():
    v = np.array([1.0 + 1.0j, 0.0])
    vecs = np.stack([v, -v])
    # sums are 0, 0, +-2v: E||.||^2 = 2 ||v||^2
    assert rademacher_lp_norm(vecs, 2.0) == pytest.approx(np.sqrt(2.0) * np.sqrt(2.0))


@pytest.mark.parametrize("m", [2, 4, 6, 8])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_lp_norm_matches_brute_force_enumeration(m, p):
    rng = np.random.default_rng(m * 10 + int(p))
    vecs = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
    acc = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=m):
        s = np.asarray(signs) @ vecs
        acc += np.linalg.norm(s) ** p
    expected = (acc / 2**m) ** (1.0 / p)
    assert rademacher_lp_norm(vecs, p) == pytest.approx(expected, rel=1e-12)


def test_lp_norm_sample_size_mismatch():
    sample = RademacherSample.plan(3)
    with pytest.raises(InvalidArgumentError):
        rademacher_lp_norm([1.0, 2.0], 2.0, sample)


def test_lp_norm_validation():
    with pytest.raises(InvalidArgumentError):
        rademacher_lp_norm([1.0, 2.0], 0.5)


# ---------------------------------------------------------------------------
# empirical R-bounds
# ---------------------------------------------------------------------------


def test_rbound_identity_family_is_one():
    est = empirical_rbound([np.eye(3)], trials=150, seed=0)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.tuples_tested > 0


def test_rbound_projection_family_at_least_one():
    fam = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    est = empirical_rbound(fam, trials=150, seed=1)
    assert est.value >= 1.0 - 1e-12
    assert est.value <= 2.0


def test_rbound_scalar_multiples_equal_largest_modulus():
    # at p = 2 the Rademacher average is the plain l2 sum, so the family
    # {c I} has R-bound max |c| and the estimator attains it exactly
    fam = [c * np.eye(2) for c in (0.3, 1.7, 0.9)]
    est = empirical_rbound(fam, trials=200, seed=3)
    assert est.value == pytest.approx(1.7, abs=1e-12)


def test_rbound_requires_enough_trials():
    with pytest.raises(InvalidArgumentError):
        empirical_rbound([np.eye(2)], trials=50)


def test_rbound_validates_family():
    with pytest.raises(InvalidArgumentError):
        empirical_rbound([], trials=150)
    with pytest.raises(InvalidArgumentError):
        empirical_rbound([np.eye(2), np.eye(3)], trials=150)


def test_rbound_reproducible_and_seed_stable():
    fam = [np.array([[1.0, 0.5], [0.0, 2.0]]), np.array([[0.5, 0.0], [0.3, 1.0]])]
    base = empirical_rbound(fam, trials=200, seed=0)
    again = empirical_rbound(fam, trials=200, seed=0)
    assert base.value == again.value
    for seed in (1, 2, 3, 4):
        other = empirical_rbound(fam, trials=200, seed=seed)
        assert abs(other.value - base.value) <= 0.10 * base.value


# ---------------------------------------------------------------------------
# contraction inequality
# ---------------------------------------------------------------------------


def test_kahane_equal_coefficients_ratio_one():
    v = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]], dtype=complex)
    alpha = np.array([1.0, 2.0, 0.5])
    assert kahane_check(alpha, alpha, v) == pytest.approx(1.0)


def test_kahane_real_contraction_bounded_by_one():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        beta = rng.uniform(0.5, 2.0, size=m)
        alpha = beta * rng.uniform(0.0, 1.0, size=m)
        vecs = rng.standard_normal((m, 3))
        assert kahane_check(alpha, beta, vecs) <= 1.0 + 1e-12


def test_kahane_complex_rotation_orthogonal_vectors():
    # rotating coefficients by phases leaves the p = 2 average unchanged
    # when the vectors are orthogonal
    alpha = np.array([1.0j, 1.0])
    beta = np.array([1.0, 1.0])
    vecs = np.eye(2, dtype=complex)
    assert kahane_check(alpha, beta, vecs) == pytest.approx(1.0)


def test_kahane_complex_ratio_never_exceeds_two():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        beta = rng.uniform(0.2, 2.0, size=m) * np.exp(
            2j * np.pi * rng.uniform(size=m)
        )
        alpha = beta * rng.uniform(0.0, 1.0, size=m) * np.exp(
            2j * np.pi * rng.uniform(size=m)
        )
        vecs = rng.standard_normal((m, 4)) + 1j * rng.standard_normal((m, 4))
        ratio = kahane_check(alpha, beta, vecs)
        assert ratio <= 2.0 + 1e-12


def test_kahane_rejects_unordered_coefficients():
    with pytest.raises(InvalidArgumentError):
        kahane_check([2.0, 0.0], [1.0, 1.0], np.eye(2))
    with pytest.raises(InvalidArgumentError):
        kahane_check([0.0, 0.0], [0.0, 0.0], np.eye(2))


# ---------------------------------------------------------------------------
# scaled resolvent family
# ---------------------------------------------------------------------------


def scalar_problem():
    sym = SymbolSet(l=0, b=(1.0,), nu=1.0)
    op = DenseMatrixOperator(np.array([[1.0]]))
    grid = Grid(half_width=4.0, n=32)
    prob = DiscretizedProblem(sym, op, grid, p=2.0)
    prob.check_condition(lambda_sector=Sector(np.pi / 2))
    return prob


def test_scaled_resolvent_scalar_values():
    # sigma(xi, lam) = (1 + lam)/(2 + lam) independent of xi; at p = 2 the
    # R-bound is the uniform bound, attained at the largest lambda
    prob = scalar_problem()
    est, uniform = scaled_resolvent_rbound(prob, [1.0], [1.0, 10.0], trials=150)
    assert uniform == pytest.approx(11.0 / 12.0, rel=1e-12)
    assert est.value == uniform
    assert est.mode == "closed-form"
    assert est.attained_at == {"xi": 1.0, "lambda": [10.0, 0.0]}


def test_scaled_resolvent_rejects_lambda_outside_sector():
    prob = scalar_problem()
    with pytest.raises(InvalidArgumentError):
        scaled_resolvent_rbound(prob, [1.0], [-5.0], trials=150)


def test_scaled_resolvent_finite_and_seed_stable():
    from coesolve import Kernel

    sym = SymbolSet(
        l=2,
        b=(0.0, 0.0, -1.0),
        a_kernels={2: Kernel("exponential-paper", rate=1.0)},
        nu=1.0,
    )
    op = DenseMatrixOperator(np.diag([1.0, 2.0]))
    grid = Grid(half_width=16.0, n=64)
    prob = DiscretizedProblem(sym, op, grid, p=2.0)
    prob.check_condition(lambda_sector=Sector(np.pi / 2))
    xi = [0.01, 0.1, 1.0, 10.0, 100.0]
    lams = [1.0, 10.0, 100.0]
    vals = []
    for seed in range(5):
        est, uniform = scaled_resolvent_rbound(prob, xi, lams, trials=200, seed=seed)
        assert np.isfinite(est.value)
        assert est.value <= uniform + 1e-12
        vals.append(est.value)
    assert max(vals) - min(vals) <= 0.10 * max(vals)
