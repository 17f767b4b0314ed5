"""The R-bound estimator: the p = 2 closed form against dense norms, the
p != 2 trial loop bit for bit against the loop as first written (started at
the largest member norm) and never under that norm, where the
bound of the scaled resolvent family is attained, and the frequencies the
admissibility gate certifies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coesolve.rademacher as rademacher
import coesolve.solver as solver
from coesolve import DiscretizedProblem, Grid, Kernel, SymbolSet
from coesolve.operators import DenseMatrixOperator, DirichletLaplacian2D
from coesolve.presets import get_preset
from coesolve.rademacher import (
    RademacherSample,
    _tuple_ratio,
    empirical_rbound,
    scaled_resolvent_rbound,
)
from coesolve.runner import run_scenario


# ---------------------------------------------------------------------------
# the trial loop as first written: signs built on every call, row norms
# through np.linalg.norm
# ---------------------------------------------------------------------------


def _reference_signs(sample):
    if sample.mode == "exhaustive":
        bits = (np.arange(2**sample.m)[:, None] >> np.arange(sample.m)[None, :]) & 1
        return 1.0 - 2.0 * bits
    rng = np.random.default_rng(sample.seed)
    return 1.0 - 2.0 * rng.integers(0, 2, size=(sample.n_draws, sample.m)).astype(float)


def _reference_lp_norm(v, p, sample):
    sums = _reference_signs(sample).astype(complex) @ np.asarray(v, dtype=complex)
    mags = np.linalg.norm(sums, axis=1)
    return float(np.mean(mags**p) ** (1.0 / p))


def _reference_rbound(operators, p, trials, seed, m_max):
    ops = [np.asarray(t, dtype=complex) for t in operators]
    rng = np.random.default_rng(seed)
    best = max(float(np.max(np.abs(t))) if t.ndim == 1 else float(np.linalg.svd(t)[1][0])
               for t in ops)
    tested, mode, family = len(ops), "exhaustive", np.stack(ops)
    for _ in range(trials):
        m = int(rng.integers(1, m_max + 1))
        idx = rng.integers(0, len(ops), size=m)
        xs = (
            rng.standard_normal((m, ops[0].shape[-1]))
            + 1j * rng.standard_normal((m, ops[0].shape[-1]))
        ) / np.sqrt(2.0)
        sample = RademacherSample.plan(m, seed=int(rng.integers(0, 2**31)))
        if sample.mode == "random":
            mode = "random"
        members = family[idx]
        den = _reference_lp_norm(xs, p, sample)
        if den < 1e-300:
            continue
        if members.ndim == 2:
            ys = members * xs
        else:
            ys = np.stack([t @ x for t, x in zip(members, xs)])
        best = max(best, _reference_lp_norm(ys, p, sample) / den)
        tested += 1
    return best, tested, mode


def _phase_family(kind, rng):
    """Unit-modulus members with spread phases: for p != 2 their tuples beat
    the singletons (complex contraction), so the loop decides the value."""
    if kind == "diagonal":
        return list(np.exp(2j * np.pi * rng.uniform(size=(5, 3))))
    phases = np.exp(2j * np.pi * rng.uniform(size=(5, 2)))
    return [np.diag(row) + 0.3 * np.eye(2, k=1) for row in phases]


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("kind", ["diagonal", "matrix"])
@pytest.mark.parametrize("m_max", [8, 13])
def test_trial_loop_keeps_its_bits(p, kind, m_max):
    """m_max = 13 reaches sampled sign spaces (2^13 > 4096) as well."""
    rng = np.random.default_rng(int(10 * p) + m_max)
    family = _phase_family(kind, rng)
    est = empirical_rbound(family, p=p, trials=300, seed=11, m_max=m_max)
    value, tested, mode = _reference_rbound(family, p, 300, 11, m_max)
    assert (repr(est.value), est.tuples_tested, est.mode) == (repr(value), tested, mode)
    assert est.mode == ("random" if m_max == 13 else "exhaustive")
    assert est.value > est.uniform_bound * (1.0 + 1e-9)


@settings(max_examples=40)
@given(m=st.integers(1, 13), d=st.integers(1, 40), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       seed=st.integers(0, 2**32 - 1))
def test_lp_norm_keeps_its_bits(m, d, p, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    sample = RademacherSample.plan(m, seed=seed % 2**31)
    got = rademacher.rademacher_lp_norm(v, p, sample)
    assert repr(got) == repr(_reference_lp_norm(v, p, sample))


def test_exhaustive_signs_are_built_once_per_m():
    first = RademacherSample.plan(6).signs()
    assert RademacherSample.plan(6).signs() is first
    assert not first.flags.writeable
    np.testing.assert_array_equal(first, _reference_signs(RademacherSample.plan(6)))


# ---------------------------------------------------------------------------
# p = 2: the closed form against dense spectral norms
# ---------------------------------------------------------------------------


@st.composite
def families(draw):
    """1-20 members of one kind: non-normal dense Q T Q^H, scaled Jordan
    blocks, or diagonals given as vectors."""
    n_members = draw(st.integers(1, 20))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "jordan", "diagonal"]))
    members = []
    for _ in range(n_members):
        scale = 10.0 ** rng.uniform(-3, 3)
        if kind == "diagonal":
            members.append(scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d)))
        elif kind == "jordan":
            lam = rng.standard_normal() + 1j * rng.standard_normal()
            members.append(scale * (lam * np.eye(d) + np.eye(d, k=1)))
        else:
            t = np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            members.append(scale * (q @ t @ q.conj().T))
    return members


def _dense_norm(member):
    return np.linalg.norm(np.diag(member) if member.ndim == 1 else member, 2)


@settings(max_examples=60)
@given(family=families())
def test_p2_value_is_the_largest_member_norm(family):
    est = empirical_rbound(family, p=2.0, trials=100, seed=3)
    top = max(_dense_norm(t) for t in family)
    assert est.value == pytest.approx(top, rel=1e-12)
    assert est.value == est.uniform_bound
    assert (est.mode, est.tuples_tested) == ("closed-form", len(family))
    assert _dense_norm(family[est.argmax]) == pytest.approx(top, rel=1e-12)


@settings(max_examples=60)
@given(family=families(), seed=st.integers(0, 2**32 - 1))
def test_p2_tuple_ratios_never_exceed_the_largest_norm(family, seed):
    """E||sum r_j T_j x_j||^2 = sum ||T_j x_j||^2 <= max ||T_j||^2 sum ||x_j||^2:
    no tuple beats the closed form, which is what licenses skipping them."""
    rng = np.random.default_rng(seed)
    top = empirical_rbound(family, p=2.0, trials=100).value
    stacked = np.stack(family)
    d = stacked.shape[-1]
    for _ in range(5):
        m = int(rng.integers(1, 9))
        idx = rng.integers(0, len(family), size=m)
        xs = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        ratio = _tuple_ratio(stacked[idx], xs, 2.0, RademacherSample.plan(m))
        assert ratio <= top * (1.0 + 1e-12)


@settings(max_examples=60)
@given(family=families(), p=st.sampled_from([1.0, 1.5, 3.0]), seed=st.integers(0, 2**31 - 1))
def test_estimate_never_falls_under_the_uniform_bound(family, p, seed):
    """A singleton tuple's R_p-bound is its norm, so the estimate is at
    least max ||T_j||, with no rounding allowance."""
    est = empirical_rbound(family, p=p, trials=100, seed=seed)
    assert est.value >= est.uniform_bound


def _lp_norm_forbidden(*args, **kwargs):
    raise AssertionError("a Rademacher average was taken")


@pytest.mark.parametrize(
    "operator", [DenseMatrixOperator(np.array([[1.0]])), DirichletLaplacian2D(3, 2, c=0.5)],
    ids=["dense", "laplacian"],
)
def test_p2_runs_no_trials(operator, monkeypatch):
    sym = SymbolSet(l=0, b=(1.0,), nu=1.0)
    prob = DiscretizedProblem(sym, operator, Grid(4.0, 32), p=2.0)
    prob.check_condition()
    monkeypatch.setattr(rademacher, "rademacher_lp_norm", _lp_norm_forbidden)
    est, uniform = scaled_resolvent_rbound(prob, [0.5, 2.0], [1.0, 10.0], p=2.0, trials=100)
    assert est.value == uniform
    with pytest.raises(AssertionError, match="Rademacher average"):
        scaled_resolvent_rbound(prob, [0.5, 2.0], [1.0, 10.0], p=3.0, trials=100)


# ---------------------------------------------------------------------------
# where the bound is attained
# ---------------------------------------------------------------------------


def test_second_order_family_peaks_at_the_smallest_frequency():
    """With N(xi) = 1 - (i xi)^2 and A = 1, |sigma| = |1 + lambda| / |2 + xi^2 + lambda|
    is largest at the smallest |xi| and the largest lambda; the xi samples
    are unsorted, so the index is mapped back in the order given."""
    sym = SymbolSet(l=2, b=(1.0, 0.0, -1.0), nu=1.0)
    prob = DiscretizedProblem(sym, DenseMatrixOperator(np.array([[1.0]])), Grid(4.0, 32), p=2.0)
    prob.check_condition()
    est, uniform = scaled_resolvent_rbound(
        prob, [2.0, -0.25, 0.5, 4.0], [5.0, 20.0 + 1.0j, 1.0], trials=100
    )
    assert est.attained_at == {"xi": -0.25, "lambda": [20.0, 1.0]}
    assert uniform == pytest.approx(abs(21.0 + 1.0j) / abs(22.0625 + 1.0j), rel=1e-12)


def test_rbound_json_reports_the_closed_form_and_its_location(tmp_path):
    result = run_scenario(get_preset("scalar-resolvent"), out_dir=tmp_path, seed=0)
    summary = result.summary
    assert summary["mode"] == "closed-form"
    assert summary["value"] == summary["uniform_bound"]
    assert summary["tuples_tested"] == 20
    assert summary["attained_at"] == {"xi": 0.01, "lambda": [1000.0, 0.0]}
    assert '"attained_at": {"xi": 0.01, "lambda": [1000, 0]}' in (
        tmp_path / "rbound.json"
    ).read_text()


# ---------------------------------------------------------------------------
# the gate certifies the solved frequencies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("xi_grid", [None, [-2.0, 0.5, 3.0]], ids=["default", "given"])
def test_gate_grid_covers_every_solved_frequency(xi_grid, monkeypatch):
    """n = 1024 on X = 1 solves up to |xi| = 512 pi ~ 1608, past the default
    grid's 1e3."""
    seen = []

    def spy(symbols, xi_grid, lambda_sector):
        seen.append(np.asarray(xi_grid))
        return check(symbols, xi_grid=xi_grid, lambda_sector=lambda_sector)

    check = solver.check_symbol_conditions
    monkeypatch.setattr(solver, "check_symbol_conditions", spy)
    sym = SymbolSet(
        l=2, b=(1.0, 0.0, -1.0), a_kernels={2: Kernel("exponential-paper", rate=1.0)}, nu=1.0
    )
    grid = Grid(half_width=1.0, n=1024)
    prob = DiscretizedProblem(sym, DenseMatrixOperator(np.eye(1)), grid)
    assert prob.check_condition(xi_grid=xi_grid).all_pass
    (gate,) = seen
    solved = grid.xi[grid.xi != 0.0]
    assert np.abs(solved).max() > 1e3
    assert np.all(np.isin(solved, gate))
    assert np.all(gate != 0.0)
    if xi_grid is not None:
        assert np.all(np.isin(xi_grid, gate))
