"""One symbol sample per frequency array, and the one-array dense-matrix parse.

``SymbolSet.sample`` evaluates den, N, eta, mu_hat, every a_hat_k and the
powers (i xi)^k once, and the multiplier families, the Mikhlin scenario and
the scaled-resolvent R-bound read it.  The references below are the code
those consumers ran before, which evaluated every symbol afresh per family,
lambda and stencil row; each consumer must give the same bits.  The
reference matrix parser is the per-entry one that every ``operator.matrix``
went through before the array path.
"""

import math
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coesolve import Kernel, MultiplierFamily, SymbolSet, get_preset, make_xi_grid
from coesolve import config as config_module
from coesolve import runner
from coesolve.config import build_problem
from coesolve.errors import (
    ConfigError, DegenerateSymbolError, InvalidArgumentError, SymbolBlowupError,
)
from coesolve.operators import DenseMatrixOperator, PeriodicSturmLiouvilleOperator
from coesolve.rademacher import empirical_rbound, scaled_resolvent_rbound
from coesolve.symbols import (
    DEFAULT_LAMBDA_SECTOR, DENOM_FLOOR, SymbolSample, checked_denominator,
    lambda_weights, reduced_symbol, scalar_prefactor,
)
from coesolve.solver import DiscretizedProblem
from coesolve.grids import Grid

FAMILIES = [0, 1, 2, 3, 4, "sigma"]

# ---------------------------------------------------------------------------
# the code every consumer ran before sampling
# ---------------------------------------------------------------------------


def ref_char_poly(symbols, xi):
    xi = np.asarray(xi, dtype=float)
    ix = 1j * xi
    out = np.zeros(xi.shape, dtype=complex)
    power = np.ones(xi.shape, dtype=complex)
    for k in range(symbols.l + 1):
        out += (symbols.b[k] + symbols.a_hat(k, xi)) * power
        power = power * ix
    return out if out.shape else complex(out)


def ref_reduced_symbol(symbols, xi):
    xi = np.asarray(xi, dtype=float)
    den = checked_denominator(np.asarray(symbols.denominator(xi), dtype=complex), xi)
    out = np.asarray(ref_char_poly(symbols, xi), dtype=complex) / den
    return out if out.shape else complex(out)


def ref_scalar_prefactor(symbols, index, xi, lam):
    xi = np.asarray(xi, dtype=float)
    den = checked_denominator(np.asarray(symbols.denominator(xi), dtype=complex), xi)
    if index == "sigma":
        out = (1.0 + lam) / den
    elif index in (0, 2):
        out = 1.0 / den
    elif index == 4:
        out = np.asarray(symbols.mu_hat(xi), dtype=complex) / den
    elif index in (1, 3):
        w = lambda_weights(symbols.l, lam)
        ix = 1j * xi
        acc = np.zeros(xi.shape, dtype=complex)
        power = np.ones(xi.shape, dtype=complex)
        for k in range(symbols.l + 1):
            factor = symbols.a_hat(k, xi) if index == 3 else 1.0
            acc += w[k] * factor * power
            power = power * ix
        out = acc / den
    else:
        raise InvalidArgumentError(f"unknown multiplier family index {index!r}")
    out = np.asarray(out, dtype=complex)
    return out if out.shape else complex(out)


def ref_scalar_symbol(fam, xi):
    eta = np.asarray(ref_reduced_symbol(fam.symbols, xi), dtype=complex)
    prefactor = ref_scalar_prefactor(fam.symbols, fam.index, xi, fam.lam)
    out = np.asarray(prefactor, dtype=complex) / (1.0 + eta + fam.lam)
    return out if out.shape else complex(out)


def ref_diagonal(fam, xi):
    op = fam.operator
    eta = complex(ref_reduced_symbol(fam.symbols, float(xi)))
    prefactor = ref_scalar_prefactor(fam.symbols, fam.index, float(xi), fam.lam)
    out = complex(prefactor) * op.resolvent_eigenvalues(eta + fam.lam)
    if fam.index in (2, 4):
        out = op.eigenvalues() * out
    return out


def ref_matrix(fam, xi):
    op = fam.operator
    eta = complex(ref_reduced_symbol(fam.symbols, float(xi)))
    rows = op.resolvent_solve_many(np.full(op.dim, eta + fam.lam), np.eye(op.dim))
    rows = complex(ref_scalar_prefactor(fam.symbols, fam.index, float(xi), fam.lam)) * rows
    if fam.index in (2, 4):
        rows = op.apply_many(rows)
    return rows.T


def ref_mikhlin_bound(symbol_fns, h_samples, xi_grid):
    xi_grid = np.asarray(xi_grid, dtype=float)
    bound = 0.0
    for h in h_samples:
        vals = np.asarray(symbol_fns(h, xi_grid), dtype=complex)
        step = 1e-5 * np.abs(xi_grid)
        dervs = (
            np.asarray(symbol_fns(h, xi_grid + step), dtype=complex)
            - np.asarray(symbol_fns(h, xi_grid - step), dtype=complex)
        ) / (2.0 * step)
        local = np.maximum(np.abs(vals), np.abs(xi_grid * dervs))
        if not np.all(np.isfinite(local)):
            idx = int(np.argmax(~np.isfinite(local)))
            raise SymbolBlowupError(
                f"multiplier symbol non-finite at h={h!r}, xi={xi_grid[idx]:g}",
                h=h, xi=float(xi_grid[idx]),
            )
        bound = max(bound, float(local.max()))
    return bound


def ref_mikhlin(symbols, families, lambdas, grid):
    """The Mikhlin scenario's bounds: every family, lambda and row sampled afresh."""
    bounds = {}
    for index in families:
        fams = {lam: MultiplierFamily(symbols, index, lam) for lam in lambdas}
        bounds[str(index)] = ref_mikhlin_bound(
            lambda lam, xi: ref_scalar_symbol(fams[lam], xi), lambdas, grid
        )
    return bounds


def ref_scaled_resolvent_rbound(problem, xi_samples, lambda_samples, p, trials, seed):
    xi_samples = np.atleast_1d(np.asarray(xi_samples, dtype=float))
    lambda_samples = np.atleast_1d(np.asarray(lambda_samples, dtype=complex))
    member = ref_diagonal if problem.operator.unitary else ref_matrix
    family = [
        member(MultiplierFamily(problem.symbols, "sigma", lam, problem.operator), xi)
        for xi in xi_samples
        for lam in lambda_samples
    ]
    estimate = empirical_rbound(family, p=p, trials=trials, seed=seed)
    xi, lam = divmod(estimate.argmax, lambda_samples.size)
    return replace(estimate, attained_at={
        "xi": float(xi_samples[xi]),
        "lambda": [float(lambda_samples[lam].real), float(lambda_samples[lam].imag)],
    })


# ---------------------------------------------------------------------------
# strategies and comparison
# ---------------------------------------------------------------------------

finite = st.floats(-3.0, 3.0, allow_nan=False)
cplx = st.builds(complex, finite, finite)
kernels = st.builds(
    Kernel,
    kind=st.sampled_from(["dirac-scaled", "exponential-paper", "exponential-standard", "gaussian"]),
    rate=st.floats(0.2, 4.0),
    amplitude=cplx,
)


@st.composite
def symbol_sets(draw):
    l = draw(st.integers(0, 3))
    orders = draw(st.sets(st.integers(0, l)))
    return SymbolSet(
        l=l,
        b=tuple(draw(cplx) for _ in range(l + 1)),
        a_kernels={k: draw(kernels) for k in sorted(orders)},
        mu_kernel=draw(st.none() | kernels),
        nu=draw(cplx),
    )


# lambda in the closed right half-plane, the default sector
lambdas = st.builds(
    lambda r, t: complex(r * math.cos(t), r * math.sin(t)),
    st.floats(0.0, 50.0),
    st.floats(-math.pi / 2, math.pi / 2),
)
frequencies = st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=12)


def same(a, b):
    """Bit equality of two results: type, shape and bytes."""
    if isinstance(a, complex) or isinstance(b, complex):
        return type(a) is type(b) and np.complex128(a).tobytes() == np.complex128(b).tobytes()
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(fn, *args):
    """``fn(*args)``, or the class and message of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def same_outcome(new, ref):
    if isinstance(ref, tuple) and isinstance(ref[0], type):
        return new == ref
    return not (isinstance(new, tuple) and isinstance(new[0], type)) and same(new, ref)


# ---------------------------------------------------------------------------
# the sample path against the references
# ---------------------------------------------------------------------------


@settings(max_examples=150)
@given(symbol_sets(), frequencies, lambdas, st.sampled_from(FAMILIES))
def test_sample_path_matches_the_old_formulas_bit_for_bit(symbols, xs, lam, index):
    xi = np.array(xs)
    fam = MultiplierFamily(symbols, index, lam)
    assert same_outcome(outcome(reduced_symbol, symbols, xi), outcome(ref_reduced_symbol, symbols, xi))
    assert same_outcome(outcome(fam.prefactor, xi), outcome(ref_scalar_prefactor, symbols, index, xi, lam))
    assert same_outcome(outcome(fam.scalar_symbol, xi), outcome(ref_scalar_symbol, fam, xi))
    for x in (xs[0], np.float64(xs[-1])):  # scalar frequencies, as the R-bound passes them
        assert same_outcome(outcome(fam.scalar_symbol, x), outcome(ref_scalar_symbol, fam, x))
        assert same_outcome(outcome(scalar_prefactor, symbols, index, x, lam),
                            outcome(ref_scalar_prefactor, symbols, index, x, lam))
    sample = outcome(symbols.sample, xi)
    if isinstance(sample, SymbolSample):  # one sample serves every family and lambda
        for other in FAMILIES:
            shared = MultiplierFamily(symbols, other, lam)
            assert same(shared.scalar_symbol(sample), ref_scalar_symbol(shared, xi))
            assert same(shared.prefactor(sample), ref_scalar_prefactor(symbols, other, xi, lam))


@settings(max_examples=60)
@given(symbol_sets(), st.floats(-1e3, 1e3, allow_nan=False), lambdas, st.sampled_from(FAMILIES),
       st.sampled_from(["dense", "psl"]))
def test_diagonal_and_matrix_members_match_the_old_formulas(symbols, xi, lam, index, kind):
    op = (DenseMatrixOperator([[2.0, 1.0 + 0.5j], [0.0, 3.0]]) if kind == "dense"
          else PeriodicSturmLiouvilleOperator(b=0.7, n=4))
    fam = MultiplierFamily(symbols, index, lam, op)
    assert same_outcome(outcome(fam.matrix, xi), outcome(ref_matrix, fam, xi))
    assert same_outcome(outcome(fam.diagonal, xi), outcome(ref_diagonal, fam, xi))
    sample = outcome(symbols.sample, xi)
    if isinstance(sample, SymbolSample):
        assert same(fam.matrix(sample), ref_matrix(fam, xi))
        assert same(fam.diagonal(sample), ref_diagonal(fam, xi))


def fresh_samples(monkeypatch):
    """The frequency arrays ``SymbolSet.sample`` evaluates on from now on (a sample passed
    back in is not one)."""
    calls, sample = [], SymbolSet.sample

    def counting(self, xi):
        if not isinstance(xi, SymbolSample):
            calls.append(xi)
        return sample(self, xi)

    monkeypatch.setattr(SymbolSet, "sample", counting)
    return calls


def _mikhlin_run(symbols, grid):
    """What ``runner._mikhlin`` reads of a run, on the frequencies ``grid``."""
    problem = SimpleNamespace(symbols=symbols, certified_xi=lambda: grid)
    return SimpleNamespace(problem=problem, summary={}, emit=lambda name, result: None)


@settings(max_examples=40)
@given(symbol_sets(), st.lists(lambdas, min_size=1, max_size=4, unique=True),
       st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=6, unique=True))
def test_mikhlin_scenario_bounds_match_the_per_family_evaluation(symbols, lams, families):
    grid = make_xi_grid(per_side=40)
    ref = outcome(ref_mikhlin, symbols, families, lams, grid)
    run = _mikhlin_run(symbols, grid)
    new = outcome(runner._mikhlin, run, {"lambdas": lams, "families": families})
    if isinstance(ref, tuple):
        assert new == ref
    else:
        assert new is None
        assert {k: v.hex() for k, v in run.summary["bounds"].items()} == {
            k: v.hex() for k, v in ref.items()}


def test_mikhlin_scenario_samples_each_stencil_row_once(monkeypatch):
    symbols = SymbolSet(l=2, b=(1.0, 0.0, -1.0), a_kernels={1: Kernel("gaussian")}, nu=1.0)
    calls = fresh_samples(monkeypatch)
    run = _mikhlin_run(symbols, make_xi_grid(per_side=40))
    runner._mikhlin(run, {"lambdas": [0.0, 1.0, 1j, 4.0], "families": FAMILIES})
    assert len(calls) == 3  # xi, xi + step, xi - step, for 6 families x 4 lambdas


@settings(max_examples=25)
@given(symbol_sets(), st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=1, max_size=4),
       st.lists(lambdas, min_size=1, max_size=3), st.sampled_from(["dense", "psl"]),
       st.sampled_from([2.0, 3.0]))
def test_scaled_resolvent_rbound_matches_the_per_member_evaluation(symbols, xs, lams, kind, p):
    op = (DenseMatrixOperator([[2.0, 1.0 + 0.5j], [0.0, 3.0]]) if kind == "dense"
          else PeriodicSturmLiouvilleOperator(b=0.7, n=4))
    problem = SimpleNamespace(symbols=symbols, operator=op, lambda_sector=DEFAULT_LAMBDA_SECTOR)
    ref = outcome(ref_scaled_resolvent_rbound, problem, xs, lams, p, 100, 3)
    new = outcome(scaled_resolvent_rbound, problem, xs, lams, p, 100, 3)
    if isinstance(ref, tuple):
        assert new == ref
    else:
        estimate, uniform = new
        assert estimate == ref and uniform.hex() == ref.uniform_bound.hex()
        assert estimate.value.hex() == ref.value.hex()


def test_rbound_samples_each_xi_once(monkeypatch):
    symbols = SymbolSet(l=2, b=(1.0, 0.0, -1.0), nu=1.0)
    problem = SimpleNamespace(symbols=symbols, operator=PeriodicSturmLiouvilleOperator(n=4),
                              lambda_sector=DEFAULT_LAMBDA_SECTOR)
    calls = fresh_samples(monkeypatch)
    scaled_resolvent_rbound(problem, [0.5, 1.0, 2.0], [0.0, 1.0, 2j, 5.0])
    assert calls == [0.5, 1.0, 2.0]


# ---------------------------------------------------------------------------
# a degenerate denominator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index", FAMILIES)
def test_degenerate_denominator_raises_as_before(index):
    symbols = SymbolSet(l=1, b=(1.0, 1.0), mu_kernel=Kernel("dirac-scaled", amplitude=-1.0), nu=1.0)
    xi = np.array([0.0, 2.0, 1.0])  # mu_hat + nu = 0 everywhere; the error names the first xi
    op = DenseMatrixOperator([[1.0]])
    fam = MultiplierFamily(symbols, index, 1.0, op)
    cases = [
        (reduced_symbol, ref_reduced_symbol, (symbols, xi)),
        (fam.prefactor, lambda x: ref_scalar_prefactor(symbols, index, x, 1.0), (xi,)),
        (fam.scalar_symbol, lambda x: ref_scalar_symbol(fam, x), (xi,)),
        (fam.matrix, lambda x: ref_matrix(fam, x), (0.0,)),
        (fam.diagonal, lambda x: ref_diagonal(fam, x), (0.0,)),
        (symbols.sample, lambda x: ref_reduced_symbol(symbols, x), (xi,)),
    ]
    for new, ref, args in cases:
        got, want = outcome(new, *args), outcome(ref, *args)
        assert want[0] is DegenerateSymbolError
        assert got == want == (DegenerateSymbolError, f"|mu_hat + nu| below {DENOM_FLOOR:g} at xi = 0")


# ---------------------------------------------------------------------------
# DiscretizedProblem.x_spectrum samples the denominator once
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("real", [False, True])
def test_x_spectrum_samples_the_denominator_once(monkeypatch, real):
    problem = build_problem(get_preset("problem-3.7")["problem"], "problem")
    before = problem.x_spectrum(real)
    calls = []
    denominator = SymbolSet.denominator
    monkeypatch.setattr(SymbolSet, "denominator",
                        lambda self, xi: calls.append(1) or denominator(self, xi))
    spec = problem.x_spectrum(real)
    assert len(calls) == 1
    assert spec.real == before.real
    assert spec.den.tobytes() == before.den.tobytes() and spec.eta.tobytes() == before.eta.tobytes()
    assert spec.eta.tobytes() == problem.eta_on_grid()[: len(spec.eta)].tobytes()


def test_x_spectrum_keeps_the_degenerate_denominator_error():
    symbols = SymbolSet(l=0, b=(1.0,), mu_kernel=Kernel("dirac-scaled", amplitude=-1.0), nu=1.0)
    problem = DiscretizedProblem(symbols, DenseMatrixOperator([[1.0]]), Grid(4.0, 8))
    with pytest.raises(DegenerateSymbolError, match=r"below 1e-14 at xi = 0$"):
        problem.x_spectrum()


# ---------------------------------------------------------------------------
# the dense-matrix parse
# ---------------------------------------------------------------------------


def ref_parse_matrix(v, path):
    return config_module._list_of(config_module._cnum_list)(v, path)


entries = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    st.integers(-(2**60), 2**60),
    st.integers(-(2**1023), 2**1023),
)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return [[[draw(entries), draw(entries)] for _ in range(cols)] for _ in range(rows)]
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=200)
@given(matrices())
def test_matrix_parse_keeps_every_bit(matrix):
    new = config_module._matrix(matrix, "problem.operator.matrix")
    ref = np.asarray(ref_parse_matrix(matrix, "problem.operator.matrix"), dtype=complex)
    assert new.dtype == ref.dtype and new.shape == ref.shape and new.tobytes() == ref.tobytes()


def test_matrix_parse_keeps_negative_zero_in_pairs():
    parsed = config_module._matrix([[[-0.0, -0.0], [1, -0.0]], [[0.0, 2], [3.5, -1]]], "m")
    assert np.signbit(parsed.real[0, 0]) and np.signbit(parsed.imag[0, 0])
    assert np.signbit(parsed.imag[0, 1]) and not np.signbit(parsed.imag[1, 0])


INVALID = {
    "bool": [[1.0, True], [0.0, 2.0]],
    "bool pair": [[[1.0, 0.0], [False, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
    "string": [[1.0, 0.0], ["2", 2.0]],
    "null": [[1.0, None], [0.0, 2.0]],
    "ragged": [[1.0, 0.0], [2.0]],
    "pair of three": [[[1.0, 0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
    "pair of one": [[[1.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
    "10**400": [[1.0, 0.0], [0.0, 10**400]],
    "10**400 in a pair": [[[1.0, 10**400], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
    "just above the float range": [[1.0, 0.0], [0.0, int(sys.float_info.max) + 2**969]],
    "nan": [[1.0, float("nan")], [0.0, 2.0]],
    "inf": [[[1.0, float("inf")], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
    "empty row": [[1.0, 0.0], []],
    "empty matrix": [],
    "not a list": {"re": 1.0},
    "not square": [[1.0, 0.0]],
}


def ref_build_error(matrix):
    """The error ``build_problem`` raised for ``matrix`` with the per-entry parser:
    the parser's own, or the operator's as a ConfigError at problem.operator."""
    try:
        parsed = ref_parse_matrix(matrix, "problem.operator.matrix")
        config_module._operator({"kind": "dense-matrix", "matrix": parsed, "csv": None},
                                "problem.operator")
    except ConfigError as exc:
        return str(exc), exc.path
    except ValueError as exc:
        return f"problem.operator: {exc}", "problem.operator"
    raise AssertionError("the reference accepted the matrix")


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_matrix_gives_the_old_error_and_path(name):
    config = get_preset("problem-3.7")
    config["problem"]["operator"]["matrix"] = INVALID[name]
    with pytest.raises(ConfigError) as got:
        build_problem(config["problem"], "problem")
    assert (str(got.value), got.value.path) == ref_build_error(INVALID[name])


def test_mixed_pair_and_number_rows_parse_entry_by_entry():
    matrix = [[[1.0, -0.0], 0.5], [2, [-0.0, 3]]]
    new = config_module._matrix(matrix, "m")
    assert isinstance(new, list)
    assert np.asarray(new).tobytes() == np.asarray(ref_parse_matrix(matrix, "m")).tobytes()
