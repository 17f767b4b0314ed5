"""Top-level acceptance checks, one per advertised guarantee.

Every test prints one ``[acceptance N] PASS/FAIL`` line with the measured
quantities (run ``pytest tests/test_acceptance.py -s`` to see them all) and
then asserts, so a red criterion is visible both ways.
"""

import itertools
import time

import numpy as np
import scipy.linalg

from coesolve import (
    DiscretizedProblem,
    Field,
    Grid,
    Kernel,
    SymbolSet,
    apply_operator,
    band_limited_random,
    besov_norm,
    lambda_sweep,
    lp_norm,
    mixed_norm,
    norm_equivalence,
    run_scenario,
    solve_cauchy_linear,
    solve_linear,
    spectral_derivative,
    trace_exponents,
)
from coesolve.bvp import (
    BoundaryConditions,
    TGrid,
    check_nondegenerate,
    solve_bvp_linear,
    solve_bvp_semilinear,
)
from coesolve.errors import DegenerateBoundaryError
from coesolve.evolution import Nonlinearity
from coesolve.operators import DenseMatrixOperator
from coesolve.presets import get_preset, preset_names
from coesolve.rademacher import kahane_check, rademacher_lp_norm, scaled_resolvent_rbound
from coesolve.symbols import reduced_symbol


def _conclude(number, ok, detail):
    line = f"[acceptance {number}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def second_order_problem(n=256):
    """The worked second-order system: b = (0, 0, -1), odd exponential
    kernel on the leading term, nu = 1, A = diag(1, 2)."""
    sym = SymbolSet(
        l=2,
        b=(0.0, 0.0, -1.0),
        a_kernels={2: Kernel("exponential-paper", rate=1.0)},
        nu=1.0,
    )
    op = DenseMatrixOperator(np.diag([1.0, 2.0]))
    prob = DiscretizedProblem(sym, op, Grid(half_width=16.0, n=n), p=2.0)
    prob.check_condition()
    return prob


def scalar_strip_problem():
    """l = 0, b = 1, nu = 1, A = 1: the strip operator is -u_tt + 2u."""
    sym = SymbolSet(l=0, b=(1.0,), nu=1.0)
    op = DenseMatrixOperator(np.array([[1.0]]))
    prob = DiscretizedProblem(sym, op, Grid(half_width=np.pi, n=16), p=2.0)
    prob.check_condition()
    return prob


def _cos_field(grid, amplitude=1.0):
    return Field.from_function(grid, lambda x: amplitude * np.cos(x))


def test_criterion_1_admissibility_checker():
    started = time.perf_counter()
    result = run_scenario(get_preset("example-4.3-condition"))
    elapsed = time.perf_counter() - started
    s = result.summary
    ok = (
        result.exit_code == 0
        and s["all_pass"]
        and abs(s["c_mu"] - 1.0) <= 1e-12
        and 0.99 <= s["c_n"] <= 1.01
        and abs(s["phi1"] - np.pi / 4.0) <= 0.02
        and elapsed < 1.0
    )
    _conclude(
        1,
        ok,
        f"c_mu = {s['c_mu']:.15g}, c_n = {s['c_n']:.6g}, "
        f"phi1 = {s['phi1']:.6g} (pi/4 = {np.pi / 4:.6g}), {elapsed:.2f} s",
    )


def test_criterion_2_solver_exactness():
    prob = second_order_problem()
    rng = np.random.default_rng(2)
    lambdas = (1.0, 10.0, 100.0, 1000.0 * np.exp(1j * np.pi / 4.0))
    worst_residual = 0.0
    for _ in range(20):
        f = band_limited_random(prob.grid, rng, max_mode=30, dim=2, decay=1.0)
        f_norm = lp_norm(f, 2.0)
        for lam in lambdas:
            u = solve_linear(prob, f, lam)
            back = apply_operator(prob, u, lam)
            gap = Field(prob.grid, back.values - f.values)
            worst_residual = max(worst_residual, lp_norm(gap, 2.0) / f_norm)
    worst_round_trip = 0.0
    for _ in range(5):
        u = band_limited_random(prob.grid, rng, max_mode=20, dim=2)
        f = apply_operator(prob, u, 10.0)
        again = solve_linear(prob, f, 10.0)
        worst_round_trip = max(worst_round_trip, np.max(np.abs(again.values - u.values)))
    ok = worst_residual <= 1e-8 and worst_round_trip <= 1e-10
    _conclude(
        2,
        ok,
        f"worst relative residual {worst_residual:.3e} (<= 1e-8), "
        f"worst round-trip error {worst_round_trip:.3e} (<= 1e-10)",
    )


def test_criterion_3_lambda_uniformity():
    prob = second_order_problem()
    f = Field.from_function(
        prob.grid, lambda x: np.exp(-((x / 2.0) ** 2)), weights=(1.0, 0.5)
    )
    four = lambda_sweep(prob, f, [1.0, 10.0, 100.0, 1000.0])
    five = lambda_sweep(prob, f, [1.0, 10.0, 100.0, 1000.0, 10000.0])
    drift = abs(five.max_resolvent_value - four.max_resolvent_value)
    ok = (
        four.ratio_spread <= 10.0
        and np.isfinite(four.max_resolvent_value)
        and drift <= 0.10 * four.max_resolvent_value
    )
    _conclude(
        3,
        ok,
        f"ratio spread {four.ratio_spread:.4g} (<= 10), max resolvent value "
        f"{four.max_resolvent_value:.6g} with shift {drift:.2e} over a fifth decade",
    )


def test_criterion_4_norm_equivalence():
    spreads = []
    for n in (256, 512):
        prob = second_order_problem(n=n)
        rng = np.random.default_rng(8)
        fields = [
            band_limited_random(prob.grid, rng, max_mode=30, dim=2)
            for _ in range(20)
        ]
        _, spread = norm_equivalence(prob, fields)
        spreads.append(spread)
    drift = abs(spreads[1] - spreads[0]) / spreads[0]
    ok = spreads[0] <= 50.0 and drift <= 0.20
    _conclude(
        4,
        ok,
        f"equivalence spread {spreads[0]:.4g} (<= 50), "
        f"relative change {drift:.2e} under grid doubling (<= 0.2)",
    )


def _enumerated_lp(vectors, p):
    m = vectors.shape[0]
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=m):
        s = (np.asarray(signs)[:, None] * vectors).sum(axis=0)
        total += np.linalg.norm(s) ** p
    return (total / 2.0**m) ** (1.0 / p)


def test_criterion_5_randomized_sums():
    rng = np.random.default_rng(55)
    worst_complex = 0.0
    worst_real = 0.0
    for _ in range(10_000):
        m = int(rng.integers(2, 4))
        vectors = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
        beta = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        beta[np.abs(beta) < 1e-6] = 1.0
        contraction = rng.random(m) * np.exp(2j * np.pi * rng.random(m))
        worst_complex = max(
            worst_complex, kahane_check(beta * contraction, beta, vectors)
        )
        worst_real = max(
            worst_real,
            kahane_check(np.abs(beta) * rng.random(m), np.abs(beta), vectors.real),
        )
    enumeration_gap = 0.0
    for m in range(2, 9):
        vectors = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
        for p in (2.0, 3.0):
            direct = rademacher_lp_norm(vectors, p)
            brute = _enumerated_lp(vectors, p)
            enumeration_gap = max(enumeration_gap, abs(direct - brute) / brute)
    prob = second_order_problem(n=64)
    values = []
    for seed in range(5):
        estimate, uniform = scaled_resolvent_rbound(
            prob,
            [0.01, 0.1, 1.0, 10.0, 100.0],
            [1.0, 10.0, 100.0, 1000.0],
            trials=200,
            seed=seed,
        )
        values.append(estimate.value)
    seed_spread = (max(values) - min(values)) / min(values)
    ok = (
        worst_complex <= 2.0 + 1e-12
        and worst_real <= 1.0 + 1e-12
        and enumeration_gap <= 1e-12
        and all(np.isfinite(v) for v in values)
        and seed_spread <= 0.10
    )
    _conclude(
        5,
        ok,
        f"worst contraction ratio {worst_complex:.6g} complex / {worst_real:.6g} real, "
        f"enumeration gap {enumeration_gap:.1e}, R-bound {values[0]:.6g} with "
        f"seed spread {seed_spread:.2e}",
    )


def test_criterion_6_parabolic_solver():
    started = time.perf_counter()
    prob = second_order_problem()
    u0 = Field.from_function(
        prob.grid, lambda x: np.exp(-(x**2) / 4.0), weights=(1.0, 0.5)
    )
    state = solve_cauchy_linear(prob, u0, t_final=1.0, dt=0.01)
    xi = 2.0 * np.pi * np.fft.fftfreq(prob.grid.n, d=prob.grid.h)
    a = prob.operator.as_dense()
    eye = np.eye(a.shape[0])
    u0_hat = np.fft.fft(u0.values, axis=0)
    final_hat = np.empty_like(u0_hat)
    for j, x in enumerate(xi):
        m = prob.symbols.denominator(float(x)) * (
            a + reduced_symbol(prob.symbols, float(x)) * eye
        )
        final_hat[j] = scipy.linalg.expm(-m) @ u0_hat[j]
    oracle = np.fft.ifft(final_hat, axis=0)
    linear_err = float(np.max(np.abs(state.final.values - oracle)))
    linear_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    blowup = run_scenario(get_preset("blowup-ode")).summary
    blowup_elapsed = time.perf_counter() - started
    ok = (
        linear_err <= 1e-6
        and linear_elapsed < 30.0
        and not blowup["completed"]
        and 0.9 <= blowup["t_max"] <= 1.0
        and blowup_elapsed < 30.0
    )
    _conclude(
        6,
        ok,
        f"matrix-exponential oracle gap {linear_err:.2e} at t = 1 "
        f"({linear_elapsed:.1f} s); blow-up halted at t_max = {blowup['t_max']:.4f} "
        f"({blowup_elapsed:.1f} s)",
    )


def test_criterion_7_elliptic_solver():
    prob = scalar_strip_problem()
    grid = prob.grid
    t_final = 1.0

    # manufactured solution u = sin(pi t) cos x, second-order slope in dt
    errs, dts = [], []
    for m in (10, 20, 40, 80):
        tgrid = TGrid(t_final=t_final, m=m)
        bc = BoundaryConditions(
            1.0, 0.0, 0.0, 1.0,
            f1=Field(grid, np.zeros((grid.n, 1), dtype=complex)),
            f2=_cos_field(grid, -np.pi / t_final),
        )
        forcing = np.stack(
            [
                ((np.pi / t_final) ** 2 + 2.0)
                * np.sin(np.pi * t / t_final)
                * np.cos(grid.x)[:, None]
                for t in tgrid.t
            ]
        )
        u = solve_bvp_linear(prob, bc, tgrid, forcing=forcing)
        exact = np.stack(
            [np.sin(np.pi * t / t_final) * np.cos(grid.x)[:, None] for t in tgrid.t]
        )
        errs.append(np.max(np.abs(u.values - exact)))
        dts.append(tgrid.dt)
    slopes = [
        np.log(errs[i] / errs[i + 1]) / np.log(dts[i] / dts[i + 1])
        for i in range(len(errs) - 1)
    ]
    slope_ok = all(1.8 <= s <= 2.2 for s in slopes)

    # homogeneous profile u = sinh(sqrt(2) t) / sinh(sqrt(2)) cos x
    root = np.sqrt(2.0)
    profile_errs, profile_dts = [], []
    for m in (24, 96):
        tgrid = TGrid(t_final=1.0, m=m)
        bc = BoundaryConditions(
            0.0, 1.0, 1.0, 0.0,
            f1=_cos_field(grid, root / np.sinh(root)),
            f2=_cos_field(grid),
        )
        u = solve_bvp_linear(prob, bc, tgrid)
        exact = np.stack(
            [np.sinh(root * t) / np.sinh(root) * np.cos(grid.x)[:, None]
             for t in tgrid.t]
        )
        profile_errs.append(np.max(np.abs(u.values - exact)))
        profile_dts.append(tgrid.dt)
    profile_ok = (
        profile_errs[0] <= profile_dts[0] ** 2
        and 10.0 <= profile_errs[0] / profile_errs[1] <= 22.0
    )

    # successive substitutions for F = 0.2 u contract geometrically
    tgrid = TGrid(t_final=1.0, m=24)
    bc = BoundaryConditions(
        1.0, 0.0, 0.0, 1.0,
        f1=_cos_field(grid),
        f2=Field(grid, np.zeros((grid.n, 1), dtype=complex)),
    )
    eps_u = Nonlinearity(kind="pointwise-polynomial", arity=0, terms=(((1,), 0.2),))
    _, report = solve_bvp_semilinear(prob, bc, tgrid, eps_u, max_iter=40, tol=1e-12)
    gaps = [g for g in report.gaps if g > 0.0]
    gap_ratios = [gaps[i + 1] / gaps[i] for i in range(len(gaps) - 1)]
    picard_ok = report.converged and gap_ratios and max(gap_ratios) <= 0.9

    degenerate = BoundaryConditions(
        1.0, 0.0, 1.0, 0.0,
        f1=_cos_field(grid),
        f2=_cos_field(grid),
    )
    gate_ok = check_nondegenerate(degenerate) == 0.0
    try:
        solve_bvp_linear(prob, degenerate, TGrid(t_final=1.0, m=8))
        gate_ok = False
    except DegenerateBoundaryError:
        pass

    ok = slope_ok and profile_ok and picard_ok and gate_ok
    _conclude(
        7,
        ok,
        f"slopes {[f'{s:.3f}' for s in slopes]}, profile error "
        f"{profile_errs[0]:.2e} vs dt^2 = {profile_dts[0] ** 2:.2e} (ratio "
        f"{profile_errs[0] / profile_errs[1]:.1f}), worst gap ratio "
        f"{max(gap_ratios):.3f}, degenerate pair rejected: {gate_ok}",
    )


def test_criterion_8_norm_toolkit():
    grid = Grid(half_width=16.0, n=512)
    gauss = Field.from_function(grid, lambda x: np.exp(-(x**2) / 2.0))
    lp_gap = abs(lp_norm(gauss, 2.0) - np.pi**0.25)

    # separable strip: mixed norm factors exactly for p = q
    t = (np.arange(64) + 0.5) / 64.0
    g = 1.0 + t**2
    w = _cos_field(grid)
    strip = g[:, None, None] * w.values[None, :, :]
    mixed = mixed_norm(strip, 2.0, 2.0, 1.0 / 64.0, grid.h)
    expected = float(np.sqrt(np.sum(g**2) / 64.0)) * lp_norm(w, 2.0)
    mixed_gap = abs(mixed - expected) / expected

    rng = np.random.default_rng(9)
    ratios = []
    small = Grid(half_width=16.0, n=256)
    for _ in range(10):
        f = band_limited_random(small, rng, max_mode=30, decay=1.5)
        h1 = lp_norm(f, 2.0) + lp_norm(spectral_derivative(f, 1), 2.0)
        ratios.append(besov_norm(f, s=1.0, q=2.0, p=2.0) / h1)
    besov_ok = all(0.3 <= r <= 3.0 for r in ratios)

    exponents = trace_exponents(4, 2.0)
    ok = (
        lp_gap <= 1e-6
        and mixed_gap <= 1e-12
        and besov_ok
        and exponents == (3.0, 1.0)
    )
    _conclude(
        8,
        ok,
        f"gaussian norm gap {lp_gap:.1e}, mixed-norm separability gap "
        f"{mixed_gap:.1e}, smoothness-1 ratio range "
        f"[{min(ratios):.3f}, {max(ratios):.3f}], trace exponents {exponents}",
    )


def test_criterion_9_preset_determinism(tmp_path):
    started = time.perf_counter()
    names = preset_names()
    for name in names:
        runs = []
        for i in (0, 1):
            out = tmp_path / f"{name}-{i}"
            result = run_scenario(get_preset(name), out_dir=out, preset_name=name)
            assert result.exit_code == 0, name
            runs.append(out)
        produced = sorted(p.name for p in runs[0].iterdir())
        assert produced == sorted(p.name for p in runs[1].iterdir()), name
        for fname in produced:
            if fname == "manifest.json":  # timing differs between runs
                continue
            first = (runs[0] / fname).read_bytes()
            second = (runs[1] / fname).read_bytes()
            assert first == second, f"{name}/{fname} differs between runs"
    elapsed = time.perf_counter() - started
    ok = elapsed < 300.0
    _conclude(
        9,
        ok,
        f"{len(names)} presets ran twice with byte-identical outputs "
        f"in {elapsed:.1f} s (< 300 s)",
    )
