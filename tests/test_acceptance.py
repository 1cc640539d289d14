"""Acceptance gate: figure-level reproduction targets and property bundles.

Every test pins its tolerance and runtime budget explicitly, runs the
corresponding check, and prints one PASS/FAIL line (shown in the PASSES
section of the pytest summary via ``-rA``).
"""

import math
import time

import numpy as np
from scipy.stats import kstest

from zenoscope import (
    AtomState,
    DensityMatrix2,
    DriveConfig,
    MemoryKernel,
    Shape,
    SpectralDensity,
    child_seed,
    gamma_eff,
    gamma_rectangular,
    make_drive_config,
    run_ensemble,
    scaled_kernel_g,
    simulate_trajectory,
    solve_decay,
    solve_master,
)
from zenoscope.verify import (
    DEFAULT_SEED,
    ENSEMBLE_TRAJ,
    check_closed_forms,
    check_conditioned_decay_lorentzian,
    check_decay_accuracy,
    check_ensemble_vs_lindblad,
    check_kk_equivalence,
    check_scaling_collapse,
    check_zeno_jump_ordering,
)

NAMED_SHAPES = (Shape.LORENTZIAN, Shape.GAUSSIAN, Shape.RECTANGULAR,
                Shape.DOUBLE_LORENTZIAN)


def report(name, ok, detail, elapsed):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail} [{elapsed:.1f}s]")
    return ok


def run_check(name, check_fn, budget, threshold, **kwargs):
    start = time.perf_counter()
    result = check_fn(**kwargs)
    elapsed = time.perf_counter() - start
    ok = report(name, result.passed and elapsed < budget,
                f"statistic={result.statistic:.4g} {result.op} {threshold:g}, "
                f"budget {budget:g}s", elapsed)
    assert result.threshold == threshold
    assert result.passed, result.line()
    assert elapsed < budget
    return result


def test_ac1_decay_accuracy_vs_analytic():
    run_check("AC1", check_decay_accuracy, budget=10.0, threshold=1e-3)


def test_ac2_conditioned_decay_matches_scaling_law():
    run_check("AC2", check_conditioned_decay_lorentzian, budget=30.0, threshold=0.02)


def test_ac3_width_scaling_collapse():
    run_check("AC3", check_scaling_collapse, budget=120.0, threshold=0.02)


def test_ac4_three_way_rate_equality():
    start = time.perf_counter()
    closed = check_closed_forms()
    kk = check_kk_equivalence()
    elapsed = time.perf_counter() - start
    ok = closed.passed and kk.passed and elapsed < 10.0
    report("AC4", ok,
           f"closed-vs-double={closed.statistic:.3g} < 1e-06, "
           f"double-vs-single={kk.statistic:.3g} < 1e-08, budget 10s", elapsed)
    assert closed.threshold == 1e-6 and kk.threshold == 1e-8
    assert closed.passed, closed.line()
    assert kk.passed, kk.line()
    assert elapsed < 10.0


def test_ac5_ensemble_matches_lindblad():
    assert ENSEMBLE_TRAJ == 5000
    run_check("AC5", check_ensemble_vs_lindblad, budget=120.0, threshold=0.03,
              seed=DEFAULT_SEED)


def test_ac6_jump_counts_ordered_by_x():
    assert ENSEMBLE_TRAJ == 5000
    run_check("AC6", check_zeno_jump_ordering, budget=180.0, threshold=3.0,
              seed=DEFAULT_SEED)


class TestAC7Properties:
    def test_first_jump_times_are_exponential(self):
        start = time.perf_counter()
        gx = gamma_rectangular(0.2).real
        dt = 0.005 / gx
        a_bar = math.exp(-0.5 * gx * dt)
        geff = gamma_eff(a_bar, dt)
        n_steps = int(round(8.0 / (geff * dt)))
        cfg = DriveConfig(omega=0.0, gamma_eff=geff, dt_step=dt, n_steps=n_steps)
        times = []
        for i in range(10_000):
            rec = simulate_trajectory(AtomState.excited(), cfg, a_bar,
                                      child_seed(DEFAULT_SEED, i))
            first = rec.first_jump_time()
            if first is not None:
                times.append(first)
        assert len(times) > 9950  # horizon of 8 mean lifetimes censors almost nothing
        statistic = kstest(times, "expon", args=(0, 1.0 / geff)).statistic
        elapsed = time.perf_counter() - start
        report("AC7/jump-statistics", statistic < 0.02,
               f"KS={statistic:.4f} < 0.02 over {len(times)} first jumps", elapsed)
        assert statistic < 0.02

    def test_decay_modulus_bounded(self):
        start = time.perf_counter()
        worst = 0.0
        for shape in NAMED_SHAPES:
            for lam in (1.0, 5.0):
                series = solve_decay(MemoryKernel(SpectralDensity(shape, 1.0, lam)),
                                     t_max=10.0)
                worst = max(worst, float(np.max(np.abs(series.values))))
        elapsed = time.perf_counter() - start
        report("AC7/modulus-bound", worst <= 1.0 + 1e-9,
               f"max |a| = {worst:.12f} <= 1 + 1e-9", elapsed)
        assert worst <= 1.0 + 1e-9

    def test_rescaled_kernel_width_independent(self):
        start = time.perf_counter()
        x = np.linspace(0.0, 20.0, 201)
        worst = 0.0
        for shape in NAMED_SHAPES:
            g5 = scaled_kernel_g(MemoryKernel(SpectralDensity(shape, 1.0, 5.0)), x)
            g100 = scaled_kernel_g(MemoryKernel(SpectralDensity(shape, 1.0, 100.0)), x)
            worst = max(worst, float(np.max(np.abs(g5 - g100))))
        elapsed = time.perf_counter() - start
        report("AC7/kernel-scaling", worst < 1e-12,
               f"max |g_5 - g_100| = {worst:.3g} < 1e-12", elapsed)
        assert worst < 1e-12

    def test_lindblad_state_stays_physical(self):
        start = time.perf_counter()
        _, history = solve_master(DensityMatrix2.excited(), omega=1.0, gamma_eff=0.3,
                                  t_max=20.0, dt=0.05, full_output=True)
        trace_dev = float(np.max(np.abs(np.einsum("kii->k", history) - 1.0)))
        herm_dev = float(np.max(np.abs(history - np.conj(np.swapaxes(history, 1, 2)))))
        min_eig = float(np.linalg.eigvalsh(history).min())
        ok = trace_dev < 1e-8 and herm_dev < 1e-8 and min_eig > -1e-8
        elapsed = time.perf_counter() - start
        report("AC7/lindblad-physicality", ok,
               f"trace_dev={trace_dev:.2g}, herm_dev={herm_dev:.2g}, "
               f"min_eig={min_eig:.2g}", elapsed)
        assert ok

    def test_seeded_bit_reproducibility(self):
        start = time.perf_counter()
        gx = gamma_rectangular(0.2)
        cfg, a_bar = make_drive_config(gx, omega=1.0, t_max=5.0)
        rec1 = simulate_trajectory(AtomState.excited(), cfg, a_bar, seed=1234)
        rec2 = simulate_trajectory(AtomState.excited(), cfg, a_bar, seed=1234)
        traj_ok = (np.array_equal(rec1.p_e, rec2.p_e)
                   and np.array_equal(rec1.jumps, rec2.jumps))
        ensemble = run_ensemble(AtomState.excited(), cfg, a_bar, 60, master_seed=7)
        order = np.random.default_rng(7).permutation(60)
        rows = {int(i): simulate_trajectory(AtomState.excited(), cfg, a_bar, child_seed(7, i))
                for i in order}
        ens_ok = (np.array_equal(ensemble.p_e_mean,
                                 np.array([rows[i].p_e for i in range(60)]).mean(axis=0))
                  and np.array_equal(ensemble.jump_counts,
                                     [rows[i].jump_count for i in range(60)]))
        elapsed = time.perf_counter() - start
        report("AC7/bit-reproducibility", traj_ok and ens_ok,
               f"trajectory identical={traj_ok}, ensemble order-invariant={ens_ok}",
               elapsed)
        assert traj_ok and ens_ok
