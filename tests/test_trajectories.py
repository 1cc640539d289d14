"""Monte-Carlo trajectory sampler: step rule, seeding, and ensemble statistics."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from zenoscope import (
    AtomState,
    DriveConfig,
    MemoryKernel,
    SpectralDensity,
    child_seed,
    gamma_eff,
    gamma_rectangular,
    interval_amplitude,
    make_drive_config,
    make_rng,
    memory_drive_config,
    null_conditioned_power,
    run_ensemble,
    simulate_trajectory,
)
from zenoscope import trajectories
from zenoscope.trajectories import (DRAW_BLOCK, _advance, _child_seeds, _philox_keys,
                                    _seeded_uniforms)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def detection_config(x=0.2, omega=1.0, t_max=10.0):
    gx = gamma_rectangular(x)
    return make_drive_config(gx, omega=omega, t_max=t_max)


def rectangular_kernel(lam=1.0):
    return MemoryKernel(SpectralDensity.rectangular(1.0, lam))


def ac7_config(x=0.2):
    """Undriven layout of the AC7 first-jump test: 8 lifetimes, 0.005-lifetime steps."""
    gx = gamma_rectangular(x).real
    dt = 0.005 / gx
    a_bar = math.exp(-0.5 * gx * dt)
    geff = gamma_eff(a_bar, dt)
    n_steps = int(round(8.0 / (geff * dt)))
    return DriveConfig(omega=0.0, gamma_eff=geff, dt_step=dt, n_steps=n_steps), a_bar


def step(state, cfg, a_bar, epsilon):
    """``(state after one _advance update on the uniform epsilon, whether it clicked)``."""
    cw = math.cos(cfg.omega * cfg.dt_step)
    sw = math.sin(cfg.omega * cfg.dt_step)
    alpha, beta, jumped = _advance(complex(state.alpha), complex(state.beta), epsilon,
                                   complex(a_bar), cfg.gamma_eff * cfg.dt_step, cw, sw)
    return AtomState(alpha, beta), jumped


def stepwise_trajectory(initial, cfg, a_bar, seed):
    """Per-step reference loop: one ``_advance`` call per step on the same uniforms."""
    eps = make_rng(seed).random(cfg.n_steps)
    cw = math.cos(cfg.omega * cfg.dt_step)
    sw = math.sin(cfg.omega * cfg.dt_step)
    geff_dt = cfg.gamma_eff * cfg.dt_step
    alpha, beta = complex(initial.alpha), complex(initial.beta)
    p_e = np.empty(cfg.n_steps + 1)
    jumps = np.empty(cfg.n_steps, dtype=bool)
    p_e[0] = alpha.real * alpha.real + alpha.imag * alpha.imag
    for k in range(cfg.n_steps):
        alpha, beta, jumps[k] = _advance(alpha, beta, eps[k], complex(a_bar), geff_dt, cw, sw)
        p_e[k + 1] = alpha.real * alpha.real + alpha.imag * alpha.imag
    return p_e, jumps


class TestAtomState:
    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError):
            AtomState(1.0, 1.0)

    @pytest.mark.parametrize("alpha, beta", [(complex("nan"), 0j), (1.0, complex("inf")),
                                             (complex(0.0, float("nan")), 1.0)])
    def test_rejects_non_finite(self, alpha, beta):
        with pytest.raises(ValueError, match="finite"):
            AtomState(alpha, beta)

    def test_factories(self):
        assert AtomState.excited().p_excited == 1.0
        assert AtomState.ground().p_excited == 0.0


def rotate(state, angle):
    """Drive ``state`` through the Rabi angle ``angle`` in click-free steps.

    With ``gamma_eff = 0`` and ``a_bar = 1`` a step is the drive rotation
    ``exp(-i omega sigma_x dt_step)`` alone; the angle is split into steps of
    at most ``MAX_RATE_DT``.
    """
    n = max(1, math.ceil(abs(angle) / 0.05))
    cfg = DriveConfig(omega=angle / n, gamma_eff=0.0, dt_step=1.0, n_steps=n)
    for _ in range(n):
        state, jumped = step(state, cfg, 1.0, epsilon=0.5)
        assert not jumped
    return state


class TestUnitaryDrive:
    """The drive rotation of the stepper ``_advance``, with the measurement switched off."""

    def test_zero_drive_is_identity(self):
        state = AtomState(0.6, 0.8j)
        out = rotate(state, 0.0)
        assert out.alpha == state.alpha
        assert out.beta == state.beta

    def test_quarter_period_swaps_excited_into_ground(self):
        out = rotate(AtomState.excited(), math.pi / 2)
        assert out.alpha == pytest.approx(0.0, abs=1e-15)
        assert out.beta == pytest.approx(-1j, abs=1e-15)

    @pytest.mark.parametrize("angle", [0.1, 0.9, 2.3])
    def test_matches_matrix_exponential(self, angle):
        state = AtomState(0.6, 0.8j)
        propagator = expm(-1j * angle * SIGMA_X)
        expected = propagator @ np.array([state.alpha, state.beta])
        out = rotate(state, angle)
        assert out.alpha == pytest.approx(expected[0], abs=1e-14)
        assert out.beta == pytest.approx(expected[1], abs=1e-14)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi), st.floats(-3.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_preserves_norm(self, weight, phase, angle):
        alpha = math.sqrt(weight) * np.exp(1j * phase)
        beta = math.sqrt(1.0 - weight)
        out = rotate(AtomState(complex(alpha), complex(beta)), angle)
        assert abs(out.alpha) ** 2 + abs(out.beta) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestMcStep:
    """One Monte-Carlo step of ``_advance``, and the step layouts it runs on."""

    def make_cfg(self, omega=0.0):
        return DriveConfig(omega=omega, gamma_eff=0.4, dt_step=0.1, n_steps=10)

    def test_no_click_contracts_and_renormalises(self):
        cfg = self.make_cfg()
        s = 1.0 / math.sqrt(2.0)
        a_bar = 0.98
        state, jumped = step(AtomState(s, s), cfg, a_bar, epsilon=0.99)
        assert not jumped
        norm = math.sqrt((a_bar * s) ** 2 + s ** 2)
        assert state.alpha == pytest.approx(a_bar * s / norm, rel=1e-14)
        assert state.beta == pytest.approx(s / norm, rel=1e-14)

    def test_click_resets_to_ground(self):
        cfg = self.make_cfg()
        s = 1.0 / math.sqrt(2.0)
        state, jumped = step(AtomState(s * 1j, s), cfg, 0.98, epsilon=0.0)
        assert jumped
        assert state.alpha == 0.0
        assert state.beta == 1.0

    def test_vanishing_coupling_is_inert(self):
        cfg = DriveConfig(omega=0.0, gamma_eff=0.0, dt_step=0.1, n_steps=5)
        s = 1.0 / math.sqrt(2.0)
        state, jumped = step(AtomState(s, s * 1j), cfg, 1.0, epsilon=0.5)
        assert not jumped
        assert state.alpha == pytest.approx(s, rel=1e-15)
        assert state.beta == pytest.approx(s * 1j, rel=1e-15)

    def test_click_probability_scales_with_occupation(self):
        cfg = self.make_cfg()
        p1 = cfg.gamma_eff * cfg.dt_step  # occupation 1
        _, jumped = step(AtomState.excited(), cfg, 0.98, epsilon=p1 * 0.999)
        assert jumped
        _, jumped = step(AtomState.excited(), cfg, 0.98, epsilon=p1 * 1.001)
        assert not jumped
        # half occupation halves the threshold
        s = 1.0 / math.sqrt(2.0)
        _, jumped = step(AtomState(s, s), cfg, 0.98, epsilon=p1 * 0.6)
        assert not jumped

    @pytest.mark.parametrize("field", ["omega", "gamma_eff", "dt_step"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_config_rejected(self, field, value):
        params = dict(omega=0.0, gamma_eff=0.4, dt_step=0.1, n_steps=10)
        params[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DriveConfig(**params)

    def test_overcoarse_step_rejected_in_config(self):
        with pytest.raises(ValueError, match="at-most-one-photon"):
            DriveConfig(omega=0.0, gamma_eff=1.0, dt_step=0.1, n_steps=1)
        with pytest.raises(ValueError, match="omega"):
            DriveConfig(omega=1.0, gamma_eff=0.0, dt_step=0.1, n_steps=1)

    def test_impossible_null_result_rejected(self):
        # a_bar = 0 empties the excited state and the no-click branch has no state left
        cfg = self.make_cfg()
        with pytest.raises(ValueError, match="probability zero"):
            step(AtomState.excited(), cfg, 0.0, epsilon=0.99)
        with pytest.raises(ValueError, match="probability zero"):
            simulate_trajectory(AtomState.excited(), cfg, 0.0, seed=1)
        with pytest.raises(ValueError, match="probability zero"):
            run_ensemble(AtomState.excited(), cfg, 0.0, 3, master_seed=1)

    @pytest.mark.parametrize("a_bar", [math.nan, complex(0.0, math.nan), math.inf, 2.0])
    def test_rejects_nan_or_expanding_contraction(self, a_bar):
        # unchecked, NaN gave all-NaN records and a step took |a_bar| = 2
        cfg = self.make_cfg()
        with pytest.raises(ValueError, match="exceeds 1"):
            simulate_trajectory(AtomState.excited(), cfg, a_bar, seed=1)
        with pytest.raises(ValueError, match="exceeds 1"):
            run_ensemble(AtomState.excited(), cfg, a_bar, 3, master_seed=1)

    def test_step_count_over_the_size_budget_rejected(self):
        with pytest.raises(ValueError, match="n_steps = 1000000000 .*size budget"):
            DriveConfig(omega=0.0, gamma_eff=0.4, dt_step=0.1, n_steps=10 ** 9)

    def test_saturated_click_probability_rejected(self):
        with pytest.raises(ValueError, match="p1"):
            _advance(1.0 + 0.0j, 0.0j, 0.5, 1.0 + 0.0j, 1.5, 1.0, 0.0)


class TestSimulateTrajectory:
    def test_seeded_repeatability(self):
        cfg, a_bar = detection_config()
        rec1 = simulate_trajectory(AtomState.excited(), cfg, a_bar, seed=7)
        rec2 = simulate_trajectory(AtomState.excited(), cfg, a_bar, seed=7)
        assert np.array_equal(rec1.p_e, rec2.p_e)
        assert np.array_equal(rec1.jumps, rec2.jumps)
        rec3 = simulate_trajectory(AtomState.excited(), cfg, a_bar, seed=8)
        assert not np.array_equal(rec3.jumps, rec1.jumps)

    def test_matches_stepwise_updates(self):
        cfg, a_bar = detection_config(t_max=2.0)
        seed = 123
        record = simulate_trajectory(AtomState.excited(), cfg, a_bar, seed)
        eps = make_rng(seed).random(cfg.n_steps)
        state = AtomState.excited()
        for k in range(cfg.n_steps):
            state, jumped = step(state, cfg, a_bar, eps[k])
            assert jumped == record.jumps[k]
            assert state.p_excited == pytest.approx(record.p_e[k + 1], abs=1e-12)

    def test_rabi_oscillation_with_resets(self):
        # driven trajectory: a click projects to the ground state, so the
        # occupation right after a click step is exactly sin^2(omega dt)
        cfg, a_bar = detection_config(x=2.0, omega=1.0, t_max=10.0)
        record = simulate_trajectory(AtomState.excited(), cfg, a_bar, seed=8)
        assert record.jump_count >= 2
        post_click = math.sin(cfg.omega * cfg.dt_step) ** 2
        for k in np.flatnonzero(record.jumps):
            assert record.p_e[k + 1] == pytest.approx(post_click, abs=1e-12)
        assert np.max(record.p_e) > 0.5  # Rabi peaks survive between clicks

    def test_undriven_survival_follows_effective_decay(self):
        # without drive the no-click ensemble survival is (|a_bar|^2)^k, which
        # tracks exp(-gamma_eff t) to first order in the step
        gx = gamma_rectangular(0.2).real
        dt = 0.01 / gx
        a_bar = math.exp(-0.5 * gx * dt)
        geff = gamma_eff(a_bar, dt)
        n_steps = 100
        cfg = DriveConfig(omega=0.0, gamma_eff=geff, dt_step=dt, n_steps=n_steps)
        t = dt * np.arange(n_steps + 1)
        law = (a_bar ** 2) ** np.arange(n_steps + 1)
        assert np.max(np.abs(law - np.exp(-geff * t))) < 0.01
        result = run_ensemble(AtomState.excited(), cfg, a_bar, 2000, master_seed=5)
        noise = np.max(result.p_e_stderr)
        assert np.max(np.abs(result.p_e_mean - law)) < 5 * noise

    def test_record_layout(self):
        cfg, a_bar = detection_config(t_max=1.0)
        record = simulate_trajectory(AtomState.excited(), cfg, a_bar, seed=1)
        assert len(record.p_e) == cfg.n_steps + 1
        assert len(record.jumps) == cfg.n_steps
        assert record.p_e[0] == 1.0
        assert record.times[-1] == pytest.approx(cfg.t_max)
        assert np.all((record.p_e >= 0.0) & (record.p_e <= 1.0 + 1e-9))

    def test_first_jump_time(self):
        cfg, a_bar = detection_config(x=2.0, omega=1.0, t_max=10.0)
        record = simulate_trajectory(AtomState.excited(), cfg, a_bar, seed=3)
        first = record.first_jump_time()
        if record.jump_count:
            k = int(np.flatnonzero(record.jumps)[0])
            assert first == pytest.approx((k + 1) * cfg.dt_step)
        else:
            assert first is None

    def test_rejects_expanding_contraction(self):
        cfg, _ = detection_config()
        with pytest.raises(ValueError):
            simulate_trajectory(AtomState.excited(), cfg, 1.0 + 1e-4, seed=0)

    def test_csv_export(self, tmp_path):
        cfg, a_bar = detection_config(t_max=1.0)
        record = simulate_trajectory(AtomState.excited(), cfg, a_bar, seed=11)
        path = tmp_path / "traj.csv"
        record.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,p_e,jump"
        assert len(lines) == cfg.n_steps + 2
        assert lines[1].endswith(",0")
        for k, line in enumerate(lines[2:]):
            assert line.split(",")[2] == str(int(record.jumps[k]))


class TestSegmentSamplerOracle:
    """The segment sampler against the stepwise loop, bit for bit."""

    N_SEEDS = 200

    def assert_matches_stepwise(self, initial, cfg, a_bar, seeds):
        clicks = 0
        for seed in seeds:
            record = simulate_trajectory(initial, cfg, a_bar, seed)
            p_e, jumps = stepwise_trajectory(initial, cfg, a_bar, seed)
            assert np.array_equal(record.p_e, p_e), seed
            assert np.array_equal(record.jumps, jumps), seed
            clicks += record.jump_count
        return clicks

    @pytest.mark.parametrize("x", [0.02, 0.2, 2.0])
    def test_driven(self, x):
        cfg, a_bar = detection_config(x=x, omega=1.0, t_max=10.0)
        clicks = self.assert_matches_stepwise(AtomState.excited(), cfg, a_bar,
                                              range(self.N_SEEDS))
        assert clicks > 0

    def test_undriven_ac7_layout(self):
        cfg, a_bar = ac7_config()
        clicks = self.assert_matches_stepwise(AtomState.excited(), cfg, a_bar,
                                              [child_seed(2017, i) for i in range(self.N_SEEDS)])
        assert clicks > 0.99 * self.N_SEEDS

    @pytest.mark.parametrize("omega", [0.0, 1.0])
    def test_superposition_initial_state(self, omega):
        s = 1.0 / math.sqrt(2.0)
        cfg, a_bar = detection_config(x=2.0, omega=omega, t_max=10.0)
        clicks = self.assert_matches_stepwise(AtomState(s * 1j, s), cfg, a_bar,
                                              range(1000, 1000 + self.N_SEEDS))
        assert clicks > 0

    def assert_ensemble_matches_stepwise(self, initial, cfg, a_bar, n_traj, master_seed):
        """``run_ensemble`` against the reduction of the stepwise rows; returns their jumps."""
        runs = [stepwise_trajectory(initial, cfg, a_bar, child_seed(master_seed, i))
                for i in range(n_traj)]
        p_e = np.array([run[0] for run in runs])
        counts = np.array([np.count_nonzero(run[1]) for run in runs])
        result = run_ensemble(initial, cfg, a_bar, n_traj, master_seed)
        assert np.array_equal(result.p_e_mean, p_e.mean(axis=0))
        assert np.array_equal(result.p_e_stderr, p_e.std(axis=0, ddof=1) / math.sqrt(n_traj))
        assert np.array_equal(result.jump_counts, counts)
        return [run[1] for run in runs]

    def test_click_in_first_or_last_step(self):
        # undriven from |e>: every step clicks with p1 = 0.05 until the first click;
        # a click in the last step leaves an empty remainder to search, and with
        # n_steps = 1 the first step is the last
        for n_steps in (3, 1):
            cfg = DriveConfig(omega=0.0, gamma_eff=0.5, dt_step=0.1, n_steps=n_steps)
            seeds = range(200)
            self.assert_matches_stepwise(AtomState.excited(), cfg, math.sqrt(0.95), seeds)
            records = [simulate_trajectory(AtomState.excited(), cfg, math.sqrt(0.95), seed)
                       for seed in seeds]
            assert any(r.jumps[0] for r in records)
            assert any(r.jumps[-1] for r in records)
            jumps = self.assert_ensemble_matches_stepwise(AtomState.excited(), cfg,
                                                          math.sqrt(0.95), 200, master_seed=5)
            assert any(j[0] for j in jumps)
            assert any(j[-1] for j in jumps)

    def test_ensemble_matches_stepwise_reduction(self):
        cfg, a_bar = detection_config(x=2.0, omega=1.0, t_max=10.0)
        self.assert_ensemble_matches_stepwise(AtomState.excited(), cfg, a_bar, 40, master_seed=3)

    @pytest.mark.parametrize("x", [0.02, 2.0])  # mostly click-free, and click-dense
    def test_returned_records_do_not_share_state(self, x):
        cfg, a_bar = detection_config(x=x, omega=1.0, t_max=10.0)
        first = simulate_trajectory(AtomState.excited(), cfg, a_bar, seed=8)
        expected_p_e, expected_jumps = first.p_e.copy(), first.jumps.copy()
        first.p_e[:] = -1.0
        first.jumps[:] = ~first.jumps
        again = simulate_trajectory(AtomState.excited(), cfg, a_bar, seed=8)
        assert np.array_equal(again.p_e, expected_p_e)
        assert np.array_equal(again.jumps, expected_jumps)
        assert not np.shares_memory(first.p_e, again.p_e)

    def test_rejects_expanding_contraction_in_ensembles(self):
        cfg, _ = detection_config(t_max=1.0)
        with pytest.raises(ValueError, match="exceeds 1"):
            run_ensemble(AtomState.excited(), cfg, 1.0 + 1e-4, 5, master_seed=0)


def layout(**changes):
    """A short driven layout; ``changes`` replace its fields."""
    params = dict(omega=0.4, gamma_eff=0.4, dt_step=0.1, n_steps=20)
    params.update(changes)
    return DriveConfig(**params)


class TestPathCache:
    """``simulate_trajectory`` and ``run_ensemble`` share one per-layout path cache."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Empty the cache and count the no-click paths built from then on."""
        trajectories._cached_paths.cache_clear()
        calls, build = [], trajectories._no_click_path

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(trajectories, "_no_click_path", counting)
        yield calls
        trajectories._cached_paths.cache_clear()

    def test_repeated_layout_builds_nothing(self, builds):
        first = run_ensemble(AtomState.excited(), layout(), 0.98, 16, master_seed=4)
        assert len(builds) == 2   # from the initial and from the post-click state
        again = run_ensemble(AtomState.excited(), layout(), 0.98, 16, master_seed=4)
        assert len(builds) == 2
        assert np.array_equal(again.p_e_mean, first.p_e_mean)
        assert np.array_equal(again.jump_counts, first.jump_counts)
        record = simulate_trajectory(AtomState.excited(), layout(), 0.98, child_seed(4, 0))
        assert len(builds) == 2
        p_e, jumps = stepwise_trajectory(AtomState.excited(), layout(), 0.98,
                                         child_seed(4, 0))
        assert np.array_equal(record.p_e, p_e)
        assert np.array_equal(record.jumps, jumps)

    @pytest.mark.parametrize("initial, cfg, a_bar", [
        (AtomState.excited(), layout(), 0.97),
        (AtomState.excited(), layout(), 0.98j),
        (AtomState(0.6, 0.8j), layout(), 0.98),
        (AtomState.excited(), layout(omega=0.3), 0.98),
        (AtomState.excited(), layout(gamma_eff=0.2), 0.98),
        (AtomState.excited(), layout(dt_step=0.05), 0.98),
        (AtomState.excited(), layout(n_steps=21), 0.98),
    ])
    def test_each_layout_builds_its_own_paths(self, builds, initial, cfg, a_bar):
        run_ensemble(AtomState.excited(), layout(), 0.98, 4, master_seed=4)
        assert len(builds) == 2
        result = run_ensemble(initial, cfg, a_bar, 40, master_seed=4)
        assert len(builds) == 4
        rows = [stepwise_trajectory(initial, cfg, a_bar, child_seed(4, i))[0] for i in range(40)]
        assert np.array_equal(result.p_e_mean, np.mean(rows, axis=0))

    @pytest.mark.parametrize("a_bar", [2.0, 1.0 + 1e-4, math.nan, complex(0.0, math.nan)])
    def test_invalid_contraction_raises_after_a_cached_layout(self, builds, a_bar):
        run_ensemble(AtomState.excited(), layout(), 0.98, 4, master_seed=4)
        with pytest.raises(ValueError, match="exceeds 1"):
            run_ensemble(AtomState.excited(), layout(), a_bar, 4, master_seed=4)
        with pytest.raises(ValueError, match="exceeds 1"):
            simulate_trajectory(AtomState.excited(), layout(), a_bar, seed=4)
        assert len(builds) == 2

    def test_cached_paths_are_read_only_and_unshared(self, builds, monkeypatch):
        filled, fill = [], trajectories._fill_rows

        def capturing(start, after_click, seeds, p_e, counts):
            filled.append(p_e)
            fill(start, after_click, seeds, p_e, counts)

        monkeypatch.setattr(trajectories, "_fill_rows", capturing)
        cfg, a_bar = layout(), 0.98
        result = run_ensemble(AtomState.excited(), cfg, a_bar, 16, master_seed=4)
        record = simulate_trajectory(AtomState.excited(), cfg, a_bar, seed=4)
        paths = trajectories._layout_paths(AtomState.excited(), cfg, a_bar)
        assert len(builds) == 2
        arrays = [a for path in paths for a in (path.p1, path.p_e)]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5
        outputs = [*filled, result.p_e_mean, result.p_e_stderr, result.jump_counts,
                   record.p_e, record.jumps]
        assert not any(np.shares_memory(out, a) for out in outputs for a in arrays)

    def test_only_layouts_up_to_the_step_limit_are_cached(self, builds):
        limit = trajectories.MAX_CACHED_STEPS
        over = DriveConfig(omega=0.0, gamma_eff=0.4, dt_step=0.1, n_steps=limit + 1)
        simulate_trajectory(AtomState.excited(), over, 0.98, seed=4)
        assert trajectories._cached_paths.cache_info().currsize == 0
        at_limit = DriveConfig(omega=0.0, gamma_eff=0.4, dt_step=0.1, n_steps=limit)
        simulate_trajectory(AtomState.excited(), at_limit, 0.98, seed=4)
        assert trajectories._cached_paths.cache_info().currsize == 1
        assert len(builds) == 4


class TestBatchedSeeding:
    """Batched Philox keys and the reused generator against ``make_rng``."""

    EDGE_SEEDS = [0, 1, 2, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63, 2 ** 64 - 2, 2 ** 64 - 1]

    def test_keys_match_seed_sequence(self):
        seeds = [child_seed(m, i) for m in (0, 2017) for i in range(5000)]
        seeds += [child_seed(2 ** 64 - 1, i) for i in range(200)] + self.EDGE_SEEDS
        expected = np.array([np.random.SeedSequence(s).generate_state(2, np.uint64)
                             for s in seeds])
        keys = _philox_keys(seeds)
        assert keys.shape == (len(seeds), 2) and keys.dtype == np.uint64
        assert np.array_equal(keys, expected)

    @pytest.mark.parametrize("n", [1, 3, 200, 1604])
    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_uniforms_match_make_rng(self, n, block):
        seeds = (self.EDGE_SEEDS + [child_seed(n, i) for i in range(block)])[:block]
        rows = []
        for gen, eps in _seeded_uniforms(seeds, n):
            gen.random(out=eps)
            rows.append(eps.copy())
        assert len(rows) == block
        for seed, eps in zip(seeds, rows):
            assert np.array_equal(eps, make_rng(seed).random(n)), seed

    @pytest.mark.parametrize("n_traj", [1, 3])
    def test_small_ensembles_match_single_trajectories(self, n_traj):
        cfg, a_bar = detection_config(x=2.0)
        result = run_ensemble(AtomState.excited(), cfg, a_bar, n_traj, master_seed=11)
        records = [simulate_trajectory(AtomState.excited(), cfg, a_bar, child_seed(11, i))
                   for i in range(n_traj)]
        assert np.array_equal(result.p_e_mean, np.mean([r.p_e for r in records], axis=0))
        assert np.array_equal(result.jump_counts, [r.jump_count for r in records])


class CountingGenerator:
    """Forwards ``random(out=...)`` to ``gen`` and counts the variates drawn."""

    def __init__(self, gen):
        self.gen, self.drawn, self.calls = gen, 0, 0

    def random(self, *, out):
        self.drawn += out.size
        self.calls += 1
        return self.gen.random(out=out)


def dark_midway_layout():
    """Undriven from a superposition: ``p1`` underflows to 0 at step 14470 of 16000."""
    return DriveConfig(omega=0.0, gamma_eff=0.5, dt_step=0.1, n_steps=16000), math.sqrt(0.95)


class TestLazyDraws:
    """A trajectory reads its Philox stream only as far as a click is still possible."""

    @pytest.fixture
    def rows(self, monkeypatch):
        """Poison the reused buffer before each row and count each row's draws.

        A value of -1.0 lies below every click probability, dark steps' zeros
        included, so a read of a value not drawn for this row clicks.
        """
        counters, seeded = [], trajectories._seeded_uniforms

        def poisoned(seeds, n):
            for gen, eps in seeded(seeds, n):
                eps[:] = -1.0
                counters.append(CountingGenerator(gen))
                yield counters[-1], eps

        monkeypatch.setattr(trajectories, "_seeded_uniforms", poisoned)
        return counters

    @pytest.mark.parametrize("initial, cfg, a_bar", [
        (AtomState.excited(), *detection_config(x=2.0, omega=1.0, t_max=10.0)),
        (AtomState.excited(), *ac7_config()),
        (AtomState.ground(), *detection_config(x=2.0, omega=1.0, t_max=10.0)),
        (AtomState.ground(), *ac7_config()),
        (AtomState(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)), *dark_midway_layout()),
    ], ids=["driven", "undriven", "driven-ground", "undriven-ground", "dark-midway"])
    def test_poisoned_buffer_matches_single_trajectories(self, rows, initial, cfg, a_bar):
        n_traj = 8 if cfg.n_steps > 10_000 else 40
        result = run_ensemble(initial, cfg, a_bar, n_traj, master_seed=6)
        records = [simulate_trajectory(initial, cfg, a_bar, child_seed(6, i))
                   for i in range(n_traj)]
        p_e = np.array([r.p_e for r in records])
        assert len(rows) == n_traj
        assert np.array_equal(result.p_e_mean, p_e.mean(axis=0))
        assert np.array_equal(result.p_e_stderr, p_e.std(axis=0, ddof=1) / math.sqrt(n_traj))
        assert np.array_equal(result.jump_counts, [r.jump_count for r in records])

    def test_dark_midway_path_is_searched_to_its_live_end(self, rows):
        # the start path goes dark before the end: a row that does not click
        # reads the live steps of its stream and no further
        cfg, a_bar = dark_midway_layout()
        s = 1.0 / math.sqrt(2.0)
        start, after_click = trajectories._layout_paths(AtomState(s, s), cfg, a_bar)
        assert (start.live, after_click.live) == (14470, 0)
        assert start.p1[start.live - 1] > 0 and not start.p1[start.live:].any()
        result = run_ensemble(AtomState(s, s), cfg, a_bar, 8, master_seed=6)
        quiet = [c.drawn for c, k in zip(rows, result.jump_counts) if k == 0]
        assert quiet and all(d == math.ceil(14470 / DRAW_BLOCK) * DRAW_BLOCK for d in quiet)
        for seed in (child_seed(6, 0), child_seed(6, 1)):
            record = simulate_trajectory(AtomState(s, s), cfg, a_bar, seed)
            assert np.array_equal(record.p_e, stepwise_trajectory(AtomState(s, s), cfg, a_bar,
                                                                  seed)[0])

    @pytest.mark.parametrize("initial, omega, live", [
        (AtomState.excited(), 0.0, (20, 0)),
        (AtomState.ground(), 0.0, (0, 0)),
        (AtomState.excited(), 0.4, (20, 19)),
        (AtomState.ground(), 0.4, (20, 19)),
    ])
    def test_live_marks_where_the_path_goes_dark(self, initial, omega, live):
        start, after_click = trajectories._layout_paths(initial, layout(omega=omega), 0.98)
        assert (start.live, after_click.live) == live
        for path in (start, after_click):
            assert not path.p1[path.live:].any()
            assert path.live == 0 or path.p1[path.live - 1] > 0

    @pytest.mark.parametrize("split", [1, 3, 4, 5, 255, 256, 257, 1603])
    def test_split_draws_continue_the_stream(self, split):
        n, seeds = 1604, [child_seed(3, i) for i in range(3)]
        for seed in seeds:
            gen, eps = make_rng(seed), np.empty(n)
            gen.random(out=eps[:split])
            gen.random(out=eps[split:])
            assert np.array_equal(eps, make_rng(seed).random(n)), seed
        # the reused generator: a row left mid-stream does not leak into the next
        for seed, (gen, eps) in zip(seeds, _seeded_uniforms(seeds, n)):
            gen.random(out=eps[:split])
            head = eps[:split].copy()
            gen.random(out=eps[split:])
            assert np.array_equal(head, make_rng(seed).random(split)), seed
            assert np.array_equal(eps, make_rng(seed).random(n)), seed

    def test_dark_start_draws_nothing(self, rows):
        cfg, a_bar = ac7_config()
        result = run_ensemble(AtomState.ground(), cfg, a_bar, 16, master_seed=2)
        assert len(rows) == 16 and all(c.drawn == 0 for c in rows)
        assert not result.jump_counts.any()
        assert not result.p_e_mean.any() and not result.p_e_stderr.any()

    def test_undriven_rows_draw_to_their_first_click(self, rows):
        cfg, a_bar = ac7_config()
        n_traj = 64
        result = run_ensemble(AtomState.excited(), cfg, a_bar, n_traj, master_seed=2017)
        first = [simulate_trajectory(AtomState.excited(), cfg, a_bar,
                                     child_seed(2017, i)).jumps.argmax() for i in range(n_traj)]
        assert all(result.jump_counts == 1)   # the post-click path is dark
        drawn = [c.drawn for c in rows]
        for d, k in zip(drawn, first):
            assert k < d <= k + DRAW_BLOCK
        assert sum(drawn) <= n_traj * (max(first) + DRAW_BLOCK)
        assert sum(drawn) < n_traj * cfg.n_steps / 3

    @pytest.mark.parametrize("x", [0.02, 2.0])
    def test_driven_rows_draw_their_whole_stream_at_once(self, rows, x):
        # neither path goes dark: one draw of every step, however long the layout
        cfg, a_bar = detection_config(x=x, omega=1.0, t_max=30.0)
        assert cfg.n_steps > 2 * DRAW_BLOCK
        run_ensemble(AtomState.excited(), cfg, a_bar, 16, master_seed=2)
        assert [(c.drawn, c.calls) for c in rows] == [(cfg.n_steps, 1)] * 16

    @pytest.mark.parametrize("master_seed", [0, 2017, 2 ** 64 - 1])
    def test_batched_seeds_match_child_seed(self, master_seed):
        seeds = _child_seeds(master_seed, 256)
        assert seeds.dtype == np.uint64 and seeds.shape == (256,)
        assert [int(s) for s in seeds] == [child_seed(master_seed, i) for i in range(256)]

    def test_batched_seeds_match_child_seed_at_far_indices(self):
        seeds = _child_seeds(7, 10 ** 6 + 1)
        for i in (0, 9, 10, 255, 10 ** 6):
            assert int(seeds[i]) == child_seed(7, i), i


def ensemble_digest(result):
    h = hashlib.sha256()
    for a in (result.p_e_mean, result.jump_counts):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestEnsembleBitPin:
    """SHA-256 of ``run_ensemble`` outputs, pinned from per-trajectory ``make_rng`` seeding.

    The seeded statistics are part of the reproducibility contract: any
    change to their bits (seeding, sampling or reduction) fails here.
    """

    def test_driven(self):
        cfg, a_bar = detection_config(x=2.0, omega=1.0, t_max=10.0)
        result = run_ensemble(AtomState.excited(), cfg, a_bar, 64, master_seed=2017)
        assert ensemble_digest(result) == (
            "4ebf75ee4d5116c79bfa4053d953b95ebd271a0fc81dba00d4e976b5f00a069f")

    def test_undriven_ac7_layout(self):
        cfg, a_bar = ac7_config()
        result = run_ensemble(AtomState.excited(), cfg, a_bar, 64, master_seed=2017)
        assert ensemble_digest(result) == (
            "bdc548a97268fac5b1b27d66d2ecb44ead7ee8031f2e88ecb61a86eb88ca2e46")


class TestEnsemble:
    def test_single_trajectory_reduction(self):
        cfg, a_bar = detection_config(t_max=1.0)
        mean = run_ensemble(AtomState.excited(), cfg, a_bar, 1, master_seed=42).p_e_mean
        record = simulate_trajectory(AtomState.excited(), cfg, a_bar, child_seed(42, 0))
        np.testing.assert_array_equal(mean, record.p_e)

    def test_child_seeds_are_stable_and_distinct(self):
        seeds = [child_seed(9, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert seeds == [child_seed(9, i) for i in range(100)]

    def test_parallel_equals_serial(self):
        cfg, a_bar = detection_config(t_max=1.0)
        serial = run_ensemble(AtomState.excited(), cfg, a_bar, 40, master_seed=1)
        for n_jobs in (2, 3, 41):
            parallel = run_ensemble(AtomState.excited(), cfg, a_bar, 40, master_seed=1,
                                    n_jobs=n_jobs)
            np.testing.assert_array_equal(serial.p_e_mean, parallel.p_e_mean)
            np.testing.assert_array_equal(serial.p_e_stderr, parallel.p_e_stderr)
            np.testing.assert_array_equal(serial.jump_counts, parallel.jump_counts)

    def test_rows_follow_child_seeds_in_any_order(self):
        # trajectory i is simulate_trajectory from child_seed(master, i), whatever
        # order the rows are recomputed in, and the reduction is over index order
        cfg, a_bar = detection_config(x=2.0, t_max=1.0)
        result = run_ensemble(AtomState.excited(), cfg, a_bar, 40, master_seed=1)
        rows = {}
        for i in np.random.default_rng(0).permutation(40):
            rows[i] = simulate_trajectory(AtomState.excited(), cfg, a_bar, child_seed(1, i))
        p_e = np.array([rows[i].p_e for i in range(40)])
        counts = np.array([rows[i].jump_count for i in range(40)])
        assert counts.any() and not np.all(counts == counts[0])
        np.testing.assert_array_equal(result.p_e_mean, p_e.mean(axis=0))
        np.testing.assert_array_equal(result.p_e_stderr, p_e.std(axis=0, ddof=1) / math.sqrt(40))
        np.testing.assert_array_equal(result.jump_counts, counts)

    def test_stderr_needs_no_second_row_matrix(self):
        # the rows are reduced in place: peak memory holds one (n_traj, n_steps + 1) matrix
        cfg, a_bar = ac7_config()
        run_ensemble(AtomState.excited(), cfg, a_bar, 2, master_seed=1)   # paths cached
        tracemalloc.start()
        try:
            run_ensemble(AtomState.excited(), cfg, a_bar, 256, master_seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = 256 * (cfg.n_steps + 1) * 8
        assert rows < peak < 1.5 * rows

    def test_jump_counts_increase_with_x(self):
        means = []
        for x in (0.02, 0.2, 2.0):
            cfg, a_bar = detection_config(x=x, omega=1.0, t_max=10.0)
            result = run_ensemble(AtomState.excited(), cfg, a_bar, 400, master_seed=17)
            means.append(result.jump_count_mean)
        assert means[0] < means[1] < means[2]

    def test_rejects_ensemble_over_the_size_budget(self):
        cfg, a_bar = detection_config()   # 200 steps
        with pytest.raises(ValueError, match=r"n_traj\*\(n_steps\+1\) = 201000000 .*budget"):
            run_ensemble(AtomState.excited(), cfg, a_bar, 10 ** 6, master_seed=1)

    def test_rejects_empty_ensemble(self):
        cfg, a_bar = detection_config(t_max=1.0)
        with pytest.raises(ValueError):
            run_ensemble(AtomState.excited(), cfg, a_bar, 0, master_seed=0)

    def test_csv_export(self, tmp_path):
        cfg, a_bar = detection_config(t_max=1.0)
        result = run_ensemble(AtomState.excited(), cfg, a_bar, 10, master_seed=2)
        path = tmp_path / "ensemble.csv"
        result.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,p_e_mean,p_e_stderr"
        assert len(lines) == cfg.n_steps + 2


class TestDriveConfigFactory:
    def test_step_respects_both_rate_caps(self):
        gx = gamma_rectangular(2.0)  # Re ~ 0.31
        cfg, a_bar = make_drive_config(gx, omega=1.0, t_max=10.0)
        assert cfg.gamma_eff * cfg.dt_step <= 0.05 + 1e-12
        assert cfg.omega * cfg.dt_step <= 0.05 + 1e-12
        assert cfg.n_steps == pytest.approx(10.0 / cfg.dt_step)
        assert a_bar == pytest.approx(np.exp(-0.5 * gx * cfg.dt_step))
        assert gamma_eff(a_bar, cfg.dt_step) == pytest.approx(cfg.gamma_eff)

    def test_undriven_step_set_by_rate(self):
        gx = gamma_rectangular(2.0)
        cfg, _ = make_drive_config(gx, omega=0.0, t_max=10.0)
        assert cfg.dt_step == pytest.approx(0.05 / gx.real)

    def test_step_snaps_to_interval_multiple(self):
        gx = gamma_rectangular(0.2)
        tau = 0.012
        cfg, _ = memory_drive_config(rectangular_kernel(0.2 / tau), gx, omega=1.0, t_max=10.0,
                                     tau=tau)
        ratio = cfg.dt_step / tau
        assert ratio == pytest.approx(round(ratio))

    def test_interval_coarser_than_step_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            memory_drive_config(rectangular_kernel(), 0.3 + 0j, omega=1.0, t_max=10.0, tau=1.0)
        with pytest.raises(ValueError):
            make_drive_config(0.3 + 0j, omega=1.0, t_max=0.0)

    def test_interval_too_small_to_divide_the_step_rejected(self):
        # unchecked, floor(dt / tau) of an infinite ratio raises OverflowError
        with pytest.raises(ValueError, match="too small"):
            memory_drive_config(rectangular_kernel(), 0.3 + 0j, omega=0.0, t_max=1.0,
                                tau=5e-324)

    @pytest.mark.parametrize("t_max, tau, message", [
        (math.nan, None, "t_max must be positive"),
        (math.nan, 0.01, "t_max must be positive"),
        (1.0, math.nan, "tau must be positive"),
    ])
    def test_rejects_nan_lengths(self, t_max, tau, message):
        # unchecked, a NaN t_max failed the size budget and a NaN tau could not be floored
        with pytest.raises(ValueError, match=message):
            if tau is None:
                make_drive_config(0.3 + 0j, 0.0, t_max)
            else:
                memory_drive_config(rectangular_kernel(), 0.3 + 0j, 0.0, t_max, tau)

    def test_rejects_infinite_rate(self):
        # unchecked, the step 0.05 / inf = 0 ends in ZeroDivisionError
        with pytest.raises(ValueError, match="gamma"):
            make_drive_config(complex(math.inf, 0.0), omega=0.0, t_max=1.0)

    def test_rejects_infinite_t_max(self):
        # unchecked, round(t_max / dt) raises OverflowError
        with pytest.raises(ValueError, match="t_max/dt_step = inf .*size budget"):
            make_drive_config(1.0 + 0j, 0.0, math.inf)

    def test_memory_contraction_matches_scaling_form_for_wide_band(self):
        lam, x = 100.0, 0.2
        tau = x / lam
        kernel = rectangular_kernel(lam)
        gx = gamma_rectangular(x)
        cfg, a_memory = memory_drive_config(kernel, gx, omega=1.0, t_max=10.0, tau=tau)
        n_per_step = int(round(cfg.dt_step / tau))
        assert a_memory == null_conditioned_power(interval_amplitude(kernel, tau), n_per_step)
        assert a_memory == pytest.approx(np.exp(-0.5 * gx * cfg.dt_step), rel=1e-3)
