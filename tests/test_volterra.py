"""Volterra decay solver, the closed-form reference, and null-result powers."""

import cmath
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenoscope import (
    AtomState,
    KernelMode,
    MemoryKernel,
    Shape,
    SpectralDensity,
    analytic_lorentzian_a,
    default_time_step,
    gamma_lorentzian,
    kernel_value,
    null_conditioned_power,
    null_result_survival,
    solve_decay,
    spectral,
    volterra,
)
from zenoscope.trajectories import _advance


def lorentzian_kernel(lam, gamma=1.0, c=0.0):
    return MemoryKernel(SpectralDensity.lorentzian(gamma, lam, c=c))


class TestAnalyticLorentzian:
    def test_starts_at_one(self):
        assert analytic_lorentzian_a(0.0, gamma=1.0, lam=5.0) == pytest.approx(1.0)
        assert analytic_lorentzian_a(0.0, gamma=1.0, lam=5.0, energy_offset=2.0) == \
            pytest.approx(1.0)

    def test_vanishing_coupling_is_frozen(self):
        for t in (0.1, 1.0, 7.0):
            assert analytic_lorentzian_a(t, gamma=1e-14, lam=3.0) == pytest.approx(1.0, abs=1e-7)

    def test_degenerate_double_root(self):
        # lam = 2*gamma, E = 0 collapses the two exponents; limit (1 + A t)e^{-A t}
        value = analytic_lorentzian_a(1.0, gamma=1.0, lam=2.0)
        assert value == pytest.approx(2.0 / math.e, rel=1e-12)

    def test_degenerate_limit_is_continuous(self):
        near = analytic_lorentzian_a(1.0, gamma=1.0, lam=2.0 + 1e-9)
        at = analytic_lorentzian_a(1.0, gamma=1.0, lam=2.0)
        assert near == pytest.approx(at, rel=1e-8)

    def test_against_high_precision_oracle(self):
        # independent 50-digit evaluation of the two-exponential formula
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50

        def oracle(gamma, lam, energy, t):
            z = mp.mpc(lam, -energy)
            s = mp.sqrt(z * z - 2 * gamma * lam)
            ap, am = (z + s) / 2, (z - s) / 2
            return complex((ap * mp.e ** (-am * t) - am * mp.e ** (-ap * t)) / (ap - am))

        cases = [(1.0, 5.0, 0.0, 1.0), (1.0, 5.0, 1.5, 0.7), (2.0, 3.0, -0.8, 2.3)]
        for gamma, lam, energy, t in cases:
            ours = analytic_lorentzian_a(t, gamma=gamma, lam=lam, energy_offset=energy)
            assert ours == pytest.approx(oracle(gamma, lam, energy, t), rel=1e-13)
        # the degenerate point, approached by the oracle from lam = 2 + 1e-20
        ours = analytic_lorentzian_a(1.0, gamma=1.0, lam=2.0)
        ref = oracle(1, mp.mpf(2) + mp.mpf("1e-20"), 0, 1)
        assert ours == pytest.approx(ref, rel=1e-12)

    def test_frozen_values(self):
        assert analytic_lorentzian_a(1.0, 1.0, 5.0) == pytest.approx(
            0.6503045482820803, rel=1e-12)
        assert analytic_lorentzian_a(0.7, 1.0, 5.0, energy_offset=1.5) == pytest.approx(
            0.7732279219473799 - 0.0433465390696502j, rel=1e-12)

    def test_vectorised_matches_scalar(self):
        t = np.array([0.0, 0.5, 1.5])
        arr = analytic_lorentzian_a(t, 1.0, 5.0, energy_offset=0.3)
        for i, ti in enumerate(t):
            # vectorised exp may differ from the scalar path in the last ulp
            assert arr[i] == pytest.approx(
                analytic_lorentzian_a(float(ti), 1.0, 5.0, energy_offset=0.3), rel=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            analytic_lorentzian_a(-0.1, 1.0, 5.0)


class TestSolveDecay:
    def test_vanishing_coupling_keeps_amplitude(self):
        kernel = lorentzian_kernel(lam=2.0, gamma=1e-12)
        series = solve_decay(kernel, t_max=5.0, dt=0.01)
        assert np.max(np.abs(series.values - 1.0)) < 1e-10

    def test_wide_band_reaches_exponential_decay(self):
        kernel = lorentzian_kernel(lam=100.0)
        series = solve_decay(kernel, t_max=1.0)
        assert series.abs2[-1] == pytest.approx(math.exp(-1.0), rel=0.02)

    @pytest.mark.parametrize("lam", [1.0, 10.0])
    @pytest.mark.parametrize("c", [0.0, 0.5])
    def test_matches_analytic_pointwise(self, lam, c):
        kernel = lorentzian_kernel(lam=lam, c=c)
        series = solve_decay(kernel, t_max=5.0)
        exact = analytic_lorentzian_a(series.times, 1.0, lam, energy_offset=c * lam)
        assert np.max(np.abs(series.abs2 - np.abs(exact) ** 2)) < 1e-3

    def test_paper_scheme_recurrence_is_verbatim(self):
        # two steps of the rectangle-rule iteration, assembled by hand
        kernel = lorentzian_kernel(lam=2.0)
        dt = 0.05
        k = [complex(-1j * 0.5 * 1.0 * 2.0 * math.exp(-2.0 * j * dt)) for j in range(3)]
        a0 = 1.0
        a1 = a0 - 1j * dt * dt * (k[1] * a0)
        a2 = a1 - 1j * dt * dt * (k[1] * a1 + k[2] * a0)
        series = solve_decay(kernel, t_max=2 * dt, dt=dt, scheme="paper")
        assert series.values[1] == pytest.approx(a1, rel=1e-14)
        assert series.values[2] == pytest.approx(a2, rel=1e-14)

    def test_convergence_orders(self):
        kernel = lorentzian_kernel(lam=5.0)
        errors = {}
        for scheme in ("paper", "trapezoid"):
            errs = []
            for dt in (0.01, 0.005, 0.0025):
                series = solve_decay(kernel, t_max=2.0, dt=dt, scheme=scheme)
                exact = analytic_lorentzian_a(series.times, 1.0, 5.0)
                errs.append(np.max(np.abs(series.values - exact)))
            errors[scheme] = errs
        # first order halves the error (ratio ~ 2), second order quarters it
        # (ratio ~ 4); allow last-percent slack around the asymptotic ratios
        for first, second in zip(errors["paper"], errors["paper"][1:]):
            assert first / second >= 1.95
        for first, second in zip(errors["trapezoid"], errors["trapezoid"][1:]):
            assert first / second >= 3.9

    @pytest.mark.parametrize("shape", list(Shape)[:4])
    def test_modulus_bound(self, shape):
        kernel = MemoryKernel(SpectralDensity(shape, gamma=1.0, lam=2.0))
        series = solve_decay(kernel, t_max=10.0)
        assert np.max(np.abs(series.values)) <= 1.0 + 1e-9

    def test_short_time_quadratic_onset(self):
        # Zeno regime: 1 - |a|^2 grows with log-log slope 2 for t << 1/lam
        lam = 5.0
        kernel = lorentzian_kernel(lam=lam)
        series = solve_decay(kernel, t_max=0.01, dt=1e-5)
        t = series.times[1:]
        loss = 1.0 - series.abs2[1:]
        mask = (t >= 1e-3 / lam * 5) & (t <= 1e-2)
        slope = np.polyfit(np.log(t[mask]), np.log(loss[mask]), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_bit_reproducible(self):
        kernel = MemoryKernel(SpectralDensity.gaussian(1.0, 4.0, c=0.2))
        a = solve_decay(kernel, t_max=2.0).values
        b = solve_decay(kernel, t_max=2.0).values
        assert np.array_equal(a, b)

    def test_default_step_policy(self):
        assert default_time_step(lorentzian_kernel(lam=100.0)) == pytest.approx(2e-4)
        assert default_time_step(lorentzian_kernel(lam=2.0)) == pytest.approx(2e-3)

    def test_rejects_bad_steps(self):
        kernel = lorentzian_kernel(lam=5.0)
        with pytest.raises(ValueError):
            solve_decay(kernel, t_max=-1.0)
        with pytest.raises(ValueError):
            solve_decay(kernel, t_max=1.0, dt=0.0)
        with pytest.raises(ValueError):
            solve_decay(kernel, t_max=1.0, dt=2.0)
        with pytest.raises(ValueError, match="coarse"):
            solve_decay(kernel, t_max=10.0, dt=0.2)
        with pytest.raises(ValueError, match="scheme"):
            solve_decay(kernel, t_max=1.0, dt=0.01, scheme="midpoint")

    def test_rejects_explicit_step_that_misses_t_max(self):
        # round(1/0.3) = 3 steps would silently end the grid at t = 0.9
        kernel = lorentzian_kernel(lam=1.0)
        with pytest.raises(ValueError, match=r"dt=0\.3 .*t_max=1\.0.*t=0\.9\b"):
            solve_decay(kernel, t_max=1.0, dt=0.3)
        # steps that divide t_max up to round-off are accepted and end on it
        for t_max, dt in ((1.0, 0.1), (0.7, 0.7 / 400), (3.96, 0.09)):
            series = solve_decay(kernel, t_max=t_max, dt=dt)
            assert series.times[-1] == pytest.approx(t_max, rel=1e-12)

    def test_rejects_infinite_t_max(self):
        # unchecked, round(t_max / dt) raises OverflowError
        with pytest.raises(ValueError, match="size budget"):
            solve_decay(lorentzian_kernel(lam=1.0), t_max=math.inf)

    def test_rejects_grid_over_the_size_budget(self):
        with pytest.raises(ValueError, match=r"t_max/dt = 5e\+11 .*size budget"):
            solve_decay(lorentzian_kernel(lam=1.0), t_max=1e9)

    def test_default_step_keeps_rounding_to_the_nearest_step(self):
        # the default step does not divide 1.003, and the grid ends within half a step
        kernel = lorentzian_kernel(lam=5.0)
        series = solve_decay(kernel, t_max=1.003)
        dt = default_time_step(kernel)
        assert series.dt == dt
        assert abs(series.times[-1] - 1.003) <= 0.5 * dt

    def test_tabulated_kernel_matches_per_point_sampling(self, monkeypatch):
        w = np.linspace(-3.0, 3.0, 61)
        density = SpectralDensity.tabulated(1.0, 2.0, np.column_stack([w, np.exp(-0.5 * w * w)]),
                                            c=0.4)
        kernel = MemoryKernel(density)
        dt = 0.005
        fast = solve_decay(kernel, t_max=1.0, dt=dt).values

        def per_point(kernel, x_max, n):
            # the kernel on the solver's own time grid, one Simpson sum per point
            return kernel_value(kernel, dt * np.arange(n + 1)) / kernel.density.lam

        monkeypatch.setattr(volterra, "uniform_kernel_g", per_point)
        reference = solve_decay(kernel, t_max=1.0, dt=dt).values
        assert np.max(np.abs(fast - reference)) < 1e-12

    def test_abs2_matches_scalar_abs_across_blocks(self):
        # one definition of |a|^2 for abs2 and the CSV: abs(a) ** 2 of each entry, bit for bit
        n = 2 * volterra.POWER_BLOCK + 3
        rng = np.random.default_rng(20)
        values = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-9, 0, n)
        series = volterra.DecaySeries(dt=0.1, values=values, kernel=lorentzian_kernel(lam=5.0))
        assert series.abs2.tobytes() == np.array([abs(a) ** 2 for a in values]).tobytes()

    def test_csv_export(self, tmp_path):
        kernel = lorentzian_kernel(lam=5.0)
        series = solve_decay(kernel, t_max=0.1, dt=0.01)
        path = tmp_path / "decay.csv"
        series.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,re_a,im_a,abs2_a"
        assert len(lines) == len(series.values) + 1
        t, re, im, abs2 = (float(v) for v in lines[-1].split(","))
        assert t == pytest.approx(0.1)
        assert re + 1j * im == pytest.approx(series.values[-1], rel=1e-9)
        assert abs2 == pytest.approx(series.abs2[-1], rel=1e-9)


def decay_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def unit_kernel(shape, lam, mode=None):
    return MemoryKernel(SpectralDensity(shape, 1.0, lam), mode=mode)


#: digests of the rectangle's quadrature kernel, the path of the chirp-z transform
RECTANGLE_SURVIVAL = "50c1dc01dc18b55fa2cbbd9910f0523f1f95cb968c5e3476abfef47af3e5453b"
RECTANGLE_DECAY = "f65dad4fc26d39307ab4ec037df3317dab46ca4e495618f10779a1325c1f9172"


class TestDecayBitPin:
    """SHA-256 of ``null_result_survival`` and short ``solve_decay`` outputs.

    The decay path's bits are part of the reproducibility contract, so any
    change to them fails here.  The sizes are small enough that the digests
    are the same with one and with two OpenBLAS threads.
    """

    @pytest.mark.parametrize("shape, lam, mode, tau, n, digest", [
        (Shape.GAUSSIAN, 5.0, None, 0.04, 250,
         "89ceeabf84b3ebb6891952abefe2988fbd824f182863273c238b325fd09e8492"),
        (Shape.LORENTZIAN, 100.0, None, 0.0002, 2000,
         "ab82cd02a0f7aa5d0f6e67bf2e9e53c7cb0d1c25e048991367787562a704b7b1"),
        (Shape.RECTANGULAR, 1.0, KernelMode.QUADRATURE, 2.0, 5,
         RECTANGLE_SURVIVAL),
        # many blocks of powers; the second passes the -745 underflow cutoff (17 734 zeros)
        (Shape.LORENTZIAN, 100.0, None, 0.0002, 50_000,
         "8795edb7523f086b3b78b0a413e5a8f3db809731c47e32480b691a0a17eee923"),
        (Shape.LORENTZIAN, 5.0, None, 0.5, 20_000,
         "88a516dbb13d36f9006748ae3a794183e9fda9ac6d224835595519efbf029934"),
    ])
    def test_null_result_survival(self, shape, lam, mode, tau, n, digest):
        assert decay_digest(*null_result_survival(unit_kernel(shape, lam, mode), tau, n)) == digest

    def test_detuned_null_result_survival(self):
        # c != 0 makes a(tau) complex: the analytic kernel's path through the cos/sin/hypot powers
        kernel = MemoryKernel(SpectralDensity.lorentzian(1.0, 5.0, c=0.7))
        assert decay_digest(*null_result_survival(kernel, 0.04, 6000)) == (
            "991616bca80efda7fcff957f5a00b50d596c170ea4e2d589e23f8f0bf64aaf07")

    @pytest.mark.parametrize("shape, lam, mode, t_max, dt, scheme, digest", [
        (Shape.LORENTZIAN, 5.0, None, 1.0, None, "trapezoid",
         "c5e74398dfad42caafa044b344c4dd774e21d232be49a4651ee275ce9b5909de"),
        (Shape.DOUBLE_LORENTZIAN, 10.0, None, 0.5, 0.001, "paper",
         "8e20de4358abc28ecfefaabb478403958f72aa4782034efcab87266bc171cefb"),
        (Shape.RECTANGULAR, 1.0, KernelMode.QUADRATURE, 2.0, 0.01, "trapezoid",
         RECTANGLE_DECAY),
    ])
    def test_solve_decay(self, shape, lam, mode, t_max, dt, scheme, digest):
        series = solve_decay(unit_kernel(shape, lam, mode), t_max=t_max, dt=dt, scheme=scheme)
        assert decay_digest(series.values) == digest

    def test_rectangle_with_cold_and_warm_plans(self):
        # the chirp-z plans are cached between samplings; a warm plan gives the cold plan's bits
        kernel = unit_kernel(Shape.RECTANGULAR, 1.0, KernelMode.QUADRATURE)
        cache = spectral._cached_chirp_z_plan
        cache.cache_clear()
        for _ in range(2):
            assert decay_digest(*null_result_survival(kernel, 2.0, 5)) == RECTANGLE_SURVIVAL
            series = solve_decay(kernel, t_max=2.0, dt=0.01)
            assert decay_digest(series.values) == RECTANGLE_DECAY
        assert (cache.cache_info().misses, cache.cache_info().hits) == (2, 2)


class TestNullConditionedPower:
    def test_unit_amplitude(self):
        assert null_conditioned_power(1.0 + 0.0j, 1000) == 1.0 + 0.0j

    def test_frozen_power(self):
        a = math.sqrt(0.999)
        result = null_conditioned_power(a, 1000)
        assert abs(result) ** 2 == pytest.approx(0.36769542477096404, rel=1e-12)

    def test_large_n_does_not_underflow_prematurely(self):
        a = math.sqrt(1.0 - 1e-6) * np.exp(1j * 1e-3)
        result = null_conditioned_power(complex(a), 10 ** 6)
        expected_mod = math.exp(0.5e6 * math.log1p(-1e-6))
        assert abs(result) == pytest.approx(expected_mod, rel=1e-9)
        # full underflow clamps to zero instead of raising
        assert null_conditioned_power(0.1 + 0.0j, 10 ** 6) == 0.0j

    def test_phase_accumulates(self):
        a = 0.999 * np.exp(0.002j)
        result = null_conditioned_power(complex(a), 5000)
        assert result == pytest.approx(complex(a) ** 5000, rel=1e-9)

    def test_zero_exponent(self):
        assert null_conditioned_power(0.3 + 0.1j, 0) == 1.0 + 0.0j

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            null_conditioned_power(0.5 + 0.0j, -1)
        with pytest.raises(ValueError):
            null_conditioned_power(1.0 + 1e-4j, 2)

    def test_wide_band_limit_approaches_scaling_form(self):
        # at fixed x the conditioned power converges to exp(-gamma(x) t / 2)
        x, t = 0.5, 2.0
        target = np.exp(-0.5 * gamma_lorentzian(x) * t)
        devs = []
        for lam in (10.0, 100.0, 1000.0):
            tau = x / lam
            n = int(round(t / tau))
            a_tau = analytic_lorentzian_a(tau, 1.0, lam)
            devs.append(abs(null_conditioned_power(a_tau, n) - target))
        assert devs[-1] < devs[0]
        assert devs[-1] < 1e-3


def null_result(alpha, beta, a_bar):
    """State after one no-click ``_advance`` step with the drive and the click switched off."""
    state = AtomState(alpha, beta)
    alpha, beta, jumped = _advance(complex(state.alpha), complex(state.beta), 0.5,
                                   complex(a_bar), 0.0, 1.0, 0.0)
    assert not jumped
    return AtomState(alpha, beta)


class TestConditionedState:
    """Null-result conditioning of the excited amplitude, through ``_advance``."""

    def test_ground_state_unaffected(self):
        state = null_result(0.0j, 1.0 + 0.0j, a_bar=0.3 + 0.1j)
        assert state.alpha == 0.0j
        assert state.beta == pytest.approx(1.0)

    def test_identity_contraction(self):
        s = 1.0 / math.sqrt(2.0)
        state = null_result(s, s, a_bar=1.0)
        assert state.alpha == pytest.approx(s)
        assert state.beta == pytest.approx(s)

    def test_partial_contraction(self):
        s = 1.0 / math.sqrt(2.0)
        state = null_result(s, s, a_bar=0.6)
        assert state.alpha == pytest.approx(0.514495755428, rel=1e-9)
        assert state.beta == pytest.approx(0.857492925713, rel=1e-9)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            null_result(0.0j, 0.0j, 0.5)
        with pytest.raises(ValueError):
            null_result(1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="probability zero"):
            null_result(1.0, 0.0, 0.0)

    @given(st.floats(0.0, 2 * math.pi), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=50, deadline=None)
    def test_output_normalised(self, phase, weight, mod, bar_phase):
        alpha = math.sqrt(weight) * np.exp(1j * phase)
        beta = math.sqrt(1.0 - weight)
        a_bar = mod * np.exp(1j * bar_phase)
        if abs(a_bar * alpha) ** 2 + beta ** 2 == 0.0:
            # no state survives a null result: fully excited and a_bar = 0
            with pytest.raises(ValueError):
                null_result(complex(alpha), complex(beta), complex(a_bar))
            return
        state = null_result(complex(alpha), complex(beta), complex(a_bar))
        assert abs(state.alpha) ** 2 + abs(state.beta) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestNullResultSurvival:
    def test_starts_excited(self):
        kernel = lorentzian_kernel(lam=5.0)
        times, p_e = null_result_survival(kernel, tau=0.04, n_intervals=10)
        assert p_e[0] == 1.0
        assert times[-1] == pytest.approx(0.4)

    def test_rejects_interval_count_over_the_size_budget(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a(tau) solved before the size check")

        monkeypatch.setattr(volterra, "interval_amplitude", no_solve)
        with pytest.raises(ValueError, match="n_intervals = 10000000000 .*size budget"):
            null_result_survival(lorentzian_kernel(lam=5.0), tau=0.04, n_intervals=10 ** 10)

    def test_monotone_decay_without_detuning(self):
        kernel = lorentzian_kernel(lam=5.0)
        _, p_e = null_result_survival(kernel, tau=0.04, n_intervals=50)
        assert np.all(np.diff(p_e) <= 0)

    @pytest.mark.parametrize("a_tau", [
        0j,
        1 + 0j,
        complex(-1.0, 0.0),                      # phase pi
        complex(-1.0, -0.0),                     # phase -pi
        cmath.rect(1.0, 2.3),
        cmath.rect(1.0 - 1e-12, 0.0),
        cmath.rect(1.0 - 1e-12, -0.7),
        cmath.rect(1.0 + 5e-10, 0.1),            # inside check_contraction's tolerance
        cmath.rect(0.999, 0.3),
        cmath.rect(0.5, 0.0),
        cmath.rect(0.9, -1.9),                   # k log r passes -745 inside the second block
        cmath.rect(0.3, math.pi),                # ... and inside the first
        # a real positive a(tau) takes the exp-and-pow branch; a -0 phase stays on it
        complex(0.9, -0.0),                      # k log r passes -745 inside the second block
        complex(0.3, 0.0),                       # ... and inside the first
        complex(1.0 + 5e-10, 0.0),               # log r > 0
        complex(1e-300, 0.0),
    ])
    def test_blocked_powers_match_scalar_powers(self, monkeypatch, a_tau):
        # the powers are taken in blocks through libm maps; each entry must keep the bits of
        # the scalar abs(_power(a, k)) ** 2, on both sides of every block edge
        monkeypatch.setattr(volterra, "interval_amplitude", lambda *args: a_tau)
        b = volterra.POWER_BLOCK
        oracle = np.array([abs(volterra._power(a_tau, k)) ** 2 for k in range(3 * b + 8)])
        for n in (0, 1, b - 1, b, b + 1, 3 * b + 7):
            times, p_e = null_result_survival(lorentzian_kernel(lam=5.0), 0.1, n)
            assert p_e.tobytes() == oracle[:n + 1].tobytes()
        assert times.shape == p_e.shape

    @pytest.mark.parametrize("a_tau, phase_maps", [
        (complex(0.5, 0.0), False),
        (complex(0.5, -0.0), False),
        # phase pi: a real a(tau), but cos(k pi) rounds to +-1, and the power's hypot to its
        # modulus, only while k (pi - float(pi)) stays small, not for every k
        (complex(-0.5, 0.0), True),
        (complex(-1.0, -0.0), True),
        (cmath.rect(0.5, 1e-3), True),
    ])
    def test_only_a_positive_real_amplitude_skips_the_phase_maps(self, monkeypatch, a_tau,
                                                                 phase_maps):
        # exp and pow alone give abs(_power(a, k)) ** 2 by cos(+-0) = 1 and sin(+-0) = +-0
        calls = []
        cos = math.cos
        monkeypatch.setattr(math, "cos", lambda x: calls.append(x) or cos(x))
        volterra._survival(a_tau, 10)
        assert bool(calls) == phase_maps

    def test_rejects_bad_arguments(self):
        kernel = lorentzian_kernel(lam=5.0)
        with pytest.raises(ValueError):
            null_result_survival(kernel, tau=0.0, n_intervals=3)
        with pytest.raises(ValueError):
            null_result_survival(kernel, tau=0.1, n_intervals=-1)


@pytest.mark.parametrize("call, message", [
    (lambda: null_conditioned_power(math.nan, 3), "exceeds 1"),
    (lambda: null_conditioned_power(complex(0.5, math.nan), 3), "exceeds 1"),
    (lambda: null_result_survival(lorentzian_kernel(lam=5.0), math.nan, 3),
     "tau must be positive"),
], ids=["power-nan", "power-nan-imag", "survival-nan-tau"])
def test_rejects_nan(call, message):
    # unchecked, the powers were NaN and a NaN tau was reported as a bad t_max
    with pytest.raises(ValueError, match=message):
        call()
