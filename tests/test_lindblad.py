"""Master-equation reference: generator structure, integrator, and invariants."""

import math

import numpy as np
import pytest
from scipy.linalg import expm, null_space

from zenoscope import DensityMatrix2, solve_master
from zenoscope.lindblad import _real_generator


def liouvillian_by_components(omega, gamma):
    """Independent 4x4 generator on (ee, eg, ge, gg), from the component ODEs.

    d ee = -i w (ge - eg) - g ee
    d eg = -i w (gg - ee) - g/2 eg
    d ge = -i w (ee - gg) - g/2 ge
    d gg = -i w (eg - ge) + g ee
    """
    w, g = omega, gamma
    return np.array([
        [-g,       1j * w,  -1j * w,  0],
        [1j * w,  -g / 2,   0,       -1j * w],
        [-1j * w,  0,       -g / 2,   1j * w],
        [g,       -1j * w,   1j * w,  0],
    ], dtype=complex)


class TestDensityMatrix2:
    def test_excited_projector(self):
        rho = DensityMatrix2.excited()
        assert rho.ee == 1.0
        assert rho.trace == 1.0
        rho.validate()

    def test_from_state(self):
        s = 1.0 / math.sqrt(2.0)
        rho = DensityMatrix2.from_state(s, s * 1j)
        assert rho.ee == pytest.approx(0.5)
        assert rho.eg == pytest.approx(-0.5j)
        rho.validate()

    def test_validate_rejects_defects(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix2(0.5, 0.1, 0.3, 0.5).validate()
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix2(0.7, 0.0, 0.0, 0.7).validate()
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix2(-0.2, 0.0, 0.0, 1.2).validate()


def components_to_real(omega, gamma):
    """``liouvillian_by_components`` in the real coordinates of ``_real_generator``."""
    # (ee, gg, Re eg, Im eg) = T (ee, eg, ge, gg), and back through T^-1
    t = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0.5, 0.5, 0], [0, -0.5j, 0.5j, 0]])
    return t @ liouvillian_by_components(omega, gamma) @ np.linalg.inv(t)


class TestRealGenerator:
    def test_gg_row_is_the_negated_ee_row(self):
        gen = _real_generator(omega=-1.7, gamma_eff=0.3)
        assert np.array_equal(gen[1], -gen[0])

    def test_matches_component_equations(self):
        rng = np.random.default_rng(5)
        pairs = [(0.0, 0.7), (0.9, 0.4), (-1.3, 0.0)] + [tuple(p) for p in rng.normal(size=(10, 2))]
        for omega, gamma in pairs:
            expected = components_to_real(omega, gamma)
            assert np.max(np.abs(expected.imag)) < 1e-15
            np.testing.assert_allclose(_real_generator(omega, gamma), expected.real,
                                       rtol=0, atol=1e-14)


class TestSolveMaster:
    def test_pure_decay_curve(self):
        gamma = 0.6
        p_e = solve_master(DensityMatrix2.excited(), omega=0.0, gamma_eff=gamma,
                           t_max=10.0, dt=0.05)
        t = 0.05 * np.arange(len(p_e))
        assert np.max(np.abs(p_e - np.exp(-gamma * t))) < 1e-6

    def test_rabi_oscillation(self):
        omega = 1.0
        p_e = solve_master(DensityMatrix2.excited(), omega=omega, gamma_eff=0.0,
                           t_max=10.0, dt=0.02)
        t = 0.02 * np.arange(len(p_e))
        assert np.max(np.abs(p_e - np.cos(omega * t) ** 2)) < 1e-6

    def test_steady_state_is_generator_null_vector(self):
        omega, gamma = 1.0, 0.5
        gen = liouvillian_by_components(omega, gamma)
        kernel = null_space(gen)
        assert kernel.shape[1] == 1
        steady = kernel[:, 0]
        steady /= steady[0] + steady[3]  # unit trace
        p_e = solve_master(DensityMatrix2.excited(), omega=omega, gamma_eff=gamma,
                           t_max=80.0, dt=0.05)
        assert p_e[-1] == pytest.approx(steady[0].real, abs=1e-8)

    def test_agrees_with_exact_propagator(self):
        omega, gamma = 0.8, 0.3
        gen = liouvillian_by_components(omega, gamma)
        t_max, dt = 6.0, 0.01
        p_e, history = solve_master(DensityMatrix2.excited(), omega=omega,
                                    gamma_eff=gamma, t_max=t_max, dt=dt,
                                    full_output=True)
        vec0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        exact = expm(gen * t_max) @ vec0
        assert p_e[-1] == pytest.approx(exact[0].real, abs=2e-9)
        np.testing.assert_allclose(history[-1].flatten(),
                                   [exact[0], exact[1], exact[2], exact[3]], atol=2e-9)

    def test_long_run_agrees_with_exact_propagator(self):
        # 16000 steps filled by increment doubling: the RK4 truncation error,
        # not round-off, sets the deviation, and the trace holds to round-off
        omega, gamma = 0.8, 0.3
        gen = liouvillian_by_components(omega, gamma)
        rho0 = DensityMatrix2.from_state(0.6, 0.8j)
        t_max, dt = 160.0, 0.01
        p_e, history = solve_master(rho0, omega=omega, gamma_eff=gamma, t_max=t_max,
                                    dt=dt, full_output=True)
        assert len(p_e) == 16001
        vec0 = rho0.matrix.ravel()
        for k in list(range(0, 16001, 997)) + [16000]:
            exact = expm(gen * k * dt) @ vec0
            np.testing.assert_allclose(history[k].ravel(), exact, rtol=0, atol=1e-9)
        assert np.max(np.abs(np.einsum("kii->k", history) - 1.0)) < 5e-14

    def test_history_is_hermitian_bit_for_bit(self):
        _, history = solve_master(DensityMatrix2.from_state(0.6, 0.8j), omega=1.3,
                                  gamma_eff=0.4, t_max=30.0, dt=0.01, full_output=True)
        assert np.array_equal(history[:, 1, 0], np.conj(history[:, 0, 1]))
        assert np.all(history[:, 0, 0].imag == 0.0)
        assert np.all(history[:, 1, 1].imag == 0.0)

    def test_propagates_the_hermitian_part(self):
        rho = DensityMatrix2(0.5, 0.3 + 0.1j, 0.1 - 0.3j, 0.5)
        hermitian = DensityMatrix2(0.5, 0.2 + 0.2j, 0.2 - 0.2j, 0.5)
        p_a, h_a = solve_master(rho, 1.0, 0.3, 2.0, 0.01, full_output=True)
        p_b, h_b = solve_master(hermitian, 1.0, 0.3, 2.0, 0.01, full_output=True)
        assert np.array_equal(p_a, p_b)
        assert np.array_equal(h_a, h_b)

    def test_trace_hermiticity_positivity_preserved(self):
        p_e, history = solve_master(DensityMatrix2.excited(), omega=1.0, gamma_eff=0.3,
                                    t_max=20.0, dt=0.05, full_output=True)
        traces = np.einsum("kii->k", history)
        assert np.max(np.abs(traces - 1.0)) < 1e-8
        herm_defect = np.max(np.abs(history - np.conj(np.swapaxes(history, 1, 2))))
        assert herm_defect < 1e-8
        eigs = np.linalg.eigvalsh(history)
        assert eigs.min() > -1e-8

    def test_fourth_order_convergence(self):
        gamma = 0.5

        def error(dt):
            p_e = solve_master(DensityMatrix2.excited(), omega=0.0, gamma_eff=gamma,
                               t_max=4.0, dt=dt)
            t = dt * np.arange(len(p_e))
            return np.max(np.abs(p_e - np.exp(-gamma * t)))

        e1, e2 = error(0.04), error(0.02)
        assert e1 / e2 >= 8.0

    @pytest.mark.parametrize("omega, gamma, t_max, dt", [
        (1.0, 0.3, 20.0, 0.05), (0.0, 0.6, 10.0, 0.01), (-0.7, 0.0, 5.0, 0.02)])
    def test_tabulated_step_matches_stagewise_rk4(self, omega, gamma, t_max, dt):
        # reference: the four RK4 stages evaluated from the component equations every step
        gen = liouvillian_by_components(omega, gamma)

        def rhs(m):
            return (gen @ m.ravel()).reshape(2, 2)

        rho = DensityMatrix2.from_state(0.6, 0.8j).matrix
        expected = [rho[0, 0].real]
        for _ in range(int(round(t_max / dt))):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * dt * k1)
            k3 = rhs(rho + 0.5 * dt * k2)
            k4 = rhs(rho + dt * k3)
            rho = rho + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = 0.5 * (rho + rho.conj().T)
            expected.append(rho[0, 0].real)
        p_e, history = solve_master(DensityMatrix2.from_state(0.6, 0.8j), omega=omega,
                                    gamma_eff=gamma, t_max=t_max, dt=dt, full_output=True)
        assert np.max(np.abs(p_e - expected)) < 1e-13
        np.testing.assert_allclose(history[-1], rho, rtol=0, atol=1e-13)

    def test_rejects_coarse_step(self):
        with pytest.raises(ValueError, match="coarse"):
            solve_master(DensityMatrix2.excited(), omega=2.0, gamma_eff=0.1,
                         t_max=1.0, dt=0.1)
        with pytest.raises(ValueError):
            solve_master(DensityMatrix2.excited(), omega=0.0, gamma_eff=0.1,
                         t_max=-1.0, dt=0.01)

    @pytest.mark.parametrize("t_max, dt, gamma_eff, message", [
        (1.0, 0.4, 0.1, "grid would end at t=0.8"),
        (0.1, 0.4, 0.1, "grid would end at t=0"),
        (1.0, 0.01, -1.0, "gamma_eff must be nonnegative"),
    ])
    def test_rejects_what_it_cannot_return(self, t_max, dt, gamma_eff, message):
        # unchecked, these returned a grid ending at 0.8, a single point, and P_e(1) = 2.718
        with pytest.raises(ValueError, match=message):
            solve_master(DensityMatrix2.excited(), 0.0, gamma_eff, t_max=t_max, dt=dt)

    def test_rejects_step_count_over_the_size_budget(self):
        # unchecked, t_max / dt = inf and round() raises OverflowError
        with pytest.raises(ValueError, match="t_max/dt = inf .*size budget"):
            solve_master(DensityMatrix2.excited(), 0.0, 0.0, t_max=1e300, dt=1e-300)

    @pytest.mark.parametrize("name", ["omega", "gamma_eff", "t_max", "dt"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, name, value):
        args = dict(omega=0.5, gamma_eff=0.1, t_max=1.0, dt=0.01)
        args[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            solve_master(DensityMatrix2.excited(), **args)
