"""Spectral-density models, memory kernels, and the rescaled kernel g(x)."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

import zenoscope
from zenoscope import spectral
from zenoscope import (
    DecaySeries,
    EnsembleResult,
    KernelMode,
    MemoryKernel,
    RateCurve,
    RateSource,
    Shape,
    SpectralDensity,
    TrajectoryRecord,
    kernel_value,
    load_tabulated_profile,
    scaled_kernel_g,
    sdf_value,
    solve_decay,
    uniform_kernel_g,
    write_csv,
)

GAMMA = 1.3
LAM = 2.7
D0 = GAMMA / (2 * math.pi)

ALL_NAMED = (Shape.LORENTZIAN, Shape.GAUSSIAN, Shape.RECTANGULAR, Shape.DOUBLE_LORENTZIAN)


def named_density(shape, lam=LAM, gamma=GAMMA, **kw):
    return SpectralDensity(shape, gamma=gamma, lam=lam, **kw)


class TestSpectralDensity:
    def test_lorentzian_peak_height(self):
        d = SpectralDensity.lorentzian(GAMMA, LAM)
        assert sdf_value(d, 0.0) == pytest.approx(D0, rel=1e-14)

    def test_lorentzian_half_height_at_width(self):
        d = SpectralDensity.lorentzian(GAMMA, LAM)
        assert sdf_value(d, LAM) == pytest.approx(D0 / 2, rel=1e-14)

    def test_rectangular_support(self):
        d = SpectralDensity.rectangular(GAMMA, LAM)
        assert sdf_value(d, 0.6 * LAM) == 0.0
        assert sdf_value(d, -0.6 * LAM) == 0.0
        assert sdf_value(d, 0.4 * LAM) == pytest.approx(D0, rel=1e-14)

    def test_gaussian_one_sigma(self):
        d = SpectralDensity.gaussian(GAMMA, LAM)
        for sign in (+1, -1):
            assert sdf_value(d, sign * LAM) == pytest.approx(D0 * math.exp(-0.5), rel=1e-14)

    def test_double_lorentzian_peak_positions(self):
        b = 1.5
        d = SpectralDensity.double_lorentzian(GAMMA, LAM, b=b)
        on_peak = sdf_value(d, b * LAM)
        expected = D0 * (1.0 + 1.0 / (1.0 + 4.0 * b * b))
        assert on_peak == pytest.approx(expected, rel=1e-14)

    def test_nonnegative_everywhere(self):
        omega = np.linspace(-40, 40, 1001)
        for shape in ALL_NAMED:
            assert np.all(sdf_value(named_density(shape), omega) >= 0)

    def test_width_deformation_is_pure_rescaling(self):
        d = SpectralDensity.gaussian(GAMMA, LAM, c=0.7)
        wide = d.with_width(4 * LAM)
        w = 0.83
        assert (wide.lam, wide.c) == (4 * LAM, 0.7)
        assert sdf_value(wide, w * wide.lam) == pytest.approx(sdf_value(d, w * d.lam), rel=1e-14)

    @pytest.mark.parametrize("kwargs", [
        dict(gamma=0.0, lam=1.0),
        dict(gamma=-1.0, lam=1.0),
        dict(gamma=1.0, lam=0.0),
        dict(gamma=1.0, lam=-2.0),
        dict(gamma=1.0, lam=1.0, b=-0.1),
        dict(gamma=math.inf, lam=1.0),
        dict(gamma=1.0, lam=math.inf),
        dict(gamma=1.0, lam=1.0, c=-math.inf),
        dict(gamma=1.0, lam=1.0, c=math.nan),
        dict(gamma=1.0, lam=1.0, b=math.inf),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SpectralDensity(Shape.LORENTZIAN, **kwargs)

    @pytest.mark.parametrize("call", [
        lambda: SpectralDensity.lorentzian(1, 1, 0.5),
        lambda: SpectralDensity.lorentzian(1, 1, omega0=0.5),
        lambda: SpectralDensity(Shape.GAUSSIAN, 1.0, 1.0, 0.5),
        lambda: SpectralDensity.tabulated(1, 1, [[0, 1], [1, 0]], 0.5),
    ], ids=["positional-constructor", "omega0-keyword", "positional-init", "positional-table"])
    def test_no_spectral_centre_and_keyword_only_detuning(self, call):
        # every kernel and rate works from the centre; a positional c would take a stale omega0
        with pytest.raises(TypeError):
            call()

    def test_table_only_for_tabulated(self):
        with pytest.raises(ValueError, match="tabulated"):
            SpectralDensity(Shape.GAUSSIAN, gamma=1, lam=1, table=[[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="table"):
            SpectralDensity(Shape.TABULATED, gamma=1, lam=1)


class TestTabulated:
    def profile(self):
        w = np.linspace(-3, 3, 61)
        return np.column_stack([w, np.exp(-0.5 * w ** 2)])

    def test_interpolation_inside_and_zero_outside(self):
        d = SpectralDensity.tabulated(GAMMA, LAM, self.profile())
        assert sdf_value(d, 0.0) == pytest.approx(D0, rel=1e-12)
        # midway between samples: linear interpolation
        w = np.asarray(self.profile())
        mid = 0.5 * (w[30, 0] + w[31, 0])
        expected = D0 * 0.5 * (w[30, 1] + w[31, 1])
        assert sdf_value(d, mid * LAM) == pytest.approx(expected, rel=1e-12)
        assert sdf_value(d, 3.5 * LAM) == 0.0
        assert sdf_value(d, -3.5 * LAM) == 0.0

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError, match="increasing"):
            SpectralDensity.tabulated(1, 1, [[0, 1], [0, 2]])
        with pytest.raises(ValueError, match="nonnegative"):
            SpectralDensity.tabulated(1, 1, [[0, 1], [1, -0.5]])
        with pytest.raises(ValueError):
            SpectralDensity.tabulated(1, 1, [[0, 1]])

    def test_load_profile_roundtrip(self, tmp_path):
        path = tmp_path / "profile.csv"
        rows = self.profile()
        with open(path, "w") as fh:
            fh.write("omega_tilde,d_tilde\n")
            for w, v in rows:
                fh.write(f"{w},{v}\n")
        table = load_tabulated_profile(path)
        np.testing.assert_allclose(table, rows)

    def test_load_profile_rejects_bad_header(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("omega,d\n0,1\n1,0\n")
        with pytest.raises(ValueError, match="header"):
            load_tabulated_profile(path)

    def test_load_profile_rejects_bad_row(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("omega_tilde,d_tilde\n0,1,7\n")
        with pytest.raises(ValueError, match="two comma-separated"):
            load_tabulated_profile(path)

    def test_tabulated_matches_analytic_lorentzian(self):
        # finely sampled Lorentzian profile reproduces the closed-form kernel
        # up to the tail mass missing beyond the table edge,
        # 2*D0*lam*(pi/2 - arctan 60) ~ 0.033*D0*lam
        w = np.linspace(-60, 60, 24001)
        d = SpectralDensity.tabulated(GAMMA, LAM, np.column_stack([w, 1 / (1 + w ** 2)]))
        ref = MemoryKernel(SpectralDensity.lorentzian(GAMMA, LAM))
        u = np.linspace(0, 3 / LAM, 16)
        dev = np.max(np.abs(kernel_value(MemoryKernel(d), u) - kernel_value(ref, u)))
        assert dev < 1.05 * 2 * (math.pi / 2 - math.atan(60)) * D0 * LAM
        assert dev > 0  # truncation is real; this is not an identity check

    def test_tabulated_has_no_analytic_mode(self):
        d = SpectralDensity.tabulated(GAMMA, LAM, self.profile())
        with pytest.raises(ValueError, match="analytic"):
            MemoryKernel(d, mode=KernelMode.ANALYTIC)
        assert MemoryKernel(d).mode is KernelMode.QUADRATURE


class TestKernelValue:
    def test_lorentzian_at_zero(self):
        k = MemoryKernel(named_density(Shape.LORENTZIAN))
        assert kernel_value(k, 0.0) == pytest.approx(-0.5j * GAMMA * LAM, rel=1e-14)

    def test_gaussian_at_zero(self):
        k = MemoryKernel(named_density(Shape.GAUSSIAN))
        assert kernel_value(k, 0.0) == pytest.approx(
            -1j * GAMMA * LAM / math.sqrt(2 * math.pi), rel=1e-14)

    def test_rectangular_small_time_limit(self):
        k = MemoryKernel(named_density(Shape.RECTANGULAR))
        limit = -1j * GAMMA * LAM / (2 * math.pi)
        assert kernel_value(k, 0.0) == pytest.approx(limit, rel=1e-14)
        assert kernel_value(k, 1e-9 / LAM) == pytest.approx(limit, rel=1e-6)

    def test_lorentzian_decay_and_phase(self):
        d = SpectralDensity.lorentzian(GAMMA, LAM, c=0.4)
        k = MemoryKernel(d)
        u = 0.9
        expected = -0.5j * GAMMA * LAM * np.exp(1j * 0.4 * LAM * u) * np.exp(-LAM * u)
        assert kernel_value(k, u) == pytest.approx(expected, rel=1e-13)

    def test_negative_time_rejected(self):
        k = MemoryKernel(named_density(Shape.GAUSSIAN))
        with pytest.raises(ValueError):
            kernel_value(k, -0.1)
        with pytest.raises(ValueError):
            scaled_kernel_g(k, -1.0)

    def test_magnitude_bounds(self):
        u = np.linspace(0, 20 / LAM, 200)
        for shape in (Shape.LORENTZIAN, Shape.GAUSSIAN):
            k = MemoryKernel(named_density(shape))
            mags = np.abs(kernel_value(k, u))
            assert np.all(mags <= abs(kernel_value(k, 0.0)) * (1 + 1e-12))
        for shape in (Shape.RECTANGULAR, Shape.DOUBLE_LORENTZIAN):
            k = MemoryKernel(named_density(shape))
            assert np.all(np.abs(kernel_value(k, u)) <= GAMMA * LAM)

    @pytest.mark.parametrize("shape", ALL_NAMED)
    @pytest.mark.parametrize("c", [0.0, 0.3])
    def test_quadrature_agrees_with_analytic(self, shape, c):
        d = named_density(shape, c=c, **({"b": 1.4} if shape is Shape.DOUBLE_LORENTZIAN else {}))
        analytic = MemoryKernel(d)
        quadrature = MemoryKernel(d, mode=KernelMode.QUADRATURE)
        u = np.linspace(0, 12 / LAM, 49)
        dev = np.max(np.abs(kernel_value(analytic, u) - kernel_value(quadrature, u)))
        assert dev < 1e-6 * GAMMA * LAM


class TestScaledKernel:
    def test_lorentzian_g_at_zero(self):
        k = MemoryKernel(named_density(Shape.LORENTZIAN))
        assert scaled_kernel_g(k, 0.0) == pytest.approx(-0.5j * GAMMA, rel=1e-14)

    def test_double_lorentzian_closed_form(self):
        k = MemoryKernel(SpectralDensity.double_lorentzian(GAMMA, LAM, b=1.0))
        x = np.linspace(0, 8, 33)
        expected = -1j * GAMMA * np.exp(-x) * np.cos(x)
        np.testing.assert_allclose(scaled_kernel_g(k, x), expected, atol=1e-14 * GAMMA)

    @pytest.mark.parametrize("shape", ALL_NAMED)
    def test_width_independence(self, shape):
        x = np.linspace(0, 20, 101)
        g_narrow = scaled_kernel_g(MemoryKernel(named_density(shape, lam=5 * GAMMA)), x)
        g_wide = scaled_kernel_g(MemoryKernel(named_density(shape, lam=100 * GAMMA)), x)
        assert np.max(np.abs(g_narrow - g_wide)) < 1e-12 * GAMMA

    def test_width_independence_quadrature(self):
        x = np.array([0.0, 0.3, 2.0, 11.0])
        for lam_a, lam_b in [(5 * GAMMA, 100 * GAMMA)]:
            ga = scaled_kernel_g(
                MemoryKernel(named_density(Shape.LORENTZIAN, lam=lam_a), mode="quadrature"), x)
            gb = scaled_kernel_g(
                MemoryKernel(named_density(Shape.LORENTZIAN, lam=lam_b), mode="quadrature"), x)
            assert np.max(np.abs(ga - gb)) < 1e-12 * GAMMA

    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_any_array_shape(self, mode):
        k = MemoryKernel(named_density(Shape.RECTANGULAR), mode=mode)
        xs = np.array([[0.0, 0.7, 3.0], [5.5, 0.2, 12.0]])
        out = scaled_kernel_g(k, xs)
        assert out.shape == (2, 3)
        for idx in np.ndindex(xs.shape):
            assert out[idx] == scaled_kernel_g(k, float(xs[idx]))

    @pytest.mark.parametrize("mode", list(KernelMode))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_rejects_non_finite_and_negative_x(self, mode, bad):
        k = MemoryKernel(named_density(Shape.RECTANGULAR), mode=mode)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            scaled_kernel_g(k, bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            scaled_kernel_g(k, np.array([0.5, bad]))

    def test_scalar_matches_array(self):
        k = MemoryKernel(named_density(Shape.GAUSSIAN, c=0.2))
        xs = np.array([0.0, 0.7, 3.0])
        arr = scaled_kernel_g(k, xs)
        for i, x in enumerate(xs):
            assert scaled_kernel_g(k, float(x)) == arr[i]


def gaussian_table(half_width=8.0, n=801):
    w = np.linspace(-half_width, half_width, n)
    return np.column_stack([w, np.exp(-0.5 * w ** 2)])


def compact_kernel(profile, c):
    density = (named_density(Shape.RECTANGULAR, c=c) if profile == "rectangular"
               else SpectralDensity.tabulated(GAMMA, LAM, gaussian_table(), c=c))
    return MemoryKernel(density, mode=KernelMode.QUADRATURE)


def per_point_sums(kernel, xs):
    """The Simpson sum of a compact-support kernel taken one ``x`` at a time."""
    return np.array([spectral._simpson_g(kernel, x) for x in np.ravel(xs)]).reshape(np.shape(xs))


def no_per_point_sums(kernel, x):
    raise AssertionError("a large batch took the per-point Simpson sum")


def counted_transforms(monkeypatch):
    """The grid length ``m`` of every chirp-z transform taken from now on, one entry a transform.

    Every transform counts, whether its plan was cached or built.
    """
    calls = []
    chirp_z = spectral._chirp_z

    def counting(a, m, theta):
        calls.append(m)
        return chirp_z(a, m, theta)

    monkeypatch.setattr(spectral, "_chirp_z", counting)
    return calls


class TestCompactBatches:
    """Compact-support batches: one chirp-z transform on a uniform grid from 0, the per-point
    Simpson sums for every other batch."""

    @pytest.mark.parametrize("layout", ["sorted", "unsorted", "repeated"])
    @pytest.mark.parametrize("c", [0.0, 0.3, -0.7])
    @pytest.mark.parametrize("profile", ["rectangular", "tabulated"])
    def test_matches_per_point_sum(self, profile, c, layout):
        kernel = compact_kernel(profile, c)
        rng = np.random.default_rng(11)
        xs = {"sorted": np.linspace(0.0, 20.0, 60),
              "unsorted": rng.uniform(0.0, 20.0, 60),
              "repeated": np.repeat(rng.uniform(0.0, 20.0, 20), 3)}[layout].reshape(6, 10)
        reference = per_point_sums(kernel, xs)
        fast = scaled_kernel_g(kernel, xs)
        assert fast.shape == (6, 10)
        assert np.max(np.abs(fast - reference)) <= 2e-15 * GAMMA
        for x in np.unique(xs):
            assert np.all(fast[xs == x] == fast[xs == x][0])

    @pytest.mark.parametrize("profile", ["rectangular", "tabulated"])
    def test_small_batches_take_the_per_point_sum(self, profile):
        # a few scattered points and a small uniform grid
        kernel = compact_kernel(profile, 0.3)
        for xs in (np.array([0.4, 3.0, 17.5]), np.linspace(0.0, 2.0, 3)):
            np.testing.assert_array_equal(scaled_kernel_g(kernel, xs), per_point_sums(kernel, xs))

    @pytest.mark.parametrize("profile, x_max", [("rectangular", 1.5), ("tabulated", 0.1)])
    def test_one_transform_from_four_grid_points(self, profile, x_max, monkeypatch):
        # on the rectangle, three points cost 0.52-0.63 ms by the per-point sums and four
        # 0.83 ms, against 0.67-0.69 ms for one transform with a cold plan and 0.31-0.33 ms
        # with a warm one; both grids keep under the step cap
        kernel = compact_kernel(profile, 0.3)
        three, four = np.linspace(0.0, x_max, 3), np.linspace(0.0, x_max, 4)
        expected = per_point_sums(kernel, three), uniform_kernel_g(kernel, x_max, 3)
        calls = counted_transforms(monkeypatch)
        np.testing.assert_array_equal(scaled_kernel_g(kernel, three), expected[0])
        assert calls == []
        np.testing.assert_array_equal(scaled_kernel_g(kernel, four), expected[1])
        assert calls == [4]

    def test_empty_batch(self):
        out = scaled_kernel_g(compact_kernel("rectangular", 0.0), np.zeros((0, 3)))
        assert out.shape == (0, 3) and out.dtype == complex

    @pytest.mark.parametrize("layout", ["from-zero", "2-d"])
    @pytest.mark.parametrize("profile, points", [("rectangular", 200), ("tabulated", 2000)])
    def test_uniform_grids_from_zero_take_one_transform(self, profile, points, layout,
                                                        monkeypatch):
        # np.linspace(0, 20, points) is the grid of uniform_kernel_g, and takes its bits
        kernel = compact_kernel(profile, 0.3)
        grid = np.linspace(0.0, 20.0, points)
        xs = grid.reshape(-1, 10) if layout == "2-d" else grid
        reference = per_point_sums(kernel, xs)
        expected = uniform_kernel_g(kernel, 20.0, points - 1).reshape(xs.shape)
        monkeypatch.setattr(spectral, "_simpson_g", no_per_point_sums)
        calls = counted_transforms(monkeypatch)
        fast = scaled_kernel_g(kernel, xs)
        assert calls == [points]
        np.testing.assert_array_equal(fast, expected)
        assert np.max(np.abs(fast - reference)) <= 2e-15 * GAMMA

    @pytest.mark.parametrize("profile, layout", [
        (profile, layout) for profile in ("rectangular", "tabulated")
        for layout in ("random-200", "random-1000", "offset-start", "permuted")
    ] + [("tabulated", "coarse-grid"), ("tabulated", "far-from-zero")])
    def test_other_points_take_the_per_point_sums(self, profile, layout, monkeypatch):
        # a [-8, 8] table on 200 points to x = 20 has a step over the cap 1/(hi - lo); there
        # one transform read 2.2e-15 Gamma against the per-point sums
        kernel = compact_kernel(profile, 0.3)
        rng = np.random.default_rng(13)
        grid = np.linspace(0.0, 20.0, 200)
        xs = {"random-200": rng.uniform(0.0, 20.0, 200),
              "random-1000": rng.uniform(0.0, 20.0, 1000),
              "offset-start": np.linspace(1.234, 7.5, 300),
              "permuted": rng.permutation(grid),
              "coarse-grid": grid,
              "far-from-zero": np.linspace(41.0, 41.5, 40)}[layout]
        reference = per_point_sums(kernel, xs)
        calls = counted_transforms(monkeypatch)
        np.testing.assert_array_equal(scaled_kernel_g(kernel, xs), reference)
        assert calls == []


def plan_cache():
    return spectral._cached_chirp_z_plan.cache_info()


class TestChirpZPlans:
    """The chirp-z plans of the last two grids are kept, read-only, and change no output bit."""

    @pytest.fixture(autouse=True)
    def cold_plans(self):
        spectral._cached_chirp_z_plan.cache_clear()
        yield
        spectral._cached_chirp_z_plan.cache_clear()

    @pytest.mark.parametrize("x_max, n", [(20.0, 399), (3.0, 64), (20.0, 2047)])
    @pytest.mark.parametrize("c", [0.0, 0.3])
    @pytest.mark.parametrize("profile", ["rectangular", "tabulated"])
    def test_warm_plans_give_the_cold_bits(self, profile, c, x_max, n):
        kernel = compact_kernel(profile, c)
        xs = np.linspace(0.0, x_max, n + 1)
        cold_uniform = uniform_kernel_g(kernel, x_max, n)
        spectral._cached_chirp_z_plan.cache_clear()
        cold_scaled = scaled_kernel_g(kernel, xs)
        warm_uniform, warm_scaled = uniform_kernel_g(kernel, x_max, n), scaled_kernel_g(kernel, xs)
        assert (plan_cache().misses, plan_cache().hits) == (1, 2)
        np.testing.assert_array_equal(warm_uniform, cold_uniform)
        np.testing.assert_array_equal(warm_scaled, cold_scaled)

    def test_repeated_samplings_build_one_plan(self):
        kernel = compact_kernel("rectangular", 0.3)
        for _ in range(3):
            uniform_kernel_g(kernel, 20.0, 199)
        scaled_kernel_g(kernel, np.linspace(0.0, 20.0, 200))
        assert (plan_cache().misses, plan_cache().hits) == (1, 3)

    def test_two_plans_are_kept(self):
        kernel = compact_kernel("rectangular", 0.3)
        for n in (199, 200, 201, 199):
            uniform_kernel_g(kernel, 20.0, n)
        assert (plan_cache().maxsize, plan_cache().currsize, plan_cache().misses) == (2, 2, 4)

    def test_plans_over_the_size_cap_are_not_kept(self):
        # with N_PANELS + 1 nodes, a grid of n + 1 points convolves over N_PANELS + n + 1 points
        kernel = compact_kernel("rectangular", 0.3)
        largest = spectral.MAX_CACHED_PLAN - spectral.N_PANELS - 1
        uniform_kernel_g(kernel, 20.0, largest + 1)
        assert (plan_cache().currsize, plan_cache().misses) == (0, 0)
        uniform_kernel_g(kernel, 20.0, largest)
        assert (plan_cache().currsize, plan_cache().misses) == (1, 1)

    def test_cached_plans_are_read_only(self):
        kernel = compact_kernel("tabulated", 0.3)
        uniform_kernel_g(kernel, 20.0, 399)
        h = spectral._simpson_rule(-8.0, 8.0)[1]
        plan = spectral._cached_chirp_z_plan(spectral.N_PANELS + 1, 400, h * (20.0 / 399))
        assert plan_cache().hits == 1
        for array in (plan.chirp, plan.filt):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_every_transform_is_counted(self, monkeypatch):
        kernel = compact_kernel("rectangular", 0.3)
        calls = counted_transforms(monkeypatch)
        for _ in range(2):
            scaled_kernel_g(kernel, np.linspace(0.0, 20.0, 200))
        assert calls == [200, 200]
        assert (plan_cache().misses, plan_cache().hits) == (1, 1)


def scipy_chirp_z(a, m, theta):
    """The chirp-z transform on ``scipy.fft``: the oracle of the bits of
    :func:`spectral._chirp_z`, which takes it on ``numpy.fft``."""
    n = a.size
    size = scipy.fft.next_fast_len(n + m - 1)
    k = np.arange(max(n, m), dtype=float)
    chirp = np.exp(-0.5j * theta * (k * k))
    filt = np.zeros(size, dtype=complex)
    filt[:m] = chirp[:m].conj()
    filt[size - n + 1:] = chirp[n - 1:0:-1].conj()
    conv = scipy.fft.ifft(scipy.fft.fft(a * chirp[:n], size) * scipy.fft.fft(filt))
    return chirp[:m] * conv[:m]


class TestNumpyFFT:
    """The chirp-z transform on ``numpy.fft`` has the bits it had on ``scipy.fft``."""

    @pytest.fixture(autouse=True)
    def cold_plans(self):
        spectral._cached_chirp_z_plan.cache_clear()
        yield
        spectral._cached_chirp_z_plan.cache_clear()

    # a rectangle's 200-point kernel grid, rate grids, a short table and, past
    # MAX_CACHED_PLAN, plans built on every call, one of them at an 11-smooth length
    @pytest.mark.parametrize("n, m", [
        (spectral.N_PANELS + 1, 200), (spectral.N_PANELS + 1, 2049), (801, 64),
        (spectral.N_PANELS + 1, spectral.MAX_CACHED_PLAN - spectral.N_PANELS + 1),
        (spectral.N_PANELS + 1, 77_000 - spectral.N_PANELS)])
    def test_chirp_z_gives_the_scipy_fft_bits(self, n, m):
        rng = np.random.default_rng(n + m)
        a = rng.uniform(0.0, 4.0, n)
        theta = rng.uniform(1e-5, 1e-3)
        expected = scipy_chirp_z(a, m, theta)
        for _ in range(2):          # cold plan, then warm where it is kept
            np.testing.assert_array_equal(spectral._chirp_z(a, m, theta), expected)

    def test_good_size_is_next_fast_len(self):
        rng = np.random.default_rng(11)
        sizes = list(range(1, 4097)) + rng.integers(4097, 2 * 10 ** 7, 400).tolist()
        assert [spectral._good_size(n) for n in sizes] == [
            scipy.fft.next_fast_len(n) for n in sizes]


class TestSimpsonRuleCache:
    """The Simpson rules of the last two supports are kept, read-only, and change no bit."""

    @pytest.fixture(autouse=True)
    def cold_rules(self):
        spectral._simpson_rule.cache_clear()
        yield
        spectral._simpson_rule.cache_clear()

    def test_a_support_builds_one_rule(self):
        kernel = compact_kernel("rectangular", 0.3)
        cold = scaled_kernel_g(kernel, np.linspace(0.0, 20.0, 200))
        np.testing.assert_array_equal(scaled_kernel_g(kernel, np.linspace(0.0, 20.0, 200)), cold)
        info = spectral._simpson_rule.cache_info()
        assert (info.maxsize, info.misses, info.hits) == (2, 1, 1)

    def test_cached_rules_are_read_only(self):
        nodes, _, weights = spectral._simpson_rule(-0.5, 0.5)
        for array in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


INFINITE = (Shape.LORENTZIAN, Shape.GAUSSIAN, Shape.DOUBLE_LORENTZIAN)


def infinite_kernels(shape, c=0.45):
    density = named_density(shape, c=c, b=1.4)
    return MemoryKernel(density, mode=KernelMode.QUADRATURE), MemoryKernel(density)


def quad_g(kernel, x):
    """``g(x)`` of an infinite-support kernel by adaptive QUADPACK quadrature at one ``x``.

    ``2 int_0^inf d_tilde(w) cos(w x) dw`` over the positive half-axis (every
    such profile is even); the reference for the double-exponential rule.
    """
    density = kernel.density
    f = lambda w: float(spectral._profile(density, w))
    if x == 0.0:
        val, _ = quad(f, 0.0, np.inf, limit=200)
    else:
        val, _ = quad(f, 0.0, np.inf, weight="cos", wvar=x, limlst=200, limit=200)
    return complex(-1j * density.d0 * 2.0 * val * np.exp(1j * density.c * x))


def untrimmed_fourier_rule(h):
    """The Ooura-Mori rule of step ``h`` out to ``|t| = 5.5``, where every weight underflows."""
    n = np.arange(math.floor(-5.5 / h), math.ceil(5.5 / h) + 1)
    nodes, weights = spectral._ooura_mori(n, h)
    keep = weights != 0.0
    return nodes[keep], weights[keep]


#: ``I(0) = int_0^inf d_tilde`` of each infinite-support profile
I_ZERO = {Shape.LORENTZIAN: math.pi / 2, Shape.GAUSSIAN: math.sqrt(math.pi / 2),
          Shape.DOUBLE_LORENTZIAN: math.pi}


class TestDoubleExponential:
    """Ooura-Mori sums of the infinite-support profiles against closed forms and QUADPACK."""

    @pytest.mark.parametrize("shape", INFINITE, ids=lambda s: s.value)
    def test_matches_analytic_kernel(self, shape):
        quadrature, analytic = infinite_kernels(shape)
        xs = np.concatenate([[0.0, 1e-300, 1e-17], np.geomspace(1e-16, 1e-6, 21),
                             np.geomspace(1e-6, 50.0, 301)])
        dev = np.abs(scaled_kernel_g(quadrature, xs) - scaled_kernel_g(analytic, xs))
        assert np.max(dev) <= 1e-13 * GAMMA

    @pytest.mark.parametrize("shape", INFINITE, ids=lambda s: s.value)
    def test_matches_quad_oracle(self, shape):
        # QUADPACK's cosine rule returns about 0 below x ~ 1e-4 (Lorentzian,
        # double Lorentzian, with an IntegrationWarning) and 2e-3 (Gaussian,
        # silently), so the oracle is read from 1e-2 on; the analytic test
        # covers the smaller x
        quadrature, _ = infinite_kernels(shape)
        xs = np.concatenate([[0.0], np.geomspace(1e-2, 50.0, 15)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            oracle = np.array([quad_g(quadrature, x) for x in xs])
        assert np.max(np.abs(scaled_kernel_g(quadrature, xs) - oracle)) <= 5e-11 * GAMMA

    @pytest.mark.parametrize("shape", INFINITE, ids=lambda s: s.value)
    def test_scalar_and_array_calls_agree(self, shape):
        # each value depends on its own x alone, refined or not
        quadrature, _ = infinite_kernels(shape, c=-0.7)
        xs = np.array([50.0, 0.0, 1e-12, 2.0, 1e-6, 0.3, 1e-17, 7.5, 2.0])
        values = scaled_kernel_g(quadrature, xs)
        for x, value in zip(xs, values):
            assert scaled_kernel_g(quadrature, float(x)) == value
        np.testing.assert_array_equal(scaled_kernel_g(quadrature, xs[::-1]), values[::-1])
        assert scaled_kernel_g(quadrature, xs.reshape(3, 3)).shape == (3, 3)

    def test_unconverged_points_are_rejected(self, monkeypatch):
        # the Gaussian at x = 1e-6 takes four halvings; allowed three, it is rejected
        monkeypatch.setattr(spectral, "DE_HALVINGS", 3)
        kernel = MemoryKernel(named_density(Shape.GAUSSIAN), mode=KernelMode.QUADRATURE)
        scaled_kernel_g(kernel, [2.0, 1e-3])
        with pytest.raises(ValueError, match="did not converge at x = 1e-06"):
            scaled_kernel_g(kernel, [2.0, 1e-6])

    @pytest.mark.parametrize("b", [10.0, 20.0, 100.0])
    def test_widely_split_peaks(self, b):
        # summed as one double peak, b = 10 failed at x = 1e-10, 20 at 1e-6, 100 at 1
        density = named_density(Shape.DOUBLE_LORENTZIAN, c=0.45, b=b)
        xs = np.array([0.0, 1e-16, 1e-10, 1e-6, 1e-3, 1.0, 7.0, 50.0])
        quadrature = scaled_kernel_g(MemoryKernel(density, mode=KernelMode.QUADRATURE), xs)
        analytic = scaled_kernel_g(MemoryKernel(density), xs)
        assert np.max(np.abs(quadrature - analytic)) <= 1e-13 * GAMMA

    @given(st.sampled_from(INFINITE), st.floats(-40.0, 40.0), st.floats(0.1, 300.0),
           st.lists(st.floats(-300.0, math.log10(50.0)), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_against_analytic_kernel(self, shape, c, b, exponents):
        density = named_density(shape, c=c, b=b)
        xs = 10.0 ** np.array(exponents)
        quadrature = scaled_kernel_g(MemoryKernel(density, mode=KernelMode.QUADRATURE), xs)
        analytic = scaled_kernel_g(MemoryKernel(density), xs)
        assert np.max(np.abs(quadrature - analytic)) <= 1e-13 * GAMMA

    def test_finest_step(self):
        assert spectral.DE_STEP / 2 ** spectral.DE_HALVINGS == 0.025 / 64

    @pytest.mark.parametrize("shape", INFINITE, ids=lambda s: s.value)
    def test_trimmed_rule_matches_untrimmed(self, shape):
        # the sums of the rule cut at |t| = DE_REACH against those of the rule out to 5.5,
        # at every step the refinement can reach
        density = named_density(shape, c=0.45, b=1.4)
        xs = np.geomspace(1e-16, 50.0, 40)
        for level in range(spectral.DE_HALVINGS + 1):
            h = spectral.DE_STEP / 2 ** level
            trimmed = spectral._de_sums(density, xs, *spectral._fourier_rule(h))
            untrimmed = spectral._de_sums(density, xs, *untrimmed_fourier_rule(h))
            assert np.max(np.abs(trimmed - untrimmed)) <= 1e-15 * I_ZERO[shape], h


def rule_caches():
    return spectral._fourier_rule, spectral._exp_sinh_rule


class TestRuleCache:
    """Each step's double-exponential rules are built once, kept read-only, and change no bit."""

    @pytest.fixture(autouse=True)
    def cold_rules(self):
        for cache in rule_caches():
            cache.cache_clear()
        yield
        for cache in rule_caches():
            cache.cache_clear()

    @pytest.mark.parametrize("shape", INFINITE, ids=lambda s: s.value)
    def test_warm_rules_give_the_cold_bits(self, shape):
        quadrature, _ = infinite_kernels(shape, c=-0.7)
        xs = np.concatenate([[0.0, 1e-17], np.geomspace(1e-12, 50.0, 60)])
        cold = scaled_kernel_g(quadrature, xs)
        np.testing.assert_array_equal(scaled_kernel_g(quadrature, xs), cold)

    def test_second_sampling_builds_no_rule(self):
        quadrature, _ = infinite_kernels(Shape.GAUSSIAN)
        xs = np.linspace(0.0, 20.0, 200)
        scaled_kernel_g(quadrature, xs)
        built = [cache.cache_info().misses for cache in rule_caches()]
        assert min(built) >= 1
        scaled_kernel_g(quadrature, xs)
        assert [cache.cache_info().misses for cache in rule_caches()] == built
        assert all(cache.cache_info().hits >= 1 for cache in rule_caches())

    def test_every_step_is_kept(self):
        for level in range(spectral.DE_HALVINGS + 1):
            for cache in rule_caches():
                cache(spectral.DE_STEP / 2 ** level)
        for cache in rule_caches():
            assert cache.cache_info().currsize == spectral.DE_HALVINGS + 1

    @pytest.mark.parametrize("rule", rule_caches(), ids=lambda rule: rule.__name__)
    def test_cached_rules_are_read_only(self, rule):
        for array in rule(spectral.DE_STEP):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


#: every kernel but the compact-support quadrature one, which rejects x past its alias bound
UNBOUNDED = [(shape, KernelMode.ANALYTIC) for shape in ALL_NAMED] + [
    (shape, KernelMode.QUADRATURE) for shape in INFINITE]


@pytest.mark.parametrize("shape, mode", UNBOUNDED,
                         ids=[f"{s.value}-{m.value}" for s, m in UNBOUNDED])
def test_kernels_stay_finite_at_large_x(shape, mode):
    # exp(i c x) overflowed to NaN at c x = inf, and the Gaussian's x*x warned from x = 1e155
    for c in (0.0, 2.0):
        kernel = MemoryKernel(SpectralDensity(shape, 1.0, 1.0, c=c), mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = scaled_kernel_g(kernel, np.array([1e155, 1e308]))
        assert np.all(np.isfinite(values)) and np.all(np.abs(values) <= 1e-150)


class TestAliasBound:
    """The Simpson sum resolves ``x`` up to ``pi/(2h)``; its 4-2 weights alias at ``pi/h``."""

    def test_alias_is_real(self):
        kernel = compact_kernel("rectangular", 0.0)
        bound = 4096 * math.pi   # h = 1/8192
        assert spectral.N_PANELS == 8192
        alias = spectral._simpson_g(kernel, 2 * bound)
        assert abs(alias) > 0.05 * GAMMA   # g(0)/3 = Gamma/(6 pi), where g itself is ~1e-5
        assert abs(scaled_kernel_g(MemoryKernel(kernel.density), 2 * bound)) < 1e-4 * GAMMA

    @pytest.mark.parametrize("profile, support, bound", [
        ("rectangular", 1.0, "12867.964"), ("tabulated", 16.0, "804.24772")])
    def test_past_the_bound_is_rejected(self, profile, support, bound):
        kernel = compact_kernel(profile, 0.3)
        last = math.pi * 8192 / (2 * support)
        scaled_kernel_g(kernel, [0.0, last])
        uniform_kernel_g(kernel, last, 8)
        beyond = last * (1 + 1e-12)
        with pytest.raises(ValueError, match=f"x = .* exceeds {bound}, the largest x"):
            scaled_kernel_g(kernel, [0.0, beyond])
        with pytest.raises(ValueError, match=f"x = .* exceeds {bound}"):
            scaled_kernel_g(kernel, 2 * last)
        with pytest.raises(ValueError, match=f"x_max = .* exceeds {bound}"):
            uniform_kernel_g(kernel, beyond, 8)

    def test_tabulated_decay_past_the_bound_is_rejected(self):
        # on [-60, 60], x = lam t_max = 250 is past 107: the last grid points held
        # an alias of 0.14-0.16 Gamma, and solve_decay convolved it
        w = np.linspace(-60.0, 60.0, 2401)
        table = np.column_stack([w, 1.0 / (1.0 + w * w)])
        kernel = MemoryKernel(SpectralDensity.tabulated(1.0, 10.0, table))
        with pytest.raises(ValueError, match="x_max = 250 exceeds 107.2"):
            solve_decay(kernel, t_max=25.0)


class TestUniformKernelG:
    """Chirp-z sampling on uniform grids against the per-point Simpson sum."""

    @staticmethod
    def compare(kernel, x_max, n, stride=1):
        # the per-point sum is the reference; a stride keeps the largest
        # grids affordable while still covering the last point
        xs = np.linspace(0.0, x_max, n + 1)
        picked = np.unique(np.r_[np.arange(0, n + 1, stride), n])
        fast = uniform_kernel_g(kernel, x_max, n)
        assert fast.shape == xs.shape
        return np.max(np.abs(fast[picked] - per_point_sums(kernel, xs[picked])))

    @pytest.mark.parametrize("c", [0.0, 0.3, -0.7])
    @pytest.mark.parametrize("profile", ["rectangular", "tabulated"])
    @pytest.mark.parametrize("x_max, n, stride", [(0.02, 32, 1), (0.97, 1988, 7)])
    def test_matches_per_point_sum(self, profile, c, x_max, n, stride):
        assert self.compare(compact_kernel(profile, c), x_max, n, stride) < 1e-12 * GAMMA

    @pytest.mark.parametrize("profile, c", [("rectangular", 0.3), ("tabulated", -0.7)])
    def test_largest_rate_grid(self, profile, c):
        # x = 20 on the rate grid of a [-8, 8] table (256 panels per unit of its reach 8):
        # 40961 points
        assert self.compare(compact_kernel(profile, c), 20.0, 40960, stride=97) < 1e-12 * GAMMA

    @pytest.mark.parametrize("kernel", [
        MemoryKernel(named_density(Shape.LORENTZIAN, c=0.3)),
        MemoryKernel(named_density(Shape.RECTANGULAR)),
        MemoryKernel(named_density(Shape.GAUSSIAN), mode=KernelMode.QUADRATURE),
    ], ids=["analytic", "analytic-rectangular", "adaptive-quadrature"])
    def test_other_kernels_are_sampled_point_by_point(self, kernel):
        assert kernel.compact_support is None
        np.testing.assert_array_equal(uniform_kernel_g(kernel, 3.7, 16),
                                      scaled_kernel_g(kernel, np.linspace(0.0, 3.7, 17)))

    def test_compact_support(self):
        table = gaussian_table(half_width=3.0, n=61)
        rect = named_density(Shape.RECTANGULAR)
        assert MemoryKernel(rect, mode=KernelMode.QUADRATURE).compact_support == (-0.5, 0.5)
        assert MemoryKernel(SpectralDensity.tabulated(GAMMA, LAM, table)).compact_support == (
            -3.0, 3.0)

    def test_rejects_bad_grids(self):
        kernel = MemoryKernel(named_density(Shape.RECTANGULAR), mode=KernelMode.QUADRATURE)
        with pytest.raises(ValueError):
            uniform_kernel_g(kernel, 1.0, 0)
        with pytest.raises(ValueError):
            uniform_kernel_g(kernel, -1.0, 8)

    @pytest.mark.parametrize("x_max, n, message", [
        (math.nan, 8, "x_max must be finite"),
        (math.inf, 8, "x_max must be finite"),
        (1.0, 10 ** 12, "n = 1000000000000 .*size budget"),
    ])
    def test_rejects_non_finite_or_oversized_grids(self, x_max, n, message):
        # unchecked, NaN returned NaN samples, inf warned, and n = 10**12 asked for 7 TiB
        kernel = MemoryKernel(named_density(Shape.RECTANGULAR), mode=KernelMode.QUADRATURE)
        with pytest.raises(ValueError, match=message):
            uniform_kernel_g(kernel, x_max, n)


#: hand-built export objects and the exact files the per-module writers produced
EXPORTS = {
    "decay": (
        DecaySeries(dt=0.1, values=np.array([1 + 0j, complex(0.6, -0.0), complex(1 / 3, -2 / 7),
                                             complex(-1e-13, 0.25)]),
                    kernel=MemoryKernel(SpectralDensity.lorentzian(1.0, 5.0))),
        "t,re_a,im_a,abs2_a\n0,1,0,1\n0.1,0.6,-0,0.36\n"
        "0.2,0.333333333333,-0.285714285714,0.192743764172\n0.3,-1e-13,0.25,0.0625\n"),
    "trajectory": (
        TrajectoryRecord(dt_step=0.1, p_e=np.array([1.0, 0.7, 0.0, 1 / 3]),
                         jumps=np.array([False, True, False]), seed=7),
        "t,p_e,jump\n0,1,0\n0.1,0.7,0\n0.2,0,1\n0.3,0.333333333333,0\n"),
    "ensemble": (
        EnsembleResult(dt_step=0.25, p_e_mean=np.array([1.0, 0.8, 2 / 3]),
                       p_e_stderr=np.array([0.0, 0.01, 1 / 30]), jump_counts=np.array([1, 2]),
                       master_seed=3),
        "t,p_e_mean,p_e_stderr\n0,1,0\n0.25,0.8,0.01\n0.5,0.666666666667,0.0333333333333\n"),
    "rates": (
        RateCurve(x_grid=np.array([0.0, 0.5, 2.0]),
                  values=np.array([0j, complex(0.1, 0.02), complex(1 / 3, -1 / 7)]),
                  source=RateSource.KK_INTEGRAL, model=SpectralDensity.gaussian(2.0, 1.0)),
        "x,re_gamma_over_Gamma,im_gamma_over_Gamma,source\n0,0,0,kk_integral\n"
        "0.5,0.05,0.01,kk_integral\n2,0.166666666667,-0.0714285714286,kk_integral\n"),
}


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_exports_are_pinned_byte_for_byte(tmp_path, name):
    obj, expected = EXPORTS[name]
    obj.to_csv(tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == expected.encode()


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "out.csv", {"t": [0.0, 1.0], "p_e": [1.0]})


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal would add most of a second to every import of the package
    code = "import sys, zenoscope; print('scipy.signal' in sys.modules)"
    src = str(Path(zenoscope.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
