"""Effective decay rates: closed forms, quadrature routes, and their equalities."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from test_spectral import counted_transforms

from zenoscope import (
    KernelMode,
    MemoryKernel,
    RateCurve,
    RateSource,
    Shape,
    SpectralDensity,
    gamma_closed_form,
    gamma_eff,
    gamma_gaussian,
    gamma_lorentzian,
    gamma_numeric,
    gamma_rectangular,
    rate_curve,
    rates,
    scaled_kernel_g,
    spectral,
    uniform_kernel_g,
)

from zenoscope.verify import RATE_GRID

ALL_NAMED = (Shape.LORENTZIAN, Shape.GAUSSIAN, Shape.RECTANGULAR, Shape.DOUBLE_LORENTZIAN)


def gamma_double_lorentzian(x, gamma=1.0):
    """The double peak's closed form at ``c = 0``, ``b = 1``: two Lorentzian rates at ``+-1``."""
    return gamma_closed_form(SpectralDensity.double_lorentzian(gamma, 1.0), x)


CLOSED_FORMS = {
    Shape.LORENTZIAN: gamma_lorentzian,
    Shape.GAUSSIAN: gamma_gaussian,
    Shape.RECTANGULAR: gamma_rectangular,
    Shape.DOUBLE_LORENTZIAN: gamma_double_lorentzian,
}


def reference_rate(shape, x, c=0.0):
    """The closed form of ``shape`` at ``gamma = 1`` in 650-digit arithmetic.

    Every form cancels to about ``x`` (Gaussian, rectangular: ``x^2``) of its
    terms, which costs at most 600 of the 650 digits on ``x >= 1e-300``.
    """
    with mp.workdps(650):
        x = mp.mpf(x)
        if shape is Shape.LORENTZIAN:
            kappa = mp.mpc(1, -c)
            value = 1 / kappa - (1 - mp.exp(-kappa * x)) / (kappa ** 2 * x)
        elif shape is Shape.GAUSSIAN:
            value = mp.erf(x / mp.sqrt(2)) + 2 / (mp.sqrt(2 * mp.pi) * x) * (mp.exp(-x * x / 2) - 1)
        elif shape is Shape.RECTANGULAR:
            value = 2 / mp.pi * (mp.si(x / 2) + 2 / x * (mp.cos(x / 2) - 1))
        else:
            value = 1 - mp.exp(-x) * mp.sin(x) / x
        return complex(value)


def kernel_for(shape, lam=1.0, gamma=1.0, **kw):
    return MemoryKernel(SpectralDensity(shape, gamma=gamma, lam=lam, **kw))


def single_integral_rate(kernel, x):
    """The single-integral (Kofman-Kurizki) rate at one ``x``: a one-point curve."""
    return complex(rate_curve(kernel, [x], RateSource.KK_INTEGRAL).values[0])


def tabulated_gaussian_kernel(rows=1601, c=0.0):
    w = np.linspace(-8, 8, rows)
    table = np.column_stack([w, np.exp(-0.5 * w ** 2)])
    return MemoryKernel(SpectralDensity.tabulated(1.0, 1.0, table, c=c))


class TestClosedForms:
    def test_lorentzian_at_one(self):
        # kappa = 1: 1 - (1 - e^-1) = e^-1
        assert gamma_lorentzian(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_lorentzian_detuned_long_time_limit(self):
        # 1/kappa with kappa = 1 - i c
        val = gamma_lorentzian(1e8, c=1.0)
        assert val == pytest.approx(0.5 + 0.5j, abs=1e-6)

    def test_markovian_limits(self):
        for fn in CLOSED_FORMS.values():
            assert fn(1e6).real == pytest.approx(1.0, abs=1e-4)

    def test_markovian_within_one_percent_at_200(self):
        for fn in CLOSED_FORMS.values():
            assert fn(200.0).real == pytest.approx(1.0, abs=0.01)

    def test_frozen_values(self):
        assert gamma_double_lorentzian(1.0) == pytest.approx(0.6904401243468878, rel=1e-12)
        assert gamma_gaussian(1.0) == pytest.approx(0.36874638037250724, rel=1e-12)
        assert gamma_rectangular(1.0) == pytest.approx(0.15805520906099609, rel=1e-12)

    def test_zero_is_limit_value(self):
        for fn in CLOSED_FORMS.values():
            assert fn(0.0) == 0.0

    def test_small_x_linear_onset(self):
        # gamma(x) ~ i g(0) x
        for shape, fn in CLOSED_FORMS.items():
            g0 = scaled_kernel_g(kernel_for(shape), 0.0)
            x = 0.02
            assert fn(x) == pytest.approx(1j * g0 * x, rel=0.05)
        # the documented 5% window for the Lorentzian onset, Re gamma ~ x/2
        for x in (0.01, 0.05):
            assert gamma_lorentzian(x).real == pytest.approx(x / 2, rel=0.05)

    @pytest.mark.parametrize("shape, c", [(Shape.LORENTZIAN, c) for c in (0.0, 0.7, 1e160, 1e300)]
                             + [(shape, 0.0) for shape in ALL_NAMED[1:]])
    def test_match_high_precision_reference(self, shape, c):
        # the plain forms cancel: 5.9e-9 relative at x = 1e-4, order one at 1e-8,
        # NaN for a Lorentzian with |c| > 1e154; the Taylor branch holds below 0.01
        xs = np.concatenate([np.geomspace(1e-300, 20.0, 61), np.geomspace(1e-3, 0.1, 21)])
        kw = {"c": c} if shape is Shape.LORENTZIAN else {}
        got = CLOSED_FORMS[shape](xs, **kw)
        ref = np.array([reference_rate(shape, x, c) for x in xs])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-11

    @pytest.mark.parametrize("shape, c", [(Shape.LORENTZIAN, 0.0), (Shape.LORENTZIAN, 0.7),
                                          (Shape.DOUBLE_LORENTZIAN, 0.0)])
    def test_just_above_the_series_switch(self, shape, c):
        # 1 - e^{-z} in plain arithmetic missed by 1.1e-12 at x = 0.01, c = 0 (1.4e-12 at
        # c = 0.7); -expm1(-z) leaves the cancellation of 1 against (1 - e^{-z})/z
        kw = {"c": c} if shape is Shape.LORENTZIAN else {}
        for x in (0.01, 0.02, 0.05):
            ref = reference_rate(shape, x, c)
            assert abs(CLOSED_FORMS[shape](x, **kw) - ref) <= 5e-14 * abs(ref)

    def test_lorentzian_stays_finite_for_any_finite_detuning(self):
        # kappa^2 overflowed: gamma_lorentzian(1.0, c=1e160) was nan+nanj
        for c in (1e160, -1e300, 1e308):
            values = gamma_lorentzian(np.array([1e-300, 1e-3, 1.0, 20.0]), c=c)
            assert np.all(np.isfinite(values))
            assert values[-1] == pytest.approx(1.0 / (1.0 - 1j * c), rel=1e-12)

    def test_monotone_zeno_onset(self):
        x = np.linspace(0.01, 1.0, 60)
        for fn in (gamma_lorentzian, gamma_gaussian, gamma_rectangular):
            assert np.all(np.diff(fn(x).real) > 0)

    def test_gamma_scale(self):
        assert gamma_gaussian(1.0, gamma=2.5) == pytest.approx(2.5 * gamma_gaussian(1.0))

    def test_dispatch(self):
        d = SpectralDensity.lorentzian(2.0, 1.0, c=0.3)
        assert gamma_closed_form(d, 1.0) == pytest.approx(gamma_lorentzian(1.0, c=0.3, gamma=2.0))
        with pytest.raises(ValueError, match="c = 0"):
            gamma_closed_form(SpectralDensity.gaussian(1.0, 1.0, c=0.3), 1.0)
        # the double peak's kernel is two Lorentzian kernels detuned by c +- b: a closed
        # form at every c and b, checked against the double integral
        for c, b in [(0.3, 2.5), (-1.7, 1.0), (4.0, 2.5), (0.0, 0.0)]:
            d = SpectralDensity.double_lorentzian(1.3, 1.0, c=c, b=b)
            for x in (0.005, 0.4, 3.0, 12.0):
                numeric = gamma_numeric(MemoryKernel(d), x)
                assert gamma_closed_form(d, x) == pytest.approx(numeric, rel=1e-8)
        tab = SpectralDensity.tabulated(1.0, 1.0, [[-1, 1], [0, 1], [1, 1]])
        with pytest.raises(ValueError, match="closed-form"):
            gamma_closed_form(tab, 1.0)


#: the ports from Cephes -> their oracles in scipy.special
PORTS = {"erf": (rates._erf, scipy.special.erf),
         "si": (rates._si, lambda x: scipy.special.sici(x)[0])}


def branch_points():
    """0, five floats on either side of each branch cut (Cephes's ``Si`` asymptote at 1e9,
    which SciPy's copy does not take, and the port's clip at ``_BIG`` too), and the largest
    and infinite ``x``; each with both signs."""
    xs = [0.0, np.finfo(float).max, math.inf]
    for cut in (1.0, 4.0, 8.0, math.sqrt(rates._MAXLOG), 1e9, rates._BIG):
        for direction in (0.0, math.inf):
            x = cut
            for _ in range(5):
                xs.append(x)
                x = math.nextafter(x, direction)
    return np.array(xs + [-x for x in xs])


def port_points():
    """:func:`branch_points` and 1e5 log-uniform ``x`` on ``[1e-300, 1e12]``, both signs."""
    spread = np.exp(np.random.default_rng(32).uniform(math.log(1e-300), math.log(1e12), 100_000))
    return np.concatenate([branch_points(), spread, -spread])


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestCephesPorts:
    """``erf`` and ``Si``, ported from Cephes, have scipy.special's bits on every branch."""

    POINTS = port_points()

    @pytest.mark.parametrize("name", sorted(PORTS))
    def test_arrays_have_the_scipy_bits(self, name):
        port, oracle = PORTS[name]
        np.testing.assert_array_equal(bits(port(self.POINTS)), bits(oracle(self.POINTS)))

    @pytest.mark.parametrize("name", sorted(PORTS))
    def test_scalars_have_the_scipy_bits(self, name):
        port, oracle = PORTS[name]
        xs = np.concatenate([branch_points(), self.POINTS[::10]])
        got = [port(x) for x in xs.tolist()]
        assert {type(value) for value in got} == {float}
        np.testing.assert_array_equal(bits(got), bits(oracle(xs)))
        assert type(port(np.float64(0.5))) is float

    @pytest.mark.parametrize("name", sorted(PORTS))
    def test_nan_and_shape(self, name):
        port, _ = PORTS[name]
        assert math.isnan(port(math.nan))
        grid = np.array([[math.nan, 0.5, 3.0], [6.0, 20.0, 2e9]])
        out = port(grid)
        assert out.shape == grid.shape and np.isnan(out[0, 0]) and np.isfinite(out[:, 1:]).all()


class TestNumericRoutes:
    def test_zero_returns_zero(self):
        k = kernel_for(Shape.GAUSSIAN)
        assert gamma_numeric(k, 0.0) == 0.0j
        assert single_integral_rate(k, 0.0) == 0.0j

    def test_negative_rejected(self):
        k = kernel_for(Shape.GAUSSIAN)
        with pytest.raises(ValueError):
            gamma_numeric(k, -1.0)
        with pytest.raises(ValueError):
            single_integral_rate(k, -0.5)

    @pytest.mark.parametrize("shape", ALL_NAMED)
    def test_double_integral_matches_closed_form(self, shape):
        k = kernel_for(shape)
        fn = CLOSED_FORMS[shape]
        for x in (0.01, 0.3, 1.0, 5.0, 20.0):
            assert gamma_numeric(k, x) == pytest.approx(fn(x), rel=1e-6)

    @pytest.mark.parametrize("shape", ALL_NAMED)
    def test_single_integral_equals_double(self, shape):
        k = kernel_for(shape)
        for x in (0.01, 0.3, 1.0, 5.0, 20.0):
            a, b = gamma_numeric(k, x), single_integral_rate(k, x)
            assert abs(a - b) <= 1e-8 * abs(a)

    def test_detuned_routes_agree(self):
        # c != 0 has no non-Lorentzian closed form; the two numeric routes
        # still must coincide
        k = kernel_for(Shape.GAUSSIAN, c=0.7)
        for x in (0.5, 2.0):
            a, b = gamma_numeric(k, x), single_integral_rate(k, x)
            assert abs(a - b) <= 1e-8 * abs(a)

    def test_width_independence(self):
        for mode in (KernelMode.ANALYTIC, KernelMode.QUADRATURE):
            shapes = ALL_NAMED if mode is KernelMode.ANALYTIC else (Shape.LORENTZIAN,)
            for shape in shapes:
                k5 = MemoryKernel(SpectralDensity(shape, gamma=1.0, lam=5.0), mode=mode)
                k100 = MemoryKernel(SpectralDensity(shape, gamma=1.0, lam=100.0), mode=mode)
                for x in (0.1, 2.0):
                    a, b = gamma_numeric(k5, x), gamma_numeric(k100, x)
                    assert abs(a - b) <= 1e-10 * abs(a)

    @pytest.mark.parametrize("c, xs", [(100.0, [0.3, 1.0]), (-1e3, [0.02, 0.05])])
    @pytest.mark.parametrize("source", [RateSource.DOUBLE_INTEGRAL, RateSource.KK_INTEGRAL],
                             ids=lambda s: s.value)
    def test_detuned_grid_resolves_the_phase(self, source, c, xs):
        # at 2048 panels per unit whatever c, the phase e^{icx} aliased:
        # gamma_numeric gave -3.58e-4j at x = 1, c = 1e4, against +1.00e-4j,
        # and misses by 3e-4 relative at c = -1e3, x = 0.02
        k = kernel_for(Shape.LORENTZIAN, c=c)
        np.testing.assert_allclose(rate_curve(k, xs, source).values,
                                   gamma_lorentzian(np.array(xs), c=c), rtol=1e-6, atol=0)

    def test_grid_over_the_panel_cap_is_rejected(self):
        k = kernel_for(Shape.LORENTZIAN, c=1e4)
        for route in (gamma_numeric, single_integral_rate):
            with pytest.raises(ValueError, match="x = 1 at detuning c = 10000 needs"):
                route(k, 1.0)
        assert rates._panel_count(1.0, c=-0.9) == rates.PANELS_PER_UNIT

    def test_split_peak_grid_over_the_panel_cap_names_b(self):
        k = kernel_for(Shape.DOUBLE_LORENTZIAN, c=0.5, b=1e5)
        for route in (gamma_numeric, single_integral_rate):
            with pytest.raises(ValueError, match=r"x = 20 at detuning c = 0\.5 and split "
                                                 r"b = 100000 needs 5\.12e\+08 panels"):
                route(k, 20.0)

    @pytest.mark.parametrize("b", [100.0, 300.0, 1000.0])
    @pytest.mark.parametrize("source", [RateSource.DOUBLE_INTEGRAL, RateSource.KK_INTEGRAL],
                             ids=lambda s: s.value)
    def test_split_peak_grid_resolves_cos_bx(self, source, b):
        # a grid of max(1, |c|) per unit ignored the cos(b x) of the kernel and missed the
        # closed form by 1.0e-7, 8.8e-6 and 2.0e-3 relative at b = 100, 300 and 1000
        density = SpectralDensity.double_lorentzian(1.0, 1.0, c=0.0, b=b)
        xs = np.linspace(0.01, 2.0, 50)
        np.testing.assert_allclose(rate_curve(MemoryKernel(density), xs, source).values,
                                   gamma_closed_form(density, xs), rtol=1e-8, atol=0)

    @pytest.mark.parametrize("x", [0.05, 0.5])
    def test_wide_flat_table_meets_the_rectangle(self, x):
        # a flat table of width W is the rectangle at W x; on the |c| grid alone
        # W = 1600 missed it by 1.9e-6 relative at x = 0.05 and 2.1e-7 at 0.5
        width = 1600.0
        w = np.linspace(-width / 2, width / 2, 5)
        k = MemoryKernel(SpectralDensity.tabulated(1.0, 1.0, np.column_stack([w, np.ones(5)])))
        expected = gamma_rectangular(width * x)
        for route in (gamma_numeric, single_integral_rate):
            assert route(k, x) == pytest.approx(expected, rel=1e-7, abs=0)

    @pytest.mark.parametrize("c, x, n", [(0.0, 20.0, 5120), (0.3, 20.0, 5120),
                                         (-1.7, 20.0, 8704), (0.0, 0.05, 32)])
    def test_rectangle_keeps_its_grid(self, c, x, n):
        k = kernel_for(Shape.RECTANGULAR, c=c)
        assert rates._panel_count(x, c, k.compact_support) == n

    @pytest.mark.parametrize("x, n", [(0.97, 1988), (1.0, 2048), (20.0, 40960)])
    def test_benchmark_table_keeps_its_grid(self, x, n):
        w = np.linspace(-8.0, 8.0, 8001)
        table = np.column_stack([w, np.exp(-0.5 * w ** 2)])
        k = MemoryKernel(SpectralDensity.tabulated(1.0, 1.0, table))
        assert rates._panel_count(x, 0.0, k.compact_support) == n

    def test_wide_grid_over_the_panel_cap_names_the_support(self):
        w = np.linspace(-800.0, 800.0, 5)
        k = MemoryKernel(SpectralDensity.tabulated(1.0, 1.0, np.column_stack([w, np.ones(5)])))
        with pytest.raises(ValueError, match=r"x = 20 at detuning c = 0 on the support "
                                             r"\[-800, 800\] needs 4\.096e\+06"):
            gamma_numeric(k, 20.0)

    def test_rate_vanishes_towards_zero(self):
        for shape in ALL_NAMED:
            k = kernel_for(shape)
            assert abs(gamma_numeric(k, 1e-3)) < 1e-2
            assert abs(single_integral_rate(k, 1e-3)) < 1e-2

    def test_gaussian_kernel_exponent_regression(self):
        # quadrature of the actual Gaussian profile must reproduce the
        # closed-form rate; a kernel with the wrong Gaussian exponent
        # (e^{-x^2} instead of e^{-x^2/2}) misses it at the percent level
        k = MemoryKernel(SpectralDensity.gaussian(1.0, 1.0), mode=KernelMode.QUADRATURE)
        for x in (0.5, 1.0, 2.0):
            assert gamma_numeric(k, x) == pytest.approx(
                gamma_gaussian(x), rel=1e-6)

    def test_tabulated_profile_rate(self):
        k = tabulated_gaussian_kernel()
        for x in (0.5, 2.0):
            assert gamma_numeric(k, x) == pytest.approx(
                gamma_gaussian(x), rel=1e-3)


#: a curve out to X = 5: 1280 panels of h = 5/1280.  37 h, 256 h, 625 h and X
#: are nodes of both parities, read off the cumulative sums alone; the other
#: points fall between nodes, so those take a remainder
CURVE_X = 5.0
CURVE_NODES = CURVE_X / 1280 * np.array([37.0, 256.0, 625.0])
CURVE_GRID = np.sort(np.concatenate([[1e-5, 0.01, 0.3, 1.2345, 3.3], CURVE_NODES, [CURVE_X]]))
PER_X = {RateSource.DOUBLE_INTEGRAL: gamma_numeric, RateSource.KK_INTEGRAL: single_integral_rate}
NUMERIC = tuple(PER_X)


def curve_kernels():
    return [*(kernel_for(shape) for shape in ALL_NAMED), kernel_for(Shape.GAUSSIAN, c=0.7),
            tabulated_gaussian_kernel()]


class TestSinglePass:
    """Whole rate curves read off one sampling of ``g``."""

    def test_grid_has_on_and_off_node_points(self):
        nodes = np.linspace(0.0, CURVE_X, rates._panel_count(CURVE_X) + 1)
        on_node = np.isin(CURVE_GRID, nodes)
        assert on_node.sum() == 4 and (~on_node).sum() == 5

    @pytest.mark.parametrize("kernel", curve_kernels(),
                             ids=[s.value for s in ALL_NAMED] + ["gaussian-c0.7", "tabulated"])
    @pytest.mark.parametrize("source", NUMERIC, ids=lambda s: s.value)
    def test_curve_matches_per_x_rates(self, kernel, source):
        curve = rate_curve(kernel, CURVE_GRID, source).values
        per_x = np.array([PER_X[source](kernel, x) for x in CURVE_GRID])
        np.testing.assert_allclose(curve, per_x, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("source", NUMERIC, ids=lambda s: s.value)
    def test_one_point_curve_is_the_per_x_rate(self, source):
        for kernel in (kernel_for(Shape.DOUBLE_LORENTZIAN), tabulated_gaussian_kernel(101)):
            for x in (1e-3, 0.3, 2.0, 7.25):
                assert rate_curve(kernel, [x], source).values[0] == PER_X[source](kernel, x)

    @pytest.mark.parametrize("source", NUMERIC, ids=lambda s: s.value)
    def test_unsorted_and_repeated_x_keep_input_order(self, source):
        kernel = kernel_for(Shape.GAUSSIAN, c=0.7)
        xs = np.array([3.3, 0.5, 3.3, 1.2345, 0.01, 0.5])
        values = rates._numeric_rates(kernel, xs, source)
        per_x = np.array([PER_X[source](kernel, x) for x in xs])
        np.testing.assert_allclose(values, per_x, rtol=1e-11, atol=0)
        assert values[0] == values[2] and values[1] == values[5]

    @pytest.mark.parametrize("source", NUMERIC, ids=lambda s: s.value)
    def test_zero_entries_are_exactly_zero(self, source, monkeypatch):
        kernel = kernel_for(Shape.RECTANGULAR)
        values = rates._numeric_rates(kernel, [0.0, 0.5, 0.0, 2.0], source)
        assert values[0] == 0j and values[2] == 0j
        assert abs(values[1]) > 0 and abs(values[3]) > 0

        def no_sampling(*args):
            raise AssertionError("an all-zero grid samples g")

        monkeypatch.setattr(rates, "uniform_kernel_g", no_sampling)
        assert np.array_equal(rates._numeric_rates(kernel, [0.0, 0.0], source), [0j, 0j])
        assert PER_X[source](kernel, 0.0) == 0j

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1e-3])
    def test_rejects_non_finite_and_negative_x(self, bad, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("g sampled before validation")

        monkeypatch.setattr(rates, "uniform_kernel_g", no_sampling)
        kernel = kernel_for(Shape.LORENTZIAN)
        for source, per_x in PER_X.items():
            with pytest.raises(ValueError, match="finite and nonnegative"):
                per_x(kernel, bad)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                rate_curve(kernel, [0.5, bad], source)


    @pytest.mark.parametrize("x_grid, message", [
        ([[0.1, 0.2], [0.3, 0.4]], "one-dimensional"),
        ([0.5, 0.2], "strictly increasing"),
        ([0.2, 0.2], "strictly increasing"),
    ], ids=["2-d", "decreasing", "repeated"])
    @pytest.mark.parametrize("source", NUMERIC, ids=lambda s: s.value)
    def test_bad_grids_are_rejected_before_sampling(self, source, x_grid, message, monkeypatch):
        # each grid sampled g for the whole curve before RateCurve.validate rejected it
        def no_sampling(*args):
            raise AssertionError("g sampled before the grid was checked")

        monkeypatch.setattr(rates, "uniform_kernel_g", no_sampling)
        with pytest.raises(ValueError, match=message):
            rate_curve(kernel_for(Shape.LORENTZIAN), x_grid, source)

    @pytest.mark.parametrize("source", NUMERIC, ids=lambda s: s.value)
    def test_tabulated_curve_samples_g_once(self, source, monkeypatch):
        calls = []
        sample = rates.uniform_kernel_g

        def counted(*args):
            calls.append(args[1:])
            return sample(*args)

        def no_other_sampling(*args):
            raise AssertionError("a rate curve sampled g off its grid")

        monkeypatch.setattr(rates, "uniform_kernel_g", counted)
        monkeypatch.setattr(spectral, "_compact_g", no_other_sampling)
        monkeypatch.setattr(spectral, "_simpson_g", no_other_sampling)
        grid = np.linspace(0.01, 20.0, 200)
        kernel = tabulated_gaussian_kernel()
        rate_curve(kernel, grid, source)
        assert calls == [(20.0, rates._panel_count(20.0, 0.0, kernel.compact_support))]


@st.composite
def compact_kernels(draw):
    """The quadrature rectangle or a random table, uniform or not, at ``|c| <= 3``."""
    c = draw(st.floats(-3.0, 3.0))
    layout = draw(st.sampled_from(["rectangle", "uniform", "non-uniform"]))
    if layout == "rectangle":
        return MemoryKernel(SpectralDensity.rectangular(1.0, 1.0, c=c),
                            mode=KernelMode.QUADRATURE)
    rows = draw(st.integers(2, 400))
    lo, width = draw(st.floats(-8.0, 1.0)), draw(st.floats(0.05, 16.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gaps = np.ones(rows - 1) if layout == "uniform" else rng.uniform(0.05, 1.0, rows - 1)
    w = lo + width * np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum()
    table = np.column_stack([w, rng.uniform(0.0, 1.0, rows)])
    return MemoryKernel(SpectralDensity.tabulated(1.0, 1.0, table, c=c))


def largest_x(kernel):
    """The largest ``x`` both the panel cap and the Simpson sum's alias bound admit."""
    lo, hi = kernel.compact_support
    c = kernel.density.c
    bandwidth = max(1.0, abs(c), abs(lo - c), abs(hi - c))
    return min(rates.MAX_PANELS / (rates.PANELS_PER_UNIT * bandwidth),
               math.pi * spectral.N_PANELS / (2.0 * (hi - lo)))


def phi_reference(z):
    """``phi(z) = (1 - iz - e^{-iz})/z^2`` in 40-digit arithmetic, part by part."""
    with mp.workdps(40):
        z = mp.mpf(z)
        return 2 * mp.sin(z / 2) ** 2 / z ** 2, (mp.sin(z) - z) / z ** 2


class TestPerXRates:
    """A few double-integral rates of a compact quadrature kernel, both time integrals exact."""

    @given(compact_kernels(), st.lists(st.floats(math.log(1e-6), 0.0), min_size=1,
                                       max_size=rates.MAX_PER_X_RATES, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_against_the_grid(self, kernel, logs):
        # log-uniform x over six decades up to 1/16 of what the panel cap and the alias bound
        # admit, so that a reference takes at most 2^16 panels; each x is a point of a grid
        # curve longer than the cut, which samples g on the bandwidth grid
        xs = np.unique(largest_x(kernel) / 16.0 * np.exp(logs))
        per_x = rate_curve(kernel, xs, RateSource.DOUBLE_INTEGRAL).values
        grid = np.union1d(xs, np.linspace(xs[-1] / 8.0, xs[-1], rates.MAX_PER_X_RATES + 1))
        for source in NUMERIC:
            curve = rate_curve(kernel, grid, source).values
            np.testing.assert_allclose(per_x, curve[np.isin(grid, xs)], rtol=1e-11, atol=0)

    def test_phi_meets_mpmath(self):
        # |z| log-uniform from 1e-8 to 1e3 on both sides of the series switch, and the
        # switch itself; measured at most 3 ulps in either part
        rng = np.random.default_rng(17)
        size = np.exp(rng.uniform(math.log(1e-8), math.log(1e3), 1500))
        edge = [rates.PHI_SERIES, np.nextafter(rates.PHI_SERIES, 0.0)]
        z = np.sort(np.concatenate([size, edge, -size, np.negative(edge)]))
        assert np.any(np.abs(z) < rates.PHI_SERIES) and np.any(np.abs(z) >= rates.PHI_SERIES)
        got = rates._phi(z)
        reference = np.array([[float(part) for part in phi_reference(v)] for v in z])
        for part, exact in zip((got.real, got.imag), reference.T):
            assert np.max(np.abs(part - exact) / np.spacing(np.abs(exact))) <= 5.0
        assert rates._phi(np.zeros(1))[0] == 0.5

    @pytest.mark.parametrize("kernel, x, panels, message", [
        (MemoryKernel(SpectralDensity.rectangular(1.0, 1.0), mode=KernelMode.QUADRATURE),
         4097.0, rates.MAX_PANELS, r"needs 1\.049e\+06 panels"),
        (tabulated_gaussian_kernel(), 805.0, 2 ** 22, r"exceeds 804\.24772"),
    ], ids=["panel-cap", "alias-bound"])
    def test_rejects_what_the_grid_rejects(self, kernel, x, panels, message, monkeypatch):
        # the panel cap binds before the alias bound on every compact kernel, so the alias
        # case lifts the cap
        monkeypatch.setattr(rates, "MAX_PANELS", panels)
        errors = []
        for xs in ([x], np.linspace(1.0, x, 200)):
            with pytest.raises(ValueError, match=message) as caught:
                rate_curve(kernel, xs, RateSource.DOUBLE_INTEGRAL)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("points", [1, 2, 3])
    def test_takes_no_transform(self, points, monkeypatch):
        spectral._cached_chirp_z_plan.cache_clear()
        calls = counted_transforms(monkeypatch)
        kernel = tabulated_gaussian_kernel(801)
        xs = np.linspace(0.0, 2.5, points + 1)
        values = rate_curve(kernel, xs, RateSource.DOUBLE_INTEGRAL).values
        assert values[0] == 0j and np.all(values[1:] != 0)
        assert gamma_numeric(kernel, 0.97) != 0 and gamma_numeric(kernel, 0.0) == 0j
        assert calls == [] and spectral._cached_chirp_z_plan.cache_info().misses == 0
        assert rates._numeric_rates(kernel, np.linspace(0.5, 2.5, 4),
                                    RateSource.DOUBLE_INTEGRAL).size == 4
        assert calls == [rates._panel_count(2.5, 0.0, kernel.compact_support) + 1]


def cumulative_simpson(y, h):
    """Cumulative Simpson integral from 0 of the odd-length samples ``y`` with spacing ``h``.

    Even node ``2k + 2`` adds the panel pair ``h/3 (a + 4b + c)`` of
    ``a, b, c = y[2k : 2k + 3]`` to node ``2k``; odd node ``2k + 1`` adds
    ``h/12 (5a + 8b - c)``, the rule SciPy's ``cumulative_simpson`` takes
    there.  The rate curves took this rule at 2048 panels per unit of ``u x``
    before Gregory's; it stays here as that rule's oracle.
    """
    a, b, c = y[:-2:2], y[1::2], y[2::2]
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(h / 3.0 * (a + 4.0 * b + c), out=out[2::2])
    out[1::2] = out[:-1:2] + h / 12.0 * (5.0 * a + 8.0 * b - c)
    return out


def simpson_rates(kernel, xs, source):
    """``rates._numeric_rates`` on cumulative Simpson sums at 2048 panels per unit of ``u x``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rates, "_cumulative_gregory", cumulative_simpson)
        patch.setattr(rates, "PANELS_PER_UNIT", 2048)
        # a [-60, 60] table to x = 20 takes 2.5e6 panels at that density
        patch.setattr(rates, "MAX_PANELS", 2 ** 22)
        return rates._numeric_rates(kernel, xs, source)


def table_kernel(w, profile):
    return MemoryKernel(SpectralDensity.tabulated(1.0, 1.0, np.column_stack([w, profile(w)])))


class TestCumulativeRule:
    """Gregory's sixth-order rule on the bandwidth grid against the Simpson rule it replaced."""

    @pytest.mark.parametrize("degree", range(6))
    def test_integrates_quintics_exactly(self, degree):
        t = np.arange(40) * 0.1
        got = rates._cumulative_gregory(t ** degree + 0j, 0.1)
        np.testing.assert_allclose(got, t ** (degree + 1) / (degree + 1), rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("kernel", [
        tabulated_gaussian_kernel(),
        tabulated_gaussian_kernel(c=0.3),
        table_kernel(np.linspace(-8.0, 8.0, 8001), lambda w: np.exp(-0.5 * w * w)),
        table_kernel(np.linspace(-60.0, 60.0, 241), lambda w: 1.0 / (1.0 + w * w)),
        kernel_for(Shape.GAUSSIAN, c=0.7),
    ], ids=["gaussian-table", "gaussian-table-c0.3", "benchmark-table", "lorentzian-table",
            "gaussian-c0.7"])
    @pytest.mark.parametrize("source", NUMERIC, ids=lambda s: s.value)
    def test_matches_the_simpson_oracle(self, kernel, source):
        np.testing.assert_allclose(rate_curve(kernel, RATE_GRID, source).values,
                                   simpson_rates(kernel, RATE_GRID, source), rtol=1e-11, atol=0)

    @pytest.mark.parametrize("density", [
        *(SpectralDensity(shape, 1.0, 1.0) for shape in ALL_NAMED),
        SpectralDensity.lorentzian(1.0, 1.0, c=0.7),
        SpectralDensity.double_lorentzian(1.0, 1.0, c=0.3, b=2.5),
    ], ids=[s.value for s in ALL_NAMED] + ["lorentzian-c0.7", "double-peak-c0.3-b2.5"])
    def test_curves_meet_the_closed_forms(self, density):
        # at 2048 Simpson panels per unit the worst case read 4.5e-12
        closed = gamma_closed_form(density, RATE_GRID)
        double, single = (rate_curve(MemoryKernel(density), RATE_GRID, source).values
                          for source in NUMERIC)
        np.testing.assert_allclose(double, closed, rtol=5e-12, atol=0)
        np.testing.assert_allclose(single, closed, rtol=5e-12, atol=0)
        np.testing.assert_allclose(single, double, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("shape", [Shape.LORENTZIAN, Shape.DOUBLE_LORENTZIAN])
    @pytest.mark.parametrize("source", NUMERIC, ids=lambda s: s.value)
    def test_first_panels_meet_the_closed_forms(self, shape, source):
        # x in the first few panels of a curve to 20 (h = 1/256): a two-panel Simpson tail
        # missed by up to 3.1e-10 relative there, where the rate is itself of order x
        xs = np.concatenate([np.linspace(5e-4, 0.02, 40), [20.0]])
        density = SpectralDensity(shape, 1.0, 1.0)
        np.testing.assert_allclose(rate_curve(MemoryKernel(density), xs, source).values,
                                   gamma_closed_form(density, xs), rtol=5e-12, atol=0)


def wide_lorentzian_table_kernel():
    w = np.linspace(-300.0, 300.0, 1201)
    return MemoryKernel(SpectralDensity.tabulated(1.0, 1.0, np.column_stack([w, 1 / (1 + w * w)])))


def lagrange_basis(i, shift):
    """Coefficients, lowest first, of ``l_i(shift + v)`` in ``v`` as fractions: the Lagrange
    basis polynomial on the nodes 0..5 that is one at node ``i``."""
    coeffs = [Fraction(1)]
    for k in range(6):
        if k != i:
            # times (v + shift - k) / (i - k)
            root = Fraction(shift - k)
            coeffs = [(a * root + b) / (i - k) for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


class TestExactWeights:
    """The start-up and remainder weights are the correctly rounded exact integrals."""

    def test_start_weights(self):
        # row m - 1, column i: int_0^m l_i(v) dv
        exact = [[float(sum(a * m ** (j + 1) / (j + 1) for j, a in enumerate(lagrange_basis(i, 0))))
                  for i in range(6)] for m in range(1, 5)]
        np.testing.assert_array_equal(rates._START, exact)

    def test_remainder_coefficients(self):
        # [s, i, j]: int_0^delta (delta - v) v^j dv = delta^(j+2) / ((j+1)(j+2))
        exact = [[[float(a / ((j + 1) * (j + 2))) for j, a in enumerate(lagrange_basis(i, s))]
                  for i in range(6)] for s in range(6)]
        np.testing.assert_array_equal(rates._REMAINDER_COEFFS, exact)


#: remainder points on a 32-panel grid: the last node ``m`` below each and ``d`` in units of
#: ``h``; ``m = 0, 1`` and ``n - 2 .. n`` take the clamped stencil offsets 0, 1 and 3-5
TAIL_NODES = np.array([0, 1, 16, 30, 31, 32])
TAIL_STEPS = np.array([3.0, 11.0, 7.0, 13.0, 1.0, 15.0]) / 16.0


@pytest.mark.parametrize("degree", range(6))
def test_remainder_is_exact_on_quintics(degree):
    grid = np.linspace(0.0, 4.0, 33)
    h = grid[1]
    d = TAIL_STEPS * h
    first = np.clip(TAIL_NODES - 2, 0, grid.size - 6)
    assert list(TAIL_NODES - first) == list(range(6))
    g = grid ** degree + 0j
    got = rates._remainder(grid, g, TAIL_NODES, d)
    # int_a^x (x - t) t^k dt in exact arithmetic; every grid point, d and x is a binary fraction.
    # Round-off scales with the stencil's samples: in the first panel the quintic's remainder
    # is 4e-9 of d^2/2 times the largest of them, and the six terms cancel to it
    k = degree
    for value, a, step, start in zip(got, grid[TAIL_NODES], d, first):
        a, x = Fraction(a), Fraction(a) + Fraction(step)
        exact = (x ** (k + 2) / ((k + 1) * (k + 2)) - x * a ** (k + 1) / (k + 1)
                 + a ** (k + 2) / (k + 2))
        scale = 0.5 * step * step * np.max(np.abs(g[start:start + 6]))
        assert abs(value - float(exact)) <= 1e-15 * scale


@pytest.mark.parametrize("kernel, bound", [
    (MemoryKernel(SpectralDensity.rectangular(1.0, 1.0, c=0.3), mode=KernelMode.QUADRATURE),
     1e-15),
    (tabulated_gaussian_kernel(801, c=4.0), 1e-15),
    # the largest deviation, 2.2e-16 Gamma, is in the first panel of this table's cusp-like g
    (wide_lorentzian_table_kernel(), 2e-15),
], ids=["rectangular-c0.3", "tabulated-c4", "wide-table"])
def test_remainder_matches_gauss_legendre(kernel, bound):
    x_max = 6.0
    n = rates._panel_count(x_max, kernel.density.c, kernel.compact_support)
    grid = np.linspace(0.0, x_max, n + 1)
    h = grid[1]
    x = np.array([0.3 * h, 1.7 * h, grid[n // 2] + 0.9 * h, grid[n - 2] + 0.6 * h,
                  grid[n - 1] + 0.95 * h])
    m = np.searchsorted(grid, x, side="right") - 1
    assert list(m) == [0, 1, n // 2, n - 2, n - 1]
    d = x - grid[m]
    got = rates._remainder(grid, uniform_kernel_g(kernel, x_max, n), m, d)
    # 8-point Gauss-Legendre on [t_m, x] of (x - t) g(t), g sampled point by point
    nodes, weights = np.polynomial.legendre.leggauss(8)
    t = grid[m] + 0.5 * d * (1.0 + nodes[:, None])
    exact = 0.5 * d * np.sum(weights[:, None] * (x - t) * scaled_kernel_g(kernel, t), axis=0)
    # the interpolant's error in g, integrated against x - t: at most d^2/2 times its largest
    assert np.max(np.abs(got - exact) / (0.5 * d * d)) <= bound * kernel.density.gamma


class TestGammaEff:
    def test_no_contraction_means_no_rate(self):
        assert gamma_eff(1.0 + 0.0j, 0.1) == 0.0

    def test_recovers_rate_for_small_steps(self):
        gx, dt = 0.7, 0.01 / 0.7
        a_bar = math.exp(-0.5 * gx * dt)
        assert gamma_eff(a_bar, dt) == pytest.approx(gx, rel=5e-3)

    def test_first_order_bias(self):
        gx, dt = 1.0, 0.04
        a_bar = math.exp(-0.5 * gx * dt)
        value = gamma_eff(a_bar, dt)
        assert value == pytest.approx((1 - math.exp(-gx * dt)) / dt, rel=1e-12)
        assert value < gx

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gamma_eff(0.5, 0.0)
        with pytest.raises(ValueError):
            gamma_eff(1.0 + 1e-4j, 0.1)

    @pytest.mark.parametrize("a_bar, dt, message", [
        (math.nan, 0.1, "exceeds 1"),
        (complex(math.nan, 0.0), 0.1, "exceeds 1"),
        (0.5, math.nan, "dt_total must be positive"),
    ])
    def test_rejects_nan(self, a_bar, dt, message):
        # unchecked, each of these returned a NaN rate
        with pytest.raises(ValueError, match=message):
            gamma_eff(a_bar, dt)


class TestRateCurve:
    def test_sources_agree_on_grid(self):
        k = kernel_for(Shape.RECTANGULAR)
        grid = np.linspace(0.01, 5.0, 24)
        closed = rate_curve(k, grid, RateSource.CLOSED_FORM)
        double = rate_curve(k, grid, RateSource.DOUBLE_INTEGRAL)
        kk = rate_curve(k, grid, RateSource.KK_INTEGRAL)
        np.testing.assert_allclose(double.values, closed.values, rtol=1e-6)
        np.testing.assert_allclose(kk.values, double.values, rtol=1e-8)

    def test_validation_rejects_gain(self):
        k = kernel_for(Shape.LORENTZIAN)
        curve = RateCurve(x_grid=np.array([0.1, 0.2]),
                          values=np.array([-1e-3 + 0j, 0.1 + 0j]),
                          source=RateSource.CLOSED_FORM, model=k.density)
        with pytest.raises(ValueError, match="decay floor"):
            curve.validate()

    def test_validation_rejects_bad_grid(self):
        k = kernel_for(Shape.LORENTZIAN)
        curve = RateCurve(x_grid=np.array([0.2, 0.1]),
                          values=np.array([0.1 + 0j, 0.1 + 0j]),
                          source=RateSource.CLOSED_FORM, model=k.density)
        with pytest.raises(ValueError, match="increasing"):
            curve.validate()

    @pytest.mark.parametrize("x_grid, values, message", [
        ([[0.1, 0.2], [0.05, 0.3]], [[0.1, 0.1], [0.1, 0.1]], "one-dimensional"),
        ([0.1, 0.2, 0.3], [0.1, 0.1], "shape"),
    ], ids=["2-d-grid", "short-values"])
    def test_validation_rejects_malformed_arrays(self, x_grid, values, message):
        # a directly built curve is checked like rate_curve's; unchecked, its to_csv raised
        # TypeError (2-D grid) or zip()'s ValueError (values shorter than the grid)
        curve = RateCurve(x_grid=np.array(x_grid), values=np.array(values, dtype=complex),
                          source=RateSource.CLOSED_FORM, model=kernel_for(Shape.LORENTZIAN).density)
        with pytest.raises(ValueError, match=message):
            curve.validate()

    def test_csv_export(self, tmp_path):
        k = kernel_for(Shape.GAUSSIAN, gamma=2.0)
        grid = np.array([1e-3, 0.5, 1.0])
        curve = rate_curve(k, grid, RateSource.CLOSED_FORM)
        assert abs(curve.values[0]) < 1e-2 * k.density.gamma
        path = tmp_path / "rates.csv"
        curve.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,re_gamma_over_Gamma,im_gamma_over_Gamma,source"
        x, re, im, source = lines[2].split(",")
        assert source == "closed_form"
        assert float(re) == pytest.approx(gamma_gaussian(0.5).real, rel=1e-9)
