"""The one validation boundary: every public entry point rejects bad numbers by name.

Each case calls one public constructor or function of ``spectral``,
``volterra``, ``rates``, ``trajectories`` or ``lindblad`` with small valid
defaults and replaces one numeric argument at a time with a bad value: NaN,
an infinity, a negative number, zero where a positive value is required, or a
non-integer count.  The call must either raise ``ValueError`` naming that
argument, or return finite output; no other exception and no NaN.
Functions without a numeric argument (``default_time_step``,
``load_tabulated_profile``, ``write_csv``) and the result records that the
solvers return (``DecaySeries``, ``RateCurve``, ``TrajectoryRecord``,
``EnsembleResult``) are not called here.
"""

import dataclasses
import enum
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenoscope import (
    AtomState,
    DensityMatrix2,
    DriveConfig,
    KernelMode,
    MemoryKernel,
    RateSource,
    Shape,
    SpectralDensity,
    analytic_lorentzian_a,
    child_seed,
    gamma_closed_form,
    gamma_eff,
    gamma_gaussian,
    gamma_lorentzian,
    gamma_numeric,
    gamma_rectangular,
    interval_amplitude,
    kernel_value,
    make_drive_config,
    make_rng,
    memory_drive_config,
    null_conditioned_power,
    null_result_survival,
    rate_curve,
    run_ensemble,
    scaled_kernel_g,
    sdf_value,
    simulate_trajectory,
    solve_decay,
    solve_master,
    uniform_kernel_g,
)
from zenoscope import rates
from zenoscope.spectral import (MAX_RATE_DT, check_contraction, check_count, check_finite,
                                check_grid, check_points, check_positive, check_real,
                                check_step)
from zenoscope.verify import check_ensemble_vs_lindblad, check_zeno_jump_ordering

NAN, INF = math.nan, math.inf
GAUSSIAN = SpectralDensity.gaussian(1.0, 1.0)
LORENTZIAN = MemoryKernel(SpectralDensity.lorentzian(1.0, 1.0))
RECTANGULAR = MemoryKernel(SpectralDensity.rectangular(1.0, 1.0), KernelMode.QUADRATURE)
CFG = DriveConfig(omega=0.1, gamma_eff=0.1, dt_step=0.01, n_steps=4)
EXCITED = AtomState.excited()


def closed_form_curve(x_grid):
    return rate_curve(LORENTZIAN, [0.5, x_grid], RateSource.CLOSED_FORM)


def kk_curve(x_grid):
    return rate_curve(LORENTZIAN, [0.5, x_grid], RateSource.KK_INTEGRAL)


def gamma_double_lorentzian(x, gamma=1.0):
    """The double peak's closed form at ``c = 0``, ``b = 1``, from its density."""
    return gamma_closed_form(SpectralDensity.double_lorentzian(gamma, 1.0), x)


# argument kinds -> the fixed bad values each is replaced with; every kind
# also takes a drawn negative number (for COMPLEX, a negative real part)
REAL, POSITIVE, POINTS, COMPLEX, CONTRACTION, COUNT, COUNT0 = (
    "real", "positive", "points", "complex", "contraction", "count", "count0")
FIXED = {
    REAL: [NAN, INF, -INF],
    POSITIVE: [NAN, INF, -INF, 0.0],
    POINTS: [NAN, INF, -INF],
    COMPLEX: [NAN, INF, -INF, complex(0.0, NAN)],
    CONTRACTION: [NAN, INF, complex(NAN, 0.0), 1.5, -1.5],
    COUNT: [NAN, INF, 2.5, 0],
    COUNT0: [NAN, INF, 2.5],
}

#: (call, valid defaults, argument -> kind); ``call`` takes the arguments by keyword
CASES = [
    (partial(SpectralDensity, Shape.LORENTZIAN),
     dict(gamma=1.0, lam=1.0, c=0.0, b=1.0),
     dict(gamma=POSITIVE, lam=POSITIVE, c=REAL, b=POINTS)),
    (GAUSSIAN.with_width, dict(lam=2.0), dict(lam=POSITIVE)),
    (partial(sdf_value, GAUSSIAN), dict(omega_r=0.3), dict(omega_r=REAL)),
    (partial(kernel_value, LORENTZIAN), dict(u=0.5), dict(u=POINTS)),
    (partial(scaled_kernel_g, LORENTZIAN), dict(x=0.5), dict(x=POINTS)),
    (partial(uniform_kernel_g, RECTANGULAR), dict(x_max=1.0, n=8),
     dict(x_max=POINTS, n=COUNT)),
    (AtomState, dict(alpha=1.0 + 0j, beta=0j), dict(alpha=REAL, beta=REAL)),
    (partial(solve_decay, LORENTZIAN), dict(t_max=0.1, dt=0.01),
     dict(t_max=POSITIVE, dt=POSITIVE)),
    (analytic_lorentzian_a, dict(t=0.5, gamma=1.0, lam=1.0, energy_offset=0.0),
     dict(t=POINTS, gamma=POSITIVE, lam=POSITIVE, energy_offset=REAL)),
    (partial(interval_amplitude, LORENTZIAN), dict(tau=0.1, steps_per_interval=8),
     dict(tau=POSITIVE, steps_per_interval=COUNT)),
    (null_conditioned_power, dict(a_tau=0.9, n=3), dict(a_tau=CONTRACTION, n=COUNT0)),
    (partial(null_result_survival, LORENTZIAN),
     dict(tau=0.1, n_intervals=3, steps_per_interval=8),
     dict(tau=POSITIVE, n_intervals=COUNT0, steps_per_interval=COUNT)),
    (partial(gamma_numeric, LORENTZIAN), dict(x=0.5), dict(x=POINTS)),
    (gamma_lorentzian, dict(x=0.5, c=0.0, gamma=1.0), dict(x=POINTS, c=REAL, gamma=POSITIVE)),
    (gamma_gaussian, dict(x=0.5, gamma=1.0), dict(x=POINTS, gamma=POSITIVE)),
    (gamma_rectangular, dict(x=0.5, gamma=1.0), dict(x=POINTS, gamma=POSITIVE)),
    (gamma_double_lorentzian, dict(x=0.5, gamma=1.0), dict(x=POINTS, gamma=POSITIVE)),
    (partial(gamma_closed_form, GAUSSIAN), dict(x=0.5), dict(x=POINTS)),
    (gamma_eff, dict(a_bar_dt=0.9, dt_total=0.1),
     dict(a_bar_dt=CONTRACTION, dt_total=POSITIVE)),
    (closed_form_curve, dict(x_grid=1.0), dict(x_grid=POINTS)),
    (kk_curve, dict(x_grid=1.0), dict(x_grid=POINTS)),
    (DriveConfig, dict(omega=0.1, gamma_eff=0.1, dt_step=0.01, n_steps=4),
     dict(omega=REAL, gamma_eff=POINTS, dt_step=POSITIVE, n_steps=COUNT)),
    (partial(simulate_trajectory, EXCITED, CFG), dict(a_bar_dt=0.99, seed=1),
     dict(a_bar_dt=CONTRACTION, seed=COUNT0)),
    (partial(run_ensemble, EXCITED, CFG),
     dict(a_bar_dt=0.99, n_traj=2, master_seed=0, n_jobs=1),
     dict(a_bar_dt=CONTRACTION, n_traj=COUNT, master_seed=COUNT0, n_jobs=COUNT)),
    (make_drive_config, dict(gamma_x=0.3 + 0j, omega=0.0, t_max=1.0),
     dict(gamma_x=COMPLEX, omega=REAL, t_max=POSITIVE)),
    (partial(memory_drive_config, RECTANGULAR),
     dict(gamma_x=0.3 + 0j, omega=0.0, t_max=1.0, tau=0.05),
     dict(gamma_x=COMPLEX, omega=REAL, t_max=POSITIVE, tau=POSITIVE)),
    (child_seed, dict(master_seed=0, index=0), dict(master_seed=REAL, index=REAL)),
    (make_rng, dict(seed=1), dict(seed=COUNT0)),
    (DensityMatrix2, dict(ee=1.0 + 0j, eg=0j, ge=0j, gg=0j),
     dict(ee=COMPLEX, eg=COMPLEX, ge=COMPLEX, gg=COMPLEX)),
    (partial(solve_master, DensityMatrix2.excited()),
     dict(omega=0.1, gamma_eff=0.1, t_max=0.1, dt=0.01),
     dict(omega=REAL, gamma_eff=POINTS, t_max=POSITIVE, dt=POSITIVE)),
]
ARGUMENTS = [(call, defaults, name, kind) for call, defaults, kinds in CASES
             for name, kind in kinds.items()]


def case_id(argument):
    call, _, name, _ = argument
    while isinstance(call, partial):
        call = call.func
    return f"{call.__qualname__}-{name}"


def assert_finite(out):
    """Every number in ``out`` (arrays, tuples and dataclass fields too) is finite."""
    if dataclasses.is_dataclass(out):
        for f in dataclasses.fields(out):
            assert_finite(getattr(out, f.name))
    elif isinstance(out, (tuple, list)):
        for item in out:
            assert_finite(item)
    elif not (out is None or isinstance(out, (str, enum.Enum, np.random.Generator))):
        assert np.all(np.isfinite(out)), out


def rejected_by_name_or_finite(call, defaults, name, value):
    args = dict(defaults, **{name: value})
    try:
        out = call(**args)
    except ValueError as exc:
        assert name in str(exc), f"{name} = {value!r}: {exc}"
    else:
        assert_finite(out)


@pytest.mark.parametrize("argument", ARGUMENTS, ids=[case_id(a) for a in ARGUMENTS])
def test_fixed_bad_values_are_rejected_by_name(argument):
    call, defaults, name, kind = argument
    for value in FIXED[kind]:
        rejected_by_name_or_finite(call, defaults, name, value)


@given(argument=st.sampled_from(ARGUMENTS), magnitude=st.floats(1e-3, 1.0))
@settings(max_examples=150, deadline=None)
def test_negative_values_are_rejected_by_name_or_harmless(argument, magnitude):
    call, defaults, name, kind = argument
    value = -math.ceil(100 * magnitude) if kind in (COUNT, COUNT0) else -magnitude
    rejected_by_name_or_finite(call, defaults, name, value)


@pytest.mark.parametrize("call, name", [
    # each returned a wrong answer, or raised TypeError, before the one boundary
    (lambda: gamma_closed_form(GAUSSIAN, NAN), "x"),
    (lambda: gamma_lorentzian(-1.0), "x"),
    (lambda: gamma_gaussian(NAN), "x"),
    (lambda: gamma_rectangular(-0.5), "x"),
    (lambda: gamma_double_lorentzian(-1.0), "x"),
    (lambda: rate_curve(LORENTZIAN, [0.5, NAN], RateSource.CLOSED_FORM), "x_grid"),
    # numpy's diff rejected a scalar grid without naming it; a 2-D grid ran, and its
    # to_csv raised TypeError
    (lambda: rate_curve(LORENTZIAN, 0.5, RateSource.CLOSED_FORM), "x_grid"),
    (lambda: rate_curve(LORENTZIAN, [[0.1, 0.2], [0.05, 0.3]], RateSource.CLOSED_FORM), "x_grid"),
    (lambda: SpectralDensity.tabulated(1.0, 1.0, [[0.0, 1.0], [1.0, NAN]]), "table values"),
    (lambda: SpectralDensity.tabulated(1.0, 1.0, [[-INF, 1.0], [1.0, 0.0]]), "abscissae"),
    # an unknown shape was stored as given, and failed only at its first evaluation
    (lambda: SpectralDensity("nope", 1.0, 1.0), "nope"),
    (lambda: SpectralDensity(None, 1.0, 1.0), "None"),
    (lambda: DensityMatrix2(NAN, 0, 0, 1).validate(), "ee"),
    (lambda: solve_master(DensityMatrix2(INF, 0, 0, 0), 0.0, 0.1, 1.0, 0.01), "ee"),
    (lambda: gamma_eff(0.9, INF), "dt_total"),
    (lambda: null_conditioned_power(0.9, NAN), "n"),
    (lambda: analytic_lorentzian_a(NAN, 1.0, 1.0), "t"),
    (lambda: DriveConfig(omega=0.0, gamma_eff=0.1, dt_step=0.01, n_steps=2.5), "n_steps"),
    (lambda: run_ensemble(EXCITED, CFG, 0.99, n_traj=2.5, master_seed=0), "n_traj"),
    (lambda: null_result_survival(LORENTZIAN, 0.1, n_intervals=2.5), "n_intervals"),
    (lambda: uniform_kernel_g(RECTANGULAR, 1.0, n=2.5), "n"),
    # |a_bar_dt| = 1.28 exceeds 1, and -1e-18 ran as no decay
    (lambda: make_drive_config(-0.5 + 0j, 0.0, 1.0), "gamma_x"),
    (lambda: make_drive_config(-1e-18, 0.0, 1.0), "gamma_x"),
    # c +- b overflowed inside the double peak's closed form, which then named only c
    (lambda: gamma_closed_form(SpectralDensity.double_lorentzian(1, 1, c=1e308, b=1e308), 1.0),
     r"c \+- b at c = 1e\+308, b = 1e\+308 must be finite"),
    (lambda: gamma_closed_form(SpectralDensity.double_lorentzian(1, 1, c=-1e308, b=1e308), 1.0),
     r"c \+- b at c = -1e\+308, b = 1e\+308 must be finite"),
], ids=[
    "closed-form-nan", "lorentzian-negative", "gaussian-nan",
    "rectangular-negative", "double-lorentzian-negative", "rate-curve-nan",
    "rate-curve-scalar-grid", "rate-curve-2d-grid",
    "table-nan-value", "table-infinite-abscissa", "density-unknown-shape",
    "density-shape-none", "density-matrix-nan",
    "solve-master-infinite-rho0", "gamma-eff-infinite-step", "power-nan-count",
    "analytic-nan-time", "drive-config-fractional-steps", "ensemble-fractional-count",
    "survival-fractional-count", "uniform-grid-fractional-count", "drive-config-negative-rate",
    "drive-config-round-off-negative-rate", "double-peak-overflowing-sum",
    "double-peak-overflowing-difference"])
def test_holes_are_closed(call, name):
    with pytest.raises(ValueError, match=name):
        call()


#: what a density parameter once took that is not one real number
NOT_REAL = {"array-1": np.array([1.0]), "array-2": np.array([1.0, 2.0]), "array-0d": np.array(1.0),
            "bool": True, "numpy-bool": np.bool_(True), "string": "1.0", "complex": 1.0 + 0j,
            "none": None, "huge-int": 10 ** 400}


@pytest.mark.parametrize("value", NOT_REAL.values(), ids=NOT_REAL.keys())
@pytest.mark.parametrize("name", ["gamma", "lam", "c", "b"])
def test_density_parameters_are_real_numbers(name, value):
    # gamma = np.array([1.0]) was stored as given, and gamma_closed_form then raised numpy's
    # "only 0-dimensional arrays" TypeError; gamma = True ran as 1; gamma = "1.0" raised
    # numpy's isfinite TypeError
    args = {**dict(gamma=1.0, lam=1.0, c=0.0, b=1.0), name: value}
    with pytest.raises(ValueError, match=f"{name} must be"):
        SpectralDensity(Shape.LORENTZIAN, **args)


@pytest.mark.parametrize("value", NOT_REAL.values(), ids=NOT_REAL.keys())
@pytest.mark.parametrize("name", ["omega", "gamma_eff", "dt_step"])
def test_drive_parameters_are_real_numbers(name, value):
    # omega = np.array([0.0]) was stored as given
    args = {**dict(omega=0.0, gamma_eff=0.1, dt_step=0.01, n_steps=4), name: value}
    with pytest.raises(ValueError, match=f"{name} must be"):
        DriveConfig(**args)


def test_drive_parameters_are_stored_as_floats():
    cfg = DriveConfig(omega=np.float32(0.5), gamma_eff=Fraction(1, 10), dt_step=np.int64(1) / 100,
                      n_steps=4)
    assert [type(getattr(cfg, name)) for name in ("omega", "gamma_eff", "dt_step")] == [float] * 3


#: what a trajectory count or seed once took that is not an integer
BOOLS = {"bool": True, "numpy-bool": np.bool_(True)}


@pytest.mark.parametrize("value", BOOLS.values(), ids=BOOLS.keys())
@pytest.mark.parametrize("call, name", [
    # n_traj = True died in np.empty with numpy's TypeError; master_seed = True and
    # n_steps = True were accepted and stored as True
    (lambda v: run_ensemble(EXCITED, CFG, 0.99, n_traj=v, master_seed=0), "n_traj"),
    (lambda v: run_ensemble(EXCITED, CFG, 0.99, n_traj=2, master_seed=v), "master_seed"),
    (lambda v: run_ensemble(EXCITED, CFG, 0.99, n_traj=2, master_seed=0, n_jobs=v), "n_jobs"),
    (lambda v: DriveConfig(omega=0.0, gamma_eff=0.1, dt_step=0.01, n_steps=v), "n_steps"),
    (lambda v: simulate_trajectory(EXCITED, CFG, 0.99, seed=v), "seed"),
    (lambda v: make_rng(v), "seed"),
], ids=["ensemble-n_traj", "ensemble-master_seed", "ensemble-n_jobs", "drive-n_steps",
        "trajectory-seed", "rng-seed"])
def test_counts_are_not_bools(call, name, value):
    with pytest.raises(ValueError, match=f"{name} must be >= .* and an integer"):
        call(value)


#: what an amplitude once took that is not one number
NOT_A_NUMBER = {"array-1": np.array([1.0]), "array-0d": np.array(1.0), "bool": True,
                "numpy-bool": np.bool_(True), "string": "1.0", "none": None}


@pytest.mark.parametrize("value", NOT_A_NUMBER.values(), ids=NOT_A_NUMBER.keys())
@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_amplitudes_are_one_number(name, value):
    # AtomState(np.array([1.0]), 0j) was accepted, and its p_excited returned an array
    args = {**dict(alpha=1.0 + 0j, beta=0j), name: value}
    with pytest.raises(ValueError, match=f"{name} must be one number"):
        AtomState(**args)


def test_amplitudes_are_stored_as_complex():
    state = AtomState(np.float64(0.6), Fraction(4, 5))
    assert (type(state.alpha), type(state.beta)) == (complex, complex)
    assert isinstance(state.p_excited, float)
    with pytest.raises(ValueError, match="alpha must be finite"):
        AtomState(10 ** 400, 0j)


def test_density_parameters_are_stored_as_floats():
    density = SpectralDensity(Shape.GAUSSIAN, Fraction(1, 2), np.float32(2.0), c=np.int64(0), b=1)
    assert [type(getattr(density, name)) for name in ("gamma", "lam", "c", "b")] == [float] * 4
    assert gamma_closed_form(density, 1.0) == gamma_gaussian(1.0, gamma=0.5)


@pytest.mark.parametrize("shape", list(Shape))
def test_shape_value_works_like_its_member(shape):
    # a value string was stored as given: scaled_kernel_g then found no analytic kernel
    # for "lorentzian", and sdf_value of a "gaussian" density raised TypeError
    table = [[-1.0, 1.0], [1.0, 0.5]] if shape is Shape.TABULATED else None
    by_value = SpectralDensity(shape.value, 1.0, 1.0, table=table)
    by_member = SpectralDensity(shape, 1.0, 1.0, table=table)
    assert by_value.shape is shape
    assert sdf_value(by_value, 0.3) == sdf_value(by_member, 0.3)
    x = [0.0, 0.7, 3.0]
    np.testing.assert_array_equal(scaled_kernel_g(MemoryKernel(by_value), x),
                                  scaled_kernel_g(MemoryKernel(by_member), x))


@pytest.mark.parametrize("call", [
    lambda: MemoryKernel(GAUSSIAN, KernelMode.QUADRATURE, n_panels=8192),
    lambda: gamma_numeric(LORENTZIAN, 0.5, panels_per_unit=2048),
    lambda: rates._numeric_rates(LORENTZIAN, [0.5], RateSource.KK_INTEGRAL, panels_per_unit=2048),
    lambda: rates._panel_count(0.5, panels_per_unit=2048),
    lambda: rate_curve(LORENTZIAN, [0.5], validate=False),
    lambda: DensityMatrix2.excited().validate(tol=1e-8),
    lambda: check_ensemble_vs_lindblad(n_traj=5000),
    lambda: check_zeno_jump_ordering(n_traj=5000),
], ids=["kernel-n_panels", "gamma_numeric-panels_per_unit", "numeric_rates-panels_per_unit",
        "panel_count-panels_per_unit", "rate_curve-validate", "density-matrix-tol",
        "ensemble-check-n_traj", "zeno-check-n_traj"])
def test_retired_settings_are_gone(call):
    # each was set only by tests, or always to its default; the values are constants now
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


class TestInputRules:
    @pytest.mark.parametrize("value", [NAN, INF, complex(0.0, NAN), np.array([1.0, -INF])])
    def test_finite(self, value):
        with pytest.raises(ValueError, match="v must be finite"):
            check_finite(value, "v")

    def test_finite_returns_its_argument(self):
        value = np.array([1.0, -2.0])
        assert check_finite(value, "v") is value

    @pytest.mark.parametrize("value", [np.array([1.0]), True, "1", 1j])
    def test_real(self, value):
        with pytest.raises(ValueError, match="v must be a real number"):
            check_real(value, "v")

    def test_real_returns_a_float(self):
        assert [check_real(v, "v") for v in (np.float64(2.5), np.int64(2), Fraction(1, 4))] == [
            2.5, 2.0, 0.25]

    @pytest.mark.parametrize("value", [NAN, 0.0, -1.0])
    def test_positive(self, value):
        with pytest.raises(ValueError, match="v must be positive"):
            check_positive(value, "v")

    @pytest.mark.parametrize("value", [NAN, INF, 2.5, 3.0, -1, 1, "2"])
    def test_count(self, value):
        with pytest.raises(ValueError, match="n must be >= 2 and an integer"):
            check_count(value, "n", 2)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True)])
    def test_count_rejects_bools(self, value):
        with pytest.raises(ValueError, match="n must be >= 0 and an integer"):
            check_count(value, "n", 0)

    def test_count_takes_numpy_integers(self):
        assert check_count(np.int64(2), "n", 2) == 2

    @pytest.mark.parametrize("value", [NAN, INF, -1e-300, [0.0, NAN]])
    def test_points(self, value):
        with pytest.raises(ValueError, match="x must be finite and nonnegative"):
            check_points(value, "x")

    @pytest.mark.parametrize("value", [NAN, complex(NAN, 0.0), 1.0 + 2e-9, 1j * INF])
    def test_contraction(self, value):
        with pytest.raises(ValueError, match=r"\|a\| = .* exceeds 1"):
            check_contraction(value, "a")

    def test_contraction_tolerates_round_off(self):
        assert check_contraction(1.0 + 5e-10, "a") == complex(1.0 + 5e-10)

    @pytest.mark.parametrize("n, dt, t_max", [(3, 0.3, 1.0), (1, NAN, 1.0), (10, 0.1, NAN)])
    def test_grid(self, n, dt, t_max):
        with pytest.raises(ValueError, match="grid would end"):
            check_grid(n, dt, t_max)

    def test_grid_tolerates_round_off(self):
        assert check_grid(10, 0.1, 1.0) == 10

    @pytest.mark.parametrize("value", [NAN, INF, 0.05 + 2e-12, 0.5])
    def test_step(self, value):
        # one message for the trajectory and master-equation steps alike
        with pytest.raises(ValueError, match="r = .* exceeds 0.05: the step is too coarse "
                                             "for the at-most-one-photon criterion"):
            check_step(value, "r")

    def test_step_tolerates_round_off(self):
        assert MAX_RATE_DT == 0.05
        assert check_step(0.05 + 5e-13, "r") == 0.05 + 5e-13
