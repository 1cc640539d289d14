"""Quantitative reproduction checks for the published figures and rate laws.

Each check returns a :class:`CheckResult` whose ``statistic`` is compared
against a pinned tolerance; the CLI prints them as one line per check and
the acceptance test suite asserts them.  A check takes only its master
seed; tolerances, grids and ``ENSEMBLE_TRAJ`` are module constants.  All
stochastic checks run from fixed master seeds and are therefore exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import DensityMatrix2, solve_master
from .rates import RateSource, gamma_closed_form, gamma_lorentzian, rate_curve
from .spectral import MemoryKernel, Shape, SpectralDensity
from .trajectories import AtomState, make_drive_config, run_ensemble
from .volterra import analytic_lorentzian_a, null_result_survival, solve_decay

__all__ = [
    "CheckResult",
    "check_decay_accuracy",
    "check_conditioned_decay_lorentzian",
    "check_scaling_collapse",
    "check_closed_forms",
    "check_kk_equivalence",
    "check_ensemble_vs_lindblad",
    "check_zeno_jump_ordering",
    "SUITES",
    "run_suite",
]

DEFAULT_SEED = 20260811

#: pinned tolerances of the checks below; the CLI's check experiments use
#: the first four
TOL_DECAY = 1e-3
TOL_SCALING = 0.02
TOL_CLOSED = 1e-6
TOL_KK = 1e-8
TOL_ENSEMBLE = 0.03
#: trajectories per ensemble of the Fig. 4 checks, which ``TOL_ENSEMBLE`` is pinned at
ENSEMBLE_TRAJ = 5000
MIN_ZENO_SEPARATION = 3.0

#: widths (units of Gamma) compared in the decay-accuracy figure
DECAY_WIDTHS = (1.0, 5.0, 10.0, 100.0)
#: scaling variables probed by the conditioned-decay figures
X_VALUES = (2.0, 0.2, 0.02)
#: scan grid of the rate-equality checks
RATE_GRID = np.linspace(0.01, 20.0, 200)

_NON_LORENTZIAN = (Shape.GAUSSIAN, Shape.RECTANGULAR, Shape.DOUBLE_LORENTZIAN)
_ALL_SHAPES = (Shape.LORENTZIAN,) + _NON_LORENTZIAN


@dataclass(frozen=True)
class CheckResult:
    name: str
    statistic: float
    threshold: float
    op: str  # "<" or ">="
    detail: str = ""

    @property
    def passed(self) -> bool:
        if self.op == "<":
            return self.statistic < self.threshold
        return self.statistic >= self.threshold

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: statistic={self.statistic:.6g} "
                f"{self.op} {self.threshold:.6g} {self.detail}".rstrip())


def check_decay_accuracy() -> CheckResult:
    """Volterra solution against the closed-form Lorentzian decay (Fig. 1a)."""
    worst = 0.0
    for lam in DECAY_WIDTHS:
        kernel = MemoryKernel(SpectralDensity.lorentzian(1.0, lam))
        series = solve_decay(kernel, t_max=5.0)
        exact = analytic_lorentzian_a(series.times, gamma=1.0, lam=lam)
        worst = max(worst, float(np.max(np.abs(series.abs2 - np.abs(exact) ** 2))))
    return CheckResult("fig1a/decay-vs-analytic", worst, TOL_DECAY, "<",
                       detail=f"widths={DECAY_WIDTHS}")


def check_conditioned_decay_lorentzian() -> CheckResult:
    """Conditioned powers against the scaled exponential law (Fig. 1b)."""
    lam, t_max = 5.0, 10.0
    worst = 0.0
    kernel = MemoryKernel(SpectralDensity.lorentzian(1.0, lam))
    for x in X_VALUES:
        tau = x / lam
        n = int(round(t_max / tau))
        times, p_e = null_result_survival(kernel, tau, n)
        ref = np.exp(-gamma_lorentzian(x).real * times)
        worst = max(worst, float(np.max(np.abs(p_e - ref))))
    return CheckResult("fig1b/conditioned-decay-vs-scaling-law", worst, TOL_SCALING, "<",
                       detail=f"lam=5, x={X_VALUES}")


def check_scaling_collapse() -> CheckResult:
    """Width-independence of conditioned decay at fixed x (Fig. 2)."""
    lam_a, lam_b, t_max = 5.0, 100.0, 10.0
    ratio = int(round(lam_b / lam_a))
    worst = 0.0
    for shape in _NON_LORENTZIAN:
        for x in X_VALUES:
            tau_a = x / lam_a
            n_a = int(round(t_max / tau_a))
            ka = MemoryKernel(SpectralDensity(shape, 1.0, lam_a))
            kb = MemoryKernel(SpectralDensity(shape, 1.0, lam_b))
            _, p_a = null_result_survival(ka, tau_a, n_a)
            _, p_b = null_result_survival(kb, tau_a / ratio, n_a * ratio)
            worst = max(worst, float(np.max(np.abs(p_a - p_b[::ratio]))))
    return CheckResult("fig2/width-scaling-collapse", worst, TOL_SCALING, "<",
                       detail=f"lam={lam_a} vs {lam_b}, x={X_VALUES}")


def check_closed_forms() -> CheckResult:
    """Closed-form rates against the nested double integral, all shapes and a split peak."""
    worst = 0.0
    densities = [SpectralDensity(shape, 1.0, 1.0) for shape in _ALL_SHAPES]
    densities.append(SpectralDensity.double_lorentzian(1.0, 1.0, c=0.3, b=2.5))
    for density in densities:
        kernel = MemoryKernel(density)
        closed = rate_curve(kernel, RATE_GRID, RateSource.CLOSED_FORM).values
        numeric = rate_curve(kernel, RATE_GRID, RateSource.DOUBLE_INTEGRAL).values
        worst = max(worst, float(np.max(np.abs(numeric - closed) / np.abs(closed))))
    return CheckResult("rates/closed-vs-double-integral", worst, TOL_CLOSED, "<",
                       detail=f"x in [{RATE_GRID[0]}, {RATE_GRID[-1]}], 4 shapes "
                              f"and a double peak at c=0.3, b=2.5")


def check_kk_equivalence() -> CheckResult:
    """Double integral against the single-integral rate, all shapes."""
    worst = 0.0
    for shape in _ALL_SHAPES:
        kernel = MemoryKernel(SpectralDensity(shape, 1.0, 1.0))
        double = rate_curve(kernel, RATE_GRID, RateSource.DOUBLE_INTEGRAL).values
        single = rate_curve(kernel, RATE_GRID, RateSource.KK_INTEGRAL).values
        worst = max(worst, float(np.max(np.abs(double - single) / np.abs(double))))
    return CheckResult("appendix-a/double-vs-single-integral", worst, TOL_KK, "<",
                       detail=f"x in [{RATE_GRID[0]}, {RATE_GRID[-1]}], 4 shapes")


def _rectangular_run(x: float, omega: float, t_max: float, seed: int):
    density = SpectralDensity.rectangular(1.0, 1.0)
    gx = gamma_closed_form(density, x)
    cfg, a_bar = make_drive_config(gx, omega=omega, t_max=t_max)
    result = run_ensemble(AtomState.excited(), cfg, a_bar, ENSEMBLE_TRAJ, seed)
    return cfg, result


def check_ensemble_vs_lindblad(seed: int = DEFAULT_SEED) -> CheckResult:
    """Ensemble mean of ``ENSEMBLE_TRAJ`` trajectories against the master equation (Fig. 4d)."""
    cfg, result = _rectangular_run(x=0.2, omega=1.0, t_max=10.0, seed=seed)
    reference = solve_master(DensityMatrix2.excited(), omega=cfg.omega,
                             gamma_eff=cfg.gamma_eff, t_max=cfg.t_max, dt=cfg.dt_step)
    dev = float(np.max(np.abs(result.p_e_mean - reference)))
    return CheckResult("fig4d/ensemble-vs-lindblad", dev, TOL_ENSEMBLE, "<",
                       detail=f"rectangular, x=0.2, omega=1, n_traj={ENSEMBLE_TRAJ}, "
                              f"seed={seed}")


def check_zeno_jump_ordering(seed: int = DEFAULT_SEED) -> CheckResult:
    """Scarcer photon emission for smaller x, separated by >= 3 standard errors."""
    stats = []
    for i, x in enumerate(sorted(X_VALUES)):
        _, result = _rectangular_run(x=x, omega=1.0, t_max=10.0, seed=seed + i)
        stats.append((result.jump_count_mean, result.jump_count_stderr))
    separations = []
    for (m_lo, se_lo), (m_hi, se_hi) in zip(stats, stats[1:]):
        gap = m_hi - m_lo
        separations.append(gap / np.hypot(se_lo, se_hi))
    counts = ", ".join(f"{m:.4g}" for m, _ in stats)
    return CheckResult("fig4abc/zeno-jump-ordering", float(min(separations)),
                       MIN_ZENO_SEPARATION, ">=",
                       detail=f"mean counts (x=0.02, 0.2, 2): {counts}, seed={seed}")


#: suite name -> (its checks, whether they run from a master seed)
SUITES = {
    "fig1": ((check_decay_accuracy, check_conditioned_decay_lorentzian), False),
    "fig2": ((check_scaling_collapse,), False),
    "fig4": ((check_ensemble_vs_lindblad, check_zeno_jump_ordering), True),
    "rates": ((check_closed_forms,), False),
    "appendix-a": ((check_kk_equivalence,), False),
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run one named verification suite and return its check results."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    checks, seeded = SUITES[name]
    kwargs = {"seed": seed} if seeded else {}
    return [check(**kwargs) for check in checks]
