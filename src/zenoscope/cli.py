"""Command-line front end: experiment runner and figure-verification suites.

Experiments are described by plain-text config files with ``key = value``
lines and ``#`` comments, one experiment per file; command-line flags
override file values.  Rates and times are expressed in units of ``Gamma``
and ``1/Gamma`` (``gamma`` defaults to 1), matching the axes of the
reproduced figures.  Results are written as CSV in the per-module export
formats; check experiments additionally print a one-line summary with their
maximum deviation and exit with status 2 when a tolerance is breached
(status 1 flags invalid configuration).
"""

from __future__ import annotations

import dataclasses
import math
import sys
import typing
from dataclasses import dataclass
from functools import partial

import click
import numpy as np

from .lindblad import DensityMatrix2, solve_master
from .rates import RateSource, gamma_closed_form, gamma_numeric, rate_curve
from .spectral import (MemoryKernel, Shape, SpectralDensity, check_count, check_positive,
                       check_size, load_tabulated_profile, write_csv)
from .trajectories import (AtomState, make_drive_config, memory_drive_config, run_ensemble,
                           simulate_trajectory)
from .verify import DEFAULT_SEED, TOL_CLOSED, TOL_DECAY, TOL_KK, TOL_SCALING, run_suite
from .volterra import analytic_lorentzian_a, null_result_survival, solve_decay

class ConfigError(ValueError):
    """Invalid experiment configuration (carries a line-numbered message)."""


@dataclass
class RunConfig:
    """Typed contents of one experiment config file."""

    experiment: str | None = None
    shape: str | None = None
    gamma: float = 1.0
    lam: float | None = None
    lambda_alt: float | None = None
    c: float = 0.0
    b: float = 1.0
    table: str | None = None
    dt: float | None = None
    t_max: float | None = None
    x: float | None = None
    tau: float | None = None
    n: int | None = None
    omega: float = 0.0
    n_traj: int = 5000
    seed: int = 0
    a_bar_mode: str = "scaling"
    x_min: float = 0.01
    x_max: float = 20.0
    x_points: int = 200
    out: str | None = None


# config key -> (dataclass field, parser): every field is its own key except ``lam``,
# and the parser of a field typed ``T`` or ``T | None`` is ``T``
_KEYS = {"lambda" if name == "lam" else name: (name, (typing.get_args(hint) or (hint,))[0])
         for name, hint in typing.get_type_hints(RunConfig).items()}
_FIELD_TO_KEY = {field: key for key, (field, _) in _KEYS.items()}


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field, cast = _KEYS[key]
        try:
            parsed = cast(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse {value!r} as {cast.__name__} for key {key!r}")
        if cast is float and not math.isfinite(parsed):
            raise ConfigError(f"line {lineno}: key {key!r} must be finite, got {value!r}")
        setattr(cfg, field, parsed)
    if cfg.experiment is None:
        raise ConfigError("missing required key 'experiment'")
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {cfg.experiment!r}; choose from {', '.join(EXPERIMENTS)}")
    return cfg


def dump_config(cfg: RunConfig) -> str:
    lines = []
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if value is None:
            continue
        lines.append(f"{_FIELD_TO_KEY[field.name]} = {value}")
    return "\n".join(lines) + "\n"


def _density(cfg: RunConfig) -> SpectralDensity:
    if cfg.shape is None:
        raise ConfigError("missing required key 'shape'")
    try:
        shape = Shape(cfg.shape)
    except ValueError:
        raise ConfigError(f"unknown shape {cfg.shape!r}; choose from "
                          f"{', '.join(s.value for s in Shape)}")
    if cfg.lam is None:
        raise ConfigError("missing required key 'lambda'")
    table = None
    if shape is Shape.TABULATED:
        if cfg.table is None:
            raise ConfigError("tabulated shape requires key 'table' (profile file path)")
        table = load_tabulated_profile(cfg.table)
    return SpectralDensity(shape, gamma=cfg.gamma, lam=cfg.lam, c=cfg.c, b=cfg.b, table=table)


def _tau_and_x(cfg: RunConfig, density: SpectralDensity) -> tuple[float, float]:
    for key in ("tau", "x"):
        if getattr(cfg, key) is not None:
            check_positive(getattr(cfg, key), f"key {key!r}")
    if cfg.tau is not None:
        tau, x = cfg.tau, cfg.tau * density.lam
    elif cfg.x is not None:
        tau, x = cfg.x / density.lam, cfg.x
    else:
        raise ConfigError(f"experiment '{cfg.experiment}' requires key 'x' or 'tau'")
    if not (0 < tau < math.inf and 0 < x < math.inf):
        raise ConfigError(f"tau = {tau:g} and x = lambda*tau = {x:g} must be positive and finite")
    return tau, x


def _gamma_of_x(density: SpectralDensity, kernel: MemoryKernel, x: float) -> complex:
    try:
        return complex(gamma_closed_form(density, x))
    except ValueError:
        return gamma_numeric(kernel, x)


# -- experiment implementations; each returns (exit_code, summary) ----------


def _exp_decay(cfg: RunConfig, out: str):
    density = _density(cfg)
    kernel = MemoryKernel(density)
    t_max = cfg.t_max if cfg.t_max is not None else 5.0 / density.gamma
    series = solve_decay(kernel, t_max=t_max, dt=cfg.dt)
    series.to_csv(out)
    if density.shape is Shape.LORENTZIAN:
        exact = analytic_lorentzian_a(series.times, density.gamma, density.lam,
                                      density.energy_offset)
        dev = float(np.max(np.abs(series.abs2 - np.abs(exact) ** 2)))
        status = 0 if dev < TOL_DECAY else 2
        return status, f"decay: max_dev(|a|^2) = {dev:.3e} (tol {TOL_DECAY:g}) -> {out}"
    return 0, (f"decay: {len(series.values)} points, "
               f"|a(t_max)|^2 = {series.abs2[-1]:.6g} -> {out}")


def _exp_null_decay(cfg: RunConfig, out: str):
    density = _density(cfg)
    kernel = MemoryKernel(density)
    tau, x = _tau_and_x(cfg, density)
    t_max = cfg.t_max if cfg.t_max is not None else 10.0 / density.gamma
    n = cfg.n if cfg.n is not None else int(round(check_size(t_max / tau, "t_max/tau")))
    times, p_e = null_result_survival(kernel, tau, n)
    ref = np.exp(-_gamma_of_x(density, kernel, x).real * times)
    write_csv(out, {"t": times, "p_e": p_e, "p_e_scaling": ref})
    dev = float(np.max(np.abs(p_e - ref)))
    status = 0 if dev < TOL_SCALING else 2
    return status, (f"null_decay: x = {x:g}, max_dev(P_e) = {dev:.3e} "
                    f"(tol {TOL_SCALING:g}) -> {out}")


def _max_rel_dev(values, reference, grid) -> float:
    """Largest ``|values - reference| / |reference|`` over the points ``x > 0``.

    Every route gives exactly 0 at ``x = 0``, where the ratio is undefined.
    """
    pos = grid > 0
    return float(np.max(np.abs(values[pos] - reference[pos]) / np.abs(reference[pos]),
                        initial=0.0))


def _exp_gamma_curve(cfg: RunConfig, out: str, kk_only: bool = False):
    check_size(check_count(cfg.x_points, "key 'x_points'", 1), "x_points")
    if cfg.x_min > cfg.x_max:
        raise ConfigError(f"key 'x_min' = {cfg.x_min:g} exceeds key 'x_max' = {cfg.x_max:g}")
    if cfg.x_min == cfg.x_max and cfg.x_points > 1:
        raise ConfigError(f"key 'x_min' = {cfg.x_min:g} equals key 'x_max', but key 'x_points' "
                          f"= {cfg.x_points} asks for distinct points")
    density = _density(cfg)
    kernel = MemoryKernel(density)
    grid = np.linspace(cfg.x_min, cfg.x_max, cfg.x_points)
    numeric = rate_curve(kernel, grid, RateSource.DOUBLE_INTEGRAL).values
    kk = rate_curve(kernel, grid, RateSource.KK_INTEGRAL).values
    try:
        closed = None if kk_only else np.asarray(gamma_closed_form(density, grid), complex)
    except ValueError:
        closed = None

    g = density.gamma
    columns = {"x": grid}
    if closed is not None:
        columns.update(re_closed=closed.real / g, im_closed=closed.imag / g)
    columns.update(re_numeric=numeric.real / g, im_numeric=numeric.imag / g,
                   re_kk=kk.real / g, im_kk=kk.imag / g)
    write_csv(out, columns)

    dev_kk = _max_rel_dev(kk, numeric, grid)
    status = 0 if dev_kk < TOL_KK else 2
    parts = [f"numeric_vs_kk = {dev_kk:.3e} (tol {TOL_KK:g})"]
    if closed is not None:
        dev_closed = _max_rel_dev(numeric, closed, grid)
        parts.insert(0, f"closed_vs_numeric = {dev_closed:.3e} (tol {TOL_CLOSED:g})")
        if dev_closed >= TOL_CLOSED:
            status = 2
    name = "kk_check" if kk_only else "gamma_curve"
    return status, f"{name}: max_rel_dev {', '.join(parts)} -> {out}"


def _exp_scaling_check(cfg: RunConfig, out: str):
    base = _density(cfg)
    lam_a = base.lam
    lam_b = cfg.lambda_alt if cfg.lambda_alt is not None else 20.0 * lam_a
    if lam_b <= lam_a:
        raise ConfigError("lambda_alt must exceed lambda for a scaling check")
    tau_a, x = _tau_and_x(cfg, base)
    t_max = cfg.t_max if cfg.t_max is not None else 10.0 / base.gamma
    n_a = (check_size(cfg.n, "n") if cfg.n is not None
           else int(round(check_size(t_max / tau_a, "t_max/tau"))))

    dens_b = base.with_width(lam_b)
    tau_b = x / lam_b
    n_b = math.ceil(check_size(n_a * tau_a / tau_b, "t_max/tau at lambda_alt"))
    t_a, p_a = null_result_survival(MemoryKernel(base), tau_a, n_a)
    t_b, p_b = null_result_survival(MemoryKernel(dens_b), tau_b, n_b)
    p_b_common = np.interp(t_a, t_b, p_b)
    write_csv(out, {"t": t_a, "p_e_lambda": p_a, "p_e_lambda_alt": p_b_common})
    dev = float(np.max(np.abs(p_a - p_b_common)))
    status = 0 if dev < TOL_SCALING else 2
    return status, (f"scaling_check: x = {x:g}, lambda = {lam_a:g} vs {lam_b:g}, "
                    f"max_dev = {dev:.3e} (tol {TOL_SCALING:g}) -> {out}")


def _detection_setup(cfg: RunConfig):
    density = _density(cfg)
    kernel = MemoryKernel(density)
    tau, x = _tau_and_x(cfg, density)
    t_max = cfg.t_max if cfg.t_max is not None else 10.0 / density.gamma
    gx = _gamma_of_x(density, kernel, x)
    if cfg.a_bar_mode == "scaling":
        drive, a_bar = make_drive_config(gx, omega=cfg.omega, t_max=t_max)
    elif cfg.a_bar_mode == "memory":
        drive, a_bar = memory_drive_config(kernel, gx, omega=cfg.omega, t_max=t_max, tau=tau)
    else:
        raise ConfigError(f"a_bar_mode must be 'scaling' or 'memory', got {cfg.a_bar_mode!r}")
    return drive, a_bar, x


def _exp_trajectory(cfg: RunConfig, out: str):
    drive, a_bar, x = _detection_setup(cfg)
    record = simulate_trajectory(AtomState.excited(), drive, a_bar, cfg.seed)
    record.to_csv(out)
    return 0, (f"trajectory: x = {x:g}, {drive.n_steps} steps, "
               f"{record.jump_count} jumps (seed {cfg.seed}) -> {out}")


def _exp_ensemble(cfg: RunConfig, out: str):
    drive, a_bar, x = _detection_setup(cfg)
    result = run_ensemble(AtomState.excited(), drive, a_bar, cfg.n_traj, cfg.seed)
    result.to_csv(out)
    lindblad_out = out.rsplit(".", 1)[0] + "_lindblad.csv"
    p_ref = solve_master(DensityMatrix2.excited(), drive.omega, drive.gamma_eff,
                         drive.t_max, drive.dt_step)
    write_csv(lindblad_out, {"t": result.times, "p_e": p_ref})
    dev = float(np.max(np.abs(result.p_e_mean - p_ref)))
    return 0, (f"ensemble: x = {x:g}, n_traj = {cfg.n_traj}, "
               f"mean_jumps = {result.jump_count_mean:.4g} +- {result.jump_count_stderr:.2g}, "
               f"sup_dev_vs_lindblad = {dev:.3e} -> {out}, {lindblad_out}")


#: experiment name -> implementation, in the order the help lists them
EXPERIMENTS = {
    "decay": _exp_decay,
    "null_decay": _exp_null_decay,
    "gamma_curve": _exp_gamma_curve,
    "scaling_check": _exp_scaling_check,
    "trajectory": _exp_trajectory,
    "ensemble": _exp_ensemble,
    "kk_check": partial(_exp_gamma_curve, kk_only=True),
}


@click.group()
def main():
    """Frequent-measurement decay and quantum-trajectory experiments."""


@main.command()
@click.argument("config", type=str)
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", type=str, default=None, help="Override the output CSV path.")
@click.option("--dump-config", "dump_requested", is_flag=True, default=False,
              help="Echo the normalised config and exit without running.")
def run(config, seed, out, dump_requested):
    """Run one experiment described by a CONFIG file."""
    try:
        with open(config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        if seed is not None:
            cfg.seed = seed
        if out is not None:
            cfg.out = out
        if dump_requested:
            click.echo(dump_config(cfg), nl=False)
            sys.exit(0)
        target = cfg.out if cfg.out is not None else f"{cfg.experiment}.csv"
        status, summary = EXPERIMENTS[cfg.experiment](cfg, target)
    except (ConfigError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    click.echo(summary)
    sys.exit(status)


@main.command()
@click.argument("suite", type=str)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True,
              help="Master seed for stochastic suites.")
def verify(suite, seed):
    """Run a named figure-verification suite (one PASS/FAIL line per check)."""
    try:
        results = run_suite(suite, seed=seed)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    failed = False
    for result in results:
        click.echo(result.line())
        failed = failed or not result.passed
    sys.exit(2 if failed else 0)


if __name__ == "__main__":
    main()
