"""Null-measurement-conditioned decay and quantum trajectories in structured environments.

The package models a two-level emitter coupled to a finite-bandwidth
reservoir and observed by frequent photon detection:

* :mod:`zenoscope.spectral` -- spectral-density models and memory kernels,
* :mod:`zenoscope.volterra` -- the decay-amplitude Volterra solver and
  null-result conditioning,
* :mod:`zenoscope.rates` -- effective decay rates and their scaling laws,
* :mod:`zenoscope.trajectories` -- seeded Monte-Carlo photon-counting
  trajectories,
* :mod:`zenoscope.lindblad` -- the ensemble-level master-equation reference,
* :mod:`zenoscope.verify` -- quantitative figure-reproduction checks,
* :mod:`zenoscope.cli` -- the ``zenoscope`` command-line front end.
"""

from .lindblad import DensityMatrix2, solve_master
from .rates import (
    RateCurve,
    RateSource,
    gamma_closed_form,
    gamma_eff,
    gamma_gaussian,
    gamma_lorentzian,
    gamma_numeric,
    gamma_rectangular,
    rate_curve,
)
from .spectral import (
    KernelMode,
    MemoryKernel,
    Shape,
    SpectralDensity,
    kernel_value,
    load_tabulated_profile,
    scaled_kernel_g,
    sdf_value,
    uniform_kernel_g,
    write_csv,
)
from .trajectories import (
    AtomState,
    DriveConfig,
    EnsembleResult,
    TrajectoryRecord,
    child_seed,
    make_drive_config,
    make_rng,
    memory_drive_config,
    run_ensemble,
    simulate_trajectory,
)
from .volterra import (
    DecaySeries,
    analytic_lorentzian_a,
    default_time_step,
    interval_amplitude,
    null_conditioned_power,
    null_result_survival,
    solve_decay,
)

__version__ = "0.1.0"
