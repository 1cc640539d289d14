#!/usr/bin/env python3
"""Photon-counting quantum trajectories of a driven atom, and their average.

A resonantly driven two-level atom (Omega = Gamma) is watched by frequent
photon detection in a rectangular-spectrum environment.  Single runs show
Rabi oscillations interrupted by detector clicks that reset the atom to the
ground state; how often clicks happen is set by x = Lambda*tau, so frequent
measurement (small x) visibly starves the detector.  Averaging 5000 seeded
trajectories reproduces the Lindblad master equation with the matching
effective emission rate.  CSVs for the single runs, the ensemble mean, and
the master-equation curve land in out/.
"""

from pathlib import Path

import numpy as np

from zenoscope import (AtomState, DensityMatrix2, SpectralDensity,
                       gamma_closed_form, make_drive_config, run_ensemble,
                       simulate_trajectory, solve_master, write_csv)

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

OMEGA, T_MAX, SEED = 1.0, 10.0, 20260811
density = SpectralDensity.rectangular(gamma=1.0, lam=1.0)

print("Single trajectories (rectangular spectrum, Omega = Gamma)")
print(f"{'x':>6} {'gamma_eff':>10} {'clicks':>7}")
for x in (0.02, 0.2, 2.0):
    cfg, a_bar = make_drive_config(gamma_closed_form(density, x), OMEGA, T_MAX)
    record = simulate_trajectory(AtomState.excited(), cfg, a_bar, seed=SEED)
    path = OUT / f"trajectory_x_{x:g}.csv"
    record.to_csv(path)
    print(f"{x:6g} {cfg.gamma_eff:10.5f} {record.jump_count:7d}   -> {path.name}")

print("\nEnsemble of 5000 trajectories at x = 0.2 vs the master equation:")
cfg, a_bar = make_drive_config(gamma_closed_form(density, 0.2), OMEGA, T_MAX)
ensemble = run_ensemble(AtomState.excited(), cfg, a_bar, 5000, master_seed=SEED)
reference = solve_master(DensityMatrix2.excited(), OMEGA, cfg.gamma_eff,
                         cfg.t_max, cfg.dt_step)

ensemble.to_csv(OUT / "ensemble_x_0.2.csv")
write_csv(OUT / "lindblad_x_0.2.csv", {"t": ensemble.times, "p_e": reference})

deviation = np.max(np.abs(ensemble.p_e_mean - reference))
print(f"  mean clicks per trajectory: {ensemble.jump_count_mean:.3f} "
      f"+- {ensemble.jump_count_stderr:.3f}")
print(f"  sup-norm distance to the Lindblad curve: {deviation:.4f}")
print("  -> ensemble_x_0.2.csv, lindblad_x_0.2.csv")
