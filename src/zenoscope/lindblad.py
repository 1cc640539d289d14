"""Ensemble-level reference dynamics: driven two-level Lindblad equation.

Averaging the photon-counting trajectories over many runs must reproduce the
master equation

    drho/dt = -i [omega sigma_x, rho]
              + gamma_eff (sigma- rho sigma+ - 1/2 {sigma+ sigma-, rho}) ,

the unique ensemble generator consistent with the jump/no-click update rule.
A fixed-step classical 4th-order integrator with per-step re-Hermitisation
is accurate to machine level at the step sizes admitted here and keeps the
reference entirely independent of the stochastic sampler it validates.
The generator is linear and constant in time, so the RK4 increment of one
step is a linear map on ``rho``: it is tabulated once as a 4x4 matrix by
applying the four-stage update to the four matrix units, and each step is
then one matrix-vector product, the addition to ``rho`` and the
re-Hermitisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DensityMatrix2", "lindblad_rhs", "solve_master", "write_master_csv"]

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_PROJ_E = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class DensityMatrix2:
    """Two-level density matrix in the ``{|e>, |g>}`` basis."""

    ee: complex
    eg: complex
    ge: complex
    gg: complex

    @classmethod
    def from_matrix(cls, m) -> "DensityMatrix2":
        m = np.asarray(m, dtype=complex)
        return cls(ee=m[0, 0], eg=m[0, 1], ge=m[1, 0], gg=m[1, 1])

    @classmethod
    def from_state(cls, alpha: complex, beta: complex) -> "DensityMatrix2":
        return cls(ee=alpha * np.conj(alpha), eg=alpha * np.conj(beta),
                   ge=beta * np.conj(alpha), gg=beta * np.conj(beta))

    @classmethod
    def excited(cls) -> "DensityMatrix2":
        return cls(1.0 + 0.0j, 0.0j, 0.0j, 0.0j)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.ee, self.eg], [self.ge, self.gg]], dtype=complex)

    @property
    def trace(self) -> complex:
        return self.ee + self.gg

    def validate(self, tol: float = 1e-8):
        if abs(np.conj(self.eg) - self.ge) > tol:
            raise ValueError("density matrix is not Hermitian")
        if abs(self.trace - 1.0) > tol:
            raise ValueError(f"trace = {self.trace!r} differs from 1 beyond {tol}")
        if np.min(np.linalg.eigvalsh(self.matrix)) < -tol:
            raise ValueError("density matrix has a negative eigenvalue")


def _rhs_matrix(rho: np.ndarray, omega: float, gamma_eff: float) -> np.ndarray:
    h = omega * _SIGMA_X
    comm = h @ rho - rho @ h
    jump = _SIGMA_MINUS @ rho @ _SIGMA_MINUS.conj().T
    anti = _PROJ_E @ rho + rho @ _PROJ_E
    return -1j * comm + gamma_eff * (jump - 0.5 * anti)


def _rk4_increment(rho: np.ndarray, omega: float, gamma_eff: float, dt: float) -> np.ndarray:
    k1 = _rhs_matrix(rho, omega, gamma_eff)
    k2 = _rhs_matrix(rho + 0.5 * dt * k1, omega, gamma_eff)
    k3 = _rhs_matrix(rho + 0.5 * dt * k2, omega, gamma_eff)
    k4 = _rhs_matrix(rho + dt * k3, omega, gamma_eff)
    return dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_increment_matrix(omega: float, gamma_eff: float, dt: float) -> np.ndarray:
    """RK4 increment ``rho(t + dt) - rho(t)`` as a 4x4 matrix on ``rho.ravel()``.

    The increment rather than the full step is tabulated: its columns are
    traceless up to round-off of their own small size, whereas the columns
    of the full step carry round-off of order one, which would make the
    trace drift linearly with the step count.
    """
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    return np.stack([_rk4_increment(u, omega, gamma_eff, dt).ravel() for u in units],
                    axis=1)


def lindblad_rhs(rho: DensityMatrix2, omega: float, gamma_eff: float) -> DensityMatrix2:
    """Generator applied to ``rho``; traceless by construction."""
    return DensityMatrix2.from_matrix(_rhs_matrix(rho.matrix, omega, gamma_eff))


def solve_master(rho0: DensityMatrix2, omega: float, gamma_eff: float,
                 t_max: float, dt: float, full_output: bool = False):
    """Propagate the master equation on a uniform grid.

    Parameters
    ----------
    rho0 : DensityMatrix2
        Initial state.
    omega, gamma_eff : float
        Drive and emission rates of the generator.
    t_max, dt : float
        Time horizon and fixed step; ``dt * max(omega, gamma_eff)`` must not
        exceed 0.05.
    full_output : bool
        When true, also return the full state history as an
        ``(n_steps + 1, 2, 2)`` array.

    Returns
    -------
    ndarray
        ``P_e(k dt) = rho_ee`` on the grid (and the history if requested).
    """
    for name, value in (("omega", omega), ("gamma_eff", gamma_eff),
                        ("t_max", t_max), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if t_max <= 0 or dt <= 0:
        raise ValueError(f"t_max and dt must be positive, got {t_max}, {dt}")
    if dt * max(abs(omega), gamma_eff) > 0.05 + 1e-12:
        raise ValueError(
            f"dt = {dt} too coarse: dt*max(omega, gamma_eff) = "
            f"{dt * max(abs(omega), gamma_eff):.3g} > 0.05")

    n = int(round(t_max / dt))
    increment = _rk4_increment_matrix(omega, gamma_eff, dt)
    rho = rho0.matrix
    p_e = np.empty(n + 1)
    p_e[0] = rho[0, 0].real
    history = np.empty((n + 1, 2, 2), dtype=complex) if full_output else None
    if full_output:
        history[0] = rho

    for k in range(1, n + 1):
        rho = rho + (increment @ rho.ravel()).reshape(2, 2)
        rho = 0.5 * (rho + rho.conj().T)
        p_e[k] = rho[0, 0].real
        if full_output:
            history[k] = rho

    if full_output:
        return p_e, history
    return p_e


def write_master_csv(path, times, p_e):
    """CSV export of an ensemble-level occupation curve (header ``t,p_e``)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,p_e\n")
        for t, p in zip(times, p_e):
            fh.write(f"{t:.12g},{p:.12g}\n")
