"""Ensemble-level reference dynamics: driven two-level Lindblad equation.

Averaging the photon-counting trajectories over many runs must reproduce the
master equation

    drho/dt = -i [omega sigma_x, rho]
              + gamma_eff (sigma- rho sigma+ - 1/2 {sigma+ sigma-, rho}) ,

the unique ensemble generator consistent with the jump/no-click update rule.
A fixed-step classical 4th-order integrator is accurate to machine level at
the step sizes admitted here and keeps the reference entirely independent of
the stochastic sampler it validates.

The generator maps Hermitian matrices to Hermitian matrices, so it acts as a
real 4x4 matrix ``L`` on ``v = (rho_ee, rho_gg, Re rho_eg, Im rho_eg)``, and
Hermiticity holds by construction.  On this linear, time-independent ODE one
RK4 step is exactly ``v -> v + M v`` with the increment
``M = A + A^2/2 + A^3/6 + A^4/24``, ``A = dt L``.  The states of all steps are
filled by doubling: with ``M_m`` the increment of ``m`` steps, the columns
``m .. 2m - 1`` are ``v_j + M_m v_j`` for the columns ``j < m`` already
filled, and ``M_2m = 2 M_m + M_m^2``.  That takes ``log2(n)`` small matrix
products for ``n`` steps.  The increment rather than the full step is
propagated: its columns are traceless up to round-off of their own small
size, whereas the columns of the full step carry round-off of order one,
which would make the trace drift with the step count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import check_finite, check_grid, check_positive, check_size, check_step

__all__ = ["DensityMatrix2", "solve_master"]


@dataclass(frozen=True)
class DensityMatrix2:
    """Two-level density matrix in the ``{|e>, |g>}`` basis."""

    ee: complex
    eg: complex
    ge: complex
    gg: complex

    def __post_init__(self):
        for name in ("ee", "eg", "ge", "gg"):
            check_finite(getattr(self, name), name)

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

    def validate(self):
        tol = 1e-8
        if abs(np.conj(self.eg) - self.ge) > tol:
            raise ValueError("density matrix is not Hermitian")
        if abs(self.trace - 1.0) > tol:
            raise ValueError(f"trace = {self.trace!r} differs from 1 beyond {tol}")
        if np.min(np.linalg.eigvalsh(self.matrix)) < -tol:
            raise ValueError("density matrix has a negative eigenvalue")


def _real_generator(omega: float, gamma_eff: float) -> np.ndarray:
    """Generator as a real 4x4 matrix on ``(rho_ee, rho_gg, Re rho_eg, Im rho_eg)``.

    The generator is traceless, so the ``gg`` row is the negated ``ee`` row and
    every power of the map keeps the trace to round-off.
    """
    w, g = omega, gamma_eff
    return np.array([[-g, 0.0, 0.0, -2.0 * w],
                     [g, 0.0, 0.0, 2.0 * w],
                     [0.0, 0.0, -0.5 * g, 0.0],
                     [w, -w, 0.0, -0.5 * g]])


def _rk4_increment_matrix(omega: float, gamma_eff: float, dt: float) -> np.ndarray:
    """RK4 increment ``v(t + dt) - v(t)`` as a real 4x4 matrix."""
    a = dt * _real_generator(omega, gamma_eff)
    a2 = a @ a
    a3 = a2 @ a
    return a + a2 / 2.0 + a3 / 6.0 + (a3 @ a) / 24.0


def solve_master(rho0: DensityMatrix2, omega: float, gamma_eff: float,
                 t_max: float, dt: float, full_output: bool = False):
    """Propagate the master equation on a uniform grid.

    Parameters
    ----------
    rho0 : DensityMatrix2
        Initial state; its Hermitian part is propagated.
    omega, gamma_eff : float
        Drive and emission rates of the generator.
    t_max, dt : float
        Time horizon and fixed step; ``dt * max(omega, gamma_eff)`` must not
        exceed ``MAX_RATE_DT`` (``check_step``), and the grid must land on
        ``t_max`` to ``1e-9 t_max``.
    full_output : bool
        When true, also return the full state history as an
        ``(n_steps + 1, 2, 2)`` array, Hermitian bit for bit.

    Returns
    -------
    ndarray
        ``P_e(k dt) = rho_ee`` on the grid (and the history if requested).
    """
    check_finite(omega, "omega")
    check_finite(gamma_eff, "gamma_eff")
    check_positive(check_finite(t_max, "t_max"), "t_max")
    check_positive(check_finite(dt, "dt"), "dt")
    if gamma_eff < 0:
        raise ValueError(f"gamma_eff must be nonnegative, got {gamma_eff}")
    check_step(dt * max(abs(omega), gamma_eff), "dt*max(omega, gamma_eff)")

    n = check_grid(int(round(check_size(t_max / dt, "t_max/dt"))), dt, t_max)
    eg = 0.5 * (rho0.eg + np.conj(rho0.ge))   # the Hermitian part of rho0
    v = np.empty((4, n + 1))
    v[:, 0] = (rho0.ee.real, rho0.gg.real, eg.real, eg.imag)
    increment, m = _rk4_increment_matrix(omega, gamma_eff, dt), 1
    while m <= n:
        k = min(m, n + 1 - m)
        v[:, m:m + k] = v[:, :k] + increment @ v[:, :k]
        increment = 2.0 * increment + increment @ increment
        m *= 2

    p_e = v[0]
    if not full_output:
        return p_e
    history = np.zeros((n + 1, 2, 2), dtype=complex)
    history.real[:, 0, 0] = v[0]
    history.real[:, 1, 1] = v[1]
    history.real[:, 0, 1] = history.real[:, 1, 0] = v[2]
    history.imag[:, 0, 1] = v[3]
    history.imag[:, 1, 0] = -v[3]
    return p_e, history

