"""Decay amplitude of the excited state: Volterra solver and null-result powers.

With the trivial phase removed, the excited-state amplitude ``a(t)`` of a
spontaneously emitting two-level atom obeys

    da/dt = -i * integral_0^t F(u) a(t-u) du ,        a(0) = 1,

with the memory kernel ``F`` of :mod:`zenoscope.spectral`.  This module
integrates that equation by a discretised convolution recurrence, provides
the closed-form solution available for the Lorentzian density as a
validation reference, and assembles the null-measurement-conditioned
amplitude ``[a(tau)]**n`` that drives the frequently-observed dynamics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .spectral import (MemoryKernel, check_contraction, check_count, check_finite, check_grid,
                       check_points, check_positive, check_size, kernel_value, uniform_kernel_g,
                       write_csv)

__all__ = [
    "AtomState",
    "DecaySeries",
    "default_time_step",
    "solve_decay",
    "analytic_lorentzian_a",
    "interval_amplitude",
    "null_conditioned_power",
    "null_result_survival",
]

#: hard step-size rejection threshold, in units of the kernel width
MAX_DT_LAM = 0.5
#: entries per block of the elementwise libm maps (:func:`_abs2`, :func:`null_result_survival`):
#: their Python-float temporaries stay O(block) whatever the output length
POWER_BLOCK = 4096


@dataclass(frozen=True)
class AtomState:
    """Normalised two-level amplitudes ``alpha |e> + beta |g>``."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        check_finite(self.alpha, "alpha")
        check_finite(self.beta, "beta")
        n2 = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(n2 - 1.0) > 1e-9:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {n2!r} differs from 1 beyond 1e-9")

    @property
    def p_excited(self) -> float:
        return abs(self.alpha) ** 2

    @classmethod
    def excited(cls) -> "AtomState":
        return cls(1.0 + 0.0j, 0.0j)

    @classmethod
    def ground(cls) -> "AtomState":
        return cls(0.0j, 1.0 + 0.0j)


@dataclass(frozen=True)
class DecaySeries:
    """Decay amplitudes ``a(k*dt)`` on a uniform grid, ``values[0] = 1``."""

    dt: float
    values: np.ndarray
    kernel: MemoryKernel

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.values))

    @property
    def abs2(self) -> np.ndarray:
        """Occupation ``|a(t)|**2`` along the grid, bit for bit ``abs(a) ** 2`` of each entry."""
        return _abs2(self.values.real, self.values.imag, np.empty(len(self.values)))

    def to_csv(self, path):
        write_csv(path, {"t": self.times, "re_a": self.values.real, "im_a": self.values.imag,
                         "abs2_a": self.abs2})


def _abs2(re, im, out):
    """Fill ``out`` with ``abs(complex(re, im)) ** 2``, bit for bit, ``POWER_BLOCK`` at a time.

    libm ``hypot`` (``np.hypot`` calls it too), then libm ``pow(h, 2.0)``.
    ``np.abs`` and ``h * h`` round differently in the last bit of some entries.
    """
    for lo in range(0, len(out), POWER_BLOCK):
        h = np.hypot(re[lo:lo + POWER_BLOCK], im[lo:lo + POWER_BLOCK]).tolist()
        out[lo:lo + len(h)] = np.fromiter(map(math.pow, h, [2.0] * len(h)), float, len(h))
    return out


def default_time_step(kernel: MemoryKernel) -> float:
    """Step resolving both the kernel width and the bare decay rate.

    ``dt = min(0.02/lam, 0.002/gamma)``: the first bound tracks the memory
    time of the kernel, the second the atomic decay time.
    """
    d = kernel.density
    return min(0.02 / d.lam, 0.002 / d.gamma)


def solve_decay(kernel: MemoryKernel, t_max: float, dt: float | None = None,
                scheme: str = "trapezoid") -> DecaySeries:
    """Integrate the decay amplitude up to ``t_max`` with step ``dt``.

    Parameters
    ----------
    kernel : MemoryKernel
        Kernel evaluator; its values on the grid are computed once up front,
        which keeps the O(N^2) convolution the only expensive part.
        Compact-support quadrature kernels are sampled on the whole grid at
        once by :func:`~zenoscope.spectral.uniform_kernel_g`.
    t_max : float
        Final time (must be positive).
    dt : float, optional
        Time step; defaults to :func:`default_time_step`, whose grid takes
        ``round(t_max/dt)`` steps and so may end up to half a step before or
        after ``t_max``.  An explicit ``dt`` must land on ``t_max``: one
        whose grid misses it by more than ``1e-9 t_max`` is rejected, as are
        steps coarser than ``0.5/lam``.
    scheme : {"trapezoid", "paper"}
        ``"paper"`` is the plain rectangle-rule recurrence

            a_N = a_{N-1} - i dt^2 sum_{j=1..N} F(j dt) a_{N-j} ,

        first-order accurate.  ``"trapezoid"`` (default) applies trapezoid
        end-point weights to the convolution and averages the rates of two
        successive steps, which is second-order accurate; the implicit
        half-weight ``F(0) a_N`` term is solved for algebraically.

    Returns
    -------
    DecaySeries
        Amplitudes ``a(k dt)`` for ``k = 0..round(t_max/dt)``.
    """
    explicit_dt = dt is not None
    if dt is None:
        dt = default_time_step(kernel)
    check_positive(t_max, "t_max")
    if not 0 < dt <= t_max:
        raise ValueError(f"dt must satisfy 0 < dt <= t_max, got dt={dt}, t_max={t_max}")
    lam = kernel.density.lam
    if dt * lam > MAX_DT_LAM:
        raise ValueError(
            f"dt={dt} is too coarse for kernel width lam={lam}: dt*lam = {dt*lam:.3g} > {MAX_DT_LAM}")
    if scheme not in ("trapezoid", "paper"):
        raise ValueError(f"unknown scheme {scheme!r}")

    n = int(round(check_size(t_max / dt, "t_max/dt")))
    if explicit_dt:
        check_grid(n, dt, t_max)
    if kernel.compact_support is None:
        k = kernel_value(kernel, dt * np.arange(n + 1))
    else:
        k = lam * uniform_kernel_g(kernel, lam * dt * n, n)
    krev = k[::-1].copy()  # krev[i] = k[n-i]; keeps the convolution dots contiguous
    a = np.empty(n + 1, dtype=complex)
    a[0] = 1.0

    dot = np.dot
    if scheme == "paper":
        for m in range(1, n + 1):
            conv = dot(krev[n - m:n], a[:m])  # sum_{j=1..m} k[j] a[m-j]
            a[m] = a[m - 1] - 1j * dt * dt * conv
    else:
        half_k = (0.5 * k).tolist()
        half_k0 = half_k[0]
        # np.complex128 on purpose: numpy's complex division rounds differently from Python's
        denom = np.complex128(1.0 + 0.25j * dt * dt * k[0])
        half_idt = 0.5j * dt
        rate_prev = 0.0j  # convolution integral at the previous step
        a_prev = 1.0 + 0.0j
        for m in range(1, n + 1):
            known = dot(krev[n - m + 1:n], a[1:m]) + half_k[m]
            a[m] = a_prev = (a_prev - half_idt * (rate_prev + dt * known)) / denom
            rate_prev = dt * (half_k0 * a_prev + known)

    return DecaySeries(dt=dt, values=a, kernel=kernel)


def analytic_lorentzian_a(t, gamma: float, lam: float, energy_offset: float = 0.0):
    """Closed-form decay factor for the Lorentzian spectral density.

    ``a(t) = (A+ e^{-A- t} - A- e^{-A+ t}) / (A+ - A-)`` with
    ``A+- = [lam - iE +- sqrt((lam - iE)^2 - 2 gamma lam)]/2`` on the
    principal branch.  The degenerate double root ``A+ = A-`` (reached e.g.
    at ``lam = 2 gamma``, ``E = 0``) is evaluated by its limit
    ``(1 + A t) e^{-A t}``.  Accepts scalar or array ``t >= 0``.
    """
    ts = check_points(t, "t")
    for name, value in (("gamma", gamma), ("lam", lam)):
        check_finite(check_positive(value, name), name)
    z = lam - 1j * check_finite(energy_offset, "energy_offset")
    root = np.sqrt(z * z - 2.0 * gamma * lam + 0j)
    a_plus = 0.5 * (z + root)
    a_minus = 0.5 * (z - root)
    if abs(a_plus - a_minus) < 1e-12 * lam:
        out = (1.0 + a_plus * ts) * np.exp(-a_plus * ts)
    else:
        out = (a_plus * np.exp(-a_minus * ts) - a_minus * np.exp(-a_plus * ts)) / (a_plus - a_minus)
    return complex(out) if np.isscalar(t) else out


def interval_amplitude(kernel: MemoryKernel, tau: float,
                       steps_per_interval: int = 400) -> complex:
    """Decay amplitude ``a(tau)`` at the end of one detection interval.

    The full-memory solve over ``(0, tau)`` with ``steps_per_interval``
    steps; every null result restarts this evolution, so ``n`` intervals
    contract the amplitude by ``a(tau)**n`` (:func:`null_conditioned_power`).
    """
    check_finite(check_positive(tau, "tau"), "tau")
    n = check_count(steps_per_interval, "steps_per_interval", 1)
    return complex(solve_decay(kernel, t_max=tau, dt=tau / n).values[-1])


def null_conditioned_power(a_tau: complex, n: int) -> complex:
    """Amplitude factor ``[a(tau)]**n`` after ``n`` successive null results.

    Evaluated through the log-modulus and accumulated phase so that powers up
    to ``n ~ 1e6`` neither under- nor overflow prematurely.
    """
    return _power(check_contraction(a_tau, "a_tau"), check_count(n, "n", 0))


def _power(a_tau: complex, n: int) -> complex:
    """:func:`null_conditioned_power` of checked arguments."""
    if n == 0:
        return 1.0 + 0.0j
    r = abs(a_tau)
    if r == 0.0:
        return 0.0j
    log_mod = n * math.log(r)
    mod = math.exp(log_mod) if log_mod > -745.0 else 0.0
    phase = n * cmath.phase(a_tau)
    return mod * complex(math.cos(phase), math.sin(phase))


def null_result_survival(kernel: MemoryKernel, tau: float, n_intervals: int,
                         steps_per_interval: int = 400):
    """Survival probability of ``|e>`` under repeated null measurements.

    Solves the full-memory decay over one measurement interval ``(0, tau)``
    and raises ``a(tau)`` to successive powers, returning the grid
    ``t_k = k*tau`` and ``P_e(t_k) = |[a(tau)]**k|**2`` for an initially
    excited atom (``k = 0..n_intervals``).

    ``steps_per_interval`` sets the resolution of the interval solve; the
    conditioned powers amplify any relative error of ``a(tau)`` by ``n``, so
    the interval is resolved much more finely than a plain decay run.

    ``P_e`` holds the bits of ``abs(null_conditioned_power(a_tau, k)) ** 2``
    for every ``k``.  It is built in blocks of ``POWER_BLOCK`` powers, so its
    temporaries stay O(block) above the output: ``k log|a|`` and ``k arg a``
    in numpy, then libm ``exp``, ``cos``, ``sin``, ``hypot`` and
    ``pow(., 2.0)`` mapped over each block.  Not numpy's ufuncs: its
    ``exp`` and ``abs``, and ``h * h``, differ from libm in the last bit of
    some entries, and its ``sin`` and ``cos`` are SIMD kernels picked by CPU.
    """
    check_size(check_count(n_intervals, "n_intervals", 0), "n_intervals")
    a_tau = check_contraction(interval_amplitude(kernel, tau, steps_per_interval), "a_tau")
    return tau * np.arange(n_intervals + 1), _survival(a_tau, n_intervals)


def _survival(a_tau: complex, n: int) -> np.ndarray:
    """``abs(_power(a_tau, k)) ** 2`` for ``k = 0..n``, bit for bit, ``POWER_BLOCK`` at a time."""
    p = np.zeros(n + 1)
    p[0] = 1.0
    r = abs(a_tau)
    if r == 0.0:
        return p
    log_r, phase = math.log(r), cmath.phase(a_tau)
    for lo in range(1, n + 1, POWER_BLOCK):
        k = np.arange(lo, min(lo + POWER_BLOCK, n + 1), dtype=float)
        log_mod = k * log_r
        if log_mod[0] <= -745.0:
            break  # log_r < 0, so every later power underflows too
        m = len(k)
        mod = np.fromiter(map(math.exp, log_mod.tolist()), float, m)
        mod[log_mod <= -745.0] = 0.0
        ph = (k * phase).tolist()
        _abs2(mod * np.fromiter(map(math.cos, ph), float, m),
              mod * np.fromiter(map(math.sin, ph), float, m), p[lo:lo + m])
    return p
