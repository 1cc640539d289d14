"""Effective decay rates of frequently observed emission.

When photon detections repeat every ``tau``, the null-result-conditioned
amplitude contracts as ``exp(-gamma(x) t / 2)`` with the joint scaling
variable ``x = lam * tau``.  The rate admits three independent evaluations:

* a nested double integral of the rescaled kernel,
      ``gamma(x) = (2i/x) int_0^x dx' int_0^x' dx'' g(x'')``,
* closed forms for the four named spectral shapes, and
* an equivalent single integral ``(2i/x) int_0^x (x - x') g(x') dx'``
  obtained from the short-time expansion around the initial state
  (the Kofman-Kurizki route).

All three agree for every supported spectrum; the test suite exercises the
mutual equalities as well as the width-independence of the numeric routes.

Both numeric routes sample ``g`` on a uniform grid through
:func:`~zenoscope.spectral.uniform_kernel_g`.  For compact-support
quadrature kernels (rectangular, tabulated) that is one chirp-z transform
of the Simpson sum instead of one Simpson sum per grid point; it agrees
with the point-by-point sum of :func:`~zenoscope.spectral.scaled_kernel_g`,
which arbitrary ``x`` arrays still take, to at most 1.5e-15 Gamma.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, simpson
from scipy.special import erf, sici

from .spectral import MemoryKernel, Shape, SpectralDensity, uniform_kernel_g

__all__ = [
    "RateSource",
    "RateCurve",
    "gamma_numeric",
    "gamma_lorentzian",
    "gamma_gaussian",
    "gamma_rectangular",
    "gamma_double_lorentzian",
    "gamma_closed_form",
    "kk_rate",
    "gamma_eff",
    "rate_curve",
]

#: Simpson panels per unit of x for the rate integrals
PANELS_PER_UNIT = 2048
#: cap on the total number of quadrature points
MAX_PANELS = 2 ** 20


def _panel_count(x: float, panels_per_unit: int) -> int:
    n = int(math.ceil(panels_per_unit * x))
    n = min(max(n, 32), MAX_PANELS)
    if n % 2:
        n += 1
    return n


def _kernel_samples(kernel: MemoryKernel, x: float, panels_per_unit: int):
    n = _panel_count(x, panels_per_unit)
    return np.linspace(0.0, x, n + 1), uniform_kernel_g(kernel, x, n)


def _double_route(grid: np.ndarray, g: np.ndarray, x: float) -> complex:
    h = grid[1] - grid[0]
    # cumulative_simpson only handles real data
    inner = (cumulative_simpson(g.real, dx=h, initial=0.0)
             + 1j * cumulative_simpson(g.imag, dx=h, initial=0.0))
    return complex(2j / x * simpson(inner, dx=h))


def _kk_route(grid: np.ndarray, g: np.ndarray, x: float) -> complex:
    return complex(2j / x * simpson((x - grid) * g, dx=grid[1] - grid[0]))


def gamma_numeric(kernel: MemoryKernel, x: float,
                  panels_per_unit: int = PANELS_PER_UNIT) -> complex:
    """Effective rate from the nested double integral of ``g``.

    The inner antiderivative is accumulated with a cumulative Simpson rule
    and the outer integral applies composite Simpson to it, so the route is
    genuinely a double quadrature (independent of :func:`kk_rate`).
    """
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0:
        return 0.0j
    return _double_route(*_kernel_samples(kernel, x, panels_per_unit), x)


def kk_rate(kernel: MemoryKernel, x: float,
            panels_per_unit: int = PANELS_PER_UNIT) -> complex:
    """Effective rate from the equivalent single-integral form.

    ``r(x) = (2i/x) int_0^x (x - x') g(x') dx'`` by composite Simpson;
    equals :func:`gamma_numeric` analytically (integration by parts).
    """
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0:
        return 0.0j
    return _kk_route(*_kernel_samples(kernel, x, panels_per_unit), x)


# -- closed forms (c = 0 except for the Lorentzian; b = 1 for the double peak)


def gamma_lorentzian(x, c: float = 0.0, gamma: float = 1.0):
    """``gamma [1/kappa - (1 - e^{-kappa x}) / (kappa^2 x)]`` with ``kappa = 1 - ic``."""
    xs = np.asarray(x, dtype=float)
    kappa = 1.0 - 1j * c
    safe = np.where(xs > 0, xs, 1.0)
    val = gamma * (1.0 / kappa - (1.0 - np.exp(-kappa * safe)) / (kappa ** 2 * safe))
    out = np.where(xs > 0, val, 0.0 + 0.0j)
    return complex(out) if np.isscalar(x) else out


def gamma_gaussian(x, gamma: float = 1.0):
    """``gamma [erf(x/sqrt 2) + 2/(sqrt(2 pi) x) (e^{-x^2/2} - 1)]`` (zero at x = 0)."""
    xs = np.asarray(x, dtype=float)
    safe = np.where(xs > 0, xs, 1.0)
    val = gamma * (erf(safe / math.sqrt(2.0))
                   + 2.0 / (math.sqrt(2.0 * math.pi) * safe) * (np.exp(-0.5 * safe ** 2) - 1.0))
    out = np.where(xs > 0, val, 0.0) + 0.0j
    return complex(out) if np.isscalar(x) else out


def gamma_rectangular(x, gamma: float = 1.0):
    """``(2 gamma/pi) [Si(x/2) + (2/x) cos(x/2) - 2/x]`` (zero at x = 0)."""
    xs = np.asarray(x, dtype=float)
    safe = np.where(xs > 0, xs, 1.0)
    si, _ = sici(0.5 * safe)
    val = 2.0 * gamma / math.pi * (si + 2.0 / safe * (np.cos(0.5 * safe) - 1.0))
    out = np.where(xs > 0, val, 0.0) + 0.0j
    return complex(out) if np.isscalar(x) else out


def gamma_double_lorentzian(x, gamma: float = 1.0):
    """``gamma (1 - e^{-x} sin(x)/x)``; symmetric peaks split by the peak width."""
    xs = np.asarray(x, dtype=float)
    out = gamma * (1.0 - np.exp(-xs) * np.sinc(xs / math.pi)) + 0.0j
    return complex(out) if np.isscalar(x) else out


def gamma_closed_form(density: SpectralDensity, x):
    """Dispatch to the closed-form rate of the given density.

    Only the Lorentzian form covers ``c != 0``; the other shapes (and split
    ratios ``b != 1``) are available through the numeric routes alone.
    """
    shape = density.shape
    if shape is Shape.LORENTZIAN:
        return gamma_lorentzian(x, c=density.c, gamma=density.gamma)
    if density.c != 0.0:
        raise ValueError(f"closed form for {shape.value} requires c = 0; use gamma_numeric")
    if shape is Shape.GAUSSIAN:
        return gamma_gaussian(x, gamma=density.gamma)
    if shape is Shape.RECTANGULAR:
        return gamma_rectangular(x, gamma=density.gamma)
    if shape is Shape.DOUBLE_LORENTZIAN:
        if density.b != 1.0:
            raise ValueError("closed form for the double peak requires b = 1; use gamma_numeric")
        return gamma_double_lorentzian(x, gamma=density.gamma)
    raise ValueError(f"no closed-form rate for shape {shape}")


def gamma_eff(a_bar_dt: complex, dt_total: float) -> float:
    """Effective emission rate ``[1 - |a_bar(dt)|^2] / dt`` of one detection step."""
    if dt_total <= 0:
        raise ValueError(f"dt_total must be positive, got {dt_total}")
    mod2 = abs(a_bar_dt) ** 2
    if mod2 > 1.0 + 2e-9:
        raise ValueError(f"|a_bar|^2 = {mod2!r} exceeds 1 beyond tolerance")
    return (1.0 - mod2) / dt_total


class RateSource(enum.Enum):
    CLOSED_FORM = "closed_form"
    DOUBLE_INTEGRAL = "double_integral"
    KK_INTEGRAL = "kk_integral"


@dataclass(frozen=True, eq=False)
class RateCurve:
    """``gamma(x)`` sampled on a grid, tagged with the evaluation route."""

    x_grid: np.ndarray
    values: np.ndarray
    source: RateSource
    model: SpectralDensity

    def validate(self):
        if np.any(np.diff(self.x_grid) <= 0):
            raise ValueError("x_grid must be strictly increasing")
        if np.any(self.x_grid < 0):
            raise ValueError("x_grid must be nonnegative")
        floor = -1e-9 * self.model.gamma
        if np.any(self.values.real < floor):
            raise ValueError("Re gamma(x) dips below the decay floor")

    def to_csv(self, path):
        g = self.model.gamma
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,re_gamma_over_Gamma,im_gamma_over_Gamma,source\n")
            for x, v in zip(self.x_grid, self.values):
                fh.write(f"{x:.12g},{v.real/g:.12g},{v.imag/g:.12g},{self.source.value}\n")


def rate_curve(kernel: MemoryKernel, x_grid,
               source: RateSource = RateSource.DOUBLE_INTEGRAL,
               validate: bool = True) -> RateCurve:
    """Evaluate ``gamma(x)`` over ``x_grid`` by the requested route."""
    xs = np.asarray(x_grid, dtype=float)
    if source is RateSource.CLOSED_FORM:
        values = np.asarray(gamma_closed_form(kernel.density, xs), dtype=complex)
    elif source is RateSource.DOUBLE_INTEGRAL:
        values = np.array([gamma_numeric(kernel, float(x)) for x in xs])
    elif source is RateSource.KK_INTEGRAL:
        values = np.array([kk_rate(kernel, float(x)) for x in xs])
    else:
        raise ValueError(f"unknown source {source!r}")
    curve = RateCurve(x_grid=xs, values=values, source=source, model=kernel.density)
    if validate:
        curve.validate()
    return curve
