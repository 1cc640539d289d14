"""Effective decay rates of frequently observed emission.

When photon detections repeat every ``tau``, the null-result-conditioned
amplitude contracts as ``exp(-gamma(x) t / 2)`` with the joint scaling
variable ``x = lam * tau``.  The rate admits three independent evaluations:

* a nested double integral of the rescaled kernel,
      ``gamma(x) = (2i/x) int_0^x dx' int_0^x' dx'' g(x'')``,
* closed forms for the four named spectral shapes (at any ``c`` and ``b``
  for the Lorentzian and the double peak, at ``c = 0`` for the others), and
* an equivalent single integral ``(2i/x) int_0^x (x - x') g(x') dx'``
  obtained from the short-time expansion around the initial state
  (the Kofman-Kurizki route, ``RateSource.KK_INTEGRAL``).

All three agree for every supported spectrum; the test suite exercises the
mutual equalities as well as the width-independence of the numeric routes.

Both numeric routes take a whole curve in one pass (:func:`_numeric_rates`).
``g`` is sampled once, on the uniform grid of ``PANELS_PER_UNIT`` panels per
unit of ``max(1, |c|) x`` out to the largest ``x`` (so that the phase
``e^{icx}`` of ``g`` is resolved; a compact support reaching further than
``RESOLVED_REACH`` from ``c`` scales the panels with its reach instead, and
a grid over ``MAX_PANELS`` panels is rejected), through
:func:`~zenoscope.spectral.uniform_kernel_g`.  For compact-support
quadrature kernels (rectangular, tabulated) that is one chirp-z transform
of the Simpson sum instead of one Simpson sum per grid point; it agrees
with the point-by-point sums to at most 1.5e-15 Gamma, and an ``x`` past
the Simpson rule's alias bound ``pi/(2h)`` (12868 for the rectangle) is
rejected.  Every rate is then
read off cumulative Simpson sums of those samples: the inner integral ``I``
of ``g`` and the outer integral of ``I`` on the double route, the moments
``G0 = int g`` and ``G1 = int x' g`` on the single-integral route,
``(2i/x)(x G0 - G1)``; each cumulative sum is one numpy pass over the
complex samples (:func:`_cumulative_simpson`).

The remainder rule: each ``x`` is read at the last even node ``t_m <= x``,
where the cumulative sums are the composite Simpson rule, and every
integral is closed from ``t_m`` to ``x`` (``d = x - t_m < 2h``) by a
two-panel Simpson rule on ``[t_m, x]``.  Its samples of ``g`` at
``t_m + d/4``, ``t_m + d/2`` and ``x`` are read off the grid samples by a
six-node Lagrange interpolant (:func:`_remainder_samples`), so a curve
samples ``g`` exactly once.  The interpolant's error is of order
``(h u)^6`` for a profile reaching frequency ``u``, below the ``(h u)^4``
the cumulative sums already carry, and it enters only through the tail.
The inner integral at the midpoint ``t_m + d/2`` takes its own two-panel
rule.  An ``x`` on an even node has ``d = 0`` and no tail, so
:func:`gamma_numeric` and a one-point :func:`rate_curve` integrate on
exactly the grid of ``x`` itself.

Measured agreement (named shapes at ``lam = 1``, 200 points on
``[0.01, 20]``): the curves meet the closed forms to 8.3e-13 relative and
the two routes each other to 1.9e-14; against per-``x`` evaluation on each
point's own grid they agree to 1.9e-12, and to 3e-15 on a 1601-row
tabulated profile.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.special import erf, sici

from .spectral import (MemoryKernel, Shape, SpectralDensity, check_contraction, check_finite,
                       check_points, check_positive, clip_phase, uniform_kernel_g, write_csv)

__all__ = [
    "RateSource",
    "RateCurve",
    "gamma_numeric",
    "gamma_lorentzian",
    "gamma_gaussian",
    "gamma_rectangular",
    "gamma_double_lorentzian",
    "gamma_closed_form",
    "gamma_eff",
    "rate_curve",
]


class RateSource(enum.Enum):
    CLOSED_FORM = "closed_form"
    DOUBLE_INTEGRAL = "double_integral"
    KK_INTEGRAL = "kk_integral"


#: Simpson panels per unit of x (per unit of |c| x once |c| > 1, see _panel_count)
#: for the rate integrals
PANELS_PER_UNIT = 2048
#: most panels one rate grid may take; a grid that needs more is rejected
MAX_PANELS = 2 ** 20
#: a compact support reaching further than this from ``c`` takes panels in
#: proportion to its reach; nearer ones (a [-8, 8] table, W <= 16 flat tables,
#: which meet the rectangle's closed form to 1e-12) keep the grid of ``|c|``
RESOLVED_REACH = 16.0


def _panel_count(x: float, c: float = 0.0, support: tuple[float, float] | None = None) -> int:
    """Even panel count for ``[0, x]``: ``PANELS_PER_UNIT`` per unit of ``s x``.

    The phase ``e^{icx}`` of ``g`` turns ``|c|`` times per unit of ``x``, and
    a profile on the compact ``support = (lo, hi)`` adds frequencies up to its
    reach ``R = max(|lo - c|, |hi - c|)``, so ``s = max(1, |c|, R/RESOLVED_REACH)``;
    ``ValueError`` if more than ``MAX_PANELS`` are needed.
    """
    scale = max(1.0, abs(c))
    where = f"at detuning c = {c:.6g}"
    if support is not None:
        lo, hi = support
        scale = max(scale, max(abs(lo - c), abs(hi - c)) / RESOLVED_REACH)
        where += f" on the support [{lo:.6g}, {hi:.6g}]"
    need = PANELS_PER_UNIT * x * scale
    if not need <= MAX_PANELS:
        raise ValueError(f"x = {x:.6g} {where} needs {need:.4g} Simpson panels, "
                         f"more than the {MAX_PANELS} a rate grid may take")
    n = max(math.ceil(need), 32)
    if n % 2:
        n += 1
    return n


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative Simpson integral from 0 of the odd-length samples ``y`` with spacing ``h``.

    Even node ``2k + 2`` adds the panel pair ``h/3 (a + 4b + c)`` of
    ``a, b, c = y[2k : 2k + 3]`` to node ``2k``; odd node ``2k + 1`` adds
    ``h/12 (5a + 8b - c)``, the rule SciPy's ``cumulative_simpson`` takes
    there.  Complex samples take one pass, where SciPy takes only real data.
    """
    a, b, c = y[:-2:2], y[1::2], y[2::2]
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(h / 3.0 * (a + 4.0 * b + c), out=out[2::2])
    out[1::2] = out[:-1:2] + h / 12.0 * (5.0 * a + 8.0 * b - c)
    return out


#: nodes of the remainder interpolant, in steps from its first node; ``_OTHERS[i, k]`` is
#: ``k != i``, and ``_STENCIL_SCALE[i]`` the denominator ``prod_{k != i} (i - k)`` of weight ``i``
_STENCIL = np.arange(6)
_OTHERS = ~np.eye(6, dtype=bool)[:, :, None, None]
_STENCIL_SCALE = np.array([-120.0, 24.0, -12.0, 12.0, -24.0, 120.0])[:, None, None]


def _remainder_samples(grid, g, m, x, d):
    """``g`` at ``t_m + d/4``, ``t_m + d/2`` and ``x`` as a ``(3, points)`` array.

    Each ``x`` reads its three points off the Lagrange polynomial through the
    six grid samples from node ``m - 2``, a stencil clamped to ``[0, n]``
    (``_panel_count`` gives ``n >= 32``).  A point on a node gets its sample.
    """
    t_m = grid[m]
    first = np.clip(m - 2, 0, grid.size - 6)
    steps = (np.stack([t_m + 0.25 * d, t_m + 0.5 * d, x]) - grid[first]) / grid[1]
    # weight i at each point: prod_{k != i} (steps - k) / prod_{k != i} (i - k)
    factors = np.where(_OTHERS, steps - _STENCIL[:, None, None], 1.0)
    weights = factors.prod(axis=1) / _STENCIL_SCALE
    return np.sum(weights * g[first + _STENCIL[:, None]][:, None], axis=0)


# The routes below hold the only reference to ``g`` and drop it as soon as
# its last cumulative sum is taken: a 40k-node curve then never holds more
# than two node-length complex arrays besides the half-length panel sums.


def _nested_integral(grid, g, m, x, d):
    """``int_0^x dx' int_0^x' g`` by cumulative Simpson of ``g``, then of ``I = int g``."""
    h, g_m = grid[1], g[m]
    g_quarter, g_half, g_x = _remainder_samples(grid, g, m, x, d)
    inner = _cumulative_simpson(g, h)
    del g
    i_m = inner[m]
    i_half = i_m + d / 12.0 * (g_m + 4.0 * g_quarter + g_half)
    i_x = i_m + d / 6.0 * (g_m + 4.0 * g_half + g_x)
    return _cumulative_simpson(inner, h)[m] + d / 6.0 * (i_m + 4.0 * i_half + i_x)


def _moment_integral(grid, g, m, x, d):
    """``int_0^x (x - x') g(x') dx' = x G0(x) - G1(x)`` from the moments of ``g``."""
    h, g_m, t_m = grid[1], g[m], grid[m]
    _, g_half, g_x = _remainder_samples(grid, g, m, x, d)
    g0 = _cumulative_simpson(g, h)[m]
    g = grid * g  # x' g(x'); drops g itself
    g1 = _cumulative_simpson(g, h)[m]
    m0 = g0 + d / 6.0 * (g_m + 4.0 * g_half + g_x)
    m1 = g1 + d / 6.0 * (t_m * g_m + 4.0 * (t_m + 0.5 * d) * g_half + x * g_x)
    return x * m0 - m1


#: numeric route -> ``int_0^x (x - x') g(x') dx'`` at every ``x`` from one grid
_ROUTES = {
    RateSource.DOUBLE_INTEGRAL: _nested_integral,
    RateSource.KK_INTEGRAL: _moment_integral,
}


def _numeric_rates(kernel: MemoryKernel, xs, source: RateSource) -> np.ndarray:
    """``gamma`` at every ``x`` of ``xs`` from one sampling of ``g``.

    ``g`` is sampled once on the uniform grid of ``_panel_count(X, c, support)``
    panels over ``[0, X]``, ``X = max(xs)``, and each rate is read off
    cumulative Simpson sums of those samples at the last even node
    ``t_m <= x``, closed to ``x`` by the two-panel remainder rule of the
    module docstring.
    Negative, infinite and NaN entries raise ``ValueError`` before anything
    is sampled; ``x = 0`` gives exactly ``0j``.
    """
    xs = check_points(xs, "x")
    route = _ROUTES.get(source)
    if route is None:
        raise ValueError(f"no numeric route for source {source!r}")
    out = np.zeros(xs.shape, dtype=complex)
    positive = xs > 0
    if not positive.any():
        return out
    x = xs[positive]
    x_max = float(x.max())
    n = _panel_count(x_max, kernel.density.c, kernel.compact_support)
    grid = np.linspace(0.0, x_max, n + 1)
    m = np.searchsorted(grid, x, side="right") - 1
    m -= m % 2
    out[positive] = 2j / x * route(grid, uniform_kernel_g(kernel, x_max, n), m, x, x - grid[m])
    return out


def gamma_numeric(kernel: MemoryKernel, x: float) -> complex:
    """Effective rate from the nested double integral of ``g``.

    The inner antiderivative is accumulated with a cumulative Simpson rule
    and the outer integral with another one over it, so the route is
    genuinely a double quadrature, independent of ``RateSource.KK_INTEGRAL``.
    The one-point case of :func:`rate_curve`: ``x`` is the last grid node.
    """
    return complex(_numeric_rates(kernel, [x], RateSource.DOUBLE_INTEGRAL)[0])


# -- closed forms (c = 0 for the Gaussian and the rectangle; the double peak is two Lorentzians)

#: below this ``|kappa| x`` (``kappa = 1`` but for the Lorentzian) the closed forms cancel
X_SERIES = 0.01

# Taylor coefficients, lowest order first: of [1 - (1 - e^{-z})/z] in z, and of
# gamma_G and gamma_R in x, for gamma = 1
_LORENTZIAN_SERIES = [0.0] + [(-1) ** (k + 1) / math.factorial(k + 1) for k in range(1, 11)]
_GAUSSIAN_SERIES = [(-1) ** (k // 2) * math.sqrt(2.0 / math.pi) / (2 ** (k // 2) * k * (k + 1)
                    * math.factorial(k // 2)) if k % 2 else 0.0 for k in range(12)]
_RECTANGULAR_SERIES = [(-1) ** (k // 2) / (math.pi * 4 ** (k // 2) * k * (k + 1)
                       * math.factorial(k)) if k % 2 else 0.0 for k in range(10)]


def _closed_form(x, gamma, series, direct, kappa=1.0):
    """``direct(x)`` at ``|kappa| x >= X_SERIES``, and ``gamma/kappa`` times the Taylor
    ``series`` in ``kappa x`` below, as complex; each branch sees only its own points."""
    xs = check_points(x, "x")
    check_finite(check_positive(gamma, "gamma"), "gamma")
    small = xs < X_SERIES / abs(kappa)
    out = np.where(small, gamma / kappa * polyval(kappa * np.where(small, xs, 0.0), series),
                   direct(np.where(small, 1.0, xs))) + 0.0j
    return complex(out) if np.isscalar(x) else out


def gamma_lorentzian(x, c: float = 0.0, gamma: float = 1.0):
    """``gamma [1/kappa - (1 - e^{-kappa x}) / (kappa^2 x)]`` with ``kappa = 1 - ic``.

    Summed as ``(gamma/kappa) [1 - (1 - e^{-z})/z]``, ``z = kappa x``, so that
    no ``kappa^2`` overflows.
    """
    kappa = 1.0 - 1j * check_finite(c, "c")
    # past |c x| = 1e300 the phase of e^{-z} is round-off, and its term below 1e-300
    z = lambda x: x - 1j * (c * clip_phase(x, c))
    return _closed_form(x, gamma, _LORENTZIAN_SERIES,
                        lambda x: gamma / kappa * (1.0 - (1.0 - np.exp(-z(x))) / z(x)), kappa)


def gamma_gaussian(x, gamma: float = 1.0):
    """``gamma [erf(x/sqrt 2) + 2/(sqrt(2 pi) x) (e^{-x^2/2} - 1)]`` (zero at x = 0)."""
    return _closed_form(x, gamma, _GAUSSIAN_SERIES, lambda x: gamma * (
        erf(x / math.sqrt(2.0))
        + 2.0 / (math.sqrt(2.0 * math.pi) * x) * (np.exp(-0.5 * x ** 2) - 1.0)))


def gamma_rectangular(x, gamma: float = 1.0):
    """``(2 gamma/pi) [Si(x/2) + (2/x) cos(x/2) - 2/x]`` (zero at x = 0)."""
    return _closed_form(x, gamma, _RECTANGULAR_SERIES, lambda x: 2.0 * gamma / math.pi * (
        sici(0.5 * x)[0] + 2.0 / x * (np.cos(0.5 * x) - 1.0)))


def gamma_double_lorentzian(x, gamma: float = 1.0):
    """``gamma (1 - e^{-x} sin(x)/x)``: two Lorentzian rates detuned by ``+-1``."""
    return gamma_lorentzian(x, 1.0, gamma) + gamma_lorentzian(x, -1.0, gamma)


def _at_zero_detuning(form):
    """``form(x, gamma)`` as a rate of ``(density, x)``; ``ValueError`` unless ``c = 0``."""
    def rate(d: SpectralDensity, x):
        if d.c != 0.0:
            raise ValueError(f"closed form for {d.shape.value} requires c = 0; use gamma_numeric")
        return form(x, d.gamma)
    return rate


def _double_peak_rate(d: SpectralDensity, x):
    """Two Lorentzian rates detuned by ``c +- b``; ``ValueError`` if either detuning overflows."""
    upper, lower = d.c + d.b, d.c - d.b
    check_finite(np.array([upper, lower]),
                 f"the double peak's detunings c +- b at c = {d.c:.6g}, b = {d.b:.6g}")
    return gamma_lorentzian(x, upper, d.gamma) + gamma_lorentzian(x, lower, d.gamma)


#: shape -> its closed-form rate ``(density, x) -> gamma(x)``; tabulated profiles have none
_CLOSED_FORMS = {
    Shape.LORENTZIAN: lambda d, x: gamma_lorentzian(x, d.c, d.gamma),
    Shape.GAUSSIAN: _at_zero_detuning(gamma_gaussian),
    Shape.RECTANGULAR: _at_zero_detuning(gamma_rectangular),
    Shape.DOUBLE_LORENTZIAN: _double_peak_rate,
}


def gamma_closed_form(density: SpectralDensity, x):
    """The closed-form rate of ``density``: at every ``c`` and ``b`` for the Lorentzian and
    the double peak, at ``c = 0`` for the Gaussian and the rectangle, none for a table."""
    if density.shape not in _CLOSED_FORMS:
        raise ValueError(f"no closed-form rate for shape {density.shape}")
    return _CLOSED_FORMS[density.shape](density, x)


def gamma_eff(a_bar_dt: complex, dt_total: float) -> float:
    """Effective emission rate ``[1 - |a_bar(dt)|^2] / dt`` of one detection step."""
    check_finite(check_positive(dt_total, "dt_total"), "dt_total")
    mod2 = abs(check_contraction(a_bar_dt, "a_bar_dt")) ** 2
    return (1.0 - mod2) / dt_total


def _check_x_grid(x_grid) -> np.ndarray:
    """``x_grid`` as a float array, or ``ValueError`` unless it is a 1-D, strictly increasing
    array of finite ``x >= 0``."""
    xs = check_points(x_grid, "x_grid")
    if xs.ndim != 1:
        raise ValueError(f"x_grid must be one-dimensional, got shape {xs.shape}")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("x_grid must be strictly increasing")
    return xs


@dataclass(frozen=True, eq=False)
class RateCurve:
    """``gamma(x)`` sampled on a grid, tagged with the evaluation route."""

    x_grid: np.ndarray
    values: np.ndarray
    source: RateSource
    model: SpectralDensity

    def validate(self):
        xs = _check_x_grid(self.x_grid)
        if np.shape(self.values) != xs.shape:
            raise ValueError(f"values has shape {np.shape(self.values)}, x_grid {xs.shape}")
        floor = -1e-9 * self.model.gamma
        if np.any(self.values.real < floor):
            raise ValueError("Re gamma(x) dips below the decay floor")

    def to_csv(self, path):
        g = self.model.gamma
        write_csv(path, {"x": self.x_grid, "re_gamma_over_Gamma": self.values.real / g,
                         "im_gamma_over_Gamma": self.values.imag / g,
                         "source": [self.source.value] * len(self.x_grid)})


def rate_curve(kernel: MemoryKernel, x_grid,
               source: RateSource = RateSource.DOUBLE_INTEGRAL) -> RateCurve:
    """Evaluate ``gamma(x)`` over ``x_grid`` by the requested route, validated.

    A grid that is not 1-D and strictly increasing is rejected before ``g``
    is sampled; the numeric routes then sample ``g`` once for the whole grid
    (see :func:`_numeric_rates`), and the curve is checked by
    :meth:`RateCurve.validate`.
    """
    xs = _check_x_grid(x_grid)
    if source is RateSource.CLOSED_FORM:
        values = np.asarray(gamma_closed_form(kernel.density, xs), dtype=complex)
    else:
        values = _numeric_rates(kernel, xs, source)
    curve = RateCurve(x_grid=xs, values=values, source=source, model=kernel.density)
    curve.validate()
    return curve
