"""Effective decay rates of frequently observed emission.

When photon detections repeat every ``tau``, the null-result-conditioned
amplitude contracts as ``exp(-gamma(x) t / 2)`` with the joint scaling
variable ``x = lam * tau``.  The rate admits three independent evaluations:

* a nested double integral of the rescaled kernel,
      ``gamma(x) = (2i/x) int_0^x dx' int_0^x' dx'' g(x'')``,
  taken on a grid of samples of ``g``, or, for at most
  ``MAX_PER_X_RATES`` points of a compact-support quadrature kernel, with
  both time integrals exact on each term of its Simpson sum
  (:func:`_simpson_double_integral`),
* closed forms for the four named spectral shapes (at any ``c`` and ``b``
  for the Lorentzian and the double peak, at ``c = 0`` for the others;
  the Gaussian's ``erf`` and the rectangle's ``Si`` are ported from Cephes,
  bit for bit, :func:`_erf` and :func:`_si`), and
* an equivalent single integral ``(2i/x) int_0^x (x - x') g(x') dx'``
  obtained from the short-time expansion around the initial state
  (the Kofman-Kurizki route, ``RateSource.KK_INTEGRAL``), always on the grid.

All three agree for every supported spectrum; the test suite exercises the
mutual equalities as well as the width-independence of the numeric routes.

Both numeric routes take a whole curve in one pass (:func:`_numeric_rates`).
``g`` is sampled once, on the uniform grid of ``PANELS_PER_UNIT = 256``
panels per unit of ``u x`` out to the largest ``x``, where ``u`` is the
kernel's bandwidth, ``u = max(1, |c| + |b|, R)``: the phase ``e^{icx}``,
the double peak's ``cos(b x)`` (``b = 0`` for the other shapes) and a
compact support's frequencies up to its reach ``R = max(|lo - c|, |hi - c|)``
are then all resolved.  A grid over ``MAX_PANELS`` panels is rejected:
``x > 4096`` at ``u = 1``, ``x = 1`` at ``c = 1e4``, ``x = 20`` at
``b = 1e5``.  The samples come from
:func:`~zenoscope.spectral.uniform_kernel_g`.  For compact-support
quadrature kernels (rectangular, tabulated) that is one chirp-z transform
of the Simpson sum instead of one Simpson sum per grid point; it agrees
with the point-by-point sums to at most 1.5e-15 Gamma.  An ``x`` past the
Simpson rule's alias bound ``pi/(2h)`` would be rejected too, but the
panel cap binds first on every compact support: ``u >= (hi - lo)/2``
admits ``x <= 8192/(hi - lo)``, the bound is ``12868/(hi - lo)``.  Every
rate is then read off cumulative integrals of those
samples: the inner integral ``I`` of ``g`` and the outer integral of ``I``
on the double route, the moments ``G0 = int g`` and ``G1 = int x' g`` on
the single-integral route, ``(2i/x)(x G0 - G1)``.  Each cumulative integral
is Gregory's rule (:func:`_cumulative_gregory`): the running sum of the
samples less Gregory's end corrections through fourth differences, with
the exact weights of the degree-5 interpolant through nodes 0-5 on nodes
1-4.  It integrates quintics exactly, so its error is ``O((h u)^6)``.

The remainder rule: each ``x`` is read at the last node ``t_m <= x``, and
both routes share one remainder from there, ``R = int_{t_m}^x (x - x') g(x')
dx'`` (:func:`_remainder`): the nested route is ``O(t_m) + d I(t_m) + R``
with ``O`` the outer integral and ``d = x - t_m < h``, the single-integral
route ``x G0(t_m) - G1(t_m) + R``, so the two differ only in their on-grid
sums.  ``R`` is taken exactly on the degree-5 Lagrange interpolant through
six grid samples of ``g`` around ``t_m``: ``h^2`` times the samples against
fixed polynomials in ``d/h`` (``_REMAINDER_COEFFS``).  A curve thus samples
``g`` exactly once, and the remainder's error is the interpolant's, of
order ``d^2 (h u)^6``; written in powers of ``d/h``, the weights do not
cancel for ``x`` in the first panel, where the rate is itself of order
``x``.  An ``x`` on a node has ``d = 0`` and no remainder, so a one-point
:func:`rate_curve` (and :func:`gamma_numeric`, which is one) integrates on
exactly the grid of ``x`` itself, except on the double-integral route of a
compact-support quadrature kernel, which takes no grid at up to
``MAX_PER_X_RATES`` points.  The remainder is checked by the closed forms
and, in the tests, for exactness on quintics at every stencil offset and
against Gauss-Legendre quadrature of point-by-point samples of ``g``.

The per-``x`` route writes the Simpson sum as
``g(t) = -i D0 (h/3) sum_k a_k e^{-i (w_k - c) t}`` and integrates each term
twice in time in closed form, ``int_0^x (x - t) e^{-i (w - c) t} dt =
x^2 phi((w - c) x)`` with ``phi(z) = int_0^1 (1 - u) e^{-izu} du``, so
``gamma(x) = 2 D0 x (h/3) sum_k a_k phi((w_k - c) x)``.  Its real part is
``2 pi int D0 d_tilde(w) F_x(w - c) dw`` with the measurement filter
``F_x(v) = (x/2pi) sinc^2(v x/2)``, ``sinc(y) = sin(y)/y`` (Kofman &
Kurizki, Nature 405, 546 (2000)).  It integrates the same Simpson model as the grid and
met the grid curves of both routes to 1.3e-13 relative over 1620 fuzzed
cases (the rectangle and random tables, ``|c| <= 3``, ``x`` up to the
panel cap).  Each ``x`` takes two sines over the ``N_PANELS + 1`` nodes
instead of a chirp-z transform of the whole grid, whose plan misses on
every new ``x``.

Measured agreement (200 points on ``[0.01, 20]``, the named shapes, the
Lorentzian at ``c = 0.7`` and the double peak at ``c = 0.3``, ``b = 2.5``,
all at ``lam = 1``): the curves meet the closed forms to 1.4e-12 relative
and the two routes each other to 7.6e-14.  Against the composite Simpson
rule at 2048 panels per unit of ``u`` they agree to 8.4e-13 on analytic
kernels and to 4.3e-12 on tabulated Gaussians on ``[-8, 8]``, where the
running sums over 40961 nodes carry that much round-off.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .spectral import (MemoryKernel, Shape, SpectralDensity, check_contraction, check_finite,
                       check_points, check_positive, clip_phase, simpson_samples,
                       uniform_kernel_g, write_csv)

__all__ = [
    "RateSource",
    "RateCurve",
    "gamma_numeric",
    "gamma_lorentzian",
    "gamma_gaussian",
    "gamma_rectangular",
    "gamma_closed_form",
    "gamma_eff",
    "rate_curve",
]


class RateSource(enum.Enum):
    CLOSED_FORM = "closed_form"
    DOUBLE_INTEGRAL = "double_integral"
    KK_INTEGRAL = "kk_integral"


#: panels per unit of ``u x`` for the rate integrals, ``u`` the kernel's bandwidth
#: (see _panel_count)
PANELS_PER_UNIT = 256
#: most panels one rate grid may take; a grid that needs more is rejected
MAX_PANELS = 2 ** 20


def _panel_count(x: float, c: float = 0.0, support: tuple[float, float] | None = None,
                 b: float = 0.0) -> int:
    """Even panel count for ``[0, x]``: ``PANELS_PER_UNIT`` per unit of ``u x``.

    ``g`` carries the phase ``e^{icx}``, the double peak's ``cos(b x)`` and a
    compact ``support = (lo, hi)``'s frequencies up to its reach
    ``R = max(|lo - c|, |hi - c|)``, so its bandwidth is
    ``u = max(1, |c| + |b|, R)``; ``ValueError`` if more than ``MAX_PANELS``
    are needed.
    """
    bandwidth = max(1.0, abs(c) + abs(b))
    where = f"at detuning c = {c:.6g}"
    if b:
        where += f" and split b = {b:.6g}"
    if support is not None:
        lo, hi = support
        bandwidth = max(bandwidth, abs(lo - c), abs(hi - c))
        where += f" on the support [{lo:.6g}, {hi:.6g}]"
    need = PANELS_PER_UNIT * x * bandwidth
    if not need <= MAX_PANELS:
        raise ValueError(f"x = {x:.6g} {where} needs {need:.4g} panels, "
                         f"more than the {MAX_PANELS} a rate grid may take")
    n = max(math.ceil(need), 32)
    if n % 2:
        n += 1
    return n


#: weights, in units of ``h``, of ``int_0^{mh}`` (rows m = 1..4) over the nodes 0..5: the
#: integrals of the degree-5 interpolant through them
_START = np.array([[475.0, 1427.0, -798.0, 482.0, -173.0, 27.0],
                   [448.0, 2064.0, 224.0, 224.0, -96.0, 16.0],
                   [459.0, 1971.0, 1026.0, 1026.0, -189.0, 27.0],
                   [448.0, 2048.0, 768.0, 2048.0, 448.0, 0.0]]) / 1440.0
#: ``1 - w_j`` for Gregory's end weights ``w = 95/288, 317/240, 23/30, 793/720, 157/160``
#: (the trapezoid's corrections through fourth differences) at ``j`` nodes from either end
_GREGORY_DEFICIT = np.array([193.0 / 288.0, -77.0 / 240.0, 7.0 / 30.0, -73.0 / 720.0,
                             3.0 / 160.0])


def _cumulative_gregory(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral from 0 of the samples ``y`` (at least six) with spacing ``h``.

    Node ``m >= 5`` takes the sum of ``y[:m + 1]`` less ``_GREGORY_DEFICIT``
    at both ends, Gregory's rule through fourth differences; nodes 1-4 take
    the exact ``_START`` weights.  Both integrate degree-5 polynomials
    exactly, so the error is ``O(h^6)``.  Complex samples take one running
    sum and five passes of the end correction.
    """
    out = np.cumsum(y)
    tail = out[5:]
    tail -= _GREGORY_DEFICIT @ y[:5]
    # slice by slice: numpy's complex convolution takes about three times as long
    for j, deficit in enumerate(_GREGORY_DEFICIT):
        tail -= deficit * y[5 - j:y.size - j]
    out[0] = 0.0
    out[1:5] = _START @ y[:6]
    out *= h
    return out


def _remainder_table() -> np.ndarray:
    """``[s, i, j]``: the ``delta^(j+2)`` coefficient of ``int_0^delta (delta - v) l_i(s + v) dv``.

    ``l_i`` is the Lagrange basis on the nodes 0..5.  The numerator of
    ``l_i(s + v)`` is the integer polynomial ``prod_{k != i} (v + s - k)``;
    each coefficient is divided once by the integer ``prod_{k != i} (i - k)``
    times ``(j + 1)(j + 2)``, so every entry is its exact rational value,
    correctly rounded.
    """
    # (j + 1)(j + 2): int_0^delta (delta - v) v^j dv = delta^(j+2) / that
    scale = np.arange(1.0, 7.0) * np.arange(2.0, 8.0)
    table = np.empty((6, 6, 6))
    for s in range(6):
        for i in range(6):
            others = [k for k in range(6) if k != i]
            numerator = functools.reduce(np.convolve, ([s - k, 1.0] for k in others))
            table[s, i] = numerator / (math.prod(i - k for k in others) * scale)
    return table


#: ``int_{t_m}^{t_m + d} (t_m + d - t) g(t) dt`` over the interpolant through the nodes
#: ``first..first + 5`` is ``h^2 sum_i g[first + i] sum_j _REMAINDER_COEFFS[m - first, i, j]
#: (d/h)^(j+2)``
_REMAINDER_COEFFS = _remainder_table()
_NODES = np.arange(6)


def _remainder(grid, g, m, d):
    """``int_{t_m}^x (x - t) g(t) dt`` at every ``x = t_m + d``, ``t_m = grid[m]``, ``d < h``.

    ``g`` between the nodes is the degree-5 Lagrange polynomial through the six
    samples from node ``first = m - 2``, a stencil clamped to ``[0, n]``
    (``_panel_count`` gives ``n >= 32``), and the integral is taken exactly
    on it; its error is that of the interpolant, of order ``d^2 (h u)^6``.  A
    point on a node has ``d = 0`` and no remainder.
    """
    first = np.clip(m - 2, 0, grid.size - 6)
    h = grid[1]
    powers = (d / h)[:, None] ** (_NODES + 2.0)
    weights = np.einsum("pij,pj->pi", _REMAINDER_COEFFS[m - first], powers)
    return h * h * np.sum(weights * g[first[:, None] + _NODES], axis=1)


# The routes below take the cumulative sums to the last node ``t_m <= x``;
# _numeric_rates adds the one remainder both routes share from there to ``x``.


def _nested_integral(grid, g, m, x, d):
    """``int_0^{t_m} dx' int_0^x' g + d I(t_m)``, ``I = int g``, by the cumulative rule on
    ``g``, then on ``I``."""
    h = grid[1]
    inner = _cumulative_gregory(g, h)
    return _cumulative_gregory(inner, h)[m] + d * inner[m]


def _moment_integral(grid, g, m, x, d):
    """``x G0(t_m) - G1(t_m)`` from the moments ``G0 = int g`` and ``G1 = int x' g``."""
    h = grid[1]
    g0 = _cumulative_gregory(g, h)[m]
    return x * g0 - _cumulative_gregory(grid * g, h)[m]


#: numeric route -> ``int_0^{t_m} (x - x') g(x') dx'`` at every ``x`` from one grid
_ROUTES = {
    RateSource.DOUBLE_INTEGRAL: _nested_integral,
    RateSource.KK_INTEGRAL: _moment_integral,
}


#: below this ``|z|``, ``phi(z)`` is summed as its Taylor series: above it the direct
#: ``sin z - z`` loses at most a factor 6.3 to cancellation (3 ulps measured on [1, 1.5])
PHI_SERIES = 1.0
# Taylor coefficients in z^2, highest order first (as _horner reads them), of Re phi,
# (-1)^k/(2k + 2)!, and of -Im phi / z, (-1)^k/(2k + 3)!; below PHI_SERIES the first
# term left out is under 1e-18
_PHI_REAL_SERIES = [(-1) ** k / math.factorial(2 * k + 2) for k in range(9)][::-1]
_PHI_IMAG_SERIES = [(-1) ** k / math.factorial(2 * k + 3) for k in range(9)][::-1]


def _phi(z: np.ndarray) -> np.ndarray:
    """``phi(z) = int_0^1 (1 - u) e^{-izu} du = (1 - iz - e^{-iz})/z^2`` at every ``z``.

    ``z`` is non-decreasing, as ``(w_k - c) x`` is on the Simpson nodes, so
    the points below ``|z| = PHI_SERIES`` are one slice.  There both parts
    are the Taylor series ``sum_n (-iz)^n/(n + 2)!``, which is ``1/2`` at
    ``z = 0``; elsewhere ``Re phi = 2 sin^2(z/2)/z^2`` and
    ``Im phi = (sin z - z)/z^2``.  Each part is within a few ulps.
    """
    out = np.empty(z.shape, dtype=complex)
    first, last = np.searchsorted(z, -PHI_SERIES, "right"), np.searchsorted(z, PHI_SERIES)
    for part in (slice(None, first), slice(last, None)):
        wide = z[part]
        out.real[part] = 2.0 * (np.sin(0.5 * wide) / wide) ** 2
        out.imag[part] = (np.sin(wide) - wide) / (wide * wide)
    near = z[first:last]
    square = near * near
    out.real[first:last] = _horner(_PHI_REAL_SERIES, square)
    out.imag[first:last] = -near * _horner(_PHI_IMAG_SERIES, square)
    return out


def _simpson_double_integral(kernel: MemoryKernel, xs: np.ndarray) -> np.ndarray:
    """``gamma(x) = 2 D0 x (h/3) sum_k a_k phi((w_k - c) x)`` at each positive ``x`` of ``xs``.

    ``a_k`` are the samples of :func:`~zenoscope.spectral.simpson_samples`,
    which rejects an ``x`` past the alias bound as the grid's sampling does;
    both time integrals are exact (see the module notes).
    """
    density = kernel.density
    nodes, h, samples = simpson_samples(kernel, float(xs.max()))
    scale = 2.0 * density.d0 * (h / 3.0)
    return np.array([scale * x * np.dot(samples, _phi((nodes - density.c) * x))
                     for x in xs.tolist()])


#: most positive ``x`` a double-integral request on a compact quadrature kernel takes by
#: :func:`_simpson_double_integral` rather than on a grid: near ``x = 1``, up to three points
#: cost less than the grid with a cold chirp-z plan, and both meet to 1.3e-13 relative
MAX_PER_X_RATES = 3


def _numeric_rates(kernel: MemoryKernel, xs, source: RateSource) -> np.ndarray:
    """``gamma`` at every ``x`` of ``xs`` from one sampling of ``g``.

    ``g`` is sampled once on the uniform grid of ``_panel_count(X, c, support, b)``
    panels over ``[0, X]``, ``X = max(xs)``, and each rate is read off the
    route's cumulative sums of those samples at the last node ``t_m <= x``
    plus the remainder both routes share, :func:`_remainder`, from ``t_m`` to ``x``.
    The double-integral route on a compact-support quadrature kernel takes
    at most ``MAX_PER_X_RATES`` positive ``x`` by
    :func:`_simpson_double_integral` instead, after the same checks: no grid
    is sampled, and an ``x`` the grid rejects is rejected.  Negative,
    infinite and NaN entries raise ``ValueError`` before anything is
    sampled; ``x = 0`` gives exactly ``0j``.
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
    density = kernel.density
    n = _panel_count(x_max, density.c, kernel.compact_support, density.split)
    if (source is RateSource.DOUBLE_INTEGRAL and kernel.compact_support is not None
            and x.size <= MAX_PER_X_RATES):
        out[positive] = _simpson_double_integral(kernel, x)
        return out
    grid = np.linspace(0.0, x_max, n + 1)
    m = np.searchsorted(grid, x, side="right") - 1
    d = x - grid[m]
    g = uniform_kernel_g(kernel, x_max, n)
    out[positive] = 2j / x * (route(grid, g, m, x, d) + _remainder(grid, g, m, d))
    return out


def gamma_numeric(kernel: MemoryKernel, x: float) -> complex:
    """Effective rate from the nested double integral of ``g``.

    The one-point case of :func:`rate_curve`, bit for bit.  On a grid, the
    inner antiderivative is accumulated with the cumulative rule and the
    outer integral with another pass of it over the first, with ``x`` the
    last node; on a compact-support quadrature kernel both time integrals
    are taken in closed form on each term of the Simpson sum.  Either way
    it is independent of ``RateSource.KK_INTEGRAL``, which stays on the grid.
    """
    return complex(_numeric_rates(kernel, [x], RateSource.DOUBLE_INTEGRAL)[0])


# -- erf and Si, ported from Cephes (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989: erf and erfc of ndtr.c, the Si half of sici.c) with its coefficients, branch
# cuts and order of operations, so that every value has the bits of scipy.special's erf and
# sici: each Horner step rounds its product and its sum apart (no FMA), and exp, sin and cos
# are libm's, through ``math``, as the compiled routines take them

#: one rational ``p/q`` of Cephes: ``p`` and ``q`` highest order first, and both packed into
#: complex ``p + iq`` for arrays.  A ``q`` that Cephes sums by ``p1evl`` carries its leading
#: 1.0 (``1.0 z + c = z + c``), and the shorter of the two leading zeros (``0 z + c = c``), so
#: neither changes a bit; ``z`` is real and finite, so no step mixes the two parts
_Rational = namedtuple("_Rational", "p q packed")


def _rational(p, q) -> _Rational:
    size = max(len(p), len(q))
    padded = [[0.0] * (size - len(c)) + c for c in (p, q)]
    return _Rational(p, q, [complex(a, b) for a, b in zip(*padded)])


def _horner(coefs, z):
    """``sum_k coefs[k] z^(d - k)`` by Horner's rule, a rounding for each product and sum;
    ``z`` is a number or an array, and ``coefs`` run from the highest order down."""
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * z + c
    return acc


def _ratio(rational: _Rational, z):
    """Numerator and denominator of ``rational`` at a float ``z`` or at every entry of an array,
    there by one Horner pass over ``p + iq``, in place."""
    if isinstance(z, float):
        return _horner(rational.p, z), _horner(rational.q, z)
    z = z.astype(complex)
    both = np.full(z.shape, rational.packed[0])
    for c in rational.packed[1:]:
        both *= z
        both += c
    return both.real, both.imag


def _libm(f, x):
    """``f`` from ``math`` at a float ``x`` or at every entry of a 1-D array."""
    if isinstance(x, float):
        return f(x)
    return np.fromiter(map(f, x.tolist()), float, x.size)


#: ``ln(2^1024)``: past ``x^2 = MAXLOG`` Cephes takes ``erfc(x)`` as 0, and ``erf`` as 1
_MAXLOG = 7.09782712893383996843e2
#: ``erf(x) = 1`` past this ``|x|``, where ``erfc`` underflows; ``1 - erfc`` rounds to 1 from
#: ``|x| = 6`` on, so the cut moves no bit
_ERF_ONE = math.sqrt(_MAXLOG)
#: ``erf(x) = x T(x^2)/U(x^2)`` for ``|x| <= 1``
_ERF_NEAR = _rational(
    [9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4],
    [1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4])
#: ``erfc(x) = e^{-x^2} P(x)/Q(x)`` for ``1 < x < 8``
_ERFC_MID = _rational(
    [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2],
    [1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2])
#: ``erfc(x) = e^{-x^2} R(x)/S(x)`` for ``x >= 8``
_ERFC_FAR = _rational(
    [5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0],
    [1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0])
#: ``Si(x) = x SN(x^2)/SD(x^2)`` for ``|x| <= 4``
_SI_NEAR = _rational(
    [-8.39167827910303881427e-11, 4.62591714427012837309e-8, -9.75759303843632795789e-6,
     9.76945438170435310816e-4, -4.13470316229406538752e-2, 1.00000000000000000302e0],
    [2.03269266195951942049e-12, 1.27997891179943299903e-9, 4.41827842801218905784e-7,
     9.96412122043875552487e-5, 1.42085239326149893930e-2, 9.99999999999999996984e-1])
#: the auxiliary ``f = FN(z)/(x FD(z))`` and ``g = z GN(z)/GD(z)``, ``z = 1/x^2``, of
#: ``Si(x) = pi/2 - f cos x - g sin x`` for ``4 < x < 8``
_SI_MID = (
    _rational([4.23612862892216586994e0, 5.45937717161812843388e0, 1.62083287701538329132e0,
               1.67006611831323023771e-1, 6.81020132472518137426e-3, 1.08936580650328664411e-4,
               5.48900223421373614008e-7],
              [1.0, 8.16496634205391016773e0, 7.30828822505564552187e0, 1.86792257950184183883e0,
               1.78792052963149907262e-1, 7.01710668322789753610e-3, 1.10034357153915731354e-4,
               5.48900252756255700982e-7]),
    _rational([8.71001698973114191777e-2, 6.11379109952219284151e-1, 3.97180296392337498885e-1,
               7.48527737628469092119e-2, 5.38868681462177273157e-3, 1.61999794598934024525e-4,
               1.97963874140963632189e-6, 7.82579040744090311069e-9],
              [1.0, 1.64402202413355338886e0, 6.66296701268987968381e-1, 9.88771761277688796203e-2,
               6.22396345441768420760e-3, 1.73221081474177119497e-4, 2.02659182086343991969e-6,
               7.82579218933534490868e-9]))
#: the same ``f`` and ``g`` from ``x = 8`` on.  Cephes's asymptote ``pi/2 - cos(x)/x`` past
#: ``x = 1e9`` sets only ``Ci`` in SciPy's copy, whose ``Si`` goes on to these, as here
_SI_FAR = (
    _rational([4.55880873470465315206e-1, 7.13715274100146711374e-1, 1.60300158222319456320e-1,
               1.16064229408124407915e-2, 3.49556442447859055605e-4, 4.86215430826454749482e-6,
               3.20092790091004902806e-8, 9.41779576128512936592e-11, 9.70507110881952024631e-14],
              [1.0, 9.17463611873684053703e-1, 1.78685545332074536321e-1, 1.22253594771971293032e-2,
               3.58696481881851580297e-4, 4.92435064317881464393e-6, 3.21956939101046018377e-8,
               9.43720590350276732376e-11, 9.70507110881952025725e-14]),
    _rational([6.97359953443276214934e-1, 3.30410979305632063225e-1, 3.84878767649974295920e-2,
               1.71718239052347903558e-3, 3.48941165502279436777e-5, 3.47131167084116673800e-7,
               1.70404452782044526189e-9, 3.85945925430276600453e-12, 3.14040098946363334640e-15],
              [1.0, 1.68548898811011640017e0, 4.87852258695304967486e-1, 4.67913194259625806320e-2,
               1.90284426674399523638e-3, 3.68475504442561108162e-5, 3.57043223443740838771e-7,
               1.72693748966316146736e-9, 3.87830166023954706752e-12, 3.14040098946363335242e-15]))
#: a larger ``x``, infinity too, is taken as this one: ``x^2`` stays finite, and ``Si`` is
#: ``pi/2`` to the last bit from ``x = 1e17`` on, as Cephes returns at ``inf``
_BIG = 1e154


def _erf_near(x):
    num, den = _ratio(_ERF_NEAR, x * x)
    return x * num / den


def _erf_tail(a, rational):
    """``1 - erfc(a)``, ``1 < a <= sqrt(MAXLOG)``."""
    num, den = _ratio(rational, a)
    return 1.0 - _libm(math.exp, -a * a) * num / den


def _si_near(x):
    num, den = _ratio(_SI_NEAR, x * x)
    return x * num / den


def _si_tail(a, rationals):
    """``Si(a)`` by its auxiliary functions, ``4 < a <= _BIG``."""
    z = 1.0 / (a * a)
    f_num, f_den = _ratio(rationals[0], z)
    g_num, g_den = _ratio(rationals[1], z)
    f = f_num / (a * f_den)
    g = z * g_num / g_den
    return 0.5 * math.pi - f * _libm(math.cos, a) - g * _libm(math.sin, a)


def _erf(x):
    """``erf(x)`` as Cephes takes it: a float for a real number ``x``, else an array of ``x``'s
    shape.

    ``erf(x) = x T(x^2)/U(x^2)`` up to ``|x| = 1``, then ``1 - erfc(|x|)`` with the sign of
    ``x``, ``erfc`` by ``P/Q`` below 8 and ``R/S`` from 8 on, and 1 past ``sqrt(MAXLOG)``,
    where Cephes's ``erfc`` underflows.
    """
    if isinstance(x, numbers.Real):
        x = float(x)
        a = abs(x)
        if not a > 1.0:                     # NaN too
            return _erf_near(x)
        if a > _ERF_ONE:
            return math.copysign(1.0, x)
        return math.copysign(_erf_tail(a, _ERFC_MID if a < 8.0 else _ERFC_FAR), x)
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    out = np.ones_like(a)
    near = ~(a > 1.0)
    out[near] = _erf_near(x[near])
    for part, rational in (((a > 1.0) & (a < 8.0), _ERFC_MID),
                           ((a >= 8.0) & (a <= _ERF_ONE), _ERFC_FAR)):
        out[part] = _erf_tail(a[part], rational)
    return np.copysign(out, x)


def _si(x):
    """The sine integral ``Si(x)`` as Cephes's ``sici`` takes it: a float for a real number
    ``x``, else an array of ``x``'s shape.

    ``Si(x) = x SN(x^2)/SD(x^2)`` up to ``|x| = 4``, then ``pi/2 - f cos|x| - g sin|x|``
    with the sign of ``x``, by the auxiliary rationals below 8 and from 8 on;
    ``Si(-0) = +0``, as in Cephes.
    """
    if isinstance(x, numbers.Real):
        x = float(x)
        a = min(abs(x), _BIG)
        if a > 4.0:
            return math.copysign(_si_tail(a, _SI_MID if a < 8.0 else _SI_FAR), x)
        return _si_near(x) + 0.0            # NaN too; + 0.0 takes -0 to +0
    x = np.asarray(x, dtype=float)
    a = np.minimum(np.abs(x), _BIG)
    out = np.empty_like(a)
    near = ~(a > 4.0)
    out[near] = _si_near(x[near]) + 0.0
    for part, rationals in (((a > 4.0) & (a < 8.0), _SI_MID), (a >= 8.0, _SI_FAR)):
        out[part] = np.copysign(_si_tail(a[part], rationals), x[part])
    return out


# -- closed forms (c = 0 for the Gaussian and the rectangle; the double peak is two Lorentzians)

#: below this ``|kappa| x`` (``kappa = 1`` but for the Lorentzian) the closed forms cancel
X_SERIES = 0.01

# Taylor coefficients, highest order first (as _horner reads them): of
# [1 - (1 - e^{-z})/z] in z, and of gamma_G and gamma_R in x, for gamma = 1
_LORENTZIAN_SERIES = ([0.0] + [(-1) ** (k + 1) / math.factorial(k + 1)
                               for k in range(1, 11)])[::-1]
_GAUSSIAN_SERIES = [(-1) ** (k // 2) * math.sqrt(2.0 / math.pi) / (2 ** (k // 2) * k * (k + 1)
                    * math.factorial(k // 2)) if k % 2 else 0.0 for k in range(12)][::-1]
_RECTANGULAR_SERIES = [(-1) ** (k // 2) / (math.pi * 4 ** (k // 2) * k * (k + 1)
                       * math.factorial(k)) if k % 2 else 0.0 for k in range(10)][::-1]


def _closed_form(x, gamma, series, direct, kappa=1.0):
    """``direct(x)`` at ``|kappa| x >= X_SERIES``, and ``gamma/kappa`` times the Taylor
    ``series`` in ``kappa x`` below, as complex; each branch sees only its own points."""
    xs = check_points(x, "x")
    check_finite(check_positive(gamma, "gamma"), "gamma")
    small = xs < X_SERIES / abs(kappa)
    out = np.where(small, gamma / kappa * _horner(series, kappa * np.where(small, xs, 0.0)),
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
                        lambda x: gamma / kappa * (1.0 + np.expm1(-z(x)) / z(x)), kappa)


def gamma_gaussian(x, gamma: float = 1.0):
    """``gamma [erf(x/sqrt 2) + 2/(sqrt(2 pi) x) (e^{-x^2/2} - 1)]`` (zero at x = 0)."""
    return _closed_form(x, gamma, _GAUSSIAN_SERIES, lambda x: gamma * (
        _erf(x / math.sqrt(2.0))
        + 2.0 / (math.sqrt(2.0 * math.pi) * x) * (np.exp(-0.5 * x ** 2) - 1.0)))


def gamma_rectangular(x, gamma: float = 1.0):
    """``(2 gamma/pi) [Si(x/2) + (2/x) cos(x/2) - 2/x]`` (zero at x = 0)."""
    return _closed_form(x, gamma, _RECTANGULAR_SERIES, lambda x: 2.0 * gamma / math.pi * (
        _si(0.5 * x) + 2.0 / x * (np.cos(0.5 * x) - 1.0)))


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
