"""Spectral-density models and the time-domain memory kernel.

A two-level emitter coupled to a structured environment is characterised by
its spectral density function (SDF) ``D(omega_r)``, with ``omega_r`` measured
from the spectral centre: a shape profile with height ``Gamma = 2*pi*D0``,
width ``lam``, and the offset of the atomic transition from the centre
expressed as the dimensionless ratio ``c`` (offset ``E = c*lam``).

The decay amplitude obeys a Volterra equation whose kernel is the Fourier
transform of the SDF,

    F(u) = -i * integral D(omega_r) exp(-i*(omega_r - E) u) domega_r ,

written here with the free atomic phase already removed.  Because every
supported SDF is stored as a dimensionless profile of ``omega_r/lam``,
the rescaled kernel

    g(x) = F(x/lam) / lam

depends only on ``x`` (and on ``Gamma``, ``c``, and the peak-split ratio ``b``
of the double-peak shape), never on ``lam`` itself.  That structure is what
makes the joint variable ``x = lam*tau`` the natural scaling parameter of
frequently interrupted decay, so ``g`` is the primary object here and the
physical kernel is recovered as ``F(u) = lam * g(lam*u)``.

Closed forms exist for the four named shapes; arbitrary tabulated profiles
are handled by numerical Fourier quadrature, by one method per support type:

* Compact support (rectangular, tabulated): the composite Simpson sum of
  ``N_PANELS`` panels of width ``h`` over the support, which resolves ``x``
  up to ``pi/(2h)`` and rejects larger ``x``.  On a uniform ``x`` grid,
  :func:`uniform_kernel_g` takes it at every grid point as one chirp-z
  transform (Rabiner, Schafer & Rader,
  IEEE Trans. Audio Electroacoust. 17, 1969) in Bluestein's FFT form
  (Bluestein, IEEE Trans. Audio Electroacoust. 18, 1970).
  :func:`scaled_kernel_g` takes that one transform for an ``x`` array of
  more than ``MAX_PER_POINT_SUMS = 3`` points that is exactly
  ``np.linspace(0, x_max, points)``, with a step fine enough for the
  profile's width, and the point-by-point sums for every other array.  The
  rate integrals and the Volterra solver sample ``g`` on their own uniform
  grids, through :func:`uniform_kernel_g`; a rate at a few points instead
  integrates each term of the sum twice in time in closed form, from the
  samples of :func:`simpson_samples`.
* Infinite support (Lorentzian, Gaussian, double-Lorentzian; all even):
  ``2 int_0^inf d_tilde(w) cos(w x) dw`` by the double-exponential rule for
  Fourier integrals of Ooura & Mori (J. Comput. Appl. Math. 112, 1999), as
  ``(points x nodes)`` array sums, with ``x = 0`` by an exp-sinh rule; the
  double-Lorentzian as ``2 cos(b x)`` times the Lorentzian's sum.  The sums
  at steps ``h`` and ``h/2`` give an error estimate for each ``x``; only
  the points that miss ``DE_TOL`` are refined, and a point that does not
  converge raises ``ValueError``.  The rules of each step are built once
  and kept, read-only: at most ``DE_HALVINGS + 1`` steps, 1.3 MB in all.

The chirp-z transform, on ``numpy.fft``, meets the point-by-point Simpson
sums to 1e-15 ``Gamma``; the double-exponential sums meet the closed-form
kernels to 2e-15 ``Gamma`` for ``x`` in ``{0} U [1e-300, 50]``
(``b = 1.4`` for the double peak).  The per-point sums (``_simpson_g``)
stay in the module as the reference path of the tests and as the path of
arbitrary ``x``, and are orders of magnitude slower than the transform;
the QUADPACK reference of the double-exponential sums lives in the tests.
The package needs numpy, not SciPy.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from collections import namedtuple
from dataclasses import KW_ONLY, dataclass, field, replace

import numpy as np

__all__ = [
    "Shape",
    "KernelMode",
    "SpectralDensity",
    "MemoryKernel",
    "sdf_value",
    "kernel_value",
    "scaled_kernel_g",
    "uniform_kernel_g",
    "load_tabulated_profile",
    "write_csv",
]


# -- the input rules, each written once; every public entry point checks its arguments here

#: size budget: the most steps or grid points one solver, sampler or
#: experiment allocates; larger requests are rejected before allocation
MAX_POINTS = 10 ** 7


def check_size(count, what: str):
    """``count`` itself, or ``ValueError`` if it is NaN or beyond ``+-MAX_POINTS``."""
    if not abs(count) <= MAX_POINTS:
        shown = count if isinstance(count, int) else f"{count:.4g}"
        raise ValueError(f"{what} = {shown} does not fit the size budget of "
                         f"{MAX_POINTS:.0e} points")
    return count


def check_finite(value, name: str):
    """``value`` itself, or ``ValueError`` if it (or an entry of it) is NaN or infinite."""
    finite = np.isfinite(value)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {np.asarray(value)[~finite].flat[0]}")
    return value


def check_real(value, name: str) -> float:
    """``value`` as a float, or ``ValueError`` unless it is one real number (not an array, a
    ``bool``, a string or a complex number) that a float can hold."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got {value!r}") from None


def check_positive(value, name: str):
    """``value`` itself, or ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_count(n, name: str, minimum: int):
    """``n`` itself, or ``ValueError`` unless it is an integer ``>= minimum``."""
    if not (isinstance(n, numbers.Integral) and n >= minimum):
        raise ValueError(f"{name} must be >= {minimum} and an integer, got {n!r}")
    return n


def check_points(x, name: str) -> np.ndarray:
    """``x`` as a float array, or ``ValueError`` unless every entry is finite and ``>= 0``."""
    xs = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(xs) & (xs >= 0))
    if bad.any():
        raise ValueError(f"{name} must be finite and nonnegative, got {xs[bad][0]}")
    return xs


def check_contraction(a, name: str) -> complex:
    """``a`` as a complex number, or ``ValueError`` unless ``|a| <= 1 + 1e-9``."""
    if not abs(a) <= 1.0 + 1e-9:
        raise ValueError(f"|{name}| = {abs(a)!r} exceeds 1 beyond tolerance")
    return complex(a)


#: most any rate may move the state in one step of a trajectory or of the master equation,
#: as ``rate * dt``: at most one photon per step, and a small drive rotation
MAX_RATE_DT = 0.05


def check_step(rate_dt, name: str):
    """``rate_dt`` itself, or ``ValueError`` unless ``rate_dt <= MAX_RATE_DT`` (to ``1e-12``)."""
    if not rate_dt <= MAX_RATE_DT + 1e-12:
        raise ValueError(f"{name} = {rate_dt:.3g} exceeds {MAX_RATE_DT}: the step is too coarse "
                         f"for the at-most-one-photon criterion")
    return rate_dt


def check_grid(n: int, dt: float, t_max: float) -> int:
    """``n``, or ``ValueError`` if ``n`` steps of ``dt`` miss ``t_max`` by over ``1e-9 t_max``."""
    if not abs(n * dt - t_max) <= 1e-9 * t_max:
        raise ValueError(f"dt={dt} does not divide t_max={t_max}: the grid would end "
                         f"at t={n * dt:.12g}")
    return n


class Shape(enum.Enum):
    """Supported spectral-density shapes."""

    LORENTZIAN = "lorentzian"
    GAUSSIAN = "gaussian"
    RECTANGULAR = "rectangular"
    DOUBLE_LORENTZIAN = "double_lorentzian"
    TABULATED = "tabulated"


@dataclass(frozen=True, eq=False)
class SpectralDensity:
    """Parametrised spectral density ``D(omega_r)``; ``c``, ``b`` and ``table`` are keyword-only.

    ``gamma``, ``lam``, ``c`` and ``b`` must each be one real number, and are
    stored as floats; an array, a ``bool``, a string or a complex number is
    rejected by name.

    Parameters
    ----------
    shape : Shape
        Profile variant, or its value (``"gaussian"``); any other value is rejected.
    gamma : float
        Coupling rate ``Gamma = 2*pi*D0`` (sets the spectral height
        ``D0 = gamma/(2*pi)``).  Must be positive.
    lam : float
        Spectral width ``lam`` (half-width for the Lorentzian peaks, standard
        deviation for the Gaussian, full bandwidth for the rectangle).  Must
        be positive.
    c : float
        Detuning ratio; the transition-to-centre offset is ``E = c*lam``.
    b : float
        Peak-split ratio of the double-Lorentzian (peaks at ``omega_r = +-b*lam``).
        Ignored by the other shapes.
    table : ndarray or None
        ``(n, 2)`` samples ``(omega_tilde, d_tilde)`` of the dimensionless
        profile ``D(omega_r) = D0 * d_tilde(omega_r/lam)``, strictly
        increasing in the first column and nonnegative in the second.  The
        profile is linearly interpolated and zero outside the sampled range.
        Required for (and only for) the tabulated shape.
    """

    shape: Shape
    gamma: float
    lam: float
    _: KW_ONLY
    c: float = 0.0
    b: float = 1.0
    table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "shape", Shape(self.shape))
        for name in ("gamma", "lam", "c", "b"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        for name in ("gamma", "lam", "c"):
            check_finite(getattr(self, name), name)
        check_positive(self.gamma, "gamma")
        check_positive(self.lam, "lam")
        check_points(self.b, "b")
        if self.shape is Shape.TABULATED:
            if self.table is None:
                raise ValueError("tabulated shape requires a profile table")
            tab = np.atleast_2d(np.asarray(self.table, dtype=float))
            if tab.ndim != 2 or tab.shape[1] != 2 or tab.shape[0] < 2:
                raise ValueError("profile table must contain >= 2 rows of (omega_tilde, d_tilde)")
            check_finite(tab[:, 0], "profile table abscissae")
            if not np.all(np.diff(tab[:, 0]) > 0):
                raise ValueError("profile table abscissae must be strictly increasing")
            check_points(tab[:, 1], "profile table values")
            object.__setattr__(self, "table", tab)
        elif self.table is not None:
            raise ValueError(f"table is only meaningful for the tabulated shape, not {self.shape}")

    # -- convenience constructors ------------------------------------------

    @classmethod
    def lorentzian(cls, gamma, lam, *, c=0.0):
        return cls(Shape.LORENTZIAN, gamma, lam, c=c)

    @classmethod
    def gaussian(cls, gamma, lam, *, c=0.0):
        return cls(Shape.GAUSSIAN, gamma, lam, c=c)

    @classmethod
    def rectangular(cls, gamma, lam, *, c=0.0):
        return cls(Shape.RECTANGULAR, gamma, lam, c=c)

    @classmethod
    def double_lorentzian(cls, gamma, lam, *, c=0.0, b=1.0):
        return cls(Shape.DOUBLE_LORENTZIAN, gamma, lam, c=c, b=b)

    @classmethod
    def tabulated(cls, gamma, lam, table, *, c=0.0):
        return cls(Shape.TABULATED, gamma, lam, c=c, table=np.asarray(table, float))

    @property
    def d0(self) -> float:
        """Spectral height ``D0 = gamma / (2*pi)``."""
        return self.gamma / (2.0 * math.pi)

    @property
    def split(self) -> float:
        """Distance ``b`` of the double peak's centres from ``c``; 0 for a single peak."""
        split = _SHAPES[self.shape].split
        return 0.0 if split is None else split(self)

    @property
    def energy_offset(self) -> float:
        """Offset of the transition energy from the spectral centre, ``E = c*lam``."""
        return self.c * self.lam

    def with_width(self, lam: float) -> "SpectralDensity":
        """Same dimensionless profile deformed to a new width ``lam``."""
        return replace(self, lam=lam)


class KernelMode(enum.Enum):
    ANALYTIC = "analytic"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class MemoryKernel:
    """Evaluator of the memory kernel of one spectral density.

    ``mode`` selects between the closed-form kernels of the four named shapes
    and numerical Fourier quadrature of the profile.  Tabulated densities
    only support quadrature.  Compact-support profiles (rectangular,
    tabulated) are integrated by a composite Simpson rule with ``N_PANELS``
    panels of width ``h`` over their exact support, and infinite-support
    profiles by the double-exponential Fourier rule over the positive
    half-axis.

    The Simpson sum resolves ``x`` up to ``pi/(2h)``: 12868 for the
    rectangle, 804 for a table on ``[-8, 8]``.  Its alternating 4-2 weights
    return an alias of ``g(0)/3`` at ``x = pi/h``, so larger ``x`` are
    rejected rather than summed.  The sum is taken for every point of a
    uniform grid at once by one chirp-z transform (:func:`uniform_kernel_g`,
    which the rate integrals and the Volterra solver use).  Its plan, the
    chirp and the FFT of its filter, depends on the grid and the panel
    width alone; the plans of the two most recent grids are kept (up to
    ``MAX_CACHED_PLAN`` points each), so sampling such a grid again, at any
    ``lam`` or ``c``, costs the transform's two FFTs.  The transform agrees
    with the point-by-point sum to at most 1.5e-15 Gamma on grids of up to
    40961 points to x = 20, measured on rectangular and tabulated profiles.
    :func:`scaled_kernel_g` passes an ``np.linspace`` grid from 0 of more
    than three points, with a step of at most ``1/(hi - lo)``, to that
    transform, and takes any other ``x`` array one point at a time.
    """

    density: SpectralDensity
    mode: KernelMode = None  # type: ignore[assignment]

    def __post_init__(self):
        analytic = _SHAPES[self.density.shape].kernel is not None
        default = KernelMode.ANALYTIC if analytic else KernelMode.QUADRATURE
        object.__setattr__(self, "mode", default if self.mode is None else KernelMode(self.mode))
        if self.mode is KernelMode.ANALYTIC and not analytic:
            raise ValueError(f"{self.density.shape} has no analytic kernel; use quadrature mode")

    @property
    def compact_support(self) -> tuple[float, float] | None:
        """Support ``(lo, hi)`` of the profile integrated by composite Simpson.

        Set for quadrature-mode kernels of compact-support profiles
        (rectangular, tabulated); ``None`` for every other kernel.
        """
        support = _SHAPES[self.density.shape].support
        if self.mode is not KernelMode.QUADRATURE or support is None:
            return None
        return support(self.density)


def load_tabulated_profile(path) -> np.ndarray:
    """Read a dimensionless SDF profile from a two-column text file.

    The format is a header line ``omega_tilde,d_tilde`` followed by
    comma-separated float rows with strictly increasing first column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if [col.strip() for col in header.split(",")] != ["omega_tilde", "d_tilde"]:
            raise ValueError(f"expected header 'omega_tilde,d_tilde', got {header!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected two comma-separated values")
            rows.append((float(parts[0]), float(parts[1])))
    return np.asarray(rows, dtype=float)


def write_csv(path, columns) -> None:
    """Write ``columns`` (header name -> equal-length column) as one CSV file.

    Every export format goes through here.  Numbers print as ``.12g``; strings as they are.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values(), strict=True):
            fh.write(",".join(v if isinstance(v, str) else f"{v:.12g}" for v in row) + "\n")


def _profile(density: SpectralDensity, w):
    """Dimensionless profile ``d_tilde(w)`` with ``w = omega_r/lam``."""
    return _SHAPES[density.shape].profile(density, np.asarray(w, dtype=float))


def sdf_value(density: SpectralDensity, omega_r):
    """Spectral density ``D(omega_r)`` at ``omega_r`` from the centre; scalars or arrays."""
    w = check_finite(np.asarray(omega_r, dtype=float), "omega_r") / density.lam
    out = density.d0 * _profile(density, w)
    return float(out) if np.isscalar(omega_r) else out


def clip_phase(x, rate: float):
    """``x`` cut to ``1e300/max(|rate|, 1)``, so that the phase ``rate x`` stays finite.

    Past ``|rate x| = 1e300`` the phase of ``e^{i rate x}`` is round-off; below
    the cut ``x`` is returned unchanged, bit for bit.
    """
    return np.minimum(x, 1e300 / max(abs(rate), 1.0))


def _gaussian_g(d: SpectralDensity, x, phase):
    # e^{-x^2/2} is 0 from x = 38.6 on; the cut at 40 keeps x*x from overflowing
    x = np.minimum(x, 40.0)
    return -1j * d.gamma / math.sqrt(2.0 * math.pi) * phase * np.exp(-0.5 * x * x)


#: what a :class:`Shape` is: ``profile(d, w)``, the analytic ``kernel(d, x, e^{icx})``, the
#: compact ``support(d) -> (lo, hi)`` and the ``split(d)`` of its peaks from ``c`` of a density
#: ``d``; ``None`` where the shape has none
_ShapeRecord = namedtuple("_ShapeRecord", "profile kernel support split",
                          defaults=(None, None, None))

#: the one record of every shape
_SHAPES = {
    Shape.LORENTZIAN: _ShapeRecord(
        profile=lambda d, w: 1.0 / (1.0 + w * w),
        kernel=lambda d, x, phase: -0.5j * d.gamma * phase * np.exp(-x)),
    Shape.GAUSSIAN: _ShapeRecord(profile=lambda d, w: np.exp(-0.5 * w * w), kernel=_gaussian_g),
    Shape.RECTANGULAR: _ShapeRecord(
        profile=lambda d, w: np.where(np.abs(w) <= 0.5, 1.0, 0.0),
        # sin(x/2)/x = (1/2) sinc(x/(2 pi)); finite x -> 0 limit Gamma/(2 pi)
        kernel=lambda d, x, phase: -1j * d.gamma / math.pi * phase * 0.5 * np.sinc(
            x / (2.0 * math.pi)),
        support=lambda d: (-0.5, 0.5)),
    Shape.DOUBLE_LORENTZIAN: _ShapeRecord(
        profile=lambda d, w: 1.0 / (1.0 + (w - d.b) ** 2) + 1.0 / (1.0 + (w + d.b) ** 2),
        kernel=lambda d, x, phase: -1j * d.gamma * phase * np.exp(-x) * np.cos(
            d.b * clip_phase(x, d.b)),
        split=lambda d: d.b),
    Shape.TABULATED: _ShapeRecord(
        profile=lambda d, w: np.interp(w, d.table[:, 0], d.table[:, 1], left=0.0, right=0.0),
        support=lambda d: (float(d.table[0, 0]), float(d.table[-1, 0]))),
}


def _read_only(*arrays):
    """``arrays`` as a tuple, each made read-only, so that a cached plan or rule stays as built."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


#: Simpson panels over the support of a compact-support profile
N_PANELS = 8192


@functools.lru_cache(maxsize=2)
def _simpson_rule(lo: float, hi: float):
    """Nodes, panel width and (unscaled 1-4-2-...-4-1) weights of composite Simpson.

    The rules of the two most recent supports are kept, read-only, 131 KB each.
    """
    nodes = np.linspace(lo, hi, N_PANELS + 1)
    weights = np.full(N_PANELS + 1, 2.0)
    weights[1:-1:2] = 4.0
    weights[0] = weights[-1] = 1.0
    nodes, weights = _read_only(nodes, weights)
    return nodes, (hi - lo) / N_PANELS, weights


def _check_resolved(kernel: MemoryKernel, x_max: float, name: str):
    """``ValueError`` if ``x_max`` is past ``pi/(2h)``, the largest ``x`` the Simpson sum resolves.

    The alternating 4-2 weights hold a copy of the rule shifted by ``pi/h``,
    so the sum at ``x`` also carries ``g(x - pi/h)/3``: ``g(0)/3`` at
    ``x = pi/h``.  Up to half way there, the copy is no nearer zero than ``x``.
    """
    lo, hi = kernel.compact_support
    bound = math.pi * N_PANELS / (2.0 * (hi - lo))
    if not x_max <= bound:
        raise ValueError(f"{name} = {x_max:.8g} exceeds {bound:.8g}, the largest x the Simpson "
                         f"sum over the support resolves; past it the sum aliases")


def _simpson_g(kernel: MemoryKernel, x: float) -> complex:
    """``g(x)`` of a compact-support kernel by the composite Simpson sum at one ``x``.

    The path of :func:`scaled_kernel_g` for arbitrary ``x``, and the
    reference for the chirp-z transform of :func:`uniform_kernel_g`.
    """
    density = kernel.density
    nodes, h, weights = _simpson_rule(*kernel.compact_support)
    integrand = _profile(density, nodes) * np.exp(-1j * (nodes - density.c) * x)
    integral = (h / 3.0) * np.dot(weights, integrand)
    return complex(-1j * density.d0 * integral)


# glibc's malloc maps every block over 128 KiB afresh, so each page of such a numpy array
# faults on first touch, until the process frees a larger mapped block: that raises the
# threshold, and the heap's trim threshold to twice it, past the block.  A compact kernel's
# chirp-z transform (8400 points, 134 KB a buffer) took 67 faults a sampling, a 25 000-step
# Volterra solve 570.  Freeing one 2 MiB block, whose pages are never touched, keeps arrays
# up to that size on the heap; with another allocator it is one allocation.
np.empty(2 ** 18)

#: a chirp-z plan: the chirp ``exp(-i theta k^2/2)``, the FFT of its conjugate and their length
_ChirpZPlan = namedtuple("_ChirpZPlan", "chirp filt size")


def _good_size(n: int) -> int:
    """The smallest 11-smooth number ``>= n``, a length pocketfft transforms fast.

    pocketfft's ``good_size_cmplx``, which ``scipy.fft.next_fast_len`` returns
    for complex transforms; the transform's bits depend on the length.  Each
    ``5^a 7^b 11^c`` below the best length so far is doubled up to ``n``, then
    one factor 2 at a time is traded for a 3 while the length stays even.
    """
    if n <= 12:
        return n
    best = 2 * n
    f11 = 1
    while f11 < best:
        f7 = f11
        while f7 < best:
            f5 = f7
            while f5 < best:
                x = f5
                while x < n:
                    x *= 2
                while True:
                    if x < n:
                        x *= 3
                    elif x > n:
                        best = min(best, x)
                        if x & 1:
                            break
                        x >>= 1
                    else:
                        return n
                f5 *= 5
            f7 *= 7
        f11 *= 11
    return best


def _chirp_z_plan(n: int, m: int, theta: float) -> _ChirpZPlan:
    """The arrays of :func:`_chirp_z` that depend on the lengths and ``theta`` alone, read-only."""
    size = _good_size(n + m - 1)
    k = np.arange(max(n, m), dtype=float)
    chirp = np.exp(-0.5j * theta * (k * k))
    filt = np.zeros(size, dtype=complex)
    filt[:m] = chirp[:m].conj()
    filt[size - n + 1:] = chirp[n - 1:0:-1].conj()
    np.fft.fft(filt, out=filt)
    return _ChirpZPlan(*_read_only(chirp, filt), size)


#: longest convolution whose chirp-z plan is cached: a chirp and a filter of
#: 16 bytes a point, so about 2 MB a plan; longer plans are built on every call
MAX_CACHED_PLAN = 2 ** 16

#: plans of the two most recent ``(n, m, theta)``: ``g`` is sampled on one ``x``
#: grid again and again (every width at one ``x``, both rate routes), and the
#: second plan keeps a grid's plan through one sampling on another grid
_cached_chirp_z_plan = functools.lru_cache(maxsize=2)(_chirp_z_plan)


def _chirp_z(a: np.ndarray, m: int, theta: float) -> np.ndarray:
    """``sum_k a[k] exp(-i theta j k)`` for ``j = 0..m-1``.

    Bluestein's algorithm: with ``jk = (j^2 + k^2 - (j - k)^2)/2`` the sum is
    a chirp times the linear convolution of ``a`` times a chirp with the
    conjugate chirp, done by zero-padded FFTs.  The chirp and the FFT of the
    conjugate chirp are the plan, which depends on ``a.size``, ``m`` and
    ``theta`` alone; up to ``MAX_CACHED_PLAN`` points it is built once and
    shared by later calls with the same three.
    """
    n = a.size
    build = _chirp_z_plan if n + m - 1 > MAX_CACHED_PLAN else _cached_chirp_z_plan
    chirp, filt, size = build(n, m, theta)
    buf = np.zeros(size, dtype=complex)
    np.multiply(a, chirp[:n], out=buf[:n])
    np.fft.fft(buf, out=buf)
    buf *= filt
    np.fft.ifft(buf, out=buf)
    return chirp[:m] * buf[:m]


#: most points of a uniform batch from 0 that :func:`_compact_g` takes by the per-point
#: Simpson sums rather than one chirp-z transform: up to three points the sums cost less than
#: a transform with a cold plan (see :func:`_chirp_z`), and three-point batches keep their bits
MAX_PER_POINT_SUMS = 3


def _compact_g(kernel: MemoryKernel, xs: np.ndarray) -> np.ndarray:
    """``g`` at every ``x`` of the 1-D ``xs`` from the Simpson sum of a compact-support kernel.

    A batch of more than ``MAX_PER_POINT_SUMS`` points that is exactly
    ``np.linspace(0, x_max, points)``, with a step ``x_max/(points - 1)`` of
    at most ``1/(hi - lo)``, is the grid of :func:`uniform_kernel_g` and
    takes its one transform.  Every other batch takes :func:`_simpson_g` at
    each point.
    """
    if not xs.size:
        return np.empty(0, dtype=complex)
    x_max = float(xs.max())
    _check_resolved(kernel, x_max, "x")
    lo, hi = kernel.compact_support
    # past that step the chirp phases h dx k^2/2 grow, and a [-8, 8] table on 200 points to
    # x = 20 read 2.2e-15 Gamma against the per-point sums
    if (xs.size > MAX_PER_POINT_SUMS and xs[0] == 0.0 and 0.0 < (hi - lo) * x_max <= xs.size - 1
            and np.array_equal(xs, np.linspace(0.0, x_max, xs.size))):
        return uniform_kernel_g(kernel, x_max, xs.size - 1)
    return np.array([_simpson_g(kernel, x) for x in xs.tolist()], dtype=complex)


# Double-exponential quadrature of the even infinite-support profiles:
# I(x) = int_0^inf d_tilde(w) cos(w x) dw, with g(x) = -2i D0 I(x) exp(i c x).

#: first step of the double-exponential rules; each refinement halves it
DE_STEP = 0.05
#: refinements before an unconverged ``x`` is rejected: the finest step is ``0.025/64``
DE_HALVINGS = 7
#: a sum is accepted once it differs from the sum at twice its step by at most
#: ``DE_TOL I(0)``; the error of a DE sum roughly squares when its step halves
DE_TOL = 1e-13
#: ``K`` of the Ooura-Mori map ``phi(t) = t/(1 - exp(-K sinh t))``
DE_K = 6.0
#: below this ``x``, ``I(x) = I(0)`` to round-off: ``|I(x) - I(0)| <= pi x``
DE_FLAT_X = 1e-16
#: largest ``|t|`` of the Ooura-Mori rule (see :func:`_fourier_rule`)
DE_REACH = 3.5
#: largest temporary ``(points x nodes)`` float array of a DE sum, in bytes: one
#: that stays in cache, which also keeps the sums' peak memory small
DE_CHUNK_BYTES = 2 ** 17


@functools.lru_cache(maxsize=DE_HALVINGS + 1)
def _exp_sinh_rule(h: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``w_n`` and weights of the exp-sinh rule ``w = exp(pi/2 sinh t)`` on ``(0, inf)``.

    ``|t| <= 4.5`` spans ``w`` from ``e^-71`` to ``e^71``, beyond which the
    terms of the three profiles are below ``1e-30`` of their sum.  Built once
    per step and kept, read-only, like :func:`_fourier_rule`.
    """
    t = h * np.arange(-math.ceil(4.5 / h), math.ceil(4.5 / h) + 1)
    w = np.exp(0.5 * math.pi * np.sinh(t))
    return _read_only(w, h * 0.5 * math.pi * np.cosh(t) * w)


def _ooura_mori(n: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Ooura-Mori nodes ``A_n`` and weights ``B_n`` at ``t_n = (n - 1/2) h``.

    ``w = M phi(t)/x`` with ``M h = pi``, where
    ``cos(M phi(t_n)) = (-1)^n sin(M t_n e/(1 - e))``, ``e = exp(-K sinh t_n)``,
    vanishes double-exponentially for large ``t_n``.
    """
    big_m = math.pi / h
    t = (n - 0.5) * h
    s, c = DE_K * np.sinh(t), DE_K * np.cosh(t)
    phi, slope, cosine = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    left = t < 0
    # t < 0: q = exp(K sinh t) <= 1, phi = -t q/(1 - q)
    tl, q, one_q = t[left], np.exp(s[left]), -np.expm1(s[left])
    phi[left] = -tl * q / one_q
    slope[left] = -q * (one_q + tl * c[left]) / one_q ** 2
    cosine[left] = np.cos(big_m * phi[left])
    # t > 0: e = exp(-K sinh t) <= 1, phi = t/(1 - e)
    tr, e, one_e = t[~left], np.exp(-s[~left]), -np.expm1(-s[~left])
    phi[~left] = tr / one_e
    slope[~left] = (one_e - tr * c[~left] * e) / one_e ** 2
    cosine[~left] = np.where(n[~left] % 2, -1.0, 1.0) * np.sin(big_m * tr * e / one_e)
    return big_m * phi, math.pi * slope * cosine


@functools.lru_cache(maxsize=DE_HALVINGS + 1)
def _fourier_rule(h: float) -> tuple[np.ndarray, np.ndarray]:
    """The Ooura-Mori rule of step ``h`` on ``|t| <= DE_REACH``: ``I(x) ~ sum f(A_n/x) B_n/x``.

    Past ``|t| = 3.5``, ``K sinh |t| > 99``, so ``q`` and ``e`` are below ``1e-43``:

    * left, the smallest node ``A = M |t| q`` is below ``3e-39`` at the
      finest step (``M = 8042``).  The sum leaves out about
      ``int_0^{A/x} f = f(0) A/x``: at most ``3e-23 f(0)`` at
      ``x = DE_FLAT_X``, 1e-10 of ``DE_TOL I(0)`` (``I(0) >= 1.25 f(0)``
      for the Lorentzian and the Gaussian, the profiles :func:`_fourier_g`
      sums);
    * right, every weight left out, about ``pi M t e``, is below ``1e-38``.
      Since ``w f(w) <= 1`` for both profiles, ``f(A/x)/x <= 1/A``, so
      every term left out is below ``1e-42``, and doubly exponentially
      smaller the further out.

    ``A/DE_FLAT_X <= DE_TOL`` alone needs ``K sinh |t| >= 77``, from
    ``|t| = 3.25`` on: at ``|t| = 3.0`` the Gaussian and the Lorentzian do
    not converge at ``x <= 1e-11``.  The margin past 3.25 keeps the sums
    within round-off of the rule out to ``|t| = 5.5``, where every weight
    underflows, with 36% fewer nodes.  Built once per step and kept,
    read-only, so a sampling builds no rule at a step sampled before.
    """
    n = np.arange(math.floor(-DE_REACH / h), math.ceil(DE_REACH / h) + 1)
    return _read_only(*_ooura_mori(n, h))


def _de_sums(density: SpectralDensity, xs: np.ndarray, nodes, weights) -> np.ndarray:
    """``sum_n d_tilde(nodes_n/x) weights_n / x`` at every ``x``, a chunk of rows at a time.

    Each row is summed on its own, so every value depends on its own ``x`` alone.
    """
    out = np.empty(xs.size)
    rows = max(1, DE_CHUNK_BYTES // (8 * nodes.size))
    for i in range(0, xs.size, rows):
        values = _profile(density, nodes / xs[i:i + rows, None])
        values *= weights
        out[i:i + rows] = values.sum(axis=1)
    return out / xs


def _de_integral(density: SpectralDensity, xs: np.ndarray, rule, scale=None) -> np.ndarray:
    """The sums of ``rule`` at every ``x``, each refined until two successive steps agree.

    A point is done once its sums at ``h`` and ``h/2`` differ by at most
    ``DE_TOL * scale`` (``scale`` defaults to the sum itself), and the
    ``h/2`` sum is returned.  ``ValueError`` if a point is not done after
    ``DE_HALVINGS`` halvings.
    """
    out = np.empty(xs.size)
    todo = np.arange(xs.size)
    coarse = _de_sums(density, xs, *rule(DE_STEP))
    for level in range(1, DE_HALVINGS + 1):
        fine = _de_sums(density, xs[todo], *rule(DE_STEP / 2 ** level))
        done = np.abs(fine - coarse) <= DE_TOL * (np.abs(fine) if scale is None else scale)
        out[todo[done]] = fine[done]
        todo, coarse = todo[~done], fine[~done]
        if not todo.size:
            return out
    raise ValueError(f"the double-exponential rule for the {density.shape.value} kernel did not "
                     f"converge at x = {xs[todo[0]]:.6g} (step {DE_STEP / 2 ** DE_HALVINGS:.3g})")


def _fourier_g(kernel: MemoryKernel, xs: np.ndarray) -> np.ndarray:
    """``g`` at every ``x`` of the 1-D ``xs`` for an even infinite-support profile.

    ``I(0)`` by the exp-sinh rule, which also serves below ``DE_FLAT_X``;
    every other ``x`` by the Ooura-Mori rule (J. Comput. Appl. Math. 112, 1999).
    The double peak is one Lorentzian shifted by ``+-b``, so by the shift
    theorem ``I(x) = 2 cos(b x) I_L(x)``: widely split peaks cost no more
    than one.
    """
    density = kernel.density
    c, b = density.c, density.b
    split = density.shape is Shape.DOUBLE_LORENTZIAN
    profile = SpectralDensity.lorentzian(density.gamma, density.lam) if split else density
    i_zero = _de_integral(profile, np.ones(1), _exp_sinh_rule)[0]
    values = np.full(xs.shape, i_zero)
    wide = xs >= DE_FLAT_X
    if wide.any():
        values[wide] = _de_integral(profile, xs[wide], _fourier_rule, i_zero)
    if split:
        values = 2.0 * np.cos(b * clip_phase(xs, b)) * values
    return -2j * density.d0 * values * np.exp(1j * c * clip_phase(xs, c))


def scaled_kernel_g(kernel: MemoryKernel, x):
    """Rescaled memory kernel ``g(x) = F(x/lam)/lam``.

    Independent of ``kernel.density.lam`` by construction: only ``gamma``,
    ``c``, ``b``, and the dimensionless profile enter.  Accepts scalars or
    arrays of any shape of finite ``x >= 0``.  An infinite-support
    quadrature-mode kernel evaluates all of them together; a compact-support
    one takes one transform for a uniform grid from 0 and the per-point
    Simpson sums otherwise (see :class:`MemoryKernel`), and rejects ``x``
    past ``pi/(2h)``.
    """
    xs = check_points(x, "x")
    if kernel.mode is KernelMode.ANALYTIC:
        d = kernel.density
        out = _SHAPES[d.shape].kernel(d, xs, np.exp(1j * d.c * clip_phase(xs, d.c)))
    elif kernel.compact_support is not None:
        out = _compact_g(kernel, xs.ravel()).reshape(xs.shape)
    else:
        out = _fourier_g(kernel, xs.ravel()).reshape(xs.shape)
    return complex(out) if np.isscalar(x) else out


def uniform_kernel_g(kernel: MemoryKernel, x_max: float, n: int) -> np.ndarray:
    """Rescaled kernel ``g`` on the uniform grid ``np.linspace(0, x_max, n + 1)``.

    For a compact-support quadrature kernel (see
    :attr:`MemoryKernel.compact_support`) the Simpson sum of
    :func:`scaled_kernel_g` is taken at every grid point at once: with nodes
    ``lo + k h`` and ``x_j = j dx`` the sum of ``s_k exp(-i (lo + k h - c) x_j)``
    is ``exp(-i (lo - c) x_j)`` times a chirp-z transform with ratio
    ``exp(-i h dx)``.  This costs a few FFTs of length ``n + N_PANELS``
    instead of ``n + 1`` sums over ``N_PANELS + 1`` nodes, and agrees with
    the point-by-point sum to round-off; an ``x_max`` past ``pi/(2h)`` is
    rejected.  Every other kernel returns
    ``scaled_kernel_g(kernel, np.linspace(0, x_max, n + 1))``.
    """
    check_size(check_count(n, "n", 1), "n")
    check_points(x_max, "x_max")
    xs = np.linspace(0.0, x_max, n + 1)
    support = kernel.compact_support
    if support is None:
        return scaled_kernel_g(kernel, xs)
    density = kernel.density
    _, h, samples = simpson_samples(kernel, x_max)
    sums = _chirp_z(samples, n + 1, h * (x_max / n))
    return -1j * density.d0 * (h / 3.0) * np.exp(-1j * (support[0] - density.c) * xs) * sums


def simpson_samples(kernel: MemoryKernel, x_max: float):
    """Nodes ``w_k``, panel width ``h`` and samples ``a_k`` of the Simpson sum of a compact kernel.

    ``a_k`` is the profile ``d_tilde(w_k)`` times the 1-4-2-...-4-1 weight, so
    ``g(x) = -i D0 (h/3) sum_k a_k exp(-i (w_k - c) x)`` at every ``x`` up to
    ``x_max``: the samples :func:`uniform_kernel_g` transforms.  ``ValueError``
    if ``x_max`` is past ``pi/(2h)``, the largest ``x`` the sum resolves.
    """
    _check_resolved(kernel, x_max, "x_max")
    nodes, h, weights = _simpson_rule(*kernel.compact_support)
    return nodes, h, weights * _profile(kernel.density, nodes)


def kernel_value(kernel: MemoryKernel, u):
    """Memory kernel ``F(u) = lam * g(lam*u)`` for times ``u >= 0``."""
    us = check_points(u, "u")
    lam = kernel.density.lam
    out = lam * scaled_kernel_g(kernel, lam * us)
    return complex(out) if np.isscalar(u) else out
