"""Monte-Carlo quantum trajectories under frequent photon detection.

One coarse step of duration ``dt_step`` bundles many detection intervals:
with probability ``p1 = |alpha|^2 * gamma_eff * dt_step`` a photon is
registered and the atom is projected to the ground state (jump operator
``sigma-``); otherwise the no-click back-action contracts the excited
amplitude by ``a_bar(dt_step)`` and the state is renormalised.  A resonant
Rabi drive ``omega * sigma_x`` is applied after the measurement update of
each step.  The no-click contraction and the click probability are linked
by ``gamma_eff = [1 - |a_bar|^2]/dt_step``, which makes the two outcomes
exactly exhaust the step probability.  The contraction takes the scaling
form ``exp(-gamma(x) dt_step / 2)`` (:func:`make_drive_config`) or, where no
closed result is available, the numerically solved ``a(tau)**n`` over ``n``
whole detection intervals (:func:`memory_drive_config`).

Sampling follows the waiting-time formulation (Dalibard, Castin & Molmer,
PRL 68, 580 (1992); Plenio & Knight, RMP 70, 101 (1998)).  Between clicks
the evolution is deterministic, and every click leaves the same post-click
state, so a trajectory is a chain of slices of two no-click *paths*: one
from the initial state and one from the post-click state.  Each path holds
the click probability ``p1[j]`` of its step ``j`` and the occupation after
it, both computed by the single-step update ``_advance``.  A segment that
starts at step ``k0`` ends at the first ``k`` with ``eps[k] < p1[k - k0]``,
found by one vectorised comparison, so a trajectory costs a few numpy calls
per click instead of one Python step per time step, and its records are
bit-identical to the stepwise loop.  A path can go dark: once its click
probability stays 0 (an undriven atom in the ground state, as after every
click), no later step can click, the rest of the trajectory is that path's
slice, and the search stops there (``_Path.live``).  ``_advance`` is the
one stepper: the only null-result and click update, and the stepwise
reference of the tests; a no-click outcome that leaves no state
(``a_bar * alpha = beta = 0``) raises ``ValueError``.

The paths depend only on the layout: the initial state, the ``DriveConfig``
and ``a_bar``.  ``simulate_trajectory`` and ``run_ensemble`` share one LRU
cache of the last eight layouts of at most ``MAX_CACHED_STEPS`` steps, and
build longer layouts on every call, so the cache holds at most about 16 MB.
Only a repeated layout (a seed scan, a loop of ensembles) gains from it; a
one-off run pays the same Python loop of ``_advance`` calls as before.

Reproducibility: the uniform variate of step ``k`` is the ``k``-th of a
counter-based Philox4x64-10 stream (Salmon et al., SC'11) keyed through
``numpy.random.SeedSequence(seed)`` (``make_rng``).  The stream is
unchanged, and a trajectory reads it only as far as its last possible
click: all of it when the drive keeps both paths live, in blocks of
``DRAW_BLOCK`` up to the first click of an undriven trajectory, whose
post-click path is dark.  Ensembles derive the seed of trajectory ``i``
from the first eight bytes of ``sha256(b"<master_seed>:<i>")`` (the prefix
``<master_seed>:`` hashed once per ensemble), so any subset of trajectories
can be recomputed independently, and reduce the trajectories in index
order, also when ``run_ensemble`` fills blocks of rows in threads
(``n_jobs``).

An ensemble does not build one ``SeedSequence`` and one generator per
trajectory.  ``_philox_keys`` runs SeedSequence's entropy mixing (M. E.
O'Neill's seed_seq alternative, pcg-random.org 2015, as numpy implements it
with a pool of four 32-bit words) as uint64 array arithmetic masked to 32
bits, which gives the Philox key of every trajectory of the ensemble in a
few numpy calls.  One reused Philox generator is then reset to counter 0
and each key in turn, and the sampler draws that trajectory's uniforms from
it into one reused buffer.  The stream is the one ``make_rng(seed)`` draws,
bit for bit, however the draws are split; ``make_rng`` stays the
single-trajectory API and the oracle of the batched keys, and
``child_seed`` that of the batched seeds.
"""

from __future__ import annotations

import functools
import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rates import gamma_eff as _gamma_eff_of
from .spectral import (MAX_RATE_DT, MemoryKernel, check_contraction, check_count, check_finite,
                       check_points, check_positive, check_size, check_step, write_csv)
from .volterra import AtomState, interval_amplitude, null_conditioned_power

__all__ = [
    "DriveConfig",
    "TrajectoryRecord",
    "EnsembleResult",
    "simulate_trajectory",
    "run_ensemble",
    "make_drive_config",
    "memory_drive_config",
    "child_seed",
    "make_rng",
]


@dataclass(frozen=True)
class DriveConfig:
    """Step layout of a trajectory run.

    ``gamma_eff * dt_step`` and ``omega * dt_step`` are both capped at
    ``MAX_RATE_DT`` (``check_step``) so that at most one photon is
    registered per step and the drive rotation stays small.
    """

    omega: float
    gamma_eff: float
    dt_step: float
    n_steps: int

    def __post_init__(self):
        check_finite(self.omega, "omega")
        check_points(self.gamma_eff, "gamma_eff")
        check_positive(check_finite(self.dt_step, "dt_step"), "dt_step")
        check_size(check_count(self.n_steps, "n_steps", 1), "n_steps")
        check_step(self.gamma_eff * self.dt_step, "gamma_eff*dt_step")
        check_step(abs(self.omega) * self.dt_step, "omega*dt_step")

    @property
    def t_max(self) -> float:
        return self.n_steps * self.dt_step


@dataclass(frozen=True)
class TrajectoryRecord:
    """One stochastic realisation: occupations, click flags, and its seed."""

    dt_step: float
    p_e: np.ndarray      # length n_steps + 1, p_e[0] is the initial occupation
    jumps: np.ndarray    # bool, length n_steps; True = photon registered in that step
    seed: int

    @property
    def times(self) -> np.ndarray:
        return self.dt_step * np.arange(len(self.p_e))

    @property
    def jump_count(self) -> int:
        return int(np.count_nonzero(self.jumps))

    def first_jump_time(self) -> float | None:
        """Time of the first registered photon, or None if none occurred."""
        idx = np.flatnonzero(self.jumps)
        if idx.size == 0:
            return None
        return (int(idx[0]) + 1) * self.dt_step

    def to_csv(self, path):
        # the jump flag of row k marks a click in the step that ended at t_k; row 0 has none
        write_csv(path, {"t": self.times, "p_e": self.p_e,
                         "jump": np.concatenate(([0], self.jumps))})


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator of one trajectory's uniforms.

    Ensembles draw the same streams without building one generator per
    trajectory (``_seeded_uniforms``).
    """
    check_count(seed, "seed", 0)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def child_seed(master_seed: int, index: int) -> int:
    """Deterministic per-trajectory seed: first 8 bytes of sha256(master:index)."""
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _child_seeds(master_seed: int, n: int) -> np.ndarray:
    """``child_seed(master_seed, i)`` for every ``i < n``, as uint64.

    The prefix ``<master_seed>:`` is hashed once and each index appended to
    a copy of that hash, so the bytes hashed, and the seeds, are the same.
    """
    prefix = hashlib.sha256(f"{master_seed}:".encode())
    digests = []
    for i in range(n):
        h = prefix.copy()
        h.update(b"%d" % i)
        digests.append(h.digest()[:8])
    return np.frombuffer(b"".join(digests), dtype="<u8")


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for ``k = 0 .. count - 1``, as a uint64 column."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint64)[:, None]


# the hash constants SeedSequence (numpy.random.bit_generator, pool size 4)
# steps through: 16 for mixing the entropy into the pool, 5 for drawing the
# four 32-bit words of a Philox key from it
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_DRAW_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 5)
_MIX_MULT_L, _MIX_MULT_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_MASK32, _SHIFT16, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(16), np.uint64(32)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix: row ``k`` with the constants ``consts[k], consts[k + 1]``.

    A 1-D ``values`` is hashed once with each pair of constants.
    """
    values = (values ^ consts[:-1]) * consts[1:] & _MASK32
    return values ^ (values >> _SHIFT16)


def _philox_keys(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(2, np.uint64)`` for every seed ``s``.

    ``seeds`` holds integers in ``[0, 2**64)``; the result has shape
    ``(len(seeds), 2)``.  A seed below ``2**64`` is at most two 32-bit
    entropy words, and a missing word hashes like a zero word, so every seed
    fills the pool of four words as ``(low, high, 0, 0)``.  The hash
    constants do not depend on the data, so each round is a few uint64
    array operations masked to 32 bits across all seeds; the three hashes of
    one source word in the mixing loop are taken at once.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, seeds.size), dtype=np.uint64)
    pool[0], pool[1] = seeds & _MASK32, seeds >> _SHIFT32
    pool = _hashmix(pool, _MIX_HASH[0:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        hashed = _hashmix(pool[src], _MIX_HASH[k:k + 4])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed & _MASK32
        pool[dst] = mixed ^ (mixed >> _SHIFT16)
    words = _hashmix(pool, _DRAW_HASH)
    return np.stack([words[0] | words[1] << _SHIFT32, words[2] | words[3] << _SHIFT32], axis=1)


def _seeded_uniforms(seeds, n: int):
    """Yield ``(gen, eps)`` for each seed: ``gen`` draws the stream of ``make_rng(seed)``.

    ``gen`` is one reused generator, reset to the start of each seed's stream,
    and ``eps`` one reused buffer of ``n`` values, which the caller fills
    from ``gen`` as far as it reads.
    """
    bit_gen = np.random.Philox(key=0)
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state   # counter 0 and an empty output buffer
    # the state setter reads Python lists of ints in half the time it takes for arrays
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    eps = np.empty(n)
    for key in _philox_keys(seeds).tolist():
        state["state"]["key"] = key
        bit_gen.state = state
        yield gen, eps


def _p_excited(alpha: complex) -> float:
    return alpha.real * alpha.real + alpha.imag * alpha.imag


def _advance(alpha, beta, eps, a_bar, geff_dt, cw, sw):
    """One measurement-then-drive update of the raw amplitudes on the uniform ``eps``.

    Click (``eps < p1``): ground-state reset.  No click: the excited amplitude
    is multiplied by ``a_bar`` and the state renormalised.  Then the drive
    turns the state by ``cw = cos(omega dt_step)``, ``sw = sin(omega dt_step)``.
    """
    p1 = _p_excited(alpha) * geff_dt
    if p1 >= 1.0:
        raise ValueError(f"jump probability p1 = {p1:.3g} >= 1; dt_step too coarse")
    if eps < p1:
        alpha, beta = 0.0j, 1.0 + 0.0j
        jumped = True
    else:
        alpha = a_bar * alpha
        try:
            inv = 1.0 / math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        except ZeroDivisionError:
            raise ValueError("the null result has probability zero: a_bar * alpha "
                             "and beta both vanish") from None
        alpha *= inv
        beta *= inv
        jumped = False
    return cw * alpha - 1j * sw * beta, -1j * sw * alpha + cw * beta, jumped


class _Path(NamedTuple):
    """No-click evolution from one state, both arrays read-only.

    ``p1[j]`` is the click probability of step ``j``; ``p_e[0]`` is the
    occupation of the starting state and ``p_e[j + 1]`` the occupation after
    step ``j``, given that none of the steps ``0..j`` clicked.  ``live`` is
    the index after the last nonzero ``p1``: from step ``live`` on the path
    cannot click (0 for an undriven path in the ground state).
    """

    p1: np.ndarray
    p_e: np.ndarray
    live: int


def _no_click_path(alpha: complex, beta: complex, n: int, a_bar, geff_dt, cw, sw) -> _Path:
    p1 = np.empty(n)
    p_e = np.empty(n + 1)
    p_e[0] = _p_excited(alpha)
    for j in range(n):
        p1[j] = _p_excited(alpha) * geff_dt
        # a uniform of 1.0 never clicks: _advance rejects p1 >= 1
        alpha, beta, _ = _advance(alpha, beta, 1.0, a_bar, geff_dt, cw, sw)
        p_e[j + 1] = _p_excited(alpha)
    p1.flags.writeable = False
    p_e.flags.writeable = False
    nonzero = np.flatnonzero(p1)
    return _Path(p1, p_e, int(nonzero[-1]) + 1 if nonzero.size else 0)


def _paths(alpha: complex, beta: complex, cfg: DriveConfig,
           a_bar: complex) -> tuple[_Path, _Path]:
    """No-click paths from the state ``(alpha, beta)`` and from the post-click state."""
    cw = math.cos(cfg.omega * cfg.dt_step)
    sw = math.sin(cfg.omega * cfg.dt_step)
    geff_dt = cfg.gamma_eff * cfg.dt_step
    # a uniform of -1.0 always clicks, whatever the state before the step
    click_alpha, click_beta, _ = _advance(0.0j, 1.0 + 0.0j, -1.0, a_bar, geff_dt, cw, sw)
    return (_no_click_path(alpha, beta, cfg.n_steps, a_bar, geff_dt, cw, sw),
            _no_click_path(click_alpha, click_beta, cfg.n_steps - 1, a_bar, geff_dt, cw, sw))


#: longest layout whose paths are cached: four arrays of 8 bytes a step, so
#: about 2 MB a layout; longer layouts are built on every call
MAX_CACHED_STEPS = 2 ** 16

#: paths of the most recent layouts; repeated runs of one layout (ensembles,
#: seed scans, first-jump statistics) then cost their uniform draws alone
_cached_paths = functools.lru_cache(maxsize=8)(_paths)


def _layout_paths(initial: AtomState, cfg: DriveConfig,
                  a_bar_dt: complex) -> tuple[_Path, _Path]:
    """The paths of one layout, from the cache when ``cfg.n_steps <= MAX_CACHED_STEPS``."""
    build = _paths if cfg.n_steps > MAX_CACHED_STEPS else _cached_paths
    return build(complex(initial.alpha), complex(initial.beta), cfg,
                 check_contraction(a_bar_dt, "a_bar_dt"))


#: uniforms drawn at a time in a layout with a dark path, where a trajectory
#: reads its stream only up to the block of its last possible click
DRAW_BLOCK = 256


def _sample(gen: np.random.Generator, eps: np.ndarray, start: _Path, after_click: _Path,
            p_e: np.ndarray) -> list[int]:
    """Fill ``p_e`` (length ``len(eps) + 1``) from the uniforms of ``gen``.

    Returns the steps that registered a photon.  Each segment between clicks
    is one slice of a path; its end is the first step whose uniform falls
    below the path's click probability (``argmax`` of the comparison, which
    is 0 when none does).  A segment from ``k0`` is searched over its live
    steps ``k0 .. k0 + path.live - 1`` alone, since no later step can click.

    ``eps`` (length ``n``) receives ``gen``'s stream in order, so ``eps[k]``
    is always the ``k``-th variate, but only as far as the search reads it:
    all ``n`` in one draw when neither path goes dark, else ``DRAW_BLOCK``
    at a time when the search reaches the end of what is drawn.
    """
    n = len(eps)
    drawn = 0
    if start.live == n and after_click.live == n - 1:
        gen.random(out=eps)
        drawn = n
    path, k0, clicks = start, 0, []
    while True:
        end = k0 + path.live
        if end > n:
            end = n
        k = k0
        while k < end:
            if k == drawn:
                drawn += DRAW_BLOCK
                if drawn > n:
                    drawn = n
                gen.random(out=eps[k:drawn])
            stop = end if end < drawn else drawn
            below = eps[k:stop] < path.p1[k - k0:stop - k0]
            j = int(below.argmax())
            if below[j]:
                break
            k = stop
        else:
            break   # no click in the live steps: the path runs to the end
        k += j
        p_e[k0:k + 1] = path.p_e[:k + 1 - k0]
        clicks.append(k)
        path, k0 = after_click, k + 1
    p_e[k0:] = path.p_e[:n + 1 - k0]
    return clicks


def simulate_trajectory(initial: AtomState, cfg: DriveConfig, a_bar_dt: complex,
                        seed: int) -> TrajectoryRecord:
    """Run ``cfg.n_steps`` Monte-Carlo steps from ``initial`` with a fixed seed.

    Step ``k`` reads the ``k``-th uniform of the seeded generator's stream,
    drawn only as far as a click is still possible, so identical seeds give
    bit-identical records.
    """
    start, after_click = _layout_paths(initial, cfg, a_bar_dt)
    p_e = np.empty(cfg.n_steps + 1)
    jumps = np.zeros(cfg.n_steps, dtype=bool)
    jumps[_sample(make_rng(seed), np.empty(cfg.n_steps), start, after_click, p_e)] = True
    return TrajectoryRecord(dt_step=cfg.dt_step, p_e=p_e, jumps=jumps, seed=seed)


@dataclass(frozen=True)
class EnsembleResult:
    """Index-ordered ensemble statistics of independent trajectories."""

    dt_step: float
    p_e_mean: np.ndarray
    p_e_stderr: np.ndarray
    jump_counts: np.ndarray   # per-trajectory totals, index order
    master_seed: int

    @property
    def n_traj(self) -> int:
        return len(self.jump_counts)

    @property
    def times(self) -> np.ndarray:
        return self.dt_step * np.arange(len(self.p_e_mean))

    @property
    def jump_count_mean(self) -> float:
        return float(np.mean(self.jump_counts))

    @property
    def jump_count_stderr(self) -> float:
        n = len(self.jump_counts)
        return float(np.std(self.jump_counts, ddof=1) / math.sqrt(n)) if n > 1 else 0.0

    def to_csv(self, path):
        write_csv(path, {"t": self.times, "p_e_mean": self.p_e_mean,
                         "p_e_stderr": self.p_e_stderr})


def _fill_rows(start: _Path, after_click: _Path, seeds, p_e: np.ndarray,
               counts: np.ndarray):
    """Sample the trajectory of ``seeds[r]`` into ``p_e[r]`` and ``counts[r]``."""
    for row, (gen, eps) in enumerate(_seeded_uniforms(seeds, len(start.p1))):
        counts[row] = len(_sample(gen, eps, start, after_click, p_e[row]))


def run_ensemble(initial: AtomState, cfg: DriveConfig, a_bar_dt: complex,
                 n_traj: int, master_seed: int, n_jobs: int = 1) -> EnsembleResult:
    """Simulate ``n_traj`` seeded trajectories and reduce them by index.

    Row ``i`` of the occupation matrix is the trajectory that
    ``simulate_trajectory`` runs from ``child_seed(master_seed, i)``; the
    statistics are reduced over that index-ordered matrix.  ``n_jobs > 1``
    fills contiguous blocks of rows in that many threads; each row depends
    on its seed alone, so the result is the same for every ``n_jobs``.

    The no-click paths come from the per-layout cache that
    ``simulate_trajectory`` also reads (up to ``MAX_CACHED_STEPS`` steps), so
    a repeated layout skips their build; the rows are copies of path slices.
    """
    check_count(n_traj, "n_traj", 1)
    check_count(master_seed, "master_seed", 0)
    check_count(n_jobs, "n_jobs", 1)
    check_size(n_traj * (cfg.n_steps + 1), "n_traj*(n_steps+1)")
    start, after_click = _layout_paths(initial, cfg, a_bar_dt)
    p_e = np.empty((n_traj, cfg.n_steps + 1))
    counts = np.empty(n_traj, dtype=np.int64)
    seeds = _child_seeds(master_seed, n_traj)
    if n_jobs <= 1 or n_traj < 2:
        _fill_rows(start, after_click, seeds, p_e, counts)
    else:
        blocks = [slice(b[0], b[-1] + 1)
                  for b in np.array_split(np.arange(n_traj), min(n_jobs, n_traj))]
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            list(pool.map(lambda b: _fill_rows(start, after_click, seeds[b], p_e[b], counts[b]),
                          blocks))
    mean = p_e.mean(axis=0)
    if n_traj > 1:
        # p_e.std(axis=0, ddof=1) by the same ufuncs in the same order, but in
        # place of the rows instead of in a second matrix of their size
        dev = np.subtract(p_e, mean, out=p_e)
        var = np.add.reduce(np.multiply(dev, dev, out=dev), axis=0) / (n_traj - 1)
        stderr = np.sqrt(var) / math.sqrt(n_traj)
    else:
        stderr = np.zeros_like(mean)
    return EnsembleResult(dt_step=cfg.dt_step, p_e_mean=mean, p_e_stderr=stderr,
                          jump_counts=counts, master_seed=master_seed)


def _step_bound(gamma_x: complex, omega: float, t_max: float) -> float:
    """``min(t_max, 0.05/Re gamma(x), 0.05/|omega|)``, the largest admissible step.

    ``ValueError`` if ``Re gamma(x) < 0``: a rate that grows the excited state
    has no step layout.
    """
    check_positive(t_max, "t_max")
    check_finite(gamma_x, "gamma_x")
    check_finite(omega, "omega")
    if gamma_x.real < 0:
        raise ValueError(f"gamma_x must have a nonnegative real part, got {gamma_x}")
    bounds = [t_max]
    if gamma_x.real > 0:
        bounds.append(MAX_RATE_DT / gamma_x.real)
    if omega != 0:
        bounds.append(MAX_RATE_DT / abs(omega))
    return min(bounds)


def _layout(omega, a_bar, dt, t_max) -> tuple[DriveConfig, complex]:
    """Steps of ``dt`` to ``t_max`` whose clicks exhaust the contraction ``a_bar``."""
    n_steps = max(1, int(round(check_size(t_max / dt, "t_max/dt_step"))))
    return DriveConfig(omega=omega, gamma_eff=_gamma_eff_of(a_bar, dt), dt_step=dt,
                       n_steps=n_steps), a_bar


def make_drive_config(gamma_x: complex, omega: float, t_max: float) -> tuple[DriveConfig, complex]:
    """Step layout with the scaling-form contraction of the rate ``gamma(x)``.

    The step is ``dt_step = min(0.05/Re gamma(x), 0.05/omega, t_max)``; returns
    the config and ``a_bar(dt_step) = exp(-gamma(x) dt_step / 2)``.
    """
    dt = _step_bound(gamma_x, omega, t_max)
    return _layout(omega, complex(np.exp(-0.5 * gamma_x * dt)), dt, t_max)


def memory_drive_config(kernel: MemoryKernel, gamma_x: complex, omega: float, t_max: float,
                        tau: float) -> tuple[DriveConfig, complex]:
    """Step layout with the memory-resolved contraction ``a(tau)**n``.

    The step of :func:`make_drive_config` is floored to ``n`` whole detection
    intervals ``tau``, and ``a(tau)`` is solved once with the full memory
    (:func:`~zenoscope.volterra.interval_amplitude`).  That contraction can
    sit slightly above the scaling form, so ``n`` shrinks until
    ``1 - |a(tau)**n|**2 <= MAX_RATE_DT``.  Returns the config and ``a(tau)**n``.
    """
    dt = _step_bound(gamma_x, omega, t_max)
    check_positive(tau, "tau")
    if tau > dt:
        raise ValueError(f"tau = {tau} exceeds the admissible step {dt:.3g}")
    if dt / tau == math.inf:
        raise ValueError(f"tau = {tau} is too small to divide the step {dt:.3g}")
    n = math.floor(dt / tau)
    a_tau = interval_amplitude(kernel, tau)
    a_bar = null_conditioned_power(a_tau, n)
    while n > 1 and 1.0 - abs(a_bar) ** 2 > MAX_RATE_DT:
        n -= 1
        a_bar = null_conditioned_power(a_tau, n)
    return _layout(omega, a_bar, n * tau, t_max)
