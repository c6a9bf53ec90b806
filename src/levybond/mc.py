"""Monte Carlo estimators verifying the analytic layer independently.

One exact engine runs every estimator: the *event tableau*
(:func:`_event_tableau`).  Jump epochs and sizes are simulated exactly and
the path is laid out piece by piece between them: linear and downhill
without a Gaussian part, so that upward passages happen only at jumps;
with one, a Brownian motion with drift with one Gaussian endpoint and one
exact bridge maximum per piece.  A piece keeps only what the draws decide:
its end time, X after its closing jump and, with a Gaussian part, X before
that jump and its bridge maximum.  Where it starts is read off the piece
before it (:func:`_piece_start`), and without a Gaussian part where it
ends is that start plus its drift (:func:`_piece_end`), both at the pieces
an estimator reads.  No time grid enters, so no estimator reads
``SimConfig.dt``.
:func:`upcrossing_discount_profile` and every game-value variant of one
call read one set of joint first passages (:func:`_passages`), which keeps
the paired comparisons of :func:`saddle_check` sharp (common random
numbers).

Randomness comes from SFC64 generators keyed by hashed seeds, and the stream
layout fixes every estimate bit for bit given the seed:

* paths run in chunks of ``_CHUNK``; chunk ``k`` draws from one generator
  keyed by ``(seed, tag, k)`` (Salmon et al., SC'11, for keyed streams),
  with the tags ``_TAG_VALUE = 1`` (game values and saddle checks),
  ``_TAG_UPCROSS = 2``, ``_TAG_TWOSIDED = 3`` and ``_TAG_SUP = 4``;
* a chunk draws its tableau, then its estimator's draws.  The tableau draws
  for its real slots alone, in tableau order: the jump counts (with
  jumps), one ``Exp(1)`` spacing per piece, with a Gaussian part one
  standard normal and then one bridge uniform per piece, then one uniform
  per jump, ``_SLAB`` rows at a time.  Each row's running sums are its own
  (:func:`_row_scan`), so no slab size changes a bit;
* then the estimator's draws, rows ascending.  :func:`_passages`, level by
  level: one uniform per path that passed the level below continuously,
  then one inverse Gaussian (``Generator.wald``) per continuous passage
  from below the level (none without a Gaussian part).
  :func:`two_sided_exit` with a Gaussian part draws one ``Exp(p)`` clock
  and then one standard normal per path, and without one draws nothing.
  :func:`wiener_hopf_check` draws the ``Exp(q)`` clocks, one per path, then
  one standard normal and then one uniform per path.

Chunks share no generator, so they run concurrently (:func:`_run_chunks`).
Each chunk reduces its per-path terms to moments (count, mean and the sum
of squared deviations from it) before it is dropped, and the chunks'
moments are merged in chunk order by the pairwise update of Chan, Golub &
LeVeque (1983); the series rests of :func:`two_sided_exit` are added in
that order too.  So no output depends on the number of workers, and memory
is bounded by the chunks in flight, whatever the path count: a worker frees
each tableau before it builds the next.

The perpetual game is truncated at ``config.horizon``; paths that never stop
receive the closed-form perpetual completion of the coupon stream, and the
truncation remainder bound is checked against the reported estimate
(TruncationWarning) and added to the verdict budget of the saddle checks.
"""

from __future__ import annotations

import contextvars
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DomainError, TruncationWarning
from .model import (
    LevyModel,
    _jump_sizes_into,
    _m1,
    _psi_c,
    exp_growth_rate,
    jump_intensity,
    jump_passage_means,
    laplace_exponent,
    phi,
    require_discount_condition,
)
from .solver import IMMEDIATE_STOP, ImmediateStop

__all__ = [
    "SimConfig",
    "PayoffEstimate",
    "SaddleComparison",
    "SaddleReport",
    "mc_eligible",
    "estimate_game_value",
    "estimate_game_values",
    "upcrossing_discount_profile",
    "two_sided_exit",
    "wiener_hopf_check",
    "sup_exponential_moment",
    "saddle_check",
]

_MASK = (1 << 64) - 1
_CHUNK = 4096       # paths per chunk, each chunk one tableau
# rows a tableau build sums along and draws the jump sizes of at once
_SLAB = _CHUNK // 4
# expected jumps per path the event tableau accepts: a chunk of ~17.7M
# pieces at the limit, where its worker peaks near 0.8 GiB with a Gaussian
# part and 0.4 GiB without (below)
_MAX_JUMPS = 4096
# expected slots (paths x (expected jumps + 1)) the chunks in flight may
# hold together.  A worker holds one tableau at a time, 32 bytes a slot
# with a Gaussian part (16 without: t1 and post alone), and a build peaks
# near 44 (22); with an estimator's working arrays a worker peaks near 61
# (34, two_sided_exit's), wiener_hopf_check's near 50 (27).  So this bounds
# the pool near 0.3 GB, and one chunk always runs
_SLOTS_IN_FLIGHT = 1 << 22
# |Phi(q) - 1| below which sup_exponential_moment takes psi' at the midpoint
# for the secant of psi from 1: at 1e-5 the midpoint is off by ~1e-12
# relative (its O(h^2) error) and the secant by ~1e-11 (its cancellation,
# ~1e-16/h), on BV2 and on a model with a Gaussian part
_SECANT_MIN = 1e-5
_COMPLEX_STEP = 1e-20  # psi'(x) = Im psi(x + i step) / step, exact to rounding

# stream tags keep independent estimators off each other's random numbers
_TAG_VALUE, _TAG_UPCROSS, _TAG_TWOSIDED, _TAG_SUP = range(1, 5)

SigmaSpec = Union[float, ImmediateStop]


@dataclass(frozen=True)
class SimConfig:
    """Path count, truncation horizon and seeding.

    ``dt`` is validated (it must lie in ``(0, horizon]``) but no estimator
    reads it: every one runs on the exact event tableau.  It stays so that
    existing configs and positional constructions keep working.
    """

    n_paths: int
    horizon: float
    dt: float
    seed: int

    def __post_init__(self):
        # bool subclasses int: True would run one path, False seed zero
        for name in ("n_paths", "horizon", "dt", "seed"):
            if isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not isinstance(self.n_paths, int) or self.n_paths <= 0:
            raise ConfigError(f"n_paths must be a positive integer, got {self.n_paths}")
        if not (isinstance(self.horizon, (int, float)) and self.horizon > 0.0
                and math.isfinite(self.horizon)):
            raise ConfigError(f"horizon must be a positive real, got {self.horizon}")
        if not (isinstance(self.dt, (int, float)) and 0.0 < self.dt <= self.horizon):
            raise ConfigError(f"dt must lie in (0, horizon], got {self.dt}")
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class PayoffEstimate:
    """Sample mean, its standard error (sample std over sqrt(n)), count, and
    a bound on the estimator's bias where it neglects probability mass (0
    for the exact estimators)."""

    mean: float
    stderr: float
    n: int
    bias_bound: float = 0.0


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    """Chunk ``index``'s generator for stream ``tag``: SFC64 keyed by the
    hashed ``(seed, tag, index)``, the seed taken mod 2^64 so that negative
    and wider seeds key a stream too."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed & _MASK, tag, index])))


def _sim_drift(model: LevyModel) -> float:
    """Per-unit-time drift of X between jumps (the compensator taken out)."""
    return -(model.mu + _m1(model.jumps))


def mc_eligible(model: LevyModel, horizon: float | None = None) -> bool:
    """Whether the event engine simulates this model: a jump rate of at most
    1e6 and, over ``horizon`` when one is given, at most ``_MAX_JUMPS``
    expected jumps per path, past which every estimator raises
    :class:`DomainError` before any draw (a tableau holds paths x expected
    jumps pieces)."""
    rate = jump_intensity(model)
    return rate <= 1e6 and (horizon is None or rate * horizon <= _MAX_JUMPS)


def _truncation_bound(model: LevyModel, q: float, x: float, horizon: float,
                      beta: float, cap: float) -> float:
    """Discounted remainder bound past the horizon for payoff and coupons."""
    gr = exp_growth_rate(model)
    tail = math.exp(x + (gr - q) * horizon) * max(1.0, beta / max(q - gr, 1e-300))
    return math.exp(-q * horizon) * cap + tail


def _verdict(violation: float, stderr: float, budget: float) -> str:
    """Pass within three standard errors, Inconclusive within that plus the
    horizon-truncation ``budget``, Fail beyond."""
    if violation <= 3.0 * stderr:
        return "Pass"
    if violation <= 3.0 * stderr + budget:
        return "Inconclusive"
    return "Fail"


def _discounted(t: np.ndarray, rate: float) -> np.ndarray:
    """``e^(-rate t)``, and 0 where ``t`` is infinite (never happened)."""
    out = np.zeros(t.shape)
    f = np.isfinite(t)
    out[f] = np.exp(-rate * t[f])
    return out


class _Moments(NamedTuple):
    """Count, mean and sum of squared deviations from the mean of a sample."""

    n: int
    mean: float
    m2: float

    def estimate(self, bias_bound: float = 0.0) -> PayoffEstimate:
        sd = math.sqrt(self.m2 / (self.n - 1)) if self.n > 1 else 0.0
        return PayoffEstimate(self.mean, sd / math.sqrt(self.n), self.n, bias_bound)


def _moments(y: np.ndarray) -> _Moments:
    """One chunk's moments: its mean, then the squared deviations from it."""
    mean = float(np.mean(y))
    dev = y - mean
    dev *= dev
    return _Moments(len(y), mean, float(dev.sum()))


def _merged(parts: Sequence[_Moments]) -> _Moments:
    """Chunk moments merged in chunk order by the pairwise update of Chan,
    Golub & LeVeque (1983)."""
    n, mean, m2 = parts[0]
    for p in parts[1:]:
        total = n + p.n
        delta = p.mean - mean
        mean += delta * p.n / total
        m2 += p.m2 + delta * delta * n * p.n / total
        n = total
    return _Moments(n, mean, m2)


# --------------------------------------------------------------------------- #
# event kernel
# --------------------------------------------------------------------------- #

def _bridge_max(left: np.ndarray, right: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Maximum of a Brownian bridge from ``left`` to ``right``, sampled
    exactly from ``spread = -2 b^2 len ln U`` with ``U`` uniform; the
    formula inverts the bridge-maximum law
    ``P(max > m) = exp(-2 (m - left)(m - right) / (b^2 len))``.
    """
    gap = right - left
    gap *= gap
    gap += spread
    np.sqrt(gap, out=gap)
    out = left + right
    out += gap
    out *= 0.5
    return out


class _Tableau(NamedTuple):
    """One chunk's pieces between jumps, flat: row ``i``'s are
    ``start[i]:end[i]`` in time order, from time 0 to the horizon.  A piece
    keeps what the draws decide: its closing jump's epoch (``t1``), X just
    after that jump (``post``) and, with a Gaussian part, X just before it
    (``pre``) and its bridge maximum (``smax``); a row's last piece closes
    at T with no jump and ``post = -inf``.  A piece starts where the one
    before it closed, or at ``(0, 0)`` for a row's first
    (:func:`_piece_start`), and without a Gaussian part it ends at its start
    plus its drift (:func:`_piece_end`).  These arrays hold real pieces
    alone.  ``rng`` has drawn the tableau, and an estimator makes its own
    draws from it."""

    rows: slice          # the chunk's paths
    rng: np.random.Generator  # the chunk's generator, for draws after the paths
    start: np.ndarray    # each row's first piece
    end: np.ndarray      # one past each row's last piece
    t1: np.ndarray       # end time of each piece: its closing jump's epoch, or T
    post: np.ndarray     # X just after each piece's closing jump
    # X at each piece's end, before its closing jump, and the maximum of X
    # over each piece; both None without a Gaussian part, where a piece runs
    # downhill from its start, which the jump before it reached
    pre: Optional[np.ndarray]
    smax: Optional[np.ndarray]


def _piece_start(c: _Tableau, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Time and X at the start of each piece ``k``: the end time and ``post``
    of the piece before it, or ``(0, 0)`` for a row's first, which follows a
    ``post`` of ``-inf``.  Index 0 reads the chunk's last piece (index -1),
    which closes with ``-inf`` too."""
    before = k - 1
    t0, y0 = c.t1[before], c.post[before]
    first = y0 == -np.inf
    t0[first] = 0.0
    y0[first] = 0.0
    return t0, y0


def _piece_end(model: LevyModel, c: _Tableau, k: np.ndarray) -> np.ndarray:
    """X at the end of each piece ``k``, just before its closing jump:
    ``pre`` with a Gaussian part, else the piece's start plus its drift
    times its length, by the build's operations in the build's order."""
    if c.pre is not None:
        return c.pre[k]
    t0, y0 = _piece_start(c, k)
    x = c.t1[k] - t0
    x *= _sim_drift(model)
    x += y0
    return x


def _row_scan(first: np.ndarray, length: np.ndarray) -> Callable[..., None]:
    """A running ``op`` (sum, or product) along each row of a flat array, in
    place, row ``i`` the ``length[i]`` entries from ``first[i]``: the rows
    taken longest first, the ``j``-th entries of those that have one form a
    contiguous column, folded into the one before it at once.  So a row's
    results are those of ``op.accumulate`` on that row alone, bit for bit."""
    order = np.argsort(-length, kind="stable")
    first = first[order]
    # the rows reaching each column, and where each column starts
    width = (len(length) - np.cumsum(np.bincount(length)))[:-1].tolist()
    cols = [0, *np.cumsum(width).tolist()]
    at = np.empty(cols[-1], dtype=np.intp)          # each entry's index, column by column
    for j, n in enumerate(width):
        np.add(first[:n], j, out=at[cols[j]:cols[j + 1]])

    def scan(x: np.ndarray, op=np.add) -> None:
        run = x[at]
        for j in range(1, len(width)):
            col = run[cols[j]:cols[j + 1]]
            op(col, run[cols[j - 1]:cols[j - 1] + width[j]], out=col)
        x[at] = run

    return scan


def _event_tableau(model: LevyModel, config: SimConfig, tag: int, k: int) -> _Tableau:
    """Exact jump epochs and sizes on ``[0, horizon]`` for chunk ``k``, drawn
    for the real pieces and jumps alone.  A row's epochs are its normalised
    running sums of one ``Exp(1)`` spacing per piece, which are the order
    statistics of its jump count's uniforms (Devroye 1986, ch. V §3).  A
    Gaussian part moves each piece by ``sqrt(b^2 len) Z`` and gives it an
    exact bridge maximum; without one a piece peaks at its start, and the
    tableau keeps ``t1`` and ``post`` alone.  The draws go straight into the
    tableau's fields, the running sums take ``_SLAB`` rows at a time
    (:func:`_row_scan`), and each slab draws its jump sizes as it comes, so
    no slab size changes a bit.
    """
    T = config.horizon
    drift = _sim_drift(model)
    rate = jump_intensity(model)
    chunk = slice(k * _CHUNK, min((k + 1) * _CHUNK, config.n_paths))
    rng = _rng(config.seed, tag, k)
    rows = chunk.stop - chunk.start
    counts = rng.poisson(rate * T, rows) if rate > 0.0 else np.zeros(rows, dtype=int)
    end = np.cumsum(counts + 1)
    start = end - (counts + 1)
    closes = np.ones(end[-1], dtype=bool)           # pieces closed by a jump
    closes[end - 1] = False
    # the fields share one allocation: once glibc's malloc has freed one
    # mapping of that size it trims its heap only past twice it, so a freed
    # tableau's pages stay mapped for the next build (the 500k-path BV2
    # saddle makes ~7k minor faults, ~115k with one allocation per field)
    fields = np.empty((2 if model.b2 == 0.0 else 4, len(closes)))
    t1, post = fields[0], fields[1]
    rng.standard_exponential(out=t1)                # one spacing per piece
    pre = smax = None
    if model.b2 > 0.0:
        pre, smax = fields[2], fields[3]
        rng.standard_normal(out=pre)                # one move per piece
        rng.random(out=smax)                        # one bridge uniform per piece
    post[end - 1] = 0.0                             # the last pieces close with no jump
    for i in range(0, rows, _SLAB):
        j = min(i + _SLAB, rows)
        s = slice(start[i], end[j - 1])
        first, length, shut = start[i:j] - start[i], counts[i:j] + 1, closes[s]
        scan = _row_scan(first, length)
        t, x = t1[s], post[s]
        if rate > 0.0:                              # one size per jump
            x[shut] = _jump_sizes_into(model, rng.random(len(x) - len(first)))
        scan(t)                                     # the spacings' running sums
        last = first + length - 1
        t *= np.repeat(T / t[last], length)
        t[last] = T
        if model.b2 > 0.0:
            # each piece's length, its bridge spread, then its move
            span = t.copy()
            np.subtract(span[1:], t[:-1], out=span[1:], where=shut[:-1])
            spread = smax[s]
            np.log(spread, out=spread)
            spread *= -2.0 * model.b2
            spread *= span
            move = pre[s]
            move *= np.sqrt(model.b2 * span)
            x += move
        scan(x)                                     # the sizes' (and moves') running sums
        x += drift * t                              # X after each jump
        if model.b2 > 0.0:
            # X at each piece's end: its start plus its drift and its move,
            # and its exact bridge maximum
            y0 = np.zeros(len(x))
            np.copyto(y0[1:], x[:-1], where=shut[:-1])
            span *= drift
            move += span
            move += y0
            smax[s] = _bridge_max(y0, move, spread)
    post[end - 1] = -np.inf
    return _Tableau(chunk, rng, start, end, t1, post, pre, smax)


def _pool_size(chunks: int, jumps: float) -> int:
    """Workers for ``chunks`` chunks of ``jumps`` expected jumps per path."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cores or 1, chunks, _SLOTS_IN_FLIGHT // (_CHUNK * (int(jumps) + 1))))


def _run_chunks(model: LevyModel, config: SimConfig, tag: int,
                work: Callable[[_Tableau], object]) -> list:
    """``work`` on every chunk's tableau, results in chunk order; the chunks
    run concurrently, each worker taking every ``workers``-th one, and
    ``work`` reduces its chunk to what the estimator keeps of it.  Raises
    :class:`DomainError` before any draw when a path expects more than
    ``_MAX_JUMPS`` jumps.
    """
    jumps = jump_intensity(model) * config.horizon
    if jumps > _MAX_JUMPS:
        raise DomainError(
            f"{jumps:.3g} expected jumps per path (rate {jump_intensity(model):.3g} x "
            f"horizon {config.horizon:g}) exceed the event engine's limit of {_MAX_JUMPS}")
    chunks = range(-(-config.n_paths // _CHUNK))
    workers = _pool_size(len(chunks), jumps)

    def lane(ks: range) -> list:
        # each tableau is freed as its work returns, before the next is built
        return [work(_event_tableau(model, config, tag, k)) for k in ks]

    # each worker runs in a copy of the caller's context, so that numpy's
    # error state (np.errstate) holds in it as in the caller
    contexts = [contextvars.copy_context() for _ in range(workers)]
    with ThreadPoolExecutor(workers) as pool:
        lanes = list(pool.map(lambda i: contexts[i].run(lane, chunks[i::workers]), range(workers)))
    return [lanes[k % workers][k // workers] for k in chunks]


def _bridge_passage(rng: np.random.Generator, b2: float, start: np.ndarray,
                    level, end: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Time after its start at which a bridge from ``start`` to ``end`` over
    ``span`` first reaches ``level``, given that it does: ``span u / (1 + u)``
    with ``u`` inverse Gaussian of mean ``|level - start| / |level - end|``
    and shape ``(level - start)^2 / (b^2 span)``, the bridge's first-passage
    law under ``u = t / (span - t)``.  Without a Gaussian part the shape is
    infinite and ``u`` its mean: the linear piece's own crossing time."""
    gap = np.abs(level - start)
    u = gap / np.abs(level - end)
    if b2 > 0.0:
        u = rng.wald(u, gap * gap / (b2 * span))
    return span * u / (1.0 + u)


class _Passage(NamedTuple):
    """First passage above one level, per path of a chunk."""

    t: np.ndarray        # passage time, inf where not passed by the horizon
    pos: np.ndarray      # X at the passage: the level itself when continuous
    pre: np.ndarray      # X just before the passing jump; NaN otherwise


def _passages(model: LevyModel, c: _Tableau, levels: Sequence[float]) -> list[_Passage]:
    """First passages above ascending, distinct ``levels >= 0``, drawn jointly.

    A level is first passed in the first piece whose bridge maximum exceeds
    it, or at the first jump that lands above it: at the jump's epoch, or on
    the level at a time drawn by :func:`_bridge_passage` (at its start for a
    piece that starts on it).  Once a level is passed continuously at
    ``t_i`` in a piece ending at ``b`` at ``t1``, the rest of that piece is
    a bridge from ``(t_i, L_i)``: it passes the next level ``L`` with
    probability ``exp(-2 (L - L_i)(L - b) / (b^2 (t1 - t_i)))`` (one
    uniform), at ``t_i`` plus a fresh bridge passage time.  Else the closing
    jump or the later pieces pass it, as for the first level.  So every path
    passes its levels in order, and each passage has its exact law.
    """
    n = len(c.start)
    # the top of each piece and its closing jump; without a Gaussian part a
    # piece peaks at its start, which the jump before it reached
    peak = c.post if c.smax is None else np.maximum(c.smax, c.post)
    hits = None                         # the pieces that pass the level
    # the piece of the previous passage; before the first, the piece before
    # each row's first, which is a row's last piece (post -inf)
    piece = c.start - 1
    t_prev = np.zeros(n)                # its time, inf where it never came
    cont = np.zeros(n, dtype=bool)      # the previous passage was continuous
    last = 0.0                          # the previous level
    out = []
    for lvl in levels:
        t = np.full(n, math.inf)
        p_at = np.full(n, -1)           # piece of this passage
        # the passage's X and X before its jump; a continuous one's bridge start
        pos, pre, t_from, x_from = np.full((4, n), math.nan)
        # the rest of the piece that passed the previous level continuously
        r = np.nonzero(cont)[0]
        pr = piece[r]
        with np.errstate(divide="ignore", over="ignore"):
            chance = np.exp(-2.0 * (lvl - last) * (lvl - _piece_end(model, c, pr))
                            / (model.b2 * (c.t1[pr] - t_prev[r])))
        again = c.rng.random(len(r)) < chance
        p_at[r[again]] = pr[again]
        t_from[r[again]] = t_prev[r[again]]
        x_from[r[again]] = last
        # else the jump closing that piece, then the first piece after it
        # that passes the level, found among all passing pieces of the chunk
        r = np.nonzero(np.isfinite(t_prev) & (p_at < 0))[0]
        pr = piece[r]
        jumped = c.post[pr] > lvl
        t[r[jumped]] = c.t1[pr[jumped]]
        p_at[r[jumped]] = pr[jumped]
        r, pr = r[~jumped], pr[~jumped]
        # a higher level's passing pieces are among the level below's
        hits = np.flatnonzero(peak > lvl) if hits is None else hits[peak[hits] > lvl]
        ends = np.append(hits, len(peak))
        first = ends[np.searchsorted(ends, pr + 1)]
        hit = first < c.end[r]
        r, first = r[hit], first[hit]
        p_at[r] = first
        inside = np.zeros(len(r), dtype=bool) if c.smax is None else c.smax[first] > lvl
        t[r[~inside]] = c.t1[first[~inside]]
        t_from[r[inside]], x_from[r[inside]] = _piece_start(c, first[inside])
        # continuous passages land on the level at an exact bridge time
        r = np.nonzero(~np.isnan(t_from))[0]
        pr = p_at[r]
        t[r] = t_from[r]
        below = x_from[r] < lvl
        r, pr = r[below], pr[below]
        t[r] += _bridge_passage(c.rng, model.b2, x_from[r], lvl, _piece_end(model, c, pr),
                                c.t1[pr] - t_from[r])
        cont = ~np.isnan(t_from)
        pos[cont] = lvl
        r = np.nonzero(np.isfinite(t) & ~cont)[0]
        pos[r] = c.post[p_at[r]]
        pre[r] = _piece_end(model, c, p_at[r])
        out.append(_Passage(t, pos, pre))
        piece, t_prev, last = p_at, t, lvl
    return out


# --------------------------------------------------------------------------- #
# game values (chunked, shared-noise variants)
# --------------------------------------------------------------------------- #

def _estimate_variants(model: LevyModel, params, variants: Sequence[tuple],
                       config: SimConfig) -> tuple[list[_Moments], list[_Moments]]:
    """Moments of each ``(x, tau_level, sigma_spec)`` variant's payoff, and of
    its paired difference from the first variant's payoff.

    All variants ride the same simulated noise (the path of X minus its
    start), which is what gives paired comparisons their power.  Variants
    that stop at time zero (immediate call, or a start already beyond a
    threshold) are deterministic, and when every variant is, the simulation
    is skipped.  :func:`_payoffs` takes the live variants as
    ``(x, tau_level - x, sigma_level - x)``: thresholds relative to the
    shared zero-started path.
    """
    require_discount_condition(model, params.q)
    if not mc_eligible(model):
        raise DomainError("model is flagged ineligible for path simulation")
    fixed: dict[int, float] = {}     # the deterministic payoffs, by variant
    live_idx: list[int] = []
    live: list[tuple] = []
    for i, (x, tau_level, sigma_spec) in enumerate(variants):
        if isinstance(sigma_spec, ImmediateStop) or x > sigma_spec:
            fixed[i] = max(params.K, math.exp(x))
        elif x > tau_level:
            fixed[i] = math.exp(x)
        else:
            live_idx.append(i)
            live.append((x, tau_level - x, sigma_spec - x))
    if not live:
        pay = [fixed[i] for i in range(len(variants))]
        return ([_Moments(config.n_paths, v, 0.0) for v in pay],
                [_Moments(config.n_paths, v - pay[0], 0.0) for v in pay])

    def reduce(c: _Tableau) -> tuple[list[_Moments], list[_Moments]]:
        y = np.empty((len(variants), c.rows.stop - c.rows.start))
        for i, pv in zip(live_idx, _payoffs(model, params, live, c)):
            y[i] = pv
        for i, v in fixed.items():
            y[i] = v
        return [_moments(pv) for pv in y], [_moments(pv - y[0]) for pv in y]

    per_chunk = _run_chunks(model, config, _TAG_VALUE, reduce)
    values = [_merged(parts) for parts in zip(*(v for v, _ in per_chunk))]
    diffs = [_merged(parts) for parts in zip(*(d for _, d in per_chunk))]
    for (x, _, _), i in zip(live, live_idx):
        bound = _truncation_bound(model, params.q, x, config.horizon,
                                  params.beta, params.K)
        if bound > 1e-4 * abs(values[i].mean):
            warnings.warn(
                f"horizon {config.horizon:g} leaves a truncation remainder "
                f"bound {bound:.2e} above 1e-4 of the estimate {values[i].mean:.4g}",
                TruncationWarning, stacklevel=3)
    return values, diffs


def estimate_game_value(model: LevyModel, params, x: float, tau_level: float,
                        sigma_spec: SigmaSpec, config: SimConfig) -> PayoffEstimate:
    """MC estimate of the expected payoff of a threshold strategy pair."""
    return estimate_game_values(model, params, [x], tau_level, sigma_spec, config)[0]


def estimate_game_values(model: LevyModel, params, starts: Sequence[float],
                         tau_level: float, sigma_spec: SigmaSpec,
                         config: SimConfig) -> list[PayoffEstimate]:
    """Estimates at several starting points sharing one set of paths."""
    variants = [(float(x), tau_level, sigma_spec) for x in starts]
    values, _ = _estimate_variants(model, params, variants, config)
    return [m.estimate() for m in values]


def _payoffs(model: LevyModel, params, variants: Sequence[tuple],
             c: _Tableau) -> list[np.ndarray]:
    """Per-path payoffs on chunk ``c`` of the live variants
    ``(x, tau_level - x, sigma_level - x)``, from the passage ``(rho, X_rho)``
    of each one's lower threshold alone.

    With ``A = alpha/q + beta e^x/(q - psi(-1))``, the coupons paid up to
    ``t`` plus ``e^(-qt) (alpha/q + beta e^(x+X_t)/(q - psi(-1)))`` form a
    martingale started at ``A``, so stopping it at ``rho ^ T`` gives
    ``Y = A + 1{rho <= T} e^(-q rho) (pay - alpha/q - beta e^(x+X_rho)/(q - psi(-1)))``
    with the mean of the truncated game (coupons to ``rho ^ T``, then the
    stop payoff or the perpetual completion).  A continuous passage stops
    on the level; a tie of the two thresholds goes to the issuer.  At a jump
    passage the bracket is replaced by its mean over the jump's size given
    that it crosses (:func:`jump_passage_means`), so ``Y`` is bounded.
    """
    q, alpha, K = params.q, params.alpha, params.K
    growth = params.beta / (q - exp_growth_rate(model))
    levels = sorted({min(lt, ls) for _, lt, ls in variants})
    passes = _passages(model, c, levels)
    out = []
    for x, lt, ls in variants:
        lvl = min(lt, ls)
        p = passes[levels.index(lvl)]
        share = np.exp(x + p.pos)
        pay = np.maximum(K, share) if ls <= lt else share.copy()
        jump = ~np.isnan(p.pre)
        share[jump], pay[jump] = jump_passage_means(model, x + p.pre[jump],
                                                    x + lvl, x + ls, K)
        y = np.full(len(p.t), alpha / q + growth * math.exp(x))
        stop = np.isfinite(p.t)
        y[stop] += np.exp(-q * p.t[stop]) * (pay - alpha / q - growth * share)[stop]
        out.append(y)
    return out


# --------------------------------------------------------------------------- #
# identity checks
# --------------------------------------------------------------------------- #

def upcrossing_discount_profile(model: LevyModel, q: float,
                                levels: Sequence[float],
                                config: SimConfig) -> list[PayoffEstimate]:
    """MC of ``E[e^(-q tau_y)]`` for several levels above a start at zero.

    The passages are the exact ones of :func:`_passages`, drawn jointly for
    the distinct levels.  Crossings past the horizon contribute zero, which
    undershoots the identity by at most ``e^(-q horizon)``.
    """
    lv = [float(y) for y in levels]
    if any(y < 0.0 for y in lv):
        raise DomainError("levels must be nonnegative")
    if q <= 0.0:
        raise DomainError("q must be positive")
    distinct = sorted(set(lv))
    per_chunk = _run_chunks(model, config, _TAG_UPCROSS, lambda c: [
        _moments(_discounted(p.t, q)) for p in _passages(model, c, distinct)])
    merged = [_merged(parts) for parts in zip(*per_chunk)]
    return [merged[distinct.index(y)].estimate() for y in lv]


def _clock_cut(model: LevyModel, c: _Tableau, rate: float):
    """An ``Exp(rate)`` clock per row (never, at rate 0), the pieces it has
    ended (``t1 <= clock``) and the piece holding it (a row's last past T),
    cut at the clock by a Gaussian draw on its bridge (one normal per row):
    returns the clocks, those two, X at the cut piece's start and end, and
    its length."""
    with np.errstate(divide="ignore"):
        clk = c.rng.standard_exponential(len(c.start)) / rate
    full = c.t1 <= np.repeat(clk, c.end - c.start)
    k = np.minimum(c.start + np.add.reduceat(full, c.start, dtype=np.intp), c.end - 1)
    t0, y0 = _piece_start(c, k)
    end = _piece_end(model, c, k)
    span = c.t1[k] - t0
    frac = np.minimum((clk - t0) / span, 1.0)
    at = y0 + (end - y0) * frac + np.sqrt(model.b2 * span * frac * (1.0 - frac)) * \
        c.rng.standard_normal(len(clk))
    span *= frac
    return clk, full, k, y0, at, span


def _lower_first(a: np.ndarray, b: np.ndarray, w: float, s: np.ndarray):
    """Chance that a Brownian bridge of variance ``s`` from ``a`` to ``b``,
    heights in the band ``(0, w)`` (``0 <= a <= w``, ``b <= w``), leaves it
    through 0 first, and a bound on the rest of its series.  By images
    (Anderson 1960) it is ``sum_(n >= 0) A_n - sum_(n >= 1) B_n``, ``A_n =
    exp(-(D^2 - d^2)/(2s))`` at ``D = 2nw + a + |b|``, ``B_n`` at ``D = 2nw
    - a + |b|``, ``d = |b - a|``, each exponent a product that does not
    cancel.  The terms alternate and fall (``A_0 >= B_1 >= A_1 ...``), so
    the rest after ``A_n`` is at most ``A_n``; the sum stops once every
    ``A_n`` is below 1e-17."""
    below = b < 0.0
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # A_n = exp(c (nw + al)(nw + be)), B_n = exp(c (nw + ga)(nw + de))
    al, be = np.where(below, 0.0, lo), np.where(below, a - b, hi)
    ga, de = np.where(below, -a, 0.0), np.where(below, -b, b - a)
    c = -2.0 / s
    total = np.exp(c * al * be)
    n = 1
    while True:
        nw = n * w
        total -= np.exp(c * (nw + ga) * (nw + de))
        term = np.exp(c * (nw + al) * (nw + be))
        total += term
        if not np.any(term >= 1e-17):
            return total, term
        n += 1


def two_sided_exit(model: LevyModel, p: float, down: float, up: float,
                   config: SimConfig) -> PayoffEstimate:
    """MC of ``E[e^(-p tau_down) 1{down before up}]`` from a start at zero.

    ``down > 0`` is the distance to the lower barrier, ``up > 0`` to the
    upper one; downward passage creeps (no undershoot) for every supported
    model, as the scale-ratio identity needs.  A path contributes ``Y =
    sum_k S_(<k) P_k``: ``P_k`` is the chance that piece ``k`` leaves the
    band through the lower barrier first, ``S_(<k)`` that the pieces before
    it stay in it and close with jumps landing below the upper barrier.
    With a Gaussian part a piece is a bridge, whose exit chances are the
    series of :func:`_lower_first`, and ``e^(-p tau)`` the chance that an
    ``Exp(p)`` clock rings after ``tau``: the pieces run up to the clock's,
    cut there (:func:`_clock_cut`).  As ``Y`` lies in ``[0, 1]``, twice the
    series' rests, summed over the pieces and averaged over the paths,
    bound the bias (``bias_bound``).  Without a Gaussian part a piece is
    linear and downhill: ``P_k`` is ``e^(-p tau)`` at its exact crossing, or
    0, and no clock is drawn.
    """
    if down <= 0.0 or up <= 0.0:
        raise DomainError("barrier distances must be positive")
    if p < 0.0:
        raise DomainError("discount rate must be nonnegative")
    b2, w = model.b2, down + up

    def linear(c: _Tableau) -> tuple[_Moments, float]:
        # each piece's end (_piece_end's operations, on slices); a row exits
        # at its first piece ending below down or closing at or past up
        x = c.t1.copy()
        shut = np.isfinite(c.post[:-1])             # the pieces after a jump
        np.subtract(x[1:], c.t1[:-1], out=x[1:], where=shut)
        x *= _sim_drift(model)
        np.add(x[1:], c.post[:-1], out=x[1:], where=shut)
        low = x <= -down
        del x, shut
        e = np.append(np.flatnonzero(low | (c.post >= up)), len(low))
        first = e[np.searchsorted(e, c.start)]
        r = np.flatnonzero(first < c.end)
        r = r[low[first[r]]]
        k = first[r]
        t0, a = _piece_start(c, k)
        b = _piece_end(model, c, k)
        y = np.zeros(len(c.start))
        y[r] = np.exp(-p * (t0 + (c.t1[k] - t0) * (a + down) / (a - b)))
        return _moments(y), 0.0

    def bridges(c: _Tableau) -> tuple[_Moments, float]:
        # each row's pieces up to the one holding its clock, cut there
        _, held, k, _, at, cut = _clock_cut(model, c, p)
        held[k] = True
        length = k - c.start + 1
        k = np.flatnonzero(held)
        del held
        t0, a = _piece_start(c, k)
        b = _piece_end(model, c, k)
        s = c.t1[k] - t0
        first = np.cumsum(length) - length
        last = first + length - 1
        b[last] = at
        s[last] = cut
        s *= b2
        a += down
        b += down
        np.clip(a, 0.0, w, out=a)       # a piece after an exit may start outside
        (lo, rest), (hi, rest_hi) = (_lower_first(a, np.minimum(b, w), w, s),
                                     _lower_first(w - a, np.minimum(w - b, w), w, s))
        # each piece's chance to stay in the band and close with a jump that
        # lands below the upper barrier, then the chance to stay through the
        # pieces up to it
        stay = np.where((b > 0.0) & (b < w), np.maximum(1.0 - lo - hi, 0.0), 0.0)
        stay *= c.post[k] < up
        _row_scan(first, length)(stay, np.multiply)
        lo = np.where(b < w, lo, 1.0 - hi)
        stay[last] = 1.0                # a row's first piece follows no piece of its own
        lo[1:] *= stay[:-1]
        return _moments(np.add.reduceat(lo, first)), 2.0 * float(rest.sum() + rest_hi.sum())

    per_chunk = _run_chunks(model, config, _TAG_TWOSIDED, bridges if b2 > 0.0 else linear)
    est = _merged([m for m, _ in per_chunk])
    return est.estimate(sum(rest for _, rest in per_chunk) / est.n)  # in chunk order


def sup_exponential_moment(model: LevyModel, q: float) -> float:
    """Closed form of ``E[e^(-S)]``, ``S`` the supremum of X up to an
    independent ``Exp(q)`` clock.

    The upward Wiener–Hopf factor at exponent 1 (Kyprianou, *Fluctuations
    of Lévy Processes*, 2nd ed. 2014, chs. 6–8) is
    ``E[e^(-S)] = (q / Phi(q)) (Phi(q) - 1) / (q - psi(1))``, which lies in
    ``(0, 1]``.  It is formed as ``q / (Phi(q) slope)``, with ``slope`` the
    secant ``(q - psi(1)) / (Phi(q) - 1)`` of psi from 1 to ``Phi(q)``.  At
    ``Phi(q) = 1`` the secant is ``0/0`` and its limit ``psi'(1)``; within
    ``_SECANT_MIN`` of that point, where the secant would cancel, ``slope``
    is psi' at the midpoint ``(1 + Phi(q)) / 2``, taken by a complex step on
    psi's continuation, which matches the secant to ``O((Phi(q) - 1)^2)``.
    :func:`wiener_hopf_check` estimates the same mean.
    """
    require_discount_condition(model, q)
    ph = phi(model, q)
    if abs(ph - 1.0) < _SECANT_MIN:
        mid = 0.5 * (1.0 + ph)
        slope = float(_psi_c(model, [complex(mid, _COMPLEX_STEP)])[0].imag) / _COMPLEX_STEP
    else:
        slope = (q - laplace_exponent(model, 1.0)) / (ph - 1.0)
    return q / (ph * slope)


def wiener_hopf_check(model: LevyModel, q: float,
                      config: SimConfig) -> PayoffEstimate:
    """MC of ``E[e^(-S)]``, ``S`` the supremum of X up to an independent
    ``Exp(q)`` clock.

    Compare against :func:`sup_exponential_moment`; clocks beyond the
    horizon are truncated there (error of order ``e^(-q horizon)``).  ``S``
    is the largest of 0, the top of each piece the clock has ended (its
    bridge maximum and X after its closing jump, the peaks of
    :func:`_passages`) and, in the piece holding the clock, the maximum of
    the bridge up to the clock: the bridge's value at the clock is a
    Gaussian draw, and its maximum an exact bridge maximum.  Each sample
    ``e^(-S)`` lies in ``(0, 1]``, so the 3-stderr comparison has a finite
    variance on every model (Glasserman, *Monte Carlo Methods in Financial
    Engineering*, 2004, ch. 4).
    """
    if q <= 0.0:
        raise DomainError("q must be positive")
    T = config.horizon

    def sup_at_clock(c: _Tableau) -> _Moments:
        clk, full, _, y0, at, cut = _clock_cut(model, c, q)
        # 0 enters each row's maximum as the clock piece's entry, or past T,
        # where the clock has ended every piece, as the bridge's below
        peak = c.post if c.smax is None else np.maximum(c.smax, c.post)
        sup = np.maximum.reduceat(np.where(full, peak, 0.0), c.start)
        del peak, full
        spread = -2.0 * model.b2 * cut * np.log(c.rng.random(len(clk)))
        np.maximum(sup, np.where(clk < T, _bridge_max(y0, at, spread), 0.0), out=sup)
        return _moments(np.exp(-sup))

    return _merged(_run_chunks(model, config, _TAG_SUP, sup_at_clock)).estimate()


# --------------------------------------------------------------------------- #
# saddle-point verification
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class SaddleComparison:
    """One perturbed strategy measured against the equilibrium pair."""

    label: str
    direction: str            # "<=" (holder side) or ">=" (issuer side)
    estimate: PayoffEstimate
    gap: float                # perturbed mean minus equilibrium mean
    gap_stderr: float         # paired stderr (common random numbers)
    verdict: str              # Pass | Inconclusive | Fail


@dataclass(frozen=True)
class SaddleReport:
    equilibrium: PayoffEstimate
    comparisons: tuple[SaddleComparison, ...]

    def all_pass(self) -> bool:
        return all(c.verdict == "Pass" for c in self.comparisons)


_SADDLE_SIDES = (("holder level - delta", "<="), ("holder level + delta", "<="),
                 ("issuer level - delta", ">="), ("issuer level + delta", ">="))


def saddle_check(model: LevyModel, params, solution, delta: float = 0.1,
                 config: SimConfig | None = None) -> SaddleReport:
    """Check the two-sided optimality of the classified strategy pair.

    The holder's threshold is moved by ``±delta`` (the expected payoff can
    only drop) and the issuer's by ``±delta`` capped at the conversion cap
    (it can only rise); every comparison rides the same paths as the
    equilibrium run, so the paired differences isolate the strategy effect.
    A comparison passes when its inequality holds within three paired
    standard errors; a violation inside the horizon-truncation budget stays
    inconclusive rather than failing.
    """
    if delta < 0.0:
        raise DomainError("delta must be nonnegative")
    if config is None:
        raise ConfigError("saddle_check requires an explicit SimConfig")
    tau0 = solution.tau_level
    sig0 = solution.sigma_level
    log_k = math.log(params.K)
    if isinstance(sig0, ImmediateStop):
        # an immediate call has no threshold to perturb: every comparison
        # degenerates to the identity
        est = estimate_game_value(model, params, log_k - 1.0, tau0,
                                  IMMEDIATE_STOP, config)
        comps = tuple(SaddleComparison(lbl, d, est, 0.0, 0.0, "Pass")
                      for lbl, d in _SADDLE_SIDES)
        return SaddleReport(equilibrium=est, comparisons=comps)

    x = min(tau0, sig0) - 1.0 - delta
    variants = [
        (x, tau0, sig0),
        (x, tau0 - delta, sig0),
        (x, tau0 + delta, sig0),
        (x, tau0, min(sig0 - delta, log_k)),
        (x, tau0, min(sig0 + delta, log_k)),
    ]
    values, diffs = _estimate_variants(model, params, variants, config)
    budget = _truncation_bound(model, params.q, x, config.horizon,
                               params.beta, params.K)
    comps = []
    for (lbl, direction), est, diff in zip(_SADDLE_SIDES, values[1:], diffs[1:]):
        gap, gse = diff.mean, diff.estimate().stderr
        violation = gap if direction == "<=" else -gap
        comps.append(SaddleComparison(
            label=lbl, direction=direction, estimate=est.estimate(),
            gap=gap, gap_stderr=gse, verdict=_verdict(violation, gse, budget)))
    return SaddleReport(equilibrium=values[0].estimate(), comparisons=tuple(comps))
