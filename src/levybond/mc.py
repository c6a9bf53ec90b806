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

Randomness is counter-based (Philox), and the stream layout fixes every
estimate bit for bit given the seed:

* paths run in chunks of ``_CHUNK``; chunk ``k`` draws from one generator
  keyed by ``(seed, tag, k)``, with the tags ``_TAG_VALUE = 1`` (game values
  and saddle checks), ``_TAG_UPCROSS = 2``, ``_TAG_TWOSIDED = 3`` and
  ``_TAG_SUP = 4``;
* a chunk draws its tableau, then its estimator's draws.  The tableau
  draws the jump counts, the epoch uniforms and the jump-size uniforms (the
  counts and sizes only with jumps; ``rows x m`` blocks, ``m`` the chunk's
  largest count and at least 1), then with a Gaussian part one standard
  normal and then one bridge uniform per piece (``rows x (m + 1)``
  blocks).  Each block is drawn slab by slab, ``_SLAB`` rows at a time in
  row order; Philox fills a block sequentially, so the bits are those of
  the whole block for any slab size.  A slab's block is used in place (the
  size uniforms become sizes there) and freed, and the tableau keeps its
  real slots alone;
* then the estimator's draws, rows ascending.  :func:`_passages`, level by
  level: one uniform per path that passed the level below continuously,
  then one inverse Gaussian (``Generator.wald``) per continuous passage
  from below the level (none without a Gaussian part).
  :func:`two_sided_exit` takes the rows in groups of ``_SLAB``, one group
  after another, and runs each group's rounds to completion over its
  unsettled pieces, held first in tableau order and then as the last
  round's first halves followed by their second halves; a round draws one
  uniform per settled piece, one inverse Gaussian per lower-barrier crossing
  (with a Gaussian part), then one standard normal per cut piece.  Without
  a Gaussian part every piece settles in the first round, so the groups
  draw what one group of every row would.  :func:`wiener_hopf_check` draws
  the ``Exp(q)`` clocks, one per path, then one standard normal and then
  one uniform per path.

Chunks share no generator, so they run concurrently (:func:`_run_chunks`).
Each chunk reduces its per-path terms to moments (count, mean and the sum
of squared deviations from it) before it is dropped, and the chunks'
moments are merged in chunk order by the pairwise update of Chan, Golub &
LeVeque (1983); the neglected masses of :func:`two_sided_exit` are added in
that order too, and within a chunk in (group, round) order.  So no output
depends on the number of workers, and memory is bounded by the chunks in
flight, whatever the path count: a worker frees each tableau before it
builds the next, and within a chunk :func:`two_sided_exit` holds one
group's round at a time, replacing its arrays one at a time and writing its
halves into one fresh array per field.

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
# rows a tableau build draws each block for at once, and rows per group of
# two_sided_exit's midpoint rounds
_SLAB = _CHUNK // 4
# expected jumps per path the event tableau accepts: a chunk builds its
# tableau in (_SLAB paths x most jumps) draw blocks, ~34 MiB at the limit
# (1024 paths x ~4320 jumps), where its worker peaks near 1 GiB with a
# Gaussian part and 0.4 GiB without (below)
_MAX_JUMPS = 4096
# expected slots (paths x (expected jumps + 1)) the chunks in flight may
# hold together.  A worker holds one tableau at a time, 32 bytes a slot
# with a Gaussian part (16 without: t1 and post alone), and a build peaks
# near 45 (25); with an estimator's working arrays a worker peaks near 61
# (26), wiener_hopf_check's near 50 (26).  So this bounds the pool near
# 0.3 GB, and one chunk always runs
_SLOTS_IN_FLIGHT = 1 << 22
_EXIT_EPS = 1e-15   # crossing mass two_sided_exit may neglect per settled piece
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
    key = np.array([seed & _MASK, ((tag << 56) | index) & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sim_drift(model: LevyModel) -> float:
    """Per-unit-time drift of X between jumps (the compensator taken out)."""
    return -(model.mu + _m1(model.jumps))


def mc_eligible(model: LevyModel, horizon: float | None = None) -> bool:
    """Whether the event engine simulates this model: a jump rate of at most
    1e6 and, over ``horizon`` when one is given, at most ``_MAX_JUMPS``
    expected jumps per path, past which every estimator raises
    :class:`DomainError` before any draw (a tableau holds paths x expected
    jumps pieces, and its draw blocks are ``_SLAB`` paths x most jumps)."""
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
    plus its drift (:func:`_piece_end`).  The draw blocks are (``_SLAB``
    paths x most jumps), but these arrays hold real pieces alone.  ``rng``
    has drawn the tableau, and an estimator makes its own draws from it."""

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


def _event_tableau(model: LevyModel, config: SimConfig, tag: int, k: int) -> _Tableau:
    """Exact jump epochs and sizes on ``[0, horizon]`` for chunk ``k``.  A
    Gaussian part moves each piece by ``sqrt(b^2 len) Z`` and gives it an
    exact bridge maximum; without one a piece peaks at its start, and the
    tableau keeps ``t1`` and ``post`` alone.  Each block is drawn ``_SLAB``
    rows at a time, and each row's prefix sums run along its row of the
    padded slab block, so they are exact and no slab size changes a bit.
    """
    T = config.horizon
    drift = _sim_drift(model)
    rate = jump_intensity(model)
    chunk = slice(k * _CHUNK, min((k + 1) * _CHUNK, config.n_paths))
    rng = _rng(config.seed, tag, k)
    rows = chunk.stop - chunk.start
    counts = rng.poisson(rate * T, rows) if rate > 0.0 else np.zeros(rows, dtype=int)
    m = max(1, int(counts.max()))
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
    t1.fill(T)
    post.fill(-np.inf)

    def by_slab(fill, draw, cols):
        # fill(pieces, jump counts, closed pieces, block) on each slab's rows
        # in row order, its block drawn whole: the stream is that of one
        # (rows x cols) block, and the slab's block is freed as fill returns
        for i in range(0, rows, _SLAB):
            j = min(i + _SLAB, rows)
            s = slice(start[i], end[j - 1])
            fill(s, counts[i:j, None], closes[s], draw((j - i, cols)))

    def epochs(s, n, shut, block):
        # a row's jumps are its leading slots, so the trailing ones may hold
        # anything once the epochs are sorted
        slots = np.arange(m) < n                    # the slots holding a jump
        block[~slots] = 2.0                         # empty slots sort last
        block.sort(axis=1)
        block *= T
        t1[s][shut] = block[slots]

    def sizes(s, n, shut, block):
        # X just after each jump: the sizes up to it, plus its epoch's drift
        _jump_sizes_into(model, block)              # every slot's, in place
        np.cumsum(block, axis=1, out=block)
        after = block[np.arange(m) < n]
        jt = t1[s][shut]
        jt *= drift
        after += jt
        post[s][shut] = after

    by_slab(epochs, rng.random, m)
    if rate > 0.0:
        by_slab(sizes, rng.random, m)
    pre = smax = None
    if model.b2 > 0.0:
        pre, smax = fields[2], fields[3]

        def spans(s, shut):
            # each piece's length: t1 less the t1 of the piece before, or t1
            # at a row's first
            span = t1[s].copy()
            np.subtract(span[1:], t1[s][:-1], out=span[1:], where=shut[:-1])
            return span

        def moves(s, n, shut, block):
            # the Gaussian moves, held in pre until each piece's end is
            # known, and their prefix sums; each row's pieces are again its
            # leading slots
            pieces = np.arange(m + 1) <= n
            move = pre[s]
            span = spans(s, shut)
            span *= model.b2
            np.sqrt(span, out=move)
            move *= block[pieces]
            block[pieces] = move
            np.cumsum(block, axis=1, out=block)
            post[s][shut] += block[:, :-1][np.arange(m) < n]

        def ends(s, n, shut, block):
            # each piece's end, its start plus its drift and its move, and
            # its exact bridge maximum from the bridge uniforms
            span = spans(s, shut)
            spread = block[np.arange(m + 1) <= n]
            np.log(spread, out=spread)
            spread *= -2.0 * model.b2 * span
            span *= drift
            x = pre[s]
            x += span
            del span
            y0 = np.zeros(len(x))                   # X at each piece's start
            np.copyto(y0[1:], post[s][:-1], where=shut[:-1])
            x += y0
            smax[s] = _bridge_max(y0, x, spread)

        by_slab(moves, rng.standard_normal, m + 1)
        by_slab(ends, rng.random, m + 1)
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
        hits = np.append(np.flatnonzero(peak > lvl), len(peak))
        first = hits[np.searchsorted(hits, pr + 1)]
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


def _halves(first: np.ndarray, second: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``first`` followed by ``second[keep]``, written into one fresh array."""
    out = np.empty(len(first) + np.count_nonzero(keep), first.dtype)
    out[:len(first)] = first
    out[len(first):] = second[keep]
    return out


def two_sided_exit(model: LevyModel, p: float, down: float, up: float,
                   config: SimConfig) -> PayoffEstimate:
    """MC of ``E[e^(-p tau_down) 1{down before up}]`` from a start at zero.

    ``down > 0`` is the distance to the lower barrier, ``up > 0`` to the
    upper one; downward passage creeps (no undershoot) for every supported
    model, as the scale-ratio identity needs.  While both barriers' crossing
    probabilities on a piece exceed ``_EXIT_EPS`` it is cut at its midpoint,
    whose value is a Gaussian bridge draw; once one of them is at most
    ``_EXIT_EPS``, that barrier is taken as not crossed there and the other
    is settled by one uniform (and a passage time for the lower one).  A
    path exits at its earliest crossing, or at a jump onto the upper
    barrier.  The neglected crossing mass bounds the bias, since the payoff
    lies in ``[0, 1]``: it is at most ``_EXIT_EPS`` per settled piece, and
    its mean over the paths is returned as ``bias_bound``.  The cuts run
    round by round over the rows in groups of ``_SLAB``, each group to
    completion before the next, so a chunk holds one group's pieces.
    """
    if down <= 0.0 or up <= 0.0:
        raise DomainError("barrier distances must be positive")
    if p < 0.0:
        raise DomainError("discount rate must be nonnegative")
    b2 = model.b2

    def exits(c: _Tableau) -> tuple[_Moments, list[float]]:
        # earliest exit found so far through each barrier; an upper exit is
        # dated by its piece's start, which orders it against the others
        at_up, at_down = np.full((2, len(c.start)), math.inf)
        k = np.flatnonzero(c.post > up)
        np.minimum.at(at_up, np.searchsorted(c.end, k, side="right"), c.t1[k])
        # the pieces that start inside the band: each row's first, and each
        # piece after a jump that lands inside it (a row's last piece closes
        # at -inf, so that piece is in the jump's row)
        begins = np.zeros(len(c.post), dtype=bool)
        np.greater(c.post[:-1], -down, out=begins[1:])
        begins[1:] &= c.post[:-1] < up
        begins[c.start] = True
        neglected = []
        # the rows in groups of _SLAB, each group's rounds run to completion
        # before the next group's begin
        rows = len(c.start)
        for g in range(0, rows, _SLAB):
            last = min(g + _SLAB, rows) - 1
            lo = c.start[g]
            k = lo + np.flatnonzero(begins[lo:c.end[last]])
            r = np.searchsorted(c.end, k, side="right")     # each piece's row
            t0, a = _piece_start(c, k)
            t1, b = c.t1[k], _piece_end(model, c, k)
            del k
            # a round replaces its arrays one at a time and drops each mask
            # once read, so that a group peaks near its largest round
            while len(r):
                # a piece that starts after a found exit cannot change it
                keep = t0 < np.minimum(at_up, at_down)[r]
                r = r[keep]
                t0 = t0[keep]
                t1 = t1[keep]
                a = a[keep]
                b = b[keep]
                del keep
                span = t1 - t0
                with np.errstate(divide="ignore", invalid="ignore"):
                    p_up = np.where(b < up, np.exp(-2.0 * (up - a) * (up - b) / (b2 * span)), 1.0)
                    p_dn = np.where(b > -down,
                                    np.exp(-2.0 * (a + down) * (b + down) / (b2 * span)), 1.0)
                low = np.minimum(p_up, p_dn)
                settle = low <= _EXIT_EPS
                neglected.append(float(low[settle].sum()))
                del low
                hit = np.zeros(len(r), dtype=bool)
                hit[settle] = c.rng.random(int(settle.sum())) < np.maximum(p_up, p_dn)[settle]
                dn = hit & (p_dn > p_up)
                del p_up, p_dn
                hit &= ~dn                                  # the upper crossings
                np.minimum.at(at_up, r[hit], t0[hit])
                del hit
                np.minimum.at(at_down, r[dn], t0[dn] + _bridge_passage(
                    c.rng, b2, a[dn], -down, b[dn], span[dn]))
                # the rest splits at a bridge midpoint
                cut = ~settle
                del dn, settle
                r = r[cut]
                t0 = t0[cut]
                t1 = t1[cut]
                a = a[cut]
                b = b[cut]
                span = span[cut]
                del cut
                mid = 0.5 * (a + b) + np.sqrt(0.25 * b2 * span) * c.rng.standard_normal(len(r))
                del span
                tm = 0.5 * (t0 + t1)
                # a first half starts where its piece did, inside the band; a
                # second half that starts outside it follows a crossing in the
                # first, and is dropped
                inside = (mid > -down) & (mid < up)
                r = _halves(r, r, inside)
                t0 = _halves(t0, tm, inside)
                t1 = _halves(tm, t1, inside)
                del tm
                a = _halves(a, mid, inside)
                b = _halves(mid, b, inside)
                del mid, inside
        t_down = np.where(at_down < at_up, at_down, math.inf)
        return _moments(_discounted(t_down, p)), neglected

    per_chunk = _run_chunks(model, config, _TAG_TWOSIDED, exits)
    neglected = 0.0
    for _, masses in per_chunk:          # one by one, in (chunk, round) order
        for mass in masses:
            neglected += mass
    est = _merged([m for m, _ in per_chunk])
    return est.estimate(neglected / est.n)


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
        clk = c.rng.exponential(1.0 / q, len(c.start))
        full = c.t1 <= np.repeat(clk, c.end - c.start)  # the pieces ended by the clock
        # 0 enters each row's maximum as the clock piece's entry, or past T,
        # where the clock has ended every piece, as the bridge's below
        peak = c.post if c.smax is None else np.maximum(c.smax, c.post)
        sup = np.maximum.reduceat(np.where(full, peak, 0.0), c.start)
        del peak
        # the piece holding the clock (a row's last piece if the clock is past T)
        k = np.minimum(c.start + np.add.reduceat(full, c.start, dtype=np.intp), c.end - 1)
        del full
        t0, y0 = _piece_start(c, k)
        end = _piece_end(model, c, k)
        span = c.t1[k] - t0
        frac = np.minimum((clk - t0) / span, 1.0)
        at = y0 + (end - y0) * frac + np.sqrt(model.b2 * span * frac * (1.0 - frac)) * \
            c.rng.standard_normal(len(clk))
        spread = -2.0 * model.b2 * span * frac * np.log(c.rng.random(len(clk)))
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
