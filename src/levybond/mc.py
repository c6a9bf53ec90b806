"""Monte Carlo path engines verifying the analytic layer independently.

Two engines cover the supported dynamics:

* a *grid* engine (:func:`_grid_sweep`) for models with a Gaussian part:
  drift/Brownian increments on a uniform ``dt`` grid, compound-Poisson jumps
  placed uniformly inside their step and applied at its end, and a
  Brownian-bridge draw per step that restores level crossings the grid
  cannot see (removes the O(sqrt(dt)) first-passage bias).  It walks the
  paths block by block and retires the rows whose stop rule has fired;
* an *event* engine (:func:`_event_tableau`): jump epochs and sizes are
  simulated exactly and the path is laid out piece by piece between them.
  Without a Gaussian part each piece is linear and runs downhill, so upward
  crossings happen only at jumps and coupon integrals are closed-form.  With
  one, each piece is a Brownian motion with drift: one Gaussian endpoint and
  one exact bridge maximum per piece, no time discretisation at all.

Which estimator runs where: :func:`upcrossing_discount_profile` runs on the
event engine for every model, with exact passage times, so ``config.dt``
does not enter it.  :func:`estimate_game_values`, :func:`saddle_check`,
:func:`two_sided_exit` and :func:`wiener_hopf_check` run on the grid when
``b2 > 0`` and on the event engine otherwise.  Strategy variants inside one
call ride the same simulated noise, which is what makes the saddle-point
comparisons sharp (common random numbers, paired differences).

Randomness is counter-based (Philox), so every estimate is bit-reproducible
for a fixed seed regardless of scheduling.  The stream layout is part of
that contract:

* paths run in chunks of ``_CHUNK``, and chunk ``k`` of an estimator draws
  from one generator keyed by ``(seed, tag, k)``; the tags are
  ``_TAG_VALUE = 1`` (game values and saddle checks), ``_TAG_UPCROSS = 2``,
  ``_TAG_TWOSIDED = 3`` and ``_TAG_SUP = 4``;
* a chunk first makes its estimator's own draws (the ``Exp(q)`` clocks of
  :func:`wiener_hopf_check`), then its path draws.  On the grid these come
  per block of ``_BLOCK`` steps, for the rows still open: the Gaussian
  normals, the jump counts, the jump columns, the jump-size uniforms, the
  bridge uniforms and last the estimator's draws after the walk (the
  bridge minimum of :func:`two_sided_exit`).  On the event engine they are
  the jump counts, the epoch uniforms and the jump-size uniforms (the
  counts and sizes only for a model with jumps; ``rows x m`` slots, ``m``
  the largest count in the chunk and at least 1).  With a Gaussian part
  there follow one standard normal per piece between jumps, then one
  bridge uniform per piece (both ``rows x (m + 1)``, pieces past the
  horizon included); without one, nothing more is drawn;
* on the event engine the estimator's draws after the paths come last:
  :func:`upcrossing_discount_profile` draws one inverse Gaussian
  (``Generator.wald``) per continuous passage from below a level, level by
  level in the order given, rows ascending.

The perpetual game is truncated at ``config.horizon``; paths that never stop
receive the closed-form perpetual completion of the coupon stream, and the
truncation remainder bound is checked against the reported estimate
(TruncationWarning) and added to the verdict budget of the saddle checks.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DomainError, MomentConditionError, TruncationWarning
from .model import (
    LevyModel,
    NoJumps,
    TabulatedDensity,
    _m1,
    _tab_mass,
    _tab_zmoment_below,
    exp_growth_rate,
    jump_intensity,
    meets_discount_condition,
    phi,
    sample_jump_sizes,
)
from .solver import IMMEDIATE_STOP, ImmediateStop

logger = logging.getLogger(__name__)

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
_Z_CUT = 1e-4       # tabulated sub-grid jump mass folded into drift below this
_CHUNK = 4096       # paths simulated simultaneously
_BLOCK = 512        # grid steps per vectorised block
_MAX_JUMPS = 4096   # expected jumps per path the event tableau accepts (128 MB per array)

# stream tags keep independent estimators off each other's random numbers
_TAG_VALUE, _TAG_UPCROSS, _TAG_TWOSIDED, _TAG_SUP = range(1, 5)

SigmaSpec = Union[float, ImmediateStop]


@dataclass(frozen=True)
class SimConfig:
    """Path count, truncation horizon, grid resolution and seeding."""

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
    """Sample mean, its standard error (sample std over sqrt(n)) and count."""

    mean: float
    stderr: float
    n: int


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    key = np.array([seed & _MASK, ((tag << 56) | index) & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _z_min(model: LevyModel) -> float:
    return _Z_CUT if isinstance(model.jumps, TabulatedDensity) else 0.0


def _sim_drift(model: LevyModel) -> float:
    """Per-unit-time drift of X with sub-cut jump mass folded back in."""
    fold = 0.0
    if isinstance(model.jumps, TabulatedDensity):
        fold = _tab_zmoment_below(model.jumps, _Z_CUT)
    return -(model.mu + _m1(model.jumps)) + fold


def _jump_rate(model: LevyModel) -> float:
    if isinstance(model.jumps, NoJumps):
        return 0.0
    if isinstance(model.jumps, TabulatedDensity):
        return _tab_mass(model.jumps, _Z_CUT)
    return jump_intensity(model)


def mc_eligible(model: LevyModel) -> bool:
    """Whether the path engines can simulate this model faithfully.

    Everything with a Gaussian part or a moderate-rate compound-Poisson jump
    part qualifies; a pure-jump model of enormous activity would drown the
    event engine in bookkeeping noise and is flagged instead of simulated.
    Eligibility does not depend on the horizon: an estimator that runs on
    the event tableau also raises :class:`DomainError` when ``rate x
    horizon`` exceeds ``_MAX_JUMPS`` expected jumps per path, whatever the
    Gaussian part.
    """
    return model.b2 > 0.0 or _jump_rate(model) <= 1e6


def _truncation_bound(model: LevyModel, q: float, x: float, horizon: float,
                      beta: float = 1.0, cap: float = 1.0) -> float:
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


def _at(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``a[i, cols[i]]`` for every row ``i``."""
    return a[np.arange(len(cols)), cols]


def _discounted(t: np.ndarray, rate: float) -> np.ndarray:
    """``e^(-rate t)``, and 0 where ``t`` is infinite (never happened)."""
    out = np.zeros(t.shape)
    f = np.isfinite(t)
    out[f] = np.exp(-rate * t[f])
    return out


# --------------------------------------------------------------------------- #
# grid kernel
# --------------------------------------------------------------------------- #

class _Block(NamedTuple):
    """One block of grid steps, for the rows still open."""

    rows: np.ndarray     # path index of each row
    t0: float            # time at the block's start
    col0: int            # index of the block's first step
    start: np.ndarray    # X at the block's start
    post: np.ndarray     # X after each step, its jump included
    pre: np.ndarray      # continuous endpoint of each step, before its jump
    left: np.ndarray     # X at each step's start
    smax: np.ndarray     # bridge-sampled continuous maximum of each step


def _grid_steps(config: SimConfig) -> int:
    return max(1, int(round(config.horizon / config.dt)))


def _scatter_jumps(model: LevyModel, rng: np.random.Generator, rate: float,
                   n_rows: int, cols: int, dt: float) -> np.ndarray | None:
    """Jump increment per (path, step); jumps land at their step's end."""
    if rate <= 0.0:
        return None
    counts = rng.poisson(rate * dt * cols, n_rows)
    tot = int(counts.sum())
    if tot == 0:
        return None
    incr = np.zeros((n_rows, cols))
    ri = np.repeat(np.arange(n_rows), counts)
    ci = rng.integers(0, cols, size=tot)
    sizes = sample_jump_sizes(model, rng.random(tot), z_min=_z_min(model))
    np.add.at(incr, (ri, ci), sizes)
    return incr


def _block_walk(model: LevyModel, rng: np.random.Generator, rate: float,
                y: np.ndarray, cols: int, dt: float, drift: float):
    """One vectorised block of the grid walk from row states ``y``.

    Returns post-step values, pre-jump (continuous) endpoints, left
    endpoints, and the bridge-sampled continuous maximum of each step.
    Heavy arrays are assembled in place — this loop is memory-bandwidth
    bound.
    """
    n_alive = len(y)
    b2 = model.b2
    incr = rng.standard_normal((n_alive, cols))
    incr *= math.sqrt(b2 * dt)
    incr += drift * dt
    jump_incr = _scatter_jumps(model, rng, rate, n_alive, cols, dt)
    if jump_incr is not None:
        incr += jump_incr
    np.cumsum(incr, axis=1, out=incr)
    y_post = incr
    y_post += y[:, None]
    y_pre = y_post if jump_incr is None else y_post - jump_incr
    left = np.empty_like(y_post)
    left[:, 0] = y
    left[:, 1:] = y_post[:, :-1]
    u = rng.random((n_alive, cols))
    np.log(u, out=u)
    u *= -2.0 * b2 * dt                    # u = -2 b^2 dt ln U  (>= 0)
    return y_post, y_pre, left, _bridge_max(left, y_pre, u)


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


def _grid_sweep(model: LevyModel, config: SimConfig, tag: int,
                step: Callable[[_Block, np.random.Generator], np.ndarray],
                begin: Optional[Callable[[np.random.Generator, slice], None]] = None
                ) -> np.ndarray:
    """Walk every path from zero on the grid; return X at the horizon.

    Each chunk calls ``begin(rng, chunk)`` with its slice of paths before
    walking, then ``step(block, rng)`` on every block; ``step`` returns the
    mask of the block's rows still open, and the others retire.  Retired
    paths read NaN in the returned array.  The block start time is summed
    block by block: ``col0 * dt`` differs from it in the last bit and would
    move seeded outputs.
    """
    dt = config.dt
    n_steps = _grid_steps(config)
    drift = _sim_drift(model)
    rate = _jump_rate(model)
    y_end = np.full(config.n_paths, math.nan)
    for k, lo in enumerate(range(0, config.n_paths, _CHUNK)):
        chunk = slice(lo, min(lo + _CHUNK, config.n_paths))
        rng = _rng(config.seed, tag, k)
        if begin is not None:
            begin(rng, chunk)
        rows = np.arange(chunk.start, chunk.stop)
        y = np.zeros(len(rows))
        t0 = 0.0
        for col0 in range(0, n_steps, _BLOCK):
            if len(y) == 0:
                break
            cols = min(_BLOCK, n_steps - col0)
            post, pre, left, smax = _block_walk(model, rng, rate, y, cols, dt, drift)
            still = step(_Block(rows, t0, col0, y, post, pre, left, smax), rng)
            y = post[:, -1][still]
            rows = rows[still]
            t0 += dt * cols
        y_end[rows] = y
    return y_end


def _first_up(b: _Block, lvl: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row: whether the block passes above ``lvl`` (continuously or by
    a jump), and the first step that does."""
    cross = b.smax > lvl
    cross |= b.post > lvl
    first = np.argmax(cross, axis=1)
    return _at(cross, first), first


def _passage(smax: np.ndarray, post: np.ndarray, ht: np.ndarray, dt: float,
             lvl: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time, position and continuity of a passage above ``lvl`` within grid
    steps that start at ``ht``.  A continuous passage lands on the level,
    timed at the step's midpoint; a jump keeps its overshoot at the step's
    end; the time is ``inf`` where neither happens.
    """
    cont = smax > lvl
    t = np.where(cont, ht + 0.5 * dt, np.where(post > lvl, ht + dt, math.inf))
    return t, np.where(cont, lvl, post), cont


# --------------------------------------------------------------------------- #
# event kernel
# --------------------------------------------------------------------------- #

class _Tableau(NamedTuple):
    """The jumps of one chunk of paths and the pieces between them.

    Jump slot ``i`` closes piece ``i``: the piece runs from jump ``i - 1``
    (time 0 for ``i = 0``) to jump ``i`` (the horizon for the last piece).
    Unused jump slots sort last, at time 2T; the pieces after them start
    there, and their values mean nothing.
    """

    rows: slice          # the chunk's paths
    rng: np.random.Generator  # the chunk's generator, for draws after the paths
    jt: np.ndarray       # jump epochs, ascending per row
    js: np.ndarray       # jump sizes (0 in unused slots)
    valid: np.ndarray    # slot holds a jump
    post: np.ndarray     # X just after each jump
    t0: np.ndarray       # start time of each piece
    t1: np.ndarray       # end time of each piece, at most T
    length: np.ndarray   # duration of each piece (0 past the horizon)
    y0: np.ndarray       # X at each piece's start
    pre: np.ndarray      # X at each piece's end, before its closing jump
    smax: np.ndarray     # maximum of X over each piece


def _event_tableau(model: LevyModel, config: SimConfig, tag: int,
                   begin: Optional[Callable[[np.random.Generator, slice], None]] = None
                   ) -> Iterator[_Tableau]:
    """Exact jump epochs and sizes on ``[0, horizon]``, chunk by chunk;
    ``begin(rng, chunk)`` makes the estimator's draws first.

    A Gaussian part moves each piece by ``sqrt(b^2 len) Z`` and gives it an
    exact bridge maximum; without one the drift runs downhill and a piece
    peaks at its start.  Raises :class:`DomainError` before any draw when a
    path expects more than ``_MAX_JUMPS`` jumps, since each chunk holds
    arrays of (paths x most jumps in a path).
    """
    T = config.horizon
    drift = _sim_drift(model)
    rate = _jump_rate(model)
    if rate * T > _MAX_JUMPS:
        raise DomainError(
            f"{rate * T:.3g} expected jumps per path (rate {rate:.3g} x horizon "
            f"{T:g}) exceed the event engine's limit of {_MAX_JUMPS}")
    for k, lo in enumerate(range(0, config.n_paths, _CHUNK)):
        chunk = slice(lo, min(lo + _CHUNK, config.n_paths))
        rng = _rng(config.seed, tag, k)
        if begin is not None:
            begin(rng, chunk)
        rows = chunk.stop - chunk.start
        counts = rng.poisson(rate * T, rows) if rate > 0.0 else np.zeros(rows, dtype=int)
        m = max(1, int(counts.max()))
        valid = np.arange(m)[None, :] < counts[:, None]
        jt = np.sort(np.where(valid, rng.random((rows, m)), 2.0), axis=1) * T
        if rate > 0.0:
            js = np.where(valid, sample_jump_sizes(
                model, rng.random((rows, m)).reshape(-1),
                z_min=_z_min(model)).reshape(rows, m), 0.0)
        else:
            js = np.zeros((rows, m))
        zero = np.zeros((rows, 1))
        knots = np.concatenate([zero, jt, np.full((rows, 1), T)], axis=1)
        t0 = knots[:, :-1]
        t1 = np.minimum(knots[:, 1:], T)
        length = np.maximum(t1 - t0, 0.0)
        post = drift * jt + np.cumsum(js, axis=1)
        pre = drift * length
        spread = None
        if model.b2 > 0.0:
            move = np.sqrt(model.b2 * length)
            move *= rng.standard_normal((rows, m + 1))
            pre += move
            post += np.cumsum(move, axis=1)[:, :-1]
            spread = np.log(rng.random((rows, m + 1)))
            spread *= -2.0 * model.b2 * length
        y0 = np.concatenate([zero, post], axis=1)
        pre += y0
        smax = y0 if spread is None else _bridge_max(y0, pre, spread)
        yield _Tableau(chunk, rng, jt, js, valid, post, t0, t1, length, y0, pre, smax)


def _first_jump_above(c: _Tableau, lvl: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Per path: whether a jump before ``T`` lands above ``lvl``, and the
    first one that does (the drift runs downhill, so only jumps cross up)."""
    above = c.valid & (c.post > lvl) & (c.jt < T)
    return above.any(axis=1), np.argmax(above, axis=1)


# --------------------------------------------------------------------------- #
# game values (chunked, shared-noise variants)
# --------------------------------------------------------------------------- #

def _estimate_variants(model: LevyModel, params, variants: Sequence[tuple],
                       config: SimConfig) -> list[np.ndarray]:
    """Per-path payoffs for each ``(x, tau_level, sigma_spec)`` variant.

    All variants ride the same simulated noise (the path of X minus its
    start), which is what gives paired comparisons their power.  Variants
    that stop at time zero (immediate call, or a start already beyond a
    threshold) are deterministic and skip the path sweep.  The engines take
    the live variants as ``(x, tau_level - x, sigma_level - x)``: thresholds
    relative to the shared zero-started path.
    """
    if not meets_discount_condition(model, params.q):
        raise MomentConditionError(
            f"discount rate q={params.q:g} does not exceed psi(-1)="
            f"{exp_growth_rate(model):g}; the simulated payoff has no finite mean")
    if not mc_eligible(model):
        raise DomainError("model is flagged ineligible for path simulation")
    n = config.n_paths
    results: list = [None] * len(variants)
    live_idx: list[int] = []
    live: list[tuple] = []
    for i, (x, tau_level, sigma_spec) in enumerate(variants):
        if isinstance(sigma_spec, ImmediateStop) or x > sigma_spec:
            results[i] = np.full(n, max(params.K, math.exp(x)))
        elif x > tau_level:
            results[i] = np.full(n, math.exp(x))
        else:
            live_idx.append(i)
            live.append((x, tau_level - x, sigma_spec - x))
    if live:
        engine = _grid_variants if model.b2 > 0.0 else _event_variants
        for i, pv in zip(live_idx, engine(model, params, live, config)):
            results[i] = pv
        for (x, _, _), i in zip(live, live_idx):
            bound = _truncation_bound(model, params.q, x, config.horizon,
                                      params.beta, params.K)
            mean = float(np.mean(results[i]))
            if bound > 1e-4 * abs(mean):
                warnings.warn(
                    f"horizon {config.horizon:g} leaves a truncation remainder "
                    f"bound {bound:.2e} above 1e-4 of the estimate {mean:.4g}",
                    TruncationWarning, stacklevel=3)
    return results


def _to_estimate(pv: np.ndarray) -> PayoffEstimate:
    n = len(pv)
    mean = float(np.mean(pv))
    sd = float(np.std(pv, ddof=1)) if n > 1 else 0.0
    return PayoffEstimate(mean=mean, stderr=sd / math.sqrt(n), n=n)


def estimate_game_value(model: LevyModel, params, x: float, tau_level: float,
                        sigma_spec: SigmaSpec, config: SimConfig) -> PayoffEstimate:
    """MC estimate of the expected payoff of a threshold strategy pair."""
    return estimate_game_values(model, params, [x], tau_level, sigma_spec, config)[0]


def estimate_game_values(model: LevyModel, params, starts: Sequence[float],
                         tau_level: float, sigma_spec: SigmaSpec,
                         config: SimConfig) -> list[PayoffEstimate]:
    """Estimates at several starting points sharing one path sweep."""
    variants = [(float(x), tau_level, sigma_spec) for x in starts]
    return [_to_estimate(pv)
            for pv in _estimate_variants(model, params, variants, config)]


def _grid_variants(model: LevyModel, params, variants, config) -> np.ndarray:
    q, alpha, beta, K = params.q, params.alpha, params.beta, params.K
    dt = config.dt
    T = _grid_steps(config) * dt
    shape = (len(variants), config.n_paths)
    stop_t = np.full(shape, math.inf)
    stop_pay = np.zeros(shape)                   # terminal payoff at the stop
    coupons = np.zeros(shape)

    def step(b: _Block, rng) -> np.ndarray:
        cols = b.post.shape[1]
        disc = np.exp(-q * (b.t0 + dt * np.arange(cols + 1)))
        # cumulative trapezoid weights let each variant read its coupon
        # integral with one gather instead of a masked sum
        wmat = np.exp(b.post)
        wmat *= disc[1:]                         # e^(-qt+y) at step ends
        cum_w = np.empty_like(wmat)
        cum_w[:, 0] = 0.5 * dt * (np.exp(b.start) * disc[0] + wmat[:, 0])
        cum_w[:, 1:] = 0.5 * dt * (wmat[:, :-1] + wmat[:, 1:])
        np.cumsum(cum_w, axis=1, out=cum_w)
        cum_a = np.concatenate(
            [[0.0], np.cumsum(0.5 * dt * (disc[:-1] + disc[1:]))])

        for vi, (x_v, lvl_tau, lvl_sig) in enumerate(variants):
            open_rows = np.isinf(stop_t[vi, b.rows])
            if not open_rows.any():
                continue
            hit, first = _first_up(b, min(lvl_tau, lvl_sig))
            hit &= open_rows
            act = np.nonzero(open_rows)[0]
            sc = np.where(hit, first, cols)[act]
            coupons[vi, b.rows[act]] += alpha * cum_a[sc] + beta * math.exp(x_v) * \
                np.where(sc > 0, cum_w[act, np.maximum(sc - 1, 0)], 0.0)
            h = np.nonzero(hit)[0]
            if len(h) == 0:
                continue
            hc = first[h]
            ht = b.t0 + dt * hc                  # start of the stopping step
            sm_h, yp_h = b.smax[h, hc], b.post[h, hc]
            t_tau, pos_tau, cont_tau = _passage(sm_h, yp_h, ht, dt, lvl_tau)
            t_sig, pos_sig, cont_sig = _passage(sm_h, yp_h, ht, dt, lvl_sig)
            t_hit = np.minimum(t_tau, t_sig)
            holder_first = t_tau < t_sig         # ties go to the issuer
            share = np.exp(x_v + np.where(holder_first, pos_tau, pos_sig))
            gh = b.rows[h]
            stop_t[vi, gh] = t_hit
            stop_pay[vi, gh] = np.where(holder_first, share, np.maximum(K, share))
            # partial coupon over [ht, t_hit]; the integrand's endpoint sits
            # at the pre-jump continuous position
            ypre_h = b.pre[h, hc]
            end_pos = np.where(holder_first,
                               np.where(cont_tau, lvl_tau, ypre_h),
                               np.where(cont_sig, lvl_sig, ypre_h))
            f0 = disc[hc] * (alpha + beta * np.exp(x_v + b.left[h, hc]))
            f1 = np.exp(-q * t_hit) * (alpha + beta * np.exp(x_v + end_pos))
            coupons[vi, gh] += 0.5 * (f0 + f1) * (t_hit - ht)
        return ~np.all(np.isfinite(stop_t[:, b.rows]), axis=0)

    y_end = _grid_sweep(model, config, _TAG_VALUE, step)
    stopped = np.isfinite(stop_t)
    out = coupons + np.where(
        stopped, np.exp(-q * np.where(stopped, stop_t, 0.0)) * stop_pay, 0.0)
    gr = exp_growth_rate(model)
    for vi, (x_v, _, _) in enumerate(variants):
        # paths open at the horizon: perpetual completion from X_T
        idx = np.nonzero(~stopped[vi])[0]
        out[vi, idx] += math.exp(-q * T) * (
            alpha / q + beta * np.exp(x_v + y_end[idx]) / (q - gr))
    return out


def _event_variants(model: LevyModel, params, variants, config) -> np.ndarray:
    q, alpha, beta, K = params.q, params.alpha, params.beta, params.K
    T = config.horizon
    drift = _sim_drift(model)
    gr = exp_growth_rate(model)
    out = np.empty((len(variants), config.n_paths))
    r = q - drift  # coupon decay rate along the downward drift (> q)

    for c in _event_tableau(model, config, _TAG_VALUE):
        # closed coupon integral per inter-jump segment (y linear on each):
        #   C_i = e^(y_i - q t_i) (1 - e^(-r len_i)) / r
        seg_coup = np.exp(c.y0 - q * c.t0) * (1.0 - np.exp(-r * c.length)) / r
        cum_coup = np.concatenate(
            [np.zeros((len(seg_coup), 1)), np.cumsum(seg_coup, axis=1)], axis=1)
        yT = drift * T + c.js.sum(axis=1)
        for vi, (x_v, lvl_tau, lvl_sig) in enumerate(variants):
            hit, first = _first_jump_above(c, min(lvl_tau, lvl_sig), T)
            t_stop = np.where(hit, _at(c.jt, first), T)
            # stopping at jump `first` closes segments 0..first exactly on a
            # segment boundary, so there is no partial piece
            nseg = np.where(hit, first + 1, c.jt.shape[1] + 1)
            coup = alpha * (1.0 - np.exp(-q * t_stop)) / q + \
                beta * math.exp(x_v) * _at(cum_coup, nseg)
            pos = _at(c.post, first)
            # a jump past both thresholds is a tie, which goes to the issuer
            pay_stop = np.where(pos > lvl_sig, np.maximum(K, np.exp(x_v + pos)),
                                np.exp(x_v + pos))
            tail = np.exp(-q * T) * (alpha / q + beta * np.exp(x_v + yT) / (q - gr))
            out[vi, c.rows] = coup + np.where(
                hit, np.exp(-q * t_stop) * pay_stop, tail)
    return out


# --------------------------------------------------------------------------- #
# identity checks
# --------------------------------------------------------------------------- #

def upcrossing_discount_profile(model: LevyModel, q: float,
                                levels: Sequence[float],
                                config: SimConfig) -> list[PayoffEstimate]:
    """MC of ``E[e^(-q tau_y)]`` for several levels above a start at zero.

    Runs on the event tableau for every model, so the passage is exact and
    ``config.dt`` plays no part.  Level ``y`` is first passed in the first
    piece between jumps whose maximum exceeds it, or at the first jump that
    lands above it.  A jump passage happens at the jump's epoch.  A
    continuous passage in a piece from ``a < y`` to the pre-jump end ``b``
    over ``[t0, t0 + len]`` happens at ``t0 + len u / (1 + u)`` with ``u``
    inverse Gaussian of mean ``(y - a) / |y - b|`` and shape
    ``(y - a)^2 / (b^2 len)``: the Brownian-bridge first-passage law, which
    the substitution ``u = t / (len - t)`` turns into an inverse Gaussian.
    A piece that starts on the level is passed at its start.  Crossings past
    the horizon contribute zero, which undershoots the identity by at most
    ``e^(-q horizon)``.
    """
    lv = [float(y) for y in levels]
    if any(y < 0.0 for y in lv):
        raise DomainError("levels must be nonnegative")
    if q <= 0.0:
        raise DomainError("q must be positive")
    T = config.horizon
    hit_t = np.full((len(lv), config.n_paths), math.inf)
    for c in _event_tableau(model, config, _TAG_UPCROSS):
        jumps = c.valid & (c.jt < T)
        for li, lvl in enumerate(lv):
            cross = c.smax > lvl
            cross[:, :-1] |= jumps & (c.post > lvl)
            first = np.argmax(cross, axis=1)
            # pieces past the horizon sort after every real one
            hit = _at(cross, first) & (_at(c.t0, first) < T)
            t = np.where(hit, _at(c.t1, first), math.inf)
            h = np.nonzero(hit & (_at(c.smax, first) > lvl))[0]
            f = first[h]
            t[h] = c.t0[h, f]
            below = c.y0[h, f] < lvl
            h, f = h[below], f[below]
            gap = lvl - c.y0[h, f]
            length = c.length[h, f]
            u = c.rng.wald(gap / np.abs(lvl - c.pre[h, f]), gap * gap / (model.b2 * length))
            t[h] += length * u / (1.0 + u)
            hit_t[li, c.rows] = t
    return [_to_estimate(v) for v in _discounted(hit_t, q)]


def two_sided_exit(model: LevyModel, p: float, down: float, up: float,
                   config: SimConfig) -> PayoffEstimate:
    """MC of ``E[e^(-p tau_down) 1{down before up}]`` from a start at zero.

    ``down > 0`` is the distance to the lower barrier, ``up > 0`` to the
    upper one; downward passage creeps (no undershoot) for every supported
    model, which is what the scale-ratio identity relies on.
    """
    if down <= 0.0 or up <= 0.0:
        raise DomainError("barrier distances must be positive")
    if p < 0.0:
        raise DomainError("discount rate must be nonnegative")
    t_down = np.full(config.n_paths, math.inf)   # exits through the lower barrier
    if model.b2 > 0.0:
        dt = config.dt

        def step(b: _Block, rng) -> np.ndarray:
            # an independent draw for the segment minimum; the rare joint
            # max/min interaction within one step is ignored
            u_min = rng.random(b.post.shape)
            np.log(u_min, out=u_min)
            u_min *= -2.0 * model.b2 * dt
            gap = b.pre - b.left
            gap *= gap
            gap += u_min
            np.sqrt(gap, out=gap)
            smin = b.left + b.pre
            smin -= gap
            smin *= 0.5
            cross_dn = smin < -down
            anyc = (b.smax > up) | (b.post > up) | cross_dn
            first = np.argmax(anyc, axis=1)
            got = _at(anyc, first)
            h = np.nonzero(got)[0]
            # same-step double crossings are vanishingly rare at these step
            # sizes; award them to the down barrier
            dn = h[cross_dn[h, first[h]]]
            t_down[b.rows[dn]] = b.t0 + dt * first[dn] + 0.5 * dt
            return ~got

        _grid_sweep(model, config, _TAG_TWOSIDED, step)
    else:
        T = config.horizon
        drift = _sim_drift(model)
        for c in _event_tableau(model, config, _TAG_TWOSIDED):
            # downward creep inside segment i when y0 + drift (t - t0) = -down
            t_dn_seg = c.t0 + (-down - c.y0) / drift
            ok = (t_dn_seg >= c.t0) & (t_dn_seg <= c.t1)
            t_dn = np.where(ok, t_dn_seg, math.inf).min(axis=1)
            hit_up, first = _first_jump_above(c, up, T)
            t_up = np.where(hit_up, _at(c.jt, first), math.inf)
            t_down[c.rows] = np.where(t_dn < t_up, t_dn, math.inf)
    return _to_estimate(_discounted(t_down, p))


def sup_exponential_moment(model: LevyModel, q: float) -> float:
    """Closed form of the exponential moment of the pre-``Exp(q)`` supremum.

    The running maximum at an independent exponential clock has
    ``E[e^(sup)] = (q / Phi(q)) (Phi(q) + 1) / (q - psi(-1))`` — the upward
    ladder factor evaluated at the share exponent.  A Monte Carlo estimate
    of it (:func:`wiener_hopf_check`) has a finite variance only when
    ``E[e^(2 sup)] < inf``, the same factor at exponent 2, i.e. only when
    ``q > psi(-2)``.
    """
    if not meets_discount_condition(model, q):
        raise MomentConditionError(
            "the supremum moment needs q above the exponential growth rate")
    ph = phi(model, q)
    return (q / ph) * (ph + 1.0) / (q - exp_growth_rate(model))


def wiener_hopf_check(model: LevyModel, q: float,
                      config: SimConfig) -> PayoffEstimate:
    """MC of ``E[e^(sup X up to an independent Exp(q) clock)]``.

    Compare against :func:`sup_exponential_moment`; clocks beyond the
    horizon are truncated there (error of order ``e^(-q horizon)``).

    A comparison within three standard errors needs ``E[e^(2 sup)] < inf``,
    i.e. ``q > psi(-2)``; otherwise the sample has infinite variance and
    its standard error is no yardstick.  That fails for the Brownian model
    with ``b2 = 2`` at ``q <= 4`` (``psi(-2) = 4``), and for every model
    with exponential jumps of decay ``<= 2``, where ``psi(-2)`` diverges.
    """
    if q <= 0.0:
        raise DomainError("q must be positive")
    clock = np.empty(config.n_paths)
    sup = np.zeros(config.n_paths)

    def draw_clocks(rng: np.random.Generator, chunk: slice) -> None:
        clock[chunk] = rng.exponential(1.0 / q, chunk.stop - chunk.start)

    if model.b2 > 0.0:
        dt = config.dt
        n_steps = _grid_steps(config)

        def step(b: _Block, rng) -> np.ndarray:
            kill_col = np.minimum((clock[b.rows] / dt).astype(int), n_steps - 1)
            cols = b.post.shape[1]
            smax = np.maximum(b.smax, b.post)
            # only segments before the exponential clock contribute
            within = (b.col0 + np.arange(cols))[None, :] <= kill_col[:, None]
            sup[b.rows] = np.maximum(sup[b.rows],
                                     np.where(within, smax, -np.inf).max(axis=1))
            return kill_col >= b.col0 + cols

        _grid_sweep(model, config, _TAG_SUP, step, draw_clocks)
    else:
        for c in _event_tableau(model, config, _TAG_SUP, draw_clocks):
            use = c.valid & (c.jt <= np.minimum(clock[c.rows], config.horizon)[:, None])
            sup[c.rows] = np.maximum(np.where(use, c.post, -np.inf).max(axis=1), 0.0)
    return _to_estimate(np.exp(sup))


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
    payoffs = _estimate_variants(model, params, variants, config)
    center = _to_estimate(payoffs[0])
    budget = _truncation_bound(model, params.q, x, config.horizon,
                               params.beta, params.K)
    comps = []
    for (lbl, direction), pv in zip(_SADDLE_SIDES, payoffs[1:]):
        diff = pv - payoffs[0]
        gap = float(np.mean(diff))
        gse = float(np.std(diff, ddof=1)) / math.sqrt(len(diff)) \
            if len(diff) > 1 else 0.0
        violation = gap if direction == "<=" else -gap
        comps.append(SaddleComparison(
            label=lbl, direction=direction, estimate=_to_estimate(pv),
            gap=gap, gap_stderr=gse, verdict=_verdict(violation, gse, budget)))
    return SaddleReport(equilibrium=center, comparisons=tuple(comps))
