"""Monte Carlo estimators verifying the analytic layer independently.

One exact engine runs every estimator: the *event tableau*
(:func:`_event_tableau`).  Jump epochs and sizes are simulated exactly and
the path is laid out piece by piece between them.  Without a Gaussian part
each piece is linear and runs downhill, so upward passages happen only at
jumps.  With one, each piece is a Brownian motion with drift: one Gaussian
endpoint and one exact bridge maximum per piece.  No time grid enters, so
no estimator reads ``SimConfig.dt``.

The estimators read the pieces as follows:

* :func:`_passages` gives the first passage above each of the sorted,
  distinct levels of one call, drawn jointly so that every path passes its
  levels in order.  :func:`upcrossing_discount_profile` and every game-value
  variant of one call read this one set of passages, which is what keeps
  the paired comparisons of :func:`saddle_check` sharp (common random
  numbers);
* a game value needs only the passage ``(rho, X_rho)`` of the lower
  threshold: the coupons and the perpetual completion enter through a
  martingale of known mean (:func:`_variant_payoffs`), and a jump passage's
  payoff is averaged over the crossing jump's size;
* :func:`two_sided_exit` cuts pieces at Gaussian bridge midpoints until at
  most one barrier is within reach, with a stated bias bound;
* :func:`wiener_hopf_check` takes exact piece maxima up to an exponential
  clock and a bridge draw in the piece that holds it, and averages each
  jump past the running maximum over the jump's size.

Randomness is counter-based (Philox), so every estimate is bit-reproducible
for a fixed seed regardless of scheduling.  The stream layout is part of
that contract:

* paths run in chunks of ``_CHUNK``, and chunk ``k`` of an estimator draws
  from one generator keyed by ``(seed, tag, k)``; the tags are
  ``_TAG_VALUE = 1`` (game values and saddle checks), ``_TAG_UPCROSS = 2``,
  ``_TAG_TWOSIDED = 3`` and ``_TAG_SUP = 4``;
* a chunk first makes its estimator's own draws (the ``Exp(q)`` clocks of
  :func:`wiener_hopf_check`), then the tableau's: the jump counts, the
  epoch uniforms and the jump-size uniforms (the counts and sizes only for
  a model with jumps; ``rows x m`` slots, ``m`` the largest count in the
  chunk and at least 1).  With a Gaussian part there follow one standard
  normal per piece between jumps, then one bridge uniform per piece (both
  ``rows x (m + 1)``, pieces past the horizon included);
* then the estimator's draws after the paths.  :func:`_passages` draws,
  level by level in ascending order: one uniform per path that passed the
  level below continuously (does the rest of that piece pass this level?),
  then one inverse Gaussian (``Generator.wald``) per continuous passage from
  below the level, rows ascending in both.  No inverse Gaussian is drawn
  without a Gaussian part, so there it draws nothing.
  :func:`two_sided_exit` works in rounds over the pieces
  not yet settled, held first as the tableau's (rows ascending, each row's
  pieces in time order) and then as the first halves of the last round's
  cut pieces followed by their second halves; a round draws one uniform
  per settled piece, one inverse Gaussian per lower-barrier crossing (with
  a Gaussian part), then one standard normal per cut piece.
  :func:`wiener_hopf_check` draws one standard normal and then one uniform
  per path.

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
    _m1,
    exp_growth_rate,
    jump_intensity,
    jump_passage_means,
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
_CHUNK = 4096       # paths simulated simultaneously
_MAX_JUMPS = 4096   # expected jumps per path the event tableau accepts (128 MB per array)
_EXIT_EPS = 1e-15   # crossing mass two_sided_exit may neglect per settled piece

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


def mc_eligible(model: LevyModel) -> bool:
    """Whether the event engine can simulate this model faithfully.

    Everything with a Gaussian part or a moderate-rate compound-Poisson jump
    part qualifies; a pure-jump model of enormous activity would drown the
    event engine in bookkeeping noise and is flagged instead of simulated.
    Eligibility does not depend on the horizon: every estimator also raises
    :class:`DomainError` when ``rate x horizon`` exceeds ``_MAX_JUMPS``
    expected jumps per path, whatever the Gaussian part.
    """
    return model.b2 > 0.0 or jump_intensity(model) <= 1e6


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
    rate = jump_intensity(model)
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
                model, rng.random((rows, m)).reshape(-1)).reshape(rows, m), 0.0)
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


def _passages(model: LevyModel, c: _Tableau, levels: Sequence[float],
              T: float) -> list[_Passage]:
    """First passages above ascending, distinct ``levels >= 0``, drawn jointly.

    A level is first passed in the first piece whose bridge maximum exceeds
    it, or at the first jump that lands above it.  A jump passage happens at
    the jump's epoch; a continuous one lands on the level at a time drawn by
    :func:`_bridge_passage`, and a piece that starts on the level passes it
    at its start.  Once a level is passed continuously at ``t_i`` in a piece
    ending at ``b`` at ``t1``, the rest of that piece is a bridge from
    ``(t_i, L_i)``: it passes the next level ``L`` with probability
    ``exp(-2 (L - L_i)(L - b) / (b^2 (t1 - t_i)))`` (one uniform), at
    ``t_i`` plus a fresh bridge passage time.  Else the closing jump or the
    later pieces pass it, as for the first level.  So every path passes its
    levels in order, and each passage has its exact law.
    """
    n, width = c.t0.shape
    cols = np.arange(width)
    # the jump closing each piece, as a (rows x pieces) mask; the last piece
    # closes at the horizon
    over = np.zeros((n, width), dtype=bool)
    over[:, :-1] = c.valid & (c.jt < T)
    post = np.concatenate([c.post, np.zeros((n, 1))], axis=1)
    piece = np.full(n, -1)              # piece of the previous passage
    t_prev = np.zeros(n)                # its time, inf where it never came
    cont = np.zeros(n, dtype=bool)      # the previous passage was continuous
    last = 0.0                          # the previous level
    out = []
    for lvl in levels:
        t = np.full(n, math.inf)
        pos = np.full(n, math.nan)
        pre = np.full(n, math.nan)
        p_at = np.full(n, -1)           # piece of this passage
        t_from = np.full(n, math.nan)   # start of a continuous passage's bridge
        x_from = np.full(n, math.nan)
        # the rest of the piece that passed the previous level continuously
        r = np.nonzero(cont)[0]
        pr = piece[r]
        with np.errstate(divide="ignore", over="ignore"):
            chance = np.exp(-2.0 * (lvl - last) * (lvl - c.pre[r, pr])
                            / (model.b2 * (c.t1[r, pr] - t_prev[r])))
        again = c.rng.random(len(r)) < chance
        p_at[r[again]] = pr[again]
        t_from[r[again]] = t_prev[r[again]]
        x_from[r[again]] = last
        # else the jump closing that piece (the last column of ``over`` is
        # False, so before the first level nothing), then the pieces after it
        r = np.nonzero(np.isfinite(t_prev) & (p_at < 0))[0]
        pr = piece[r]
        jumped = over[r, pr] & (post[r, pr] > lvl)
        t[r[jumped]] = c.jt[r[jumped], pr[jumped]]
        p_at[r[jumped]] = pr[jumped]
        r = r[~jumped]
        cross = c.smax[r] > lvl
        cross |= over[r] & (post[r] > lvl)
        cross &= cols[None, :] > piece[r, None]
        first = np.argmax(cross, axis=1)
        hit = _at(cross, first) & (c.t0[r, first] < T)
        r, first = r[hit], first[hit]
        p_at[r] = first
        inside = c.smax[r, first] > lvl
        t[r[~inside]] = c.jt[r[~inside], first[~inside]]
        t_from[r[inside]] = c.t0[r[inside], first[inside]]
        x_from[r[inside]] = c.y0[r[inside], first[inside]]
        # continuous passages land on the level at an exact bridge time
        r = np.nonzero(~np.isnan(t_from))[0]
        pr = p_at[r]
        t[r] = t_from[r]
        below = x_from[r] < lvl
        r, pr = r[below], pr[below]
        t[r] += _bridge_passage(c.rng, model.b2, x_from[r], lvl, c.pre[r, pr],
                                c.t1[r, pr] - t_from[r])
        cont = ~np.isnan(t_from)
        pos[cont] = lvl
        r = np.nonzero(np.isfinite(t) & ~cont)[0]
        pos[r] = post[r, p_at[r]]
        pre[r] = c.pre[r, p_at[r]]
        out.append(_Passage(t, pos, pre))
        piece, t_prev, last = p_at, t, lvl
    return out


# --------------------------------------------------------------------------- #
# game values (chunked, shared-noise variants)
# --------------------------------------------------------------------------- #

def _estimate_variants(model: LevyModel, params, variants: Sequence[tuple],
                       config: SimConfig) -> list[np.ndarray]:
    """Per-path payoffs for each ``(x, tau_level, sigma_spec)`` variant.

    All variants ride the same simulated noise (the path of X minus its
    start), which is what gives paired comparisons their power.  Variants
    that stop at time zero (immediate call, or a start already beyond a
    threshold) are deterministic and skip the simulation.  The estimator
    takes the live variants as ``(x, tau_level - x, sigma_level - x)``:
    thresholds relative to the shared zero-started path.
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
        for i, pv in zip(live_idx, _variant_payoffs(model, params, live, config)):
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
    """Estimates at several starting points sharing one set of paths."""
    variants = [(float(x), tau_level, sigma_spec) for x in starts]
    return [_to_estimate(pv)
            for pv in _estimate_variants(model, params, variants, config)]


def _variant_payoffs(model: LevyModel, params, variants, config) -> np.ndarray:
    """Per-path payoffs of the live variants, from the passage ``(rho, X_rho)``
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
    out = np.empty((len(variants), config.n_paths))
    for c in _event_tableau(model, config, _TAG_VALUE):
        passes = _passages(model, c, levels, config.horizon)
        for vi, (x, lt, ls) in enumerate(variants):
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
            out[vi, c.rows] = y
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
    hit_t = np.full((len(distinct), config.n_paths), math.inf)
    for c in _event_tableau(model, config, _TAG_UPCROSS):
        for i, p in enumerate(_passages(model, c, distinct, config.horizon)):
            hit_t[i, c.rows] = p.t
    return [_to_estimate(_discounted(hit_t[distinct.index(y)], q)) for y in lv]


def two_sided_exit(model: LevyModel, p: float, down: float, up: float,
                   config: SimConfig) -> PayoffEstimate:
    """MC of ``E[e^(-p tau_down) 1{down before up}]`` from a start at zero.

    ``down > 0`` is the distance to the lower barrier, ``up > 0`` to the
    upper one; downward passage creeps (no undershoot) for every supported
    model, which is what the scale-ratio identity relies on.

    Each piece between jumps is a bridge.  While both barriers' crossing
    probabilities on a piece exceed ``_EXIT_EPS`` it is cut at its midpoint,
    whose value is a Gaussian bridge draw; once one of them is at most
    ``_EXIT_EPS``, that barrier is taken as not crossed there and the other
    is settled by one uniform (and a passage time for the lower one).  A
    path exits at its earliest crossing, or at a jump onto the upper
    barrier.  The neglected crossing mass bounds the bias, since the payoff
    lies in ``[0, 1]``: it is at most ``_EXIT_EPS`` per settled piece, and
    its mean over the paths is returned as ``bias_bound``.
    """
    if down <= 0.0 or up <= 0.0:
        raise DomainError("barrier distances must be positive")
    if p < 0.0:
        raise DomainError("discount rate must be nonnegative")
    T, b2 = config.horizon, model.b2
    t_down = np.full(config.n_paths, math.inf)
    neglected = 0.0
    for c in _event_tableau(model, config, _TAG_TWOSIDED):
        # earliest exit found so far through each barrier; an upper exit is
        # dated by its piece's start, which orders it against the others
        jumped = c.valid & (c.post > up) & (c.jt < T)
        first = np.argmax(jumped, axis=1)
        at_up = np.where(_at(jumped, first), _at(c.jt, first), math.inf)
        at_down = np.full(len(at_up), math.inf)
        r, k = np.nonzero((c.t0 < T) & (c.y0 > -down) & (c.y0 < up))
        seg = (r, c.t0[r, k], c.t1[r, k], c.y0[r, k], c.pre[r, k])
        while len(seg[0]):
            # a piece that starts after a found exit cannot change it
            keep = seg[1] < np.minimum(at_up, at_down)[seg[0]]
            r, t0, t1, a, b = (v[keep] for v in seg)
            span = t1 - t0
            with np.errstate(divide="ignore", invalid="ignore"):
                p_up = np.where(b < up, np.exp(-2.0 * (up - a) * (up - b) / (b2 * span)), 1.0)
                p_dn = np.where(b > -down, np.exp(-2.0 * (a + down) * (b + down) / (b2 * span)), 1.0)
            settle = np.minimum(p_up, p_dn) <= _EXIT_EPS
            neglected += float(np.minimum(p_up, p_dn)[settle].sum())
            hit = np.zeros(len(r), dtype=bool)
            hit[settle] = c.rng.random(int(settle.sum())) < np.maximum(p_up, p_dn)[settle]
            dn = hit & (p_dn > p_up)
            np.minimum.at(at_up, r[hit & ~dn], t0[hit & ~dn])
            np.minimum.at(at_down, r[dn], t0[dn] + _bridge_passage(
                c.rng, b2, a[dn], -down, b[dn], span[dn]))
            cut = ~settle
            # the rest splits at a bridge midpoint; a half that starts outside
            # the band follows a crossing in the half before it
            mid = 0.5 * (a[cut] + b[cut]) + \
                np.sqrt(0.25 * b2 * span[cut]) * c.rng.standard_normal(int(cut.sum()))
            tm = 0.5 * (t0[cut] + t1[cut])
            seg = (np.concatenate([r[cut], r[cut]]), np.concatenate([t0[cut], tm]),
                   np.concatenate([tm, t1[cut]]), np.concatenate([a[cut], mid]),
                   np.concatenate([mid, b[cut]]))
            inside = (seg[3] > -down) & (seg[3] < up)
            seg = tuple(v[inside] for v in seg)
        t_down[c.rows] = np.where(at_down < at_up, at_down, math.inf)
    est = _to_estimate(_discounted(t_down, p))
    return PayoffEstimate(est.mean, est.stderr, est.n, neglected / config.n_paths)


def sup_exponential_moment(model: LevyModel, q: float) -> float:
    """Closed form of the exponential moment of the pre-``Exp(q)`` supremum.

    The running maximum at an independent exponential clock has
    ``E[e^(sup)] = (q / Phi(q)) (Phi(q) + 1) / (q - psi(-1))`` — the upward
    ladder factor evaluated at the share exponent.  The plain sample
    ``e^sup`` has a finite variance only when ``E[e^(2 sup)] < inf``, the
    same factor at exponent 2, i.e. only when ``q > psi(-2)``; see
    :func:`wiener_hopf_check` for the estimate compared against it.
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
    horizon are truncated there (error of order ``e^(-q horizon)``).  The
    pieces that end before the clock give their exact maxima; in the piece
    holding it, the bridge's value at the clock is a Gaussian draw, and its
    maximum up to the clock an exact bridge maximum.  A jump past the
    running maximum lifts ``e^sup`` by ``e^(overshoot)``; that factor is
    replaced by its mean over the jump's size (:func:`jump_passage_means`),
    which the rest of the path, taken relative to the jump, does not
    depend on.

    A comparison within three standard errors needs a finite variance.
    The plain sample ``e^sup`` has one only when ``q > psi(-2)``, which
    fails for every model with exponential jumps of decay ``<= 2``; the
    averaged lifts remove the jumps' ``E[e^(2Z)]`` from it, but not the
    Gaussian part's: with ``b2 = 2`` and no jumps the variance is still
    infinite at ``q <= 4`` (``psi(-2) = 4``).
    """
    if q <= 0.0:
        raise DomainError("q must be positive")
    T = config.horizon
    clock = np.empty(config.n_paths)
    sup = np.empty(config.n_paths)

    def draw_clocks(rng: np.random.Generator, chunk: slice) -> None:
        clock[chunk] = rng.exponential(1.0 / q, chunk.stop - chunk.start)

    for c in _event_tableau(model, config, _TAG_SUP, draw_clocks):
        clk = clock[c.rows]
        full = (c.t1 <= clk[:, None]) & (c.t0 < T)
        top = np.where(full, c.smax, -np.inf).max(axis=1)
        k = np.argmax(c.t1 > clk[:, None], axis=1)   # the piece holding the clock
        y0, end, t0, span = (_at(v, k) for v in (c.y0, c.pre, c.t0, c.length))
        frac = np.minimum((clk - t0) / span, 1.0)
        at = y0 + (end - y0) * frac + np.sqrt(model.b2 * span * frac * (1.0 - frac)) * \
            c.rng.standard_normal(len(clk))
        spread = -2.0 * model.b2 * span * frac * np.log(c.rng.random(len(clk)))
        sup[c.rows] = np.where(clk < T, np.maximum(top, _bridge_max(y0, at, spread)), top)
        # lifts by jumps past the running maximum, averaged over their sizes
        before = np.maximum.accumulate(c.smax[:, :-1], axis=1)
        lift = c.valid & (c.jt <= clk[:, None]) & (c.post > before)
        share, _ = jump_passage_means(model, c.pre[:, :-1][lift], before[lift])
        shift = np.zeros(lift.shape)
        shift[lift] = np.log(share) - c.post[lift]
        sup[c.rows] += shift.sum(axis=1)
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
