"""Regime classification, thresholds and valuation for the perpetual
convertible-bond stopping game.

The bond pays coupons ``alpha + beta * exp(X_t)`` until the first of two
stopping decisions: the holder converts (collecting the share value
``exp(X)``, floored at nothing) or the issuer calls (paying the cap ``K``,
or the share value if conversion is already in the money).  Discounting at
rate ``q``, the equilibrium value falls into one of four regimes driven by
two critical discount rates ``q0 >= q1 > alpha/K``:

``R1`` (``q <= alpha/K``)
    coupons outweigh discounting so the issuer calls immediately;
    the value is ``max(K, exp(x))``.
``R2`` (``q >= q0``)
    the holder converts first at ``log a_star`` below the issuer's cap.
``R3`` (``q1 <= q < q0``, Gaussian part present)
    both players stop at ``log K`` simultaneously.
``R4`` (``alpha/K < q < q1``)
    the issuer calls early at ``c_star < log K``.

Both critical rates are ``psi`` of a root in ``theta = Phi(q)`` of one
function, ``alpha (theta+1) - K theta (psi(theta) - psi(-1) - beta)`` less
``theta (theta+1) K b^2/2`` for ``q1``.  Each is ``alpha`` at ``theta = 0`` and
changes sign once, so ``Phi(q0)`` is bracketed on ``[0, 2^k]`` and ``Phi(q1)``
on ``[0, Phi(q0)]``: a classification inverts ``psi`` only at ``q`` itself.
The three searches share ``psi`` values through the model's own memo.

Every value below is one fluctuation identity in ``W``: the R2 premium
kernel, the exit transform ``Z - (q/Phi) W`` and the R3 and R4 values each
make a single ``scale._w_combination`` call, one per value profile, with
coefficients that cancel the ``exp(Phi * v)`` growth.  R4's jump-overshoot
term is that call's ``d`` coefficient: the killed resolvent against what a
jump clearing ``log K`` pays over the cap (``model.jump_excess``).  Small-z
``g`` is the inverse of its own Laplace transform, one ``scale._w_resolvent``
call over all the small-z points of a profile.  This module makes no
scale-route decision: how each route evaluates these, and how accurately,
is in the ``scale`` docstring.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DomainError, RegimeError
from .model import (
    LevyModel,
    _root_past,
    brentq,
    exp_growth_rate,
    jump_intensity,
    laplace_exponent,
    phi,
    require_discount_condition,
    shifted_jump_integrals,
)
from .scale import (
    _LOG_MAX,
    _combination_at_zero,
    _w_at_zero,
    _w_combination,
    _w_resolvent,
    scale_evaluator,
)

logger = logging.getLogger(__name__)

# g_function below this z inverts its own transform
_G_SMALL_Z = 0.1

__all__ = [
    "Regime",
    "ImmediateStop",
    "IMMEDIATE_STOP",
    "GameParams",
    "RegimeSolution",
    "FitKind",
    "FitReport",
    "a_star",
    "q0",
    "q1",
    "classify",
    "c_star",
    "call_boundary_value",
    "g_function",
    "exit_expectation",
    "value",
    "value_profile",
    "fit_report",
]


class Regime(enum.Enum):
    """Which of the four equilibrium patterns the parameters produce."""

    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"


class ImmediateStop:
    """Sentinel threshold: the issuer calls at time zero (regime R1)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ImmediateStop"


IMMEDIATE_STOP = ImmediateStop()


@dataclass(frozen=True)
class GameParams:
    """Contract parameters: coupon floor, proportional coupon, discount, cap."""

    alpha: float
    beta: float
    q: float
    K: float

    def __post_init__(self):
        checks = [
            (self.alpha > 0.0, "alpha must be > 0"),
            (self.beta > 0.0, "beta must be > 0"),
            (self.q > 0.0, "q must be > 0"),
            (self.K > 0.0, "K must be > 0"),
        ]
        for ok, msg in checks:
            if not ok or not all(map(math.isfinite, (self.alpha, self.beta, self.q, self.K))):
                raise DomainError(f"invalid game parameters: {msg}")


@dataclass(frozen=True)
class RegimeSolution:
    """Classification output: regime, critical rates and thresholds.

    ``tau_level`` is the holder's conversion threshold and ``sigma_level``
    the issuer's call threshold, both in log-price scale;
    ``sigma_level`` is the :data:`IMMEDIATE_STOP` sentinel in regime R1.
    Plain data: :func:`value` evaluates ``V`` from it.
    """

    regime: Regime
    q0: float
    q1: float
    a_star: float | None
    c_star: float | None
    tau_level: float
    sigma_level: float | ImmediateStop


def a_star(model: LevyModel, params: GameParams) -> float:
    """Share level at which the holder converts in regime R2.

    Strictly decreasing in ``q``, exploding at ``psi(-1) + beta`` and
    vanishing at infinity; only defined beyond the explosion point.
    """
    growth = exp_growth_rate(model)
    if not (params.q > growth + params.beta):
        raise DomainError(
            f"a_star needs q > psi(-1) + beta = {growth + params.beta:g}, got q={params.q:g}"
        )
    ph = phi(model, params.q)
    return params.alpha * (ph + 1.0) / (ph * (params.q - growth - params.beta))


def _holder_condition(model: LevyModel, params: GameParams, theta: float) -> float:
    """``F0 = alpha (theta+1) - K theta (psi(theta) - psi(-1) - beta)``; its
    zero on ``(0, inf)`` is ``Phi(q0)``, where ``a_star`` at ``q = psi(theta)``
    falls through ``K``.  ``F0 = -theta (theta+1) h0`` with ``h0 = K (psi(theta)
    - psi(-1))/(theta+1) - K beta/(theta+1) - alpha/theta``, whose three terms
    (the secant slope of convex ``psi`` from -1 first) strictly increase on
    ``(0, inf)``: so ``F0(0) = alpha > 0`` and ``F0`` changes sign once.
    At 0 it returns ``alpha``, the exact value, without evaluating ``psi``.
    ``psi(-1)`` is the model's constant, ``psi(theta)`` read from its memo."""
    if theta == 0.0:
        return float(params.alpha)
    return (params.alpha * (theta + 1.0) - params.K * theta
            * (laplace_exponent(model, theta) - exp_growth_rate(model) - params.beta))


def _boundary_condition(model: LevyModel, params: GameParams, theta: float) -> float:
    """Issuer boundary condition ``F0 - theta (theta+1) K b^2/2`` (``F0`` is
    :func:`_holder_condition`), ``-theta (theta+1) (h0 + K b^2/2)``: ``alpha``
    at 0, ``-Phi(q0) (Phi(q0)+1) K b^2/2`` at ``Phi(q0)``, ``Phi(q1)`` between."""
    return (_holder_condition(model, params, theta)
            - theta * (theta + 1.0) * params.K * model.b2 / 2.0)


def _phi_q0(model: LevyModel, params: GameParams) -> float:
    if exp_growth_rate(model) == math.inf:
        raise DomainError("the critical rates need a finite psi(-1)")
    return _root_past(lambda th: _holder_condition(model, params, th), 0.0,
                      float(params.alpha), BracketError("holder threshold never crosses the cap"))


def _critical_rates(model: LevyModel, params: GameParams) -> tuple[float, float]:
    """``(q0, q1)`` from one ``Phi(q0)``, whose ``psi`` both rates and ``q1``'s
    search read from the model's memo."""
    theta0 = _phi_q0(model, params)
    rate0 = laplace_exponent(model, theta0)
    return rate0, (rate0 if model.b2 == 0.0 else laplace_exponent(model, brentq(
        lambda th: _boundary_condition(model, params, th), 0.0, theta0)))


def q0(model: LevyModel, params: GameParams) -> float:
    """Critical discount rate where the holder threshold crosses the cap ``K``:
    ``psi`` of the root of :func:`_holder_condition` on ``[0, 2^k]``."""
    return laplace_exponent(model, _phi_q0(model, params))


def q1(model: LevyModel, params: GameParams) -> float:
    """Critical rate below which the issuer calls strictly before the cap:
    ``psi`` of the root of :func:`_boundary_condition` on ``[0, Phi(q0)]``,
    or ``q0`` when there is no Gaussian part."""
    return _critical_rates(model, params)[1]


def classify(model: LevyModel, params: GameParams) -> RegimeSolution:
    """Classify the game and assemble its critical rates and thresholds.

    Its searches share the model's memo, so a cold classification evaluates
    ``psi`` at each ``theta`` once; in R4 it finds ``c*`` with no second regime check."""
    require_discount_condition(model, params.q)
    qv, K = params.q, params.K
    log_k = math.log(K)
    q0_val, q1_val = _critical_rates(model, params)
    # the critical rates are root-finder outputs; comparing against them with
    # a few-ulp band keeps an intended exact tie from landing on the wrong side
    band = 1e-12

    if qv <= params.alpha / K:
        regime, a_val, c_val = Regime.R1, None, None
        tau, sigma = log_k, IMMEDIATE_STOP
    elif qv >= q0_val - band * max(1.0, q0_val):
        regime, c_val = Regime.R2, None
        a_val = a_star(model, params)
        tau, sigma = math.log(a_val), log_k
        if abs(qv - q0_val) <= 1e-12 * max(1.0, q0_val):
            logger.info(
                "discount rate sits on the upper critical rate; the "
                "holder-first and simultaneous strategy pairs coincide there"
            )
    elif model.b2 > 0.0 and qv >= q1_val - band * max(1.0, q1_val):
        regime, a_val, c_val = Regime.R3, None, None
        tau = sigma = log_k
    else:
        regime, a_val = Regime.R4, None
        c_val = _issuer_threshold(model, params)
        tau, sigma = log_k, c_val

    return RegimeSolution(
        regime=regime, q0=q0_val, q1=q1_val, a_star=a_val, c_star=c_val,
        tau_level=tau, sigma_level=sigma,
    )


# --------------------------------------------------------------------------- #
# issuer threshold (regime R4)
# --------------------------------------------------------------------------- #

def call_boundary_value(model: LevyModel, params: GameParams, c: float) -> float:
    """Candidate-strategy value just below an issuer threshold at ``c``.

    Continuous and increasing in ``c``; the optimal threshold is the unique
    point where it meets the cap ``K``.  Tends to ``K - (Kq - alpha)/Phi``
    far below and exceeds ``K`` near ``log K`` precisely when ``q < q1``.
    """
    return _call_boundary_value(model, params, phi(model, params.q), c)


def _call_boundary_value(model: LevyModel, params: GameParams, ph: float,
                         c: float) -> float:
    """:func:`call_boundary_value` given ``ph = Phi(q)``."""
    s = math.log(params.K) - c
    i1, i2 = shifted_jump_integrals(model, s, ph)
    return (params.K * (1.0 - params.q / ph)
            + params.alpha / ph
            + params.beta * math.exp(c) / (ph + 1.0)
            + params.K * (i2 / (ph + 1.0) - i1 / ph))


def c_star(model: LevyModel, params: GameParams) -> float:
    """Issuer's early-call threshold in regime R4, ``alpha/K < q < q1``;
    :class:`RegimeError` elsewhere."""
    qv, K = params.q, params.K
    q1_val = q1(model, params)
    if not (params.alpha / K < qv < q1_val):
        raise RegimeError(
            f"issuer threshold exists only for alpha/K < q < q1 "
            f"({params.alpha / K:g} < q < {q1_val:g}), got q={qv:g}"
        )
    return _issuer_threshold(model, params)


def _issuer_threshold(model: LevyModel, params: GameParams) -> float:
    """:func:`c_star` once R4 is known: ``log K - s``, where the excess
    ``call_boundary_value(log K - s) - K`` is positive at ``s = 1e-10`` and
    changes sign once, so ``model._root_past`` brackets it on ``[1e-10, 2^k]``."""
    K = params.K
    ph = phi(model, params.q)
    log_k = math.log(K)

    def excess(s: float) -> float:
        return _call_boundary_value(model, params, ph, log_k - s) - K

    near = excess(1e-10)
    if not (near > 0.0):
        raise BracketError(
            "boundary value does not exceed the cap below log K; "
            "thresholds are inconsistent with the classified regime"
        )
    return log_k - _root_past(excess, 1e-10, near,
                              BracketError("no lower bracket for the issuer threshold"))


# --------------------------------------------------------------------------- #
# scale-function combinations
# --------------------------------------------------------------------------- #

def g_function(model: LevyModel, q: float, z_arg):
    """Premium kernel of regime R2: zero at zero and strictly increasing.

    Defined as ``(Phi+1) int_0^z e^(y-z) W(y) dy - Phi int_0^z W(y) dy``;
    the holder's coupon premium at distance ``z`` below the conversion level
    is ``alpha/Phi`` times this.  The grouped combination adds O(1) terms
    whose sum is O(z^2), so below ``_G_SMALL_Z`` ``g`` is the inverse of its
    own transform ``(s - Phi)/(s (s+1) (psi(s) - q))``, in which nothing
    cancels, by ``scale._w_resolvent`` on either scale route.  For an array
    ``z_arg`` the points below ``_G_SMALL_Z`` make one ``_w_resolvent`` call
    and the points from it up one ``_w_combination`` call.
    """
    z = np.asarray(z_arg, dtype=float)
    if not (z >= 0.0).all():
        raise DomainError(f"g_function needs z >= 0, got {z_arg}")
    g = np.zeros(z.shape)
    if z.any():
        ev = scale_evaluator(model, q)
        ph, small, big = ev.phi_q, (z > 0.0) & (z < _G_SMALL_Z), z >= _G_SMALL_Z
        if small.any():
            g[small] = _w_resolvent(ev, z[small], lambda s, step: (s - ph) / (s * (s + 1.0)))
        g[big] = ph / q + _w_combination(ev, z[big], 0.0, -ph, ph + 1.0)
    return float(g) if z.ndim == 0 else g


def exit_expectation(model: LevyModel, q: float, y: float) -> float:
    """Discounted chance of the dual process exiting below before ``e_q``.

    ``Z(y) - (q/Phi) W(y)``: the Laplace transform of an upcrossing time of
    level ``y`` started at zero, hence in ``(0, 1]`` and 1 for ``y < 0``.
    At ``y = 0`` the formula is kept: it gives 1 when paths leave zero
    upward instantly (Gaussian part present) and ``1 - q/(Phi d)`` for
    bounded variation, where the downward drift makes the crossing wait
    for a jump.
    """
    if y < 0.0:
        return 1.0
    ev = scale_evaluator(model, q)
    return q / ev.phi_q * _w_combination(ev, y, -1.0, ev.phi_q, 0.0)


# --------------------------------------------------------------------------- #
# value function
# --------------------------------------------------------------------------- #

def value(model: LevyModel, params: GameParams, solution: RegimeSolution,
          x: float) -> float:
    """Equilibrium bond value at log share price ``x``: a one-point :func:`value_profile`."""
    return float(value_profile(model, params, solution, [x])[0])


def _r3_coefficients(model: LevyModel, params: GameParams, ph: float) -> tuple[float, ...]:
    """``(a, b, c)`` of the R3 value's ``_w_combination``, given ``ph = Phi(q)``.

    The joint stop pays the share itself, so no jump term enters."""
    s = params.q - exp_growth_rate(model) - params.beta
    return params.alpha / ph - params.K * s / (ph + 1.0), -params.alpha, s * params.K


def _r4_coefficients(model: LevyModel, params: GameParams, c: float) -> tuple[float, ...]:
    """``(a, b, c, d, m)`` of the R4 value's ``_w_combination`` below the
    issuer threshold ``c = c*``.  A jump from ``y`` below ``c`` pays
    ``K G(m + y)`` over the cap (``m = log K - c``), so the overshoot is
    ``J W(v) - K integral_0^v W(v - y) G(m + y) dy`` with
    ``J = K (I2/(Phi+1) - I1/Phi)``: ``d = K`` (0 without jumps), and ``a``
    with ``J`` in it is ``call_boundary_value(c) - K``, zero at ``c*`` by
    the definition of ``c*``: ``a`` is 0, and no jump integral pair is
    formed for it (computed, it is rounding noise of order 1e-16)."""
    K = params.K
    d = K if jump_intensity(model) > 0.0 else 0.0
    return 0.0, K * params.q - params.alpha, -params.beta * math.exp(c), d, math.log(K) - c


def value_profile(model: LevyModel, params: GameParams,
                  solution: RegimeSolution, xs) -> np.ndarray:
    """Equilibrium bond value at each log share price of ``xs``: the payoff at
    and above the regime's boundary, one ``_w_combination`` call over the
    points below it (R2's small-z points invert ``g``'s own transform) and
    the limit ``alpha/q`` at ``x = -inf``.  A NaN point raises DomainError."""
    x = np.asarray(xs, dtype=float)
    if np.isnan(x).any():
        raise DomainError("value needs a log share price, got nan")
    K, qv, alpha, regime = params.K, params.q, params.alpha, solution.regime
    # math.exp rounds as the payoff max(K, e^x) is stated; numpy's vector exp
    # may differ from it in the last bit.  Past log(float max) the share is inf
    share = np.array([math.exp(xv) if xv <= _LOG_MAX else math.inf for xv in x.tolist()])
    out = np.maximum(K, share) if regime in (Regime.R1, Regime.R4) else share.copy()
    # R1 calls at once, so no point lies below its boundary
    edge = {Regime.R1: -math.inf, Regime.R2: solution.tau_level,
            Regime.R3: math.log(K)}.get(regime, solution.c_star)
    below = x < edge
    out[below] = alpha / qv  # the x -> -inf limit; finite points are set below
    live = below & (x > -math.inf)
    if not live.any():
        return out
    ev = scale_evaluator(model, qv)
    v, ph = edge - x[live], ev.phi_q
    if regime is Regime.R2:
        out[live] = share[live] + alpha / ph * g_function(model, qv, v)
    elif regime is Regime.R3:
        out[live] = (share[live] + alpha / qv
                     + _w_combination(ev, v, *_r3_coefficients(model, params, ph)))
    else:
        out[live] = alpha / qv + _w_combination(
            ev, v, *_r4_coefficients(model, params, solution.c_star))
    return out


# --------------------------------------------------------------------------- #
# fit diagnostics
# --------------------------------------------------------------------------- #

class FitKind(enum.Enum):
    """Expected boundary regularity of the value function."""

    CONTINUOUS_ONLY = "ContinuousOnly"
    SMOOTH = "Smooth"
    NEITHER_INTERIOR = "NeitherInterior"


@dataclass(frozen=True)
class FitReport:
    """One-sided limits of ``V`` and ``V'`` at the active stopping boundary."""

    boundary: float
    left_value: float
    right_value: float
    left_deriv: float
    right_deriv: float
    expected_kind: FitKind


def fit_report(model: LevyModel, params: GameParams, solution: RegimeSolution,
               h: float | None = None) -> FitReport:
    """Exact one-sided limits of ``V`` and ``V'`` at the stopping boundary.

    Above the boundary they are the payoff's.  Below it ``V`` is payoff terms
    plus ``_w_combination(v; a, b, c, d, m)`` at distance ``v``, which tends
    to ``a w0 + b/q`` as ``v -> 0+``, with ``v``-derivative
    ``a w0' + (b + c) w0 - d w0 G(m)`` (``w0 = W(0+)``, ``w0' = W'(0+)``,
    ``G = model.jump_excess``).  So ``V'(log a*-) = a* - (alpha/Phi) w0`` in
    R2, ``V'(log K-) = K - (a w0' + (b + c) w0)`` in R3, and in R4, where
    ``a = call_boundary_value(c*) - K`` is 0, ``V(c*-) = K``.  This is the paper's
    criterion: ``V`` pastes continuously at every boundary, and smoothly at
    ``log a*`` and ``c*`` exactly when ``W(0+) = 0`` (unbounded variation);
    at the cap in R3 only at the critical rates.  No scale evaluator is
    built.  ``h``, the step of the finite-difference stencil these limits
    replace, is validated but not read.
    """
    if h is not None and not (0.0 < h <= 1e-2):
        raise DomainError(f"fit step must lie in (0, 1e-2], got {h}")
    K, qv, alpha = params.K, params.q, params.alpha
    ph = phi(model, qv)
    w0 = _w_at_zero(model, qv)[0]
    pasting = FitKind.SMOOTH if w0 == 0.0 else FitKind.CONTINUOUS_ONLY
    if solution.regime is Regime.R1:
        limits, kind = (math.log(K), K, K, 0.0, K), FitKind.CONTINUOUS_ONLY
    elif solution.regime is Regime.R2:
        a = solution.a_star
        limits, kind = (solution.tau_level, a, a, a - alpha / ph * w0, a), pasting
    elif solution.regime is Regime.R3:
        at_zero, slope = _combination_at_zero(model, qv, *_r3_coefficients(model, params, ph))
        limits = (math.log(K), K + alpha / qv + at_zero, K, K - slope, K)
        at_edge = any(abs(qv - edge) <= 1e-9 * max(1.0, edge)
                      for edge in (solution.q0, solution.q1))
        kind = FitKind.SMOOTH if at_edge else FitKind.NEITHER_INTERIOR
    else:
        at_zero, slope = _combination_at_zero(
            model, qv, *_r4_coefficients(model, params, solution.c_star))
        limits = (solution.c_star, alpha / qv + at_zero, K, -slope, 0.0)
        kind = pasting
    return FitReport(*limits, expected_kind=kind)
