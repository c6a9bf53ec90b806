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

Closed-form valuation groups the partial-fraction root at ``Phi(q)``
analytically: in every combination used here its coefficient cancels
identically, and dropping that root (instead of letting rounding noise on it
multiply ``exp(Phi * v)``) is what keeps values finite digits deep in the
out-of-the-money region.  The remaining constants are evaluated through the
exact rational identities ``sum_i c_i / theta_i`` and
``sum_i c_i / (theta_i + 1)`` rather than re-derived quantities, so the
deep-tail limit ``alpha/q + beta exp(x)/(q - psi(-1))`` is reproduced to
machine precision.

For evaluators without partial fractions (tabulated densities) the same
formulas are evaluated by quadrature over the scale function.  Those
combinations cancel a component growing like ``exp(Phi * v)``, so their
accuracy degrades by that factor times the inversion error; with the
certified ~1e-9 inversion this is immaterial for thresholds within a few
units of ``log K`` but turns visible past ``Phi * v ~ 15``.
"""

from __future__ import annotations

import enum
import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from .errors import (
    BracketError,
    DivergentExponent,
    DomainError,
    MomentConditionError,
    QuadratureError,
    RegimeError,
)
from .model import (
    ExponentialJumps,
    LevyModel,
    NoJumps,
    TabulatedDensity,
    exp_growth_rate,
    meets_discount_condition,
    path_variation,
    phi,
    shifted_jump_integrals,
)
from .scale import ScaleEvaluator, _exp_increment, scale_evaluator, w, w_integrals, z

logger = logging.getLogger(__name__)

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
            (self.alpha >= 0.0, "alpha must be >= 0"),
            (self.beta > 0.0, "beta must be > 0"),
            (self.q > 0.0, "q must be > 0"),
            (self.K > 0.0, "K must be > 0"),
        ]
        for ok, msg in checks:
            if not ok or not all(map(math.isfinite, (self.alpha, self.beta, self.q, self.K))):
                raise DomainError(f"invalid game parameters: {msg}")


@dataclass(frozen=True, eq=False)
class RegimeSolution:
    """Classification output: regime, critical rates, thresholds and V.

    ``tau_level`` is the holder's conversion threshold and ``sigma_level``
    the issuer's call threshold, both in log-price scale;
    ``sigma_level`` is the :data:`IMMEDIATE_STOP` sentinel in regime R1.
    ``value`` is attached by :func:`classify` as a closure over the inputs.
    """

    regime: Regime
    q0: float
    q1: float
    a_star: float | None
    c_star: float | None
    tau_level: float
    sigma_level: float | ImmediateStop
    value: Callable[[float], float] | None


def _require_assumption(model: LevyModel, params: GameParams) -> None:
    if not meets_discount_condition(model, params.q):
        raise MomentConditionError(
            f"discount rate q={params.q:g} does not exceed the share growth "
            f"rate psi(-1)={exp_growth_rate(model):g}; the expected payoff "
            "diverges and the game has no finite value"
        )


def _a_star_formula(model: LevyModel, params: GameParams, q: float) -> float:
    """Holder-threshold formula without the domain gate (used by scans)."""
    ph = phi(model, q)
    return params.alpha * (ph + 1.0) / (ph * (q - exp_growth_rate(model) - params.beta))


def a_star(model: LevyModel, params: GameParams) -> float:
    """Share level at which the holder converts in regime R2.

    Strictly decreasing in ``q``, exploding at ``psi(-1) + beta`` and
    vanishing at infinity; only defined beyond the explosion point.
    """
    floor = exp_growth_rate(model) + params.beta
    if not (params.q > floor):
        raise DomainError(
            f"a_star needs q > psi(-1) + beta = {floor:g}, got q={params.q:g}"
        )
    return _a_star_formula(model, params, params.q)


def q0(model: LevyModel, params: GameParams) -> float:
    """Critical discount rate where the holder threshold crosses the cap ``K``."""
    floor = exp_growth_rate(model) + params.beta
    lo = max(floor, 0.0) + 1e-10 * (1.0 + abs(floor))
    hi = lo + max(1.0, abs(lo))
    while _a_star_formula(model, params, hi) >= params.K:
        hi = lo + 2.0 * (hi - lo)
        if hi > 1e12:
            raise BracketError("holder threshold never crosses the cap")
    root = brentq(
        lambda qq: _a_star_formula(model, params, qq) - params.K,
        lo, hi, xtol=1e-14, rtol=8.9e-16,
    )
    return float(root)


def _boundary_condition(model: LevyModel, params: GameParams, q: float) -> float:
    """Sign function whose zero is ``q1``.

    Algebraically ``K b^2/2 + (alpha/Phi)(K/a_star - 1)`` with the holder
    threshold substituted, which removes the pole of ``a_star`` at
    ``psi(-1) + beta`` and lets the scan cross it safely.
    """
    ph = phi(model, q)
    drift_gap = q - exp_growth_rate(model) - params.beta
    return (params.K * model.b2 / 2.0
            + params.K * drift_gap / (ph + 1.0)
            - params.alpha / ph)


def q1(model: LevyModel, params: GameParams, q0_value: float | None = None) -> float:
    """Critical rate below which the issuer calls strictly before the cap.

    Equals ``q0`` when there is no Gaussian part.  Otherwise the zero of the
    boundary condition nearest ``q0``, found by a 200-point logarithmic scan
    of ``(alpha/K, q0)`` followed by root polishing.
    """
    if q0_value is None:
        q0_value = q0(model, params)
    if model.b2 == 0.0:
        return q0_value
    edge_base = params.alpha / params.K
    for pad in (1e-6, 1e-9, 1e-12):
        lo_edge = edge_base * (1.0 + pad) if edge_base > 0 else pad
        qs = np.geomspace(lo_edge, q0_value * (1.0 - 1e-12), 200)
        hs = np.array([_boundary_condition(model, params, float(qq)) for qq in qs])
        for i in range(len(qs) - 1, 0, -1):
            if hs[i] > 0.0 and hs[i - 1] <= 0.0:
                root = brentq(
                    lambda qq: _boundary_condition(model, params, qq),
                    float(qs[i - 1]), float(qs[i]), xtol=1e-12, rtol=8.9e-16,
                )
                return float(root)
        if hs.min() > 0.0:
            continue  # positive on the whole scan: push the edge lower
        break
    logger.warning(
        "issuer-boundary condition stayed positive down to q=alpha/K; "
        "reporting the scan edge as q1"
    )
    return float(lo_edge)


def classify(model: LevyModel, params: GameParams) -> RegimeSolution:
    """Classify the game and assemble thresholds and the value evaluator."""
    _require_assumption(model, params)
    qv, K = params.q, params.K
    log_k = math.log(K)
    q0_val = q0(model, params)
    q1_val = q1(model, params, q0_val)
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
        c_val = c_star(model, params, _q1_value=q1_val)
        tau, sigma = log_k, c_val

    sol = RegimeSolution(
        regime=regime, q0=q0_val, q1=q1_val, a_star=a_val, c_star=c_val,
        tau_level=tau, sigma_level=sigma, value=None,
    )
    object.__setattr__(sol, "value", lambda x: value(model, params, sol, x))
    return sol


# --------------------------------------------------------------------------- #
# issuer threshold (regime R4)
# --------------------------------------------------------------------------- #

def call_boundary_value(model: LevyModel, params: GameParams, c: float) -> float:
    """Candidate-strategy value just below an issuer threshold at ``c``.

    Continuous and increasing in ``c``; the optimal threshold is the unique
    point where it meets the cap ``K``.  Tends to ``K - (Kq - alpha)/Phi``
    far below and exceeds ``K`` near ``log K`` precisely when ``q < q1``.
    """
    ph = phi(model, params.q)
    s = math.log(params.K) - c
    i1, i2 = shifted_jump_integrals(model, s, ph)
    return (params.K * (1.0 - params.q / ph)
            + params.alpha / ph
            + params.beta * math.exp(c) / (ph + 1.0)
            + params.K * (i2 / (ph + 1.0) - i1 / ph))


def c_star(model: LevyModel, params: GameParams, *,
           _q1_value: float | None = None) -> float:
    """Issuer's early-call threshold in regime R4 (below ``log K``)."""
    qv, K = params.q, params.K
    if _q1_value is None:
        _q1_value = q1(model, params)
    if not (params.alpha / K < qv < _q1_value):
        raise RegimeError(
            f"issuer threshold exists only for alpha/K < q < q1 "
            f"({params.alpha / K:g} < q < {_q1_value:g}), got q={qv:g}"
        )
    log_k = math.log(K)
    if call_boundary_value(model, params, log_k - 1e-8) <= K:
        raise BracketError(
            "boundary value does not exceed the cap below log K; "
            "thresholds are inconsistent with the classified regime"
        )
    hi = log_k - 1e-10
    lo = hi - 1.0
    for _ in range(400):
        if call_boundary_value(model, params, lo) < K:
            break
        lo -= 1.0
    else:
        raise BracketError("no lower bracket for the issuer threshold")
    root = brentq(
        lambda c: call_boundary_value(model, params, c) - K,
        lo, hi, xtol=1e-14, rtol=8.9e-16,
    )
    return float(root)


# --------------------------------------------------------------------------- #
# scale-function combinations
# --------------------------------------------------------------------------- #

def _partial_fraction_split(ev: ScaleEvaluator):
    """Roots/weights with the ``Phi`` root removed, or None for numeric route.

    Returns ``(rest, s1, s2)`` where ``rest`` holds the decaying roots and
    ``s1 = sum c/theta``, ``s2 = sum c/(theta+1)`` are the full-root sums
    (the exact rational values of ``1/q`` and ``1/(q - psi(-1))``).
    """
    if ev.roots is None:
        return None
    ph = ev.phi_q
    idx = min(range(len(ev.roots)), key=lambda i: abs(ev.roots[i] - ph))
    if abs(ev.roots[idx] - ph) > 1e-6 * (1.0 + ph):
        return None
    if any(abs(r + 1.0) < 1e-9 for r in ev.roots):
        # a root at -1 means q == psi(-1): the s2 constant diverges, which
        # only happens outside the game's admissible range; quadrature still
        # evaluates the ungated helpers there
        return None
    rest = [(ev.roots[i], ev.weights[i])
            for i in range(len(ev.roots)) if i != idx]
    s1 = sum((c / r).real for r, c in zip(ev.roots, ev.weights))
    s2 = sum((c / (r + 1.0)).real for r, c in zip(ev.roots, ev.weights))
    return rest, s1, s2


def g_function(model: LevyModel, q: float, z_arg: float) -> float:
    """Premium kernel of regime R2: zero at zero and strictly increasing.

    Defined as ``(Phi+1) int_0^z e^(y-z) W(y) dy - Phi int_0^z W(y) dy``;
    the holder's coupon premium at distance ``z`` below the conversion level
    is ``alpha/Phi`` times this.
    """
    if z_arg < 0.0:
        raise DomainError(f"g_function needs z >= 0, got {z_arg}")
    if z_arg == 0.0:
        return 0.0
    ev = scale_evaluator(model, q)
    ph = ev.phi_q
    split = _partial_fraction_split(ev)
    if split is None:
        iw, iew = w_integrals(ev, z_arg)
        return (ph + 1.0) * math.exp(-z_arg) * iew - ph * iw
    rest, s1, s2 = split
    acc = ph * s1 - (ph + 1.0) * math.exp(-z_arg) * s2
    for r, c in rest:
        acc += (c * (r - ph) / (r * (r + 1.0)) * np.exp(r * z_arg)).real
    return acc


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
    ph = ev.phi_q
    split = _partial_fraction_split(ev)
    if split is None:
        return z(ev, y) - q / ph * w(ev, y)
    rest, _, _ = split
    acc = 0.0
    for r, c in rest:
        acc += (c * (ph - r) / r * np.exp(r * y)).real
    return q / ph * acc


# --------------------------------------------------------------------------- #
# value function
# --------------------------------------------------------------------------- #

def value(model: LevyModel, params: GameParams, solution: RegimeSolution,
          x: float) -> float:
    """Equilibrium bond value at log share price ``x``."""
    if solution.regime is Regime.R1:
        return max(params.K, math.exp(x))
    if solution.regime is Regime.R2:
        la = solution.tau_level
        if x >= la:
            return math.exp(x)
        ph = phi(model, params.q)
        return math.exp(x) + params.alpha / ph * g_function(model, params.q, la - x)
    if solution.regime is Regime.R3:
        log_k = math.log(params.K)
        if x >= log_k:
            return math.exp(x)
        return _value_r3(model, params, x)
    c = solution.c_star
    if x >= c:
        return max(params.K, math.exp(x))
    return _value_r4(model, params, c, x)


def _value_r3(model: LevyModel, params: GameParams, x: float) -> float:
    """Simultaneous-stopping value below the cap.

    The payoff at the joint passage time is the share value itself (which
    sits at or above ``K`` there), so jump overshoot is already carried by
    the first-passage share expectation and no separate jump term appears.
    """
    ev = scale_evaluator(model, params.q)
    ph = ev.phi_q
    K, alpha = params.K, params.alpha
    s = params.q - exp_growth_rate(model) - params.beta
    v = math.log(K) - x
    split = _partial_fraction_split(ev)
    if split is None:
        iw, iew = w_integrals(ev, v)
        return (math.exp(x) + s * math.exp(x) * iew
                + w(ev, v) * (alpha / ph - K * s / (ph + 1.0)) - alpha * iw)
    rest, s1, s2 = split
    acc = math.exp(x) * (1.0 - s * s2) + alpha * s1
    for r, c_w in rest:
        coef = s * K / ((r + 1.0) * (ph + 1.0)) - alpha / (ph * r)
        acc += (c_w * (ph - r) * coef * np.exp(r * v)).real
    return acc


def _value_r4(model: LevyModel, params: GameParams, c: float, x: float) -> float:
    """Early-call value below the issuer threshold ``c < log K``.

    Here stopping pays the cap ``K`` unless a jump from below ``c`` clears
    ``log K``, so the jump-overshoot correction enters explicitly.
    """
    ev = scale_evaluator(model, params.q)
    ph = ev.phi_q
    qv, K, alpha, beta = params.q, params.K, params.alpha, params.beta
    v = c - x
    split = _partial_fraction_split(ev)
    jump = 0.0
    if not isinstance(model.jumps, NoJumps):
        if split is not None and isinstance(model.jumps, ExponentialJumps):
            jump = _overshoot_exponential(ev, params, c, v)
        else:
            jump = _overshoot_quadrature(ev, params, c, x)

    if split is None:
        iw, iew = w_integrals(ev, v)
        ee = z(ev, v) - qv / ph * w(ev, v)
        coupon_at_c = alpha / ph + beta * math.exp(c) / (ph + 1.0)
        return (K * ee + w(ev, v) * coupon_at_c
                - alpha * iw - beta * math.exp(x) * iew + jump)

    rest, s1, s2 = split
    ec = math.exp(c)
    acc = alpha * s1 + beta * math.exp(x) * s2
    for r, c_w in rest:
        coef = (K * qv - alpha) / (ph * r) - beta * ec / ((ph + 1.0) * (r + 1.0))
        acc += (c_w * (ph - r) * coef * np.exp(r * v)).real
    return acc + jump


def _overshoot_exponential(ev: ScaleEvaluator, params: GameParams,
                           c: float, v: float) -> float:
    """Closed overshoot term for exponential jumps.

    Summed root by root; the dominant-root term telescopes analytically to a
    pure ``e^(-rho v)`` decay, which sidesteps the catastrophic cancellation
    of evaluating it as a difference of two ``e^(Phi v)``-sized quantities.
    The remaining roots have negative real parts, so their terms decay.
    """
    lam, rho = ev.model.jumps.rate, ev.model.jumps.decay
    if rho <= 1.0:
        raise DivergentExponent(
            "overshoot value needs jump decay > 1 for a finite share expectation"
        )
    ph = ev.phi_q
    m = math.log(params.K) - c
    lead = min(range(len(ev.roots)), key=lambda i: abs(ev.roots[i] - ph))
    acc = 0.0
    for i, (r, c_w) in enumerate(zip(ev.roots, ev.weights)):
        if i == lead:
            acc += (c_w * math.exp(-rho * v) / (rho + r)).real
        else:
            factor = 1.0 / (rho + ph) - _exp_increment(-(rho + r), v)
            acc += (c_w * np.exp(r * v) * factor).real
    return lam * params.K * math.exp(-rho * m) / (rho - 1.0) * acc


def _share_weighted_density(jumps) -> Callable[[float], float]:
    """Jump density times ``e^z``, with the tail combined in the exponent
    so slowly decaying tails never overflow before cancelling."""
    if isinstance(jumps, ExponentialJumps):
        lam, rho = jumps.rate, jumps.decay
        return lambda t: lam * rho * math.exp(-(rho - 1.0) * t)
    grid = np.asarray(jumps.grid)
    vals = np.asarray(jumps.values)
    rate = jumps.tail_rate
    edge = float(vals[-1]) * math.exp(float(grid[-1]))

    def dens(t: float) -> float:
        if t < grid[0]:
            return 0.0
        if t <= grid[-1]:
            return float(np.interp(t, grid, vals)) * math.exp(t)
        return edge * math.exp(-(rate - 1.0) * (t - float(grid[-1])))

    return dens


def _overshoot_outer_limit(jumps, m: float, target: float) -> float:
    """Point past which ``integral density(z) e^z dz`` drops below ``target``."""
    if isinstance(jumps, ExponentialJumps):
        lam, rate = jumps.rate, jumps.decay
        if rate <= 1.0:
            raise DivergentExponent(
                "overshoot value needs jump decay > 1 for a finite share expectation"
            )
        # tail integral from u: lam*rate/(rate-1) * exp(-(rate-1)u)
        base = lam * rate / (rate - 1.0)
        start = 0.0
    else:
        rate = jumps.tail_rate
        if rate <= 1.0:
            raise DivergentExponent(
                "overshoot value needs tail decay > 1 for a finite share expectation"
            )
        z_n = jumps.grid[-1]
        base = jumps.values[-1] * math.exp(z_n) / (rate - 1.0)
        start = z_n
    if base <= target:
        return max(m, start) + 1.0
    return max(m, start + (math.log(base / target)) / (rate - 1.0)) + 1.0


def _overshoot_quadrature(ev: ScaleEvaluator, params: GameParams,
                          c: float, x: float) -> float:
    """Overshoot term by iterated adaptive quadrature (any jump family).

    Outer integral over jump sizes that clear the cap, inner over the
    pre-jump position; absolute tolerance 1e-8 on each axis, with the outer
    truncated where the remaining share-weighted jump mass is negligible.
    """
    ph = ev.phi_q
    K = params.K
    v = c - x
    m = math.log(K) - c
    dens_growth = _share_weighted_density(ev.model.jumps)
    w_v = w(ev, v)
    u_max = _overshoot_outer_limit(ev.model.jumps, m, 1e-14 * max(1.0, K))
    if u_max <= m:
        return 0.0
    y_floor = -40.0 / ph

    def inner(zv: float) -> float:
        # e^zv is factored into the outer weight so this integral keeps a
        # uniform O(K) scale and the absolute tolerance stays meaningful
        ylo = max(m - zv, y_floor)
        if ylo >= 0.0:
            return 0.0
        cap = K * math.exp(-zv) if zv < 700.0 else 0.0

        def f(y: float) -> float:
            bracket = math.exp(ph * y) * w_v - w(ev, v + y)
            return bracket * (math.exp(c + y) - cap)

        pieces = [ylo, 0.0]
        if ylo < -v < 0.0:
            pieces = [ylo, -v, 0.0]  # integrand kink where W's support starts
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            total += quad(f, a, b, epsabs=1e-9, epsrel=1e-9, limit=200)[0]
        return total

    pts = None
    if isinstance(ev.model.jumps, TabulatedDensity):
        # hand the density's kinks to the subdivider, else its error estimate
        # saturates orders of magnitude above the actual error
        nodes = [t for t in ev.model.jumps.grid if m < t < u_max]
        stride = max(1, -(-len(nodes) // 400))
        pts = nodes[::stride] or None
    with warnings.catch_warnings():
        # the bracket cancels to ~1e-10 noise near y=0 (interpolated W), which
        # trips quad's roundoff detector far below the 1e-8 target; the outer
        # error estimate is still checked below
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(lambda zv: dens_growth(zv) * inner(zv), m, u_max,
                        epsabs=1e-8, epsrel=1e-9,
                        limit=200 + (len(pts) if pts else 0), points=pts)
    if err > 1e-6:
        raise QuadratureError(
            f"overshoot integral at x={x:g} only reached error {err:.2e} "
            f"(outer range [{m:g}, {u_max:g}])"
        )
    return val


def value_profile(model: LevyModel, params: GameParams,
                  solution: RegimeSolution, xs) -> np.ndarray:
    """Vectorised :func:`value` over a grid (deterministic, pure)."""
    return np.array([value(model, params, solution, float(xv)) for xv in xs])


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


def _expected_kind(model: LevyModel, params: GameParams,
                   solution: RegimeSolution) -> FitKind:
    if solution.regime in (Regime.R2, Regime.R4):
        bounded = path_variation(model).bounded
        return FitKind.CONTINUOUS_ONLY if bounded else FitKind.SMOOTH
    if solution.regime is Regime.R3:
        qv = params.q
        at_edge = any(
            abs(qv - edge) <= 1e-9 * max(1.0, edge)
            for edge in (solution.q0, solution.q1)
        )
        return FitKind.SMOOTH if at_edge else FitKind.NEITHER_INTERIOR
    return FitKind.CONTINUOUS_ONLY


def fit_report(model: LevyModel, params: GameParams, solution: RegimeSolution,
               h: float | None = None) -> FitReport:
    """One-sided values/derivatives at the stopping boundary.

    Uses strictly one-sided three-point stencils (quadratic extrapolation at
    steps ``h``, ``h/2``, ``h/4``) so each side samples only its own branch
    of the value function.  The default step is ``1e-4 * max(1, |boundary|)``,
    cut to a quarter of the gap when an R4 call threshold lies closer than
    that below ``log K``, where the right-hand branch turns from ``K`` to
    ``e^x``.
    """
    boundary = {
        Regime.R1: math.log(params.K),
        Regime.R2: solution.tau_level,
        Regime.R3: math.log(params.K),
        Regime.R4: solution.c_star,
    }[solution.regime]
    if h is None:
        h = 1e-4 * max(1.0, abs(boundary))
        gap = math.log(params.K) - boundary
        if solution.regime is Regime.R4 and 0.0 < gap < h:
            h = gap / 4.0
    if not (0.0 < h <= 1e-2):
        raise DomainError(f"fit step must lie in (0, 1e-2], got {h}")

    def vv(xv: float) -> float:
        return value(model, params, solution, xv)

    l1, l2, l3 = vv(boundary - h), vv(boundary - h / 2.0), vv(boundary - h / 4.0)
    r1, r2, r3 = vv(boundary + h), vv(boundary + h / 2.0), vv(boundary + h / 4.0)
    return FitReport(
        boundary=boundary,
        left_value=l1 / 3.0 - 2.0 * l2 + 8.0 * l3 / 3.0,
        right_value=r1 / 3.0 - 2.0 * r2 + 8.0 * r3 / 3.0,
        left_deriv=(2.0 * l1 - 10.0 * l2 + 8.0 * l3) / h,
        right_deriv=-(2.0 * r1 - 10.0 * r2 + 8.0 * r3) / h,
        expected_kind=_expected_kind(model, params, solution),
    )
