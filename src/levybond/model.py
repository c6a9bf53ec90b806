"""Spectrally positive Levy models: Laplace exponent, its inverse, tilts, jump integrals.

The driving process ``X`` has no negative jumps and is parameterised by a linear
drift ``mu``, a Gaussian variance ``b2`` and an upward jump measure with density
``pi``.  All fluctuation quantities in this package are expressed through the
Laplace exponent

    psi(theta) = log E[exp(-theta * X_1)]
               = mu*theta + b2*theta**2/2
                 + integral (exp(-theta*z) - 1 + theta*z*1{z<1}) pi(z) dz,

which is finite for every ``theta >= 0`` and, depending on the jump tail, for a
range of negative ``theta`` as well.  ``psi`` is convex with ``psi(0) = 0``.

Every jump family is one density in one normal form: linear pieces between
knots (the body) plus an exponential tail past the last knot.  Exponential
jumps are the tail alone from a knot at 0; no jumps is the zero density.  Each
jump spec caches the form and its constants when it is built, and everything
here computes from them with no branch on the family: the exponent on real
and complex arguments, ``psi`` as a polynomial fraction (rational exactly
when there is no body), the Esscher tilt, the shifted jump integrals and
inverse-CDF sampling.  The tail enters each through its own closed forms,
written without the ``T r/(r+theta) - T`` cancellation near ``theta = 0``,
so a tail-only density keeps the digits and the scalar cost of the
exponential family's textbook formulas.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.optimize import brentq

from .errors import DivergentExponent, DomainError, SubordinatorError

__all__ = [
    "NoJumps",
    "ExponentialJumps",
    "TabulatedDensity",
    "JumpSpec",
    "LevyModel",
    "PathVariation",
    "bounded_variation_model",
    "laplace_exponent",
    "phi",
    "exp_growth_rate",
    "meets_discount_condition",
    "esscher_tilt",
    "path_variation",
    "shifted_jump_integrals",
    "jump_intensity",
    "sample_jump_sizes",
    "jump_passage_means",
]

logger = logging.getLogger(__name__)

# Real exponents beyond this produce inf in float64 anyway; used to short-circuit
# the body's exponential moment on far-left contour points.
_EXP_GUARD = 600.0
_TAYLOR_TERMS = 16  # moments kept for the body's Taylor branch


# --------------------------------------------------------------------------- #
# jump specifications
#
# The normal form: the density is linear between the ``knots``/``values``
# samples, 0 below the first knot and ``tail_mass * tail_rate *
# exp(-tail_rate * (z - knots[-1]))`` past the last.  Each spec sets these
# non-field attributes at construction, so they take no part in equality,
# hashing or repr:
#
#   _pieces     (knots, values, tail_rate)
#   _tail_mass  jump intensity of the tail (``values[-1] / tail_rate``)
#   _cells      per-cell linear coefficients of the body (None if none)
#   _body       the body as :func:`_body_expm1` integrates it (None if none)
#   _mass       total jump intensity
#   _m1         compensator mass ``integral_(0,1) z pi(z) dz``
#   _above      exceedance masses at the knots, for inverse-CDF sampling
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class NoJumps:
    """Purely continuous paths (no jump component): the zero density."""

    def __post_init__(self) -> None:
        _normal_form(self, (0.0,), (0.0,), math.inf, 0.0)

    @classmethod
    def _of_pieces(cls, knots, values, tail_rate) -> "NoJumps":
        return cls()


@dataclass(frozen=True)
class ExponentialJumps:
    """Compound-Poisson upward jumps with an exponential size density.

    The jump measure has density ``rate * decay * exp(-decay * z)`` on
    ``(0, inf)``: jumps arrive at intensity ``rate`` and have mean size
    ``1 / decay``.  Its normal form is the tail alone, from one knot at 0,
    with tail mass ``rate`` exactly.
    """

    rate: float
    decay: float

    def __post_init__(self) -> None:
        if not (self.rate > 0.0) or not math.isfinite(self.rate):
            raise DomainError(f"jump rate must be positive, got {self.rate}")
        if not (self.decay > 0.0) or not math.isfinite(self.decay):
            raise DomainError(f"jump decay must be positive, got {self.decay}")
        _normal_form(self, (0.0,), (self.rate * self.decay,), self.decay, self.rate)

    @classmethod
    def _of_pieces(cls, knots, values, tail_rate) -> "ExponentialJumps":
        return cls(values[0] / tail_rate, tail_rate)


@dataclass(frozen=True)
class TabulatedDensity:
    """Jump density given by linear interpolation of samples plus an exponential tail.

    The density equals the piecewise-linear interpolant of ``(grid, values)`` on
    ``[grid[0], grid[-1]]`` and continues as ``values[-1] * exp(-tail_rate *
    (z - grid[-1]))`` beyond the last grid point.  Any intended mass below
    ``grid[0]`` is dropped (a warning is logged when the first sample is
    positive, since that suggests the tabulation was cut off).

    ``grid`` and ``values`` are stored as tuples so instances are hashable and
    can key internal caches; they are the normal form's knots and values as
    given.
    """

    grid: tuple[float, ...]
    values: tuple[float, ...]
    tail_rate: float

    def __init__(self, grid, values, tail_rate: float) -> None:
        g = tuple(float(z) for z in grid)
        v = tuple(float(y) for y in values)
        if len(g) < 2:
            raise DomainError("tabulated density needs at least two grid points")
        if len(g) != len(v):
            raise DomainError(
                f"grid and values length mismatch: {len(g)} vs {len(v)}"
            )
        if g[0] < 0.0:
            raise DomainError("jump sizes are positive; grid must start at >= 0")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise DomainError("grid must be strictly increasing")
        if any(y < 0.0 or not math.isfinite(y) for y in v):
            raise DomainError("density values must be finite and nonnegative")
        if not (tail_rate > 0.0) or not math.isfinite(tail_rate):
            raise DomainError(f"tail_rate must be positive, got {tail_rate}")
        r = float(tail_rate)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "tail_rate", r)
        _normal_form(self, g, v, r, v[-1] / r)
        if g[0] > 0.0 and v[0] > 0.0:
            logger.warning(
                "tabulated jump density starts at z=%g with value %g; "
                "mass below the first grid point (~%g) is dropped",
                g[0], v[0], 0.5 * g[0] * v[0],
            )

    @classmethod
    def _of_pieces(cls, knots, values, tail_rate) -> "TabulatedDensity":
        return cls(knots, values, tail_rate)


JumpSpec = Union[NoJumps, ExponentialJumps, TabulatedDensity]


# --------------------------------------------------------------------------- #
# normal-form machinery
#
# Every integral of the piecewise-linear body against polynomials or
# exponentials is evaluated in closed form cell by cell, and the tail by its
# own closed forms, so no jump family has quadrature error anywhere: the
# interpolated density itself is the model.
# --------------------------------------------------------------------------- #

def _cells(knots, values):
    """Per-cell linear coefficients: density = p + m*z on [z0, z1] (read-only)."""
    z = np.asarray(knots, dtype=float)
    v = np.asarray(values, dtype=float)
    z0, z1 = z[:-1], z[1:]
    m = (v[1:] - v[:-1]) / (z1 - z0)
    p = v[:-1] - m * z0
    for arr in (z0, z1, p, m):
        arr.flags.writeable = False
    return z0, z1, p, m


def _linear_body(cells, lo: float, s: float = 0.0):
    """The body on ``[lo, knots[-1]]`` (``lo < knots[-1]``) about a point
    ``s <= lo``, as :func:`_body_expm1` integrates it: the nodes ``u_j - s``
    followed by the first and last again, their weights (the slope jumps
    ``m_(j-1) - m_j``, slope 0 outside, then the end values ``-f_0`` and
    ``f_N``), and the moments ``integral (u - s)^k pi(u) du`` for
    ``k < _TAYLOR_TERMS`` (the first is the body's mass)."""
    z0, z1, p, m = cells
    keep = z1 > lo
    cp, cm = p[keep], m[keep]
    c0 = np.maximum(z0[keep], lo)
    c1 = z1[keep]
    ends = (cp[0] + cm[0] * c0[0], cp[-1] + cm[-1] * c1[-1])
    # about s the density is (p + m s) + m (u - s)
    cp = cp + cm * s
    c0, c1 = c0 - s, c1 - s
    nodes = np.concatenate([c0[:1], c1, c0[:1], c1[-1:]])
    slopes = np.concatenate([[0.0], cm, [0.0]])
    weights = np.concatenate([slopes[:-1] - slopes[1:], [-ends[0], ends[1]]])
    moments = []
    for k in range(_TAYLOR_TERMS):
        mk = (c1 ** (k + 1) - c0 ** (k + 1)) / (k + 1)
        mk1 = (c1 ** (k + 2) - c0 ** (k + 2)) / (k + 2)
        moments.append(float(np.sum(cp * mk + cm * mk1)))
    return nodes, weights, moments


def _normal_form(spec, knots, values, tail_rate: float, tail_mass: float) -> None:
    """Cache the normal form of ``spec`` and its constants (see above)."""
    cells, body, m1, mass, above = None, None, 0.0, tail_mass, np.array([tail_mass])
    if len(knots) > 1:
        cells = _cells(knots, values)
        body = _linear_body(cells, knots[0])
        mass = body[2][0] + tail_mass
        z0, z1, p, m = cells
        below = z0 < 1.0
        c0, c1 = z0[below], np.minimum(z1[below], 1.0)
        m1 = float(np.sum(p[below] * (c1**2 - c0**2) / 2 + m[below] * (c1**3 - c0**3) / 3))
        cell_mass = p * (z1 - z0) + 0.5 * m * (z1**2 - z0**2)
        above = np.concatenate([np.cumsum(cell_mass[::-1])[::-1] + tail_mass, [tail_mass]])
    zN, r = knots[-1], tail_rate
    if tail_mass > 0.0 and zN < 1.0:
        # the tail's share of the compensator mass, from zN to 1
        span = 1.0 - zN
        e = math.exp(-r * span)
        m1 += tail_mass * (zN * (1.0 - e) + (1.0 - e) / r - span * e)
    for name, val in (("_pieces", (knots, values, tail_rate)), ("_tail_mass", tail_mass),
                      ("_cells", cells), ("_body", body), ("_mass", mass), ("_m1", m1),
                      ("_above", above)):
        object.__setattr__(spec, name, val)


def _body_expm1(body, a, step=None) -> np.ndarray:
    """``integral expm1(a*(u - s)) pi(u) du`` over the body, elementwise over
    the complex array ``a`` (``s`` is the point ``body`` is taken about): its
    exponential moment less its mass, formed without that subtraction
    where it would cancel.

    With ``step`` given, ``a``'s last axis is a ladder of rungs
    ``a[..., k] = a[..., 0] + 1j k step`` (``step`` real, shaped like
    ``a[..., 0]``); without it each point is a ladder of one rung.  With
    ``w = knots[-1] - s``, the result is ``inf`` wherever ``Re(a) w``
    exceeds ``_EXP_GUARD``.  The linear pieces are integrated by parts,
    ``int f e^(au) du = [f e^(au) / a] - a^-2 sum_j e^(a u_j) (m_(j-1) - m_j)``
    over the nodes ``u_j`` and slopes ``m_j``: per point, two weighted sums
    of node exponentials (the ends and the slope jumps), taken as row sums
    so that no BLAS call, and none of its threads, runs per rung.  Along a
    ladder the node exponentials follow the rung recurrence
    ``e^(a_k u_j) = e^(a_(k-1) u_j) e^(i step u_j)``, so a (ladder, node)
    pair costs two exponentials and one complex multiply per further rung.
    The ``a^-2`` factor cancels digits as ``a`` nears 0 (relative error
    ~1e-16 / (|a| w)^2), so for ``|a| w < 1`` the Taylor series in ``a``
    over the stored moments, from the first, is used instead; with
    ``_TAYLOR_TERMS`` terms its truncation is below
    ``(|a| w)^16 / 16! < 5e-14`` relative.  Near the switch both branches
    hold about 1e-12 relative (against a 40-digit evaluation of the
    401-node test table).  Both masks are taken point by point.
    """
    a = np.asarray(a, dtype=complex)
    nodes, weights, moments = body
    reach = nodes[-1]
    total = np.zeros(a.shape, dtype=complex)
    guard = a.real * reach > _EXP_GUARD
    taylor = (np.abs(a) * reach < 1.0) & ~guard
    # ladders as rows; only rows with a by-parts point are formed, and the
    # masks then overwrite the rungs they take
    rungs = a.shape[-1] if step is not None else 1
    ladders = a.reshape(-1, rungs)
    rows = ~(taylor | guard).reshape(ladders.shape).all(axis=1)
    if rows.any():
        lad = ladders[rows]
        terms = np.multiply.outer(lad[:, 0], nodes)
        with np.errstate(all="ignore"):  # rungs the masks replace may overflow
            np.exp(terms, out=terms)
            terms *= weights
            if rungs > 1:
                step = np.broadcast_to(step, a.shape[:-1]).ravel()[rows]
                turn = np.exp(1j * np.multiply.outer(step, nodes))
            out = np.empty(lad.shape, dtype=complex)
            for k in range(rungs):
                if k:
                    terms *= turn
                ak = lad[:, k]
                out[:, k] = (terms[:, -2] + terms[:, -1] - terms[:, :-2].sum(axis=1) / ak) / ak
        out -= moments[0]
        total.reshape(ladders.shape)[rows] = out
    if taylor.any():
        at = a[taylor]
        acc = np.zeros(at.shape, dtype=complex)
        ak = at.copy()
        for k in range(1, _TAYLOR_TERMS):
            acc += ak * moments[k]
            ak *= at / (k + 1)
        total[taylor] = acc
    total[guard] = np.inf
    return total


# --------------------------------------------------------------------------- #
# model
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class LevyModel:
    """Spectrally positive Levy process parameterised by drift, variance and jumps.

    ``mu`` and ``b2`` are the linear and Gaussian coefficients of the Laplace
    exponent above; positive ``mu`` pushes paths *down* (the exponent is in
    terms of ``E[exp(-theta X)]``).  Construction rejects parameter sets whose
    paths would be monotone increasing, since first-passage games degenerate
    there.
    """

    mu: float
    b2: float
    jumps: JumpSpec = field(default_factory=NoJumps)

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")
        if not (self.b2 >= 0.0) or not math.isfinite(self.b2):
            raise DomainError(f"b2 must be nonnegative, got {self.b2}")
        if not isinstance(self.jumps, (NoJumps, ExponentialJumps, TabulatedDensity)):
            raise DomainError(f"unsupported jump spec: {self.jumps!r}")
        if self.b2 == 0.0 and self.mu + _m1(self.jumps) <= 0.0:
            raise SubordinatorError(
                "b2=0 with mu + small-jump mass <= 0 gives monotone "
                "(subordinator-like) paths; the stopping game degenerates"
            )


@dataclass(frozen=True)
class PathVariation:
    """Sample-path variation classification.

    ``drift`` is the downward ladder drift ``d = mu + m1`` when paths have
    bounded variation (then ``X_t = -d t + jumps``), and ``None`` otherwise.
    """

    bounded: bool
    drift: float | None


def _m1(jumps: JumpSpec) -> float:
    """Compensator mass ``integral_(0,1) z pi(z) dz``."""
    return jumps._m1


def jump_intensity(model: LevyModel) -> float:
    """Total arrival rate of jumps (finite for every supported jump spec)."""
    return model.jumps._mass


def _density_pieces(model: LevyModel) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """The jump density as ``(knots, values, tail_rate)``: linear between the
    ``(knots, values)`` samples, 0 below the first knot and
    ``values[-1] * exp(-tail_rate * (z - knots[-1]))`` past the last.
    Exponential jumps are the tail alone, from one knot at 0; no jumps is
    the value 0 at one knot."""
    return model.jumps._pieces


def bounded_variation_model(drift: float, jumps: JumpSpec) -> LevyModel:
    """Build a bounded-variation model from its ladder drift ``d > 0``.

    Convenience constructor for the parametrisation ``X_t = -d t + jumps``:
    the Laplace-exponent drift is then ``mu = d - m1``.
    """
    if not (drift > 0.0):
        raise DomainError(f"ladder drift must be positive, got {drift}")
    return LevyModel(mu=drift - _m1(jumps), b2=0.0, jumps=jumps)


def path_variation(model: LevyModel) -> PathVariation:
    if model.b2 > 0.0:
        return PathVariation(bounded=False, drift=None)
    return PathVariation(bounded=True, drift=model.mu + _m1(model.jumps))


# --------------------------------------------------------------------------- #
# Laplace exponent and friends
# --------------------------------------------------------------------------- #

def _jump_exponent_real(jumps: JumpSpec, theta: float) -> float:
    """Jump part of psi for real theta, raising on divergence.

    Scalar Python except for the body's moment, so a tail-only density costs
    a few float operations.  The tail's part,
    ``T (r expm1(-theta zN) - theta) / (r + theta)`` for tail mass ``T``,
    keeps its digits as ``theta`` nears 0.
    """
    if not jumps._mass:
        return 0.0
    tail = jumps._tail_mass
    knots, _, r = jumps._pieces
    if tail > 0.0 and theta <= -r:
        raise DivergentExponent(
            f"jump tail decays at rate {r}; the exponent "
            f"diverges for theta={theta} <= {-r}"
        )
    total = 0.0
    body = jumps._body
    if body is not None:
        total = float(_body_expm1(body, -theta).real)
        if math.isinf(total):
            return total
    if tail > 0.0:
        total += tail * (r * math.expm1(-theta * knots[-1]) - theta) / (r + theta)
    return total + theta * jumps._m1


def laplace_exponent(model: LevyModel, theta: float) -> float:
    """``psi(theta) = log E[exp(-theta X_1)]`` for real ``theta``.

    Raises
    ------
    DivergentExponent
        when the jump tail makes ``E[exp(-theta X_1)]`` infinite
        (possible only for ``theta < 0``).
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}")
    return (model.mu * theta + 0.5 * model.b2 * theta * theta
            + _jump_exponent_real(model.jumps, theta))


def _psi_c(model: LevyModel, beta, step=None) -> np.ndarray:
    """Analytic continuation of psi for inversion contours, elementwise over
    the complex array ``beta``.

    With ``step`` given, ``beta``'s last axis is a ladder of rungs
    ``beta[..., k] = beta[..., 0] + 1j k step`` (an Euler contour at each
    ``x``, with ``step = pi/x``), whose body exponentials follow the rung
    recurrence of :func:`_body_expm1`; without it each point is a ladder
    of one rung.  Never raises: points past the abscissa of convergence use
    the tail's closed form, which is the continuation; at the tail's pole,
    past the body's overflow guard or where the magnitude would overflow,
    ``inf`` is returned so transform evaluations degrade to 0.
    """
    beta = np.asarray(beta, dtype=complex)
    j = model.jumps
    out = model.mu * beta + 0.5 * model.b2 * beta * beta
    if not j._mass:
        return out
    knots, _, r = j._pieces
    with np.errstate(all="ignore"):
        if j._body is not None:
            out += _body_expm1(j._body, -beta, None if step is None else np.negative(step))
        if j._tail_mass > 0.0:
            # a tail from 0 (exponential jumps) has expm1(-beta * 0) = 0
            num = -beta if knots[-1] == 0.0 else r * np.expm1(-beta * knots[-1]) - beta
            out += j._tail_mass * num / (r + beta)
        out += beta * j._m1
    out[~np.isfinite(out)] = np.inf
    return out


def _psi_fraction(model: LevyModel) -> tuple[np.ndarray, np.ndarray] | None:
    """``psi`` as a ratio ``num / den`` of polynomials (coefficient arrays,
    highest power first), or ``None`` when the jump part is not rational.

    Rational means no linear body: the density is the tail alone, from one
    knot at 0, and its mass ``T`` and rate ``r`` clear the denominator
    ``r + theta``; with zero mass ``den`` is 1.  Without a Gaussian part
    ``num`` drops its leading zero.
    """
    j = model.jumps
    if j._body is not None:
        return None
    half_b2 = model.b2 / 2.0
    tail, r = j._tail_mass, j._pieces[2]
    if tail == 0.0:
        num, den = [half_b2, model.mu, 0.0], [1.0]
    else:
        mt = model.mu + j._m1
        num, den = [half_b2, mt + half_b2 * r, mt * r - tail, 0.0], [1.0, r]
    return np.array(num[1:] if model.b2 == 0.0 else num), np.array(den)


def phi(model: LevyModel, p: float) -> float:
    """Largest nonnegative root of ``psi(theta) = p`` (the right inverse).

    Convexity of ``psi`` with ``psi(0) = 0`` makes ``{theta >= 0 : psi <= p}``
    an interval ``[0, Phi(p)]``, so a sign change brackets the root.
    """
    if not (p >= 0.0) or not math.isfinite(p):
        raise DomainError(f"phi() needs p >= 0, got {p}")

    def f(th: float) -> float:
        return laplace_exponent(model, th) - p

    if p == 0.0:
        if laplace_exponent(model, 1e-7) >= 0.0:
            return 0.0
        lo = 1e-7
    else:
        lo = 0.0
    hi = 1.0
    for _ in range(80):
        if f(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise DomainError(f"could not bracket the inverse of psi at p={p}")
    return float(brentq(f, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=256))


def exp_growth_rate(model: LevyModel) -> float:
    """``psi(-1) = log E[exp(X_1)]``, or ``+inf`` when that moment diverges."""
    try:
        return laplace_exponent(model, -1.0)
    except DivergentExponent:
        return math.inf


def meets_discount_condition(model: LevyModel, q: float) -> bool:
    """Whether ``q > psi(-1)``, so discounted conversion payoffs stay integrable."""
    if not (q > 0.0):
        return False
    return q > exp_growth_rate(model)


def esscher_tilt(model: LevyModel, lam: float) -> LevyModel:
    """Exponentially tilted model with exponent ``psi_lam(t) = psi(lam+t) - psi(lam)``.

    The tilted density ``exp(-lam z) pi(z)`` is the same family rebuilt from
    the tilted pieces: each knot value is scaled and the tail rate grows by
    ``lam``.  A tail alone tilts exactly; a linear body is re-tabulated on the
    same knots, so the identity above holds only up to the knots'
    interpolation error.
    """
    # will raise DivergentExponent when lam is out of the exponent's domain
    laplace_exponent(model, lam)
    j = model.jumps
    knots, values, r = j._pieces
    if r + lam <= 0.0:
        raise DivergentExponent("tilt parameter outside the exponent domain")
    tilted = j._of_pieces(knots, tuple(v * math.exp(-lam * z) for z, v in zip(knots, values)),
                          r + lam)
    mu_new = model.mu + model.b2 * lam + _m1(j) - _m1(tilted)
    return LevyModel(mu=mu_new, b2=model.b2, jumps=tilted)


# --------------------------------------------------------------------------- #
# shifted jump integrals for the lower-threshold equation
# --------------------------------------------------------------------------- #

def shifted_jump_integrals(model: LevyModel, s: float, phi_q: float) -> tuple[float, float]:
    """The two overshoot integrals entering the holder's threshold equation.

    Returns ``(I1, I2)`` with::

        I1(s) = integral_0^inf pi(z + s) (1 - exp(-phi_q z)) dz
        I2(s) = integral_0^inf pi(z + s) exp(z) (1 - exp(-(phi_q+1) z)) dz

    Both are nonnegative and nonincreasing in ``s``.  ``I2`` requires the jump
    tail to decay faster than ``exp(-z)`` (DivergentExponent otherwise), and
    it grows like ``exp(-s)``, so below ``s ~ -709`` it leaves the float
    range and :class:`DomainError` names the shift.
    In ``u = z + s`` both run over ``u >= max(s, 0)`` against
    ``exp(a (u - s))``, so no factor ``exp(phi_q s)`` is formed apart; the
    body takes its moments about ``s`` and the tail its closed forms.
    """
    if not (phi_q > 0.0):
        raise DomainError(f"phi_q must be positive, got {phi_q}")
    j = model.jumps
    knots, _, r = j._pieces
    tail = j._tail_mass
    if r <= 1.0 and tail > 0.0:
        raise DivergentExponent(
            f"I2 diverges: the jump tail decays at rate {r} <= 1, so exp(z) beats it"
        )
    lo = max(s, 0.0)
    i1 = i2 = 0.0
    if j._body is not None and lo < knots[-1]:
        body = _linear_body(j._cells, lo, s)
        e_neg, e_pos = _body_expm1(body, np.array([-phi_q, 1.0])).real.tolist()
        i1 = -e_neg
        i2 = e_pos - e_neg
    if tail > 0.0:
        start = max(lo, knots[-1])
        d = start - s
        e = math.exp(-r * (start - knots[-1]))
        i1 += tail * e * (phi_q - r * math.expm1(-phi_q * d)) / (r + phi_q)
        grow = math.expm1(d) if d <= 709.0 else math.inf
        i2 += (tail * r * e
               * ((phi_q + 1.0) + (r + phi_q) * grow - (r - 1.0) * math.expm1(-phi_q * d))
               / ((r - 1.0) * (r + phi_q)))
    if not math.isfinite(i2):
        raise DomainError(f"I2 overflows at shift s={s:g}: it grows like exp(-s)")
    return max(i1, 0.0), max(i2, 0.0)


# --------------------------------------------------------------------------- #
# jump sizes for the simulator: sampling, and means over a crossing jump
# --------------------------------------------------------------------------- #

def _upper_integrals(jumps: JumpSpec, u: np.ndarray, d: np.ndarray):
    """``integral_u^inf pi(z) dz`` and ``integral_u^inf e^(z - d) pi(z) dz``,
    elementwise over arrays ``u`` and ``d``: the body's part of the cell
    holding ``u`` in closed form, the cells above it from suffix sums, and
    the tail by its closed forms (its rate must exceed 1)."""
    knots, _, r = jumps._pieces
    zN, tail = knots[-1], jumps._tail_mass
    past = np.maximum(u, zN)
    mass = tail * np.exp(-r * (past - zN))
    expo = mass * r / (r - 1.0) * np.exp(past - d) if tail > 0.0 else np.zeros(u.shape)
    if jumps._cells is not None:
        z0, z1, p, m = jumps._cells
        # e^(z - zN) (v(z) - m) is an antiderivative of e^(z - zN) v(z) on a cell
        cell_exp = np.exp(z1 - zN) * (p + m * z1 - m) - np.exp(z0 - zN) * (p + m * z0 - m)
        exp_above = np.concatenate([np.cumsum(cell_exp[::-1])[::-1], [0.0]])
        uc = np.clip(u, knots[0], zN)
        k = np.minimum(np.searchsorted(z1, uc, side="right"), len(z1) - 1)
        vu, v1 = p[k] + m[k] * uc, p[k] + m[k] * z1[k]
        body = u < zN
        mass = np.where(body, jumps._above[k + 1] + 0.5 * (z1[k] - uc) * (vu + v1), mass)
        expo = np.where(body, expo + np.exp(zN - d) * exp_above[k + 1]
                        + np.exp(z1[k] - d) * (v1 - m[k]) - np.exp(uc - d) * (vu - m[k]), expo)
    return mass, expo


def jump_passage_means(model: LevyModel, y, level, sigma: float = math.inf,
                       cap: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Means over a jump that carries the log share from ``y`` above
    ``level``: ``E[e^S]`` and ``E[pay(S)]`` for ``S = y + Z`` given
    ``Z > level - y``, elementwise over the arrays ``y`` and ``level``.

    ``pay`` is the game's stop payoff: the share ``e^S`` below ``sigma`` and
    ``max(cap, e^S)`` from ``sigma >= level`` on (with the defaults it is
    the share alone).  Jump sizes are independent of the path before the
    jump, so a simulator that replaces a payoff at a jump passage by these
    means stays unbiased, and the payoff becomes bounded.  The density must
    have a tail rate above 1 (``psi(-1)`` finite).
    """
    j = model.jumps
    y = np.asarray(y, dtype=float)
    d = level - y
    mass, expo = _upper_integrals(j, d, d)
    share = np.exp(level) * expo / mass
    # the call adds cap - e^S where that is positive: on [sigma, log cap)
    hi = math.log(cap) - y
    lo = np.minimum(sigma - y, hi)
    m_lo, e_lo = _upper_integrals(j, lo, d)
    m_hi, e_hi = _upper_integrals(j, hi, d)
    call = (cap * (m_lo - m_hi) - np.exp(level) * (e_lo - e_hi)) / mass
    return share, share + np.maximum(call, 0.0)


def sample_jump_sizes(model: LevyModel, u: np.ndarray) -> np.ndarray:
    """Map uniforms ``u`` to jump sizes by the inverse CDF.

    With ``b`` the body's share of the mass, ``u >= b`` falls in the tail at
    ``zN - log1p(-(u - b)/(1 - b)) / r``; below it the body cell holding
    exceedance mass ``(1 - u) * mass`` is found in the ``_above`` table and
    its quadratic solved.
    """
    j = model.jumps
    u = np.asarray(u, dtype=float)
    mass = j._mass
    if mass <= 0.0:
        raise DomainError("model has no jump component to sample")
    knots, _, r = j._pieces
    share = j._tail_mass / mass
    b = 1.0 - share
    # zN - log1p((b - u) / share) / r, in place: the simulator draws millions
    out = np.subtract(b, u)
    with np.errstate(divide="ignore", invalid="ignore"):  # share 0: all body
        out /= share
        np.log1p(out, out=out)
    out /= r
    np.subtract(knots[-1], out, out=out)
    body = u < b
    if np.any(body):
        z0, z1, p, m = j._cells
        above = j._above
        t = (1.0 - u[body]) * mass  # exceedance mass of the sample
        # locate the cell: above[] is decreasing in the knot index
        idx = np.searchsorted(-above, -t, side="right") - 1
        idx = np.clip(idx, 0, len(z0) - 1)
        g1 = z1[idx]
        pp = p[idx]
        mm = m[idx]
        # solve mass(z .. g1) + above[idx+1] = t for z in the cell, i.e. the
        # quadratic pp*(g1 - z) + mm*(g1^2 - z^2)/2 = t - above[idx+1]
        c2 = (t - above[idx + 1]) - pp * g1 - 0.5 * mm * g1**2
        lin = np.abs(mm) < 1e-14
        z = np.empty_like(t)
        z[lin] = -c2[lin] / pp[lin]
        ql = ~lin
        disc = np.sqrt(np.maximum(pp[ql] ** 2 - 2.0 * mm[ql] * c2[ql], 0.0))
        z[ql] = (-pp[ql] + disc) / mm[ql]
        out[body] = np.clip(z, z0[idx], g1)
    return out
