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
inverse-CDF sampling.  Each jump integral among them is one or two calls of
``_jump_expm1``, ``integral_(u >= lo) pi(u) expm1(a (u - s)) du``, the one
place that integrates the body or writes the tail's closed form; with a real
scalar ``a`` a tail-only density stays in :mod:`math`, so it keeps the digits
and the scalar cost of the exponential family's textbook formulas.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from typing import Union

import numpy as np

from .errors import (BracketError, DivergentExponent, DomainError, MomentConditionError,
                     SubordinatorError)

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
    "require_discount_condition",
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
# exp of a real part below this is exactly 0 in float64 (e^-745.14 is half
# the least subnormal), whatever the imaginary part
_EXP_UNDERFLOW = -746.0
_TAYLOR_TERMS = 16  # moments kept for the body's Taylor branch
_BRENT_RTOL = 8.9e-16  # brentq's relative tolerance: 4 eps, as every root uses
_BRENT_MAXITER = 256  # brentq's step budget


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
#   _body       the whole body, from the first knot about 0, as
#               :func:`_body_expm1` integrates it: a :class:`_Body` (None if
#               none), whose ``cut`` reads off any other lower limit and shift
#   _mass       total jump intensity
#   _m1         compensator mass ``integral_(0,1) z pi(z) dz``
#   _above      exceedance masses at the knots (the body's ``above`` plus the
#               tail mass), for inverse-CDF sampling
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
    given.  The hash is taken once, at construction (hashing 401 nodes costs
    more than a ``psi`` evaluation), and equals the hash of the three fields,
    so equal densities built apart hash equal.
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
        object.__setattr__(self, "_hash", hash((g, v, r)))
        _normal_form(self, g, v, r, v[-1] / r)
        if g[0] > 0.0 and v[0] > 0.0:
            logger.warning(
                "tabulated jump density starts at z=%g with value %g; "
                "mass below the first grid point (~%g) is dropped",
                g[0], v[0], 0.5 * g[0] * v[0],
            )

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def _of_pieces(cls, knots, values, tail_rate) -> "TabulatedDensity":
        return cls(knots, values, tail_rate)


JumpSpec = Union[NoJumps, ExponentialJumps, TabulatedDensity]


# --------------------------------------------------------------------------- #
# normal-form machinery
#
# Every integral of the piecewise-linear body against polynomials or
# exponentials is evaluated in closed form cell by cell, and the tail in
# closed form too, so no jump family has quadrature error anywhere: the
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


class _Body:
    """The body on ``[lo, knots[-1]]`` (``lo < knots[-1]``) about a point
    ``s <= lo``, as :func:`_body_expm1` integrates it: the ``nodes`` ``u_j - s``
    in increasing order between the first and the last again (so a live
    prefix of the nodes is a prefix of the array), their ``weights`` (the
    end value ``-f_0``, the slope jumps ``m_(j-1) - m_j`` with slope 0
    outside, then the end value ``f_N``) and its ``mass``, with the
    density's ``cells``, the body's exceedance masses ``above`` at the knots
    and ``at = (k, lo, s)``, ``k`` the cell holding ``lo``.  :func:`_normal_form`
    builds the whole body, from the first knot about 0; :meth:`cut` reads
    every other off it.  The moments (:func:`_moments`, the first is the
    mass) are formed when a Taylor point other than 0 first reads them."""

    def __init__(self, cells, above, at, nodes, weights, mass: float) -> None:
        self._cells, self.above, self._at = cells, above, at
        self.nodes, self.weights, self.mass = nodes, weights, mass

    def cut(self, lo: float, s: float) -> "_Body":
        """This whole body on ``[lo, knots[-1]]`` about ``s`` (itself at
        ``lo <= knots[0]``, ``s = 0``): the whole body's nodes and weights
        from ``k + 2`` on after the pair ``(lo, -f(lo))``, ``(lo, -m_k)``,
        nodes less ``s``, and :func:`_mass_above` from ``above``."""
        z0, z1, p, m = self._cells
        if lo <= z0[0] and s == 0.0:
            return self
        k = int(np.searchsorted(z1, lo, side="right"))
        lo = max(lo, float(z0[k]))  # below the first knot the body starts there
        mass, f_lo, _ = _mass_above(self._cells, self.above, k, lo)
        # 0 - m_k is the slope jump into cell k, formed as the whole body's first
        return _Body(self._cells, self.above, (k, lo, s),
                     np.concatenate([(lo, lo), self.nodes[k + 2:]]) - s,
                     np.concatenate([(-f_lo, 0.0 - m[k]), self.weights[k + 2:]]), float(mass))

    @cached_property
    def moments(self) -> tuple[float, ...]:
        return (self.mass, *_moments(self._cells, *self._at, range(1, _TAYLOR_TERMS)))


def _moments(cells, k: int, lo: float, s: float, orders) -> list[float]:
    """``integral_(u >= lo) (u - s)^j pi(u) du`` over the body for each ``j``
    of ``orders``, cell by cell from the cell ``k`` holding ``lo``."""
    z0, z1, p, m = cells
    c0 = z0[k:] - s
    c0[0] = lo - s
    # about s the density is (p + m s) + m (u - s)
    c1, cp, cm = z1[k:] - s, p[k:] + m[k:] * s, m[k:]
    return [float(np.sum(cp * ((c1 ** (j + 1) - c0 ** (j + 1)) / (j + 1))
                         + cm * ((c1 ** (j + 2) - c0 ** (j + 2)) / (j + 2)))) for j in orders]


def _mass_above(cells, above, k, u):
    """``integral_(z >= u) pi(z) dz`` with ``u`` in cell ``k``, elementwise:
    ``above[k + 1]`` (exceedance masses at the knots) plus the trapezoid of
    cell ``k`` above ``u``; also the density at ``u`` and at the cell's top."""
    z0, z1, p, m = cells
    vu, v1 = p[k] + m[k] * u, p[k] + m[k] * z1[k]
    return above[k + 1] + 0.5 * (z1[k] - u) * (vu + v1), vu, v1


def _normal_form(spec, knots, values, tail_rate: float, tail_mass: float) -> None:
    """Cache the normal form of ``spec`` and its constants (see above)."""
    cells, body, m1, mass, above = None, None, 0.0, tail_mass, np.array([tail_mass])
    if len(knots) > 1:
        cells = z0, z1, p, m = _cells(knots, values)
        cell_mass = p * (z1 - z0) + 0.5 * m * (z1**2 - z0**2)
        body_above = np.concatenate([np.cumsum(cell_mass[::-1])[::-1], [0.0]])
        slopes = np.concatenate([[0.0], m, [0.0]])
        at = (0, knots[0], 0.0)
        body = _Body(cells, body_above, at, np.concatenate([z0[:1], z0[:1], z1, z1[-1:]]),
                     np.concatenate([[-(p[0] + m[0] * z0[0])], slopes[:-1] - slopes[1:],
                                     [p[-1] + m[-1] * z1[-1]]]), _moments(cells, *at, [0])[0])
        body.nodes.flags.writeable = body.weights.flags.writeable = False
        mass, above = body.mass + tail_mass, body_above + tail_mass
        below = z0 < 1.0
        c0, c1 = z0[below], np.minimum(z1[below], 1.0)
        m1 = float(np.sum(p[below] * (c1**2 - c0**2) / 2 + m[below] * (c1**3 - c0**3) / 3))
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


def _body_expm1(body: _Body, a, step=None):
    """``integral expm1(a*(u - s)) pi(u) du`` over the body, elementwise over
    the complex array ``a`` (``s`` is the point ``body`` is taken about): its
    exponential moment less its mass, formed without that subtraction
    where it would cancel.  A real scalar ``a`` gives a float.

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
    A rung is three ufunc calls over all of a call's ladders (that multiply,
    the slope jumps' row sums, the sum of the end pair), and the quotient
    ``(ends - sums/a)/a`` is formed once for every rung after the loop: the
    same operations on the same numbers as a quotient per rung.
    A real scalar, as the root finders pass, skips the masks and the ladder:
    in the by-parts range one row of the same complex arithmetic, in the
    Taylor range a float sum whose every product and sum is the real part of
    the array's, so its bits are those of the one-point array; at ``+-0``,
    ``phi``'s lower bracket, that sum is exactly ``0.0`` and is returned
    before any moment is formed.
    The ``a^-2`` factor cancels digits as ``a`` nears 0 (relative error
    ~1e-16 / (|a| w)^2), so for ``|a| w < 1`` the Taylor series in ``a``
    over the body's moments, from the first, is used instead; with
    ``_TAYLOR_TERMS`` terms its truncation is below
    ``(|a| w)^16 / 16! < 5e-14`` relative.  The moments are formed when a
    Taylor point first needs them, so a body the by-parts branch alone
    reads never forms them.  Near the switch both branches
    hold about 1e-12 relative (against a 40-digit evaluation of the
    401-node test table).  Both masks are taken point by point.
    A ladder whose first rung has ``Re(a) u_0 < _EXP_UNDERFLOW`` at the
    least node ``u_0`` is dead: every rung shares that real part, so every
    node exponential underflows to exactly 0 and the by-parts value is
    exactly ``-mass``.  A dead row is written so and not formed (it has no
    Taylor or guard point, as ``|a| w > 746``); only live rows take the
    exponentials, the turns and the rung loop.  Among the live rows, with
    ``top`` their largest first-rung ``Re(a)``, every node ``u_j`` with
    ``top u_j < _EXP_UNDERFLOW`` (and the last end) has an exponential of
    exactly 0 in every row and on every rung, so only the nodes before it
    are formed: the live prefix, whose slope row sums alone are taken.
    """
    nodes, weights = body.nodes, body.weights
    reach = nodes[-1]
    real = isinstance(a, float)
    if real and abs(a) * reach < 1.0:
        if a == 0.0:
            return 0.0  # the sum below at +-0, with no moment formed
        moments, acc, ak = body.moments, 0.0, a
        for k in range(1, _TAYLOR_TERMS):
            acc += ak * moments[k]
            ak *= a * (1.0 / (k + 1))  # numpy's complex a / (k + 1), real part
        return float(acc)
    if real and a * reach <= _EXP_GUARD:
        ak = complex(a)
        terms = np.exp(ak * nodes) * weights
        return float(((terms[0] + terms[-1] - terms[1:-1].sum() / ak) / ak - body.mass).real)
    a = np.asarray(a, dtype=complex)
    total = np.zeros(a.shape, dtype=complex)
    guard = a.real * reach > _EXP_GUARD
    taylor = (np.abs(a) * reach < 1.0) & ~guard
    # ladders as rows; only live rows with a by-parts point are formed, and
    # the masks then overwrite the rungs they take
    rungs = a.shape[-1] if step is not None else 1
    ladders = a.reshape(-1, rungs)
    rows = ~(taylor | guard).reshape(ladders.shape).all(axis=1)
    dead = ladders[:, 0].real * nodes[0] < _EXP_UNDERFLOW
    total.reshape(ladders.shape)[dead] = -body.mass
    rows &= ~dead
    if rows.any():
        lad = ladders[rows]
        # past the first `cut` slope nodes, and at the last end, every node
        # exponential of every row is exactly 0: a row of `live` is the
        # first end and the first `cut` slope nodes, or every node
        n = len(nodes) - 2
        top = lad[:, 0].real.max()
        cut = n if top >= 0.0 else int(np.count_nonzero(top * nodes[1:-1] >= _EXP_UNDERFLOW))
        formed = n + 2 if cut == n else cut + 1
        with np.errstate(all="ignore"):  # rungs the masks replace may overflow
            live = np.multiply.outer(lad[:, 0], nodes[:formed])
            np.exp(live, out=live)
            live *= weights[:formed]
            if rungs > 1:
                step = np.broadcast_to(step, a.shape[:-1]).ravel()[rows]
                turn = np.exp(1j * np.multiply.outer(step, nodes[:formed]))
            # per rung three ufunc calls on views taken once: the turn, the
            # slope jumps' row sums and the end pair; then one quotient
            sums = np.empty((rungs, len(lad)), dtype=complex)
            ends = np.empty_like(sums)
            slopes, first = live[:, 1:cut + 1], live[:, 0]
            last = live[:, -1] if cut == n else 0.0
            mul, add, row_sum = np.multiply, np.add, np.add.reduce
            for k, (sum_k, end_k) in enumerate(zip(sums, ends)):
                if k:
                    mul(live, turn, live)
                row_sum(slopes, 1, None, sum_k)
                add(first, last, end_k)
            out = (ends - sums / lad.T) / lad.T
        out -= body.mass
        total.reshape(ladders.shape)[rows] = out.T
    if taylor.any():
        moments = body.moments
        at = a[taylor]
        acc = np.zeros(at.shape, dtype=complex)
        ak = at.copy()
        for k in range(1, _TAYLOR_TERMS):
            acc += ak * moments[k]
            ak *= at / (k + 1)
        total[taylor] = acc
    total[guard] = np.inf
    return float(total.real) if real else total


def _jump_expm1(jumps: JumpSpec, lo: float, s: float, a, step=None):
    """``integral_(u >= lo) pi(u) expm1(a (u - s)) du`` for ``lo >= s``,
    elementwise over ``a`` (``step`` marks a ladder, as in :func:`_body_expm1`).

    The body is :func:`_body_expm1` on the cached whole ``_body``'s
    :meth:`_Body.cut` at ``(lo, s)``.  The tail past
    ``start = max(lo, zN)`` holds mass ``M`` and gives
    ``M (r expm1(a d) + a)/(r - a)``, ``d = start - s``: its digits hold as
    ``a -> 0``, and past the abscissa it is the continuation.  A tail taken
    where it starts (``d = 0``, as ``psi``'s is on a density that is the
    tail alone) is ``M a/(r - a)``, with no ``expm1(a 0)`` formed.  Where
    ``Re(a d) < _EXP_UNDERFLOW``, ``e^(a d)`` underflows and ``expm1(a d)``
    is exactly ``-1``, its correctly rounded value, whatever the imaginary
    part; an Euler ladder's rungs share that real part, and its imaginary
    parts reach ~1e12, where ``np.expm1``'s argument reduction is slow, so
    ``np.expm1`` forms the other points only.  A real scalar ``a`` gives a
    float, and on a tail-only density stays in :mod:`math` (``inf`` once
    ``a d`` passes 709); a complex scalar gives a complex scalar.
    """
    knots, _, r = jumps._pieces
    zN, tail, real = knots[-1], jumps._tail_mass, isinstance(a, float)
    total = 0.0
    if jumps._body is not None and lo < zN:
        total = _body_expm1(jumps._body.cut(lo, s), a, step)
    if tail > 0.0:
        start = lo if lo > zN else zN
        mass = tail if start == zN else tail * math.exp(-r * (start - zN))
        if start == s:  # expm1(a * 0) = 0
            top = a
        else:
            x = a * (start - s)
            if real:
                grow = math.expm1(x) if x <= 709.0 else math.inf
            else:  # exactly -1 where e^x underflows, so expm1 forms the rest only
                grow = np.full(np.shape(x), -1.0 + 0j)
                np.expm1(x, out=grow, where=~np.less(np.real(x), _EXP_UNDERFLOW))
            top = r * grow + a
        total = total + mass * top / (r - a)
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

    ``integral pi(u) expm1(-theta u) du`` by :func:`_jump_expm1`, plus the
    compensator: scalar Python except for the body's moment, so a tail-only
    density costs a few float operations.
    """
    if not jumps._mass:
        return 0.0
    r = jumps._pieces[2]
    if jumps._tail_mass > 0.0 and theta <= -r:
        raise DivergentExponent(
            f"jump tail decays at rate {r}; the exponent "
            f"diverges for theta={theta} <= {-r}"
        )
    return _jump_expm1(jumps, 0.0, 0.0, -theta) + theta * jumps._m1


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
    of one rung.  Never raises: past the abscissa of convergence
    :func:`_jump_expm1`'s tail form is the continuation; at the tail's pole,
    past the body's overflow guard or where the magnitude would overflow,
    ``inf`` is returned so transform evaluations degrade to 0.  With no
    jumps it is the drift and Gaussian part alone.
    """
    beta = np.asarray(beta, dtype=complex)
    j = model.jumps
    out = model.mu * beta + 0.5 * model.b2 * beta * beta
    if j._mass:
        with np.errstate(all="ignore"):
            out += _jump_expm1(j, 0.0, 0.0, -beta, None if step is None else np.negative(step))
            out += beta * j._m1
    out[~np.isfinite(out)] = np.inf
    return out


def _psi_fraction(model: LevyModel) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
    """``psi`` as a ratio ``num / den`` of polynomials (tuples of float
    coefficients, highest power first), or ``None`` when the jump part is
    not rational.

    Rational means no linear body: the density is the tail alone, from one
    knot at 0, and its mass ``T`` and rate ``r`` clear the denominator
    ``r + theta``; with zero mass ``den`` is 1.  Without a Gaussian part
    ``num`` drops its leading zero, so ``num`` has degree at most 3 and
    ``den`` at most 1 (one exponential phase).
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
    return (tuple(map(float, num[1:] if model.b2 == 0.0 else num)),
            tuple(map(float, den)))


def brentq(f, lo: float, hi: float, xtol: float = 1e-300) -> float:
    """The root of ``f`` on ``[lo, hi]`` by Brent's method (Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 4): inverse quadratic
    interpolation, or a secant step, while it shortens the bracket fast
    enough, else bisection.  Stops once the bracket is narrower than
    ``xtol + _BRENT_RTOL |x|``.  A line-for-line port of the reference C
    ``brentq.c``: the same steps in the same floating-point order, so each
    root is bit-identical to that routine's.  ``BracketError`` when ``f(lo)``
    and ``f(hi)`` share a sign, when ``f`` returns nan, or after
    ``_BRENT_MAXITER`` steps.  It forms the two end values, and
    :func:`_brent_steps` takes the steps from them.
    """
    return _brent_steps(f, lo, hi, float(f(lo)), float(f(hi)), xtol)


def _brent_steps(f, lo: float, hi: float, flo: float, fhi: float, xtol: float = 1e-300) -> float:
    """:func:`brentq` from the end values ``flo = f(lo)`` and ``fhi = f(hi)``."""
    xpre, xcur, fpre, fcur = float(lo), float(hi), flo, fhi
    if math.isnan(fpre) or math.isnan(fcur):
        raise BracketError(f"f is nan at an end of [{lo:g}, {hi:g}]")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if not (fpre < 0.0) ^ (fcur < 0.0):
        raise BracketError(f"no sign change of f on [{lo:g}, {hi:g}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0.0) ^ (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise BracketError(f"f is nan at {xcur!r}")
    raise BracketError(f"no convergence in {_BRENT_MAXITER} steps on [{lo:g}, {hi:g}]")


def _root_past(f, lo: float, flo: float, failure: Exception) -> float:
    """The root of an ``f`` that changes sign once past ``lo``, for :func:`phi`
    and ``solver.q0``: from the known ``flo = f(lo)``, ``f`` at 1, 2, 4, ...
    to a strict sign change (``failure`` past ``2^79``), and Brent's steps
    from those ends."""
    hi = 1.0
    for _ in range(80):
        fhi = float(f(hi))
        if (fhi < 0.0) if flo > 0.0 else (fhi > 0.0):
            return _brent_steps(f, lo, hi, flo, fhi)
        hi *= 2.0
    raise failure


def _psi_known(model: LevyModel, known: dict, theta: float) -> float:
    """``psi(theta)`` read from ``known`` (values by ``theta``) or evaluated
    by :func:`laplace_exponent` and added to it: root searches that share
    ``known`` evaluate ``psi`` at each ``theta`` once.  A dict and a plain
    call, because a Brownian ``psi`` costs ~0.3 us and a heavier memo
    would cost the searches more than the repeats it saves."""
    val = known.get(theta)
    if val is None:
        val = known[theta] = laplace_exponent(model, theta)
    return val


def _memo_per_level(search):
    """Memoise ``search(model, p, known=None)`` per ``(model, p)``, with
    ``known`` left out of the key: it saves ``psi`` evaluations and never
    changes the root.  The memo holds at most 256 roots and starts over when
    full; ``__wrapped__`` is the search and ``cache_clear`` empties it."""
    memo: dict = {}

    @wraps(search)
    def memoised(model: LevyModel, p: float, known: dict | None = None) -> float:
        key = (model, p)
        root = memo.get(key)
        if root is None:
            if len(memo) >= 256:
                memo.clear()
            root = memo[key] = search(model, p, known)
        return root
    memoised.cache_clear = memo.clear
    return memoised


@_memo_per_level
def phi(model: LevyModel, p: float, known: dict | None = None) -> float:
    """Largest nonnegative root of ``psi(theta) = p`` (the right inverse).

    Convexity of ``psi`` with ``psi(0) = 0`` makes ``{theta >= 0 : psi <= p}``
    an interval ``[0, Phi(p)]``, so :func:`_root_past` brackets the root on
    ``[0, 2^k]`` from ``psi(0) - p = -p``, which ``psi`` returns exactly on
    every model (on ``[1e-7, 2^k]`` at ``p = 0``, where 0 is a root too).
    Memoised per ``(model, p)``: a solve reads ``Phi(q)`` in its scale
    build, its thresholds and its fit report, and the root is found once.
    ``known`` holds ``psi`` values by ``theta`` that the caller has formed
    (``solver.classify`` passes its rate searches'); the search reads them
    and adds its own (:func:`_psi_known`).
    """
    if not (p >= 0.0) or not math.isfinite(p):
        raise DomainError(f"phi() needs p >= 0, got {p}")
    if known is None:  # nothing to share: psi directly, with no dict
        def f(th: float) -> float:
            return laplace_exponent(model, th) - p
    else:
        def f(th: float) -> float:
            return _psi_known(model, known, th) - p
    lo, flo = (1e-7, f(1e-7)) if p == 0.0 else (0.0, -p)
    if flo >= 0.0:
        return 0.0
    return _root_past(f, lo, flo, DomainError(f"could not bracket the inverse of psi at p={p}"))


@lru_cache(maxsize=256)
def exp_growth_rate(model: LevyModel) -> float:
    """``psi(-1) = log E[exp(X_1)]``, or ``+inf`` when that moment diverges.

    Memoised per model, as :func:`phi` is: the discount condition, ``q0``
    and every step of ``q1``'s root finder read it, and it is evaluated
    once.  It is the one place that evaluates ``psi`` at -1 (CI checks it).
    """
    try:
        return laplace_exponent(model, -1.0)
    except DivergentExponent:
        return math.inf


def meets_discount_condition(model: LevyModel, q: float) -> bool:
    """Whether ``q > psi(-1)``, so discounted conversion payoffs stay integrable."""
    if not (q > 0.0):
        return False
    return q > exp_growth_rate(model)


def require_discount_condition(model: LevyModel, q: float) -> None:
    """:class:`MomentConditionError` unless :func:`meets_discount_condition`:
    the one gate of the solver, the Monte Carlo estimators and the CLI."""
    if not meets_discount_condition(model, q):
        raise MomentConditionError(
            f"discount rate q={q:g} does not exceed the share growth rate "
            f"psi(-1)={exp_growth_rate(model):g}; discounted payoffs have no finite mean")


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
    In ``u = z + s`` both run over ``u >= lo = max(s, 0)`` against
    ``expm1(a (u - s))``, so no factor ``exp(phi_q s)`` is formed apart:
    with ``E(a)`` that :func:`_jump_expm1`, ``I1 = -E(-phi_q)`` and
    ``I2 = E(1) - E(-phi_q)``.
    """
    if not (phi_q > 0.0):
        raise DomainError(f"phi_q must be positive, got {phi_q}")
    j = model.jumps
    r = j._pieces[2]
    if r <= 1.0 and j._tail_mass > 0.0:
        raise DivergentExponent(
            f"I2 diverges: the jump tail decays at rate {r} <= 1, so exp(z) beats it"
        )
    lo = max(s, 0.0)
    e_neg = _jump_expm1(j, lo, s, -float(phi_q))
    i1, i2 = -e_neg, _jump_expm1(j, lo, s, 1.0) - e_neg
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
    the tail in closed form (its rate must exceed 1), for
    :func:`jump_passage_means`."""
    knots, _, r = jumps._pieces
    zN, tail = knots[-1], jumps._tail_mass
    past = np.maximum(u, zN)
    # without a tail its rate may be inf, and inf * 0 is nan
    mass = tail * np.exp(-r * (past - zN)) if tail > 0.0 else np.zeros(u.shape)
    expo = mass * r / (r - 1.0) * np.exp(past - d) if tail > 0.0 else np.zeros(u.shape)
    if jumps._cells is not None:
        z0, z1, p, m = jumps._cells
        # e^(z - zN) (v(z) - m) is an antiderivative of e^(z - zN) v(z) on a cell
        cell_exp = np.exp(z1 - zN) * (p + m * z1 - m) - np.exp(z0 - zN) * (p + m * z0 - m)
        exp_above = np.concatenate([np.cumsum(cell_exp[::-1])[::-1], [0.0]])
        uc = np.clip(u, knots[0], zN)
        k = np.minimum(np.searchsorted(z1, uc, side="right"), len(z1) - 1)
        in_body, vu, v1 = _mass_above(jumps._cells, jumps._above, k, uc)
        body = u < zN
        mass = np.where(body, in_body, mass)
        expo = np.where(body, expo + np.exp(zN - d) * exp_above[k + 1]
                        + np.exp(z1[k] - d) * (v1 - m[k]) - np.exp(uc - d) * (vu - m[k]), expo)
    return mass, expo


def jump_excess(model: LevyModel, t):
    """``G(t) = integral_t^inf pi(z) (e^(z - t) - 1) dz`` elementwise over
    ``t``, each :func:`_jump_expm1` at ``lo = s = t`` and ``a = 1``; past the
    last knot it is ``pi(t) / (r (r - 1))`` for tail rate ``r > 1``."""
    t = np.asarray(t, dtype=float)
    return np.array([_jump_expm1(model.jumps, u, u, 1.0)
                     for u in t.ravel().tolist()]).reshape(t.shape)


def _excess_transform(model: LevyModel, m: float, s, step=None) -> np.ndarray:
    """``integral_0^inf e^(-s y) G(m + y) dy`` for ``G = jump_excess`` and
    ``m >= 0``, elementwise over the complex array ``s`` (``step`` marks a
    ladder, as in :func:`_psi_c`).

    It is ``(E(1) + E(-s)/s)/(s + 1)`` with
    ``E(a) = integral_0^inf pi(m + u) expm1(a u) du``, :func:`_jump_expm1`
    at ``lo = s = m`` (``E(1)`` is ``G(m)``).  At real ``s = phi_q`` this
    is ``I2/(phi_q+1) - I1/phi_q`` of :func:`shifted_jump_integrals`, which
    stays scalar for the root finders.
    """
    s = np.asarray(s, dtype=complex)
    j = model.jumps
    with np.errstate(all="ignore"):  # far-left contour points overflow to inf
        e_neg = _jump_expm1(j, m, m, -s, None if step is None else np.negative(step))
        return (_jump_expm1(j, m, m, 1.0) + e_neg / s) / (s + 1.0)


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
    return _jump_sizes_into(model, np.array(u, dtype=float))


def _jump_sizes_into(model: LevyModel, u: np.ndarray) -> np.ndarray:
    """:func:`sample_jump_sizes` in place: the float array ``u``, of any
    shape, becomes the sizes and is returned.  The simulator maps a whole
    draw block this way, with no copy of its uniforms."""
    j = model.jumps
    mass = j._mass
    if mass <= 0.0:
        raise DomainError("model has no jump component to sample")
    knots, _, r = j._pieces
    share = j._tail_mass / mass
    b = 1.0 - share
    body = u < b
    # exceedance mass of each body sample, read before u is overwritten
    t = (1.0 - u[body]) * mass if np.any(body) else None
    # zN - log1p((b - u) / share) / r
    np.subtract(b, u, out=u)
    with np.errstate(divide="ignore", invalid="ignore"):  # share 0: all body
        u /= share
        np.log1p(u, out=u)
    u /= r
    np.subtract(knots[-1], u, out=u)
    if t is not None:
        z0, z1, p, m = j._cells
        above = j._above
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
        u[body] = np.clip(z, z0[idx], g1)
    return u
