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
]

logger = logging.getLogger(__name__)

# Real exponents beyond this produce inf in float64 anyway; used to short-circuit
# the analytic continuation of tabulated exponents on far-left contour points.
_EXP_GUARD = 600.0
_TAYLOR_TERMS = 16  # moments kept for the tabulated Taylor branch (|a| zN < 1)


# --------------------------------------------------------------------------- #
# jump specifications
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class NoJumps:
    """Purely continuous paths (no jump component)."""


@dataclass(frozen=True)
class ExponentialJumps:
    """Compound-Poisson upward jumps with an exponential size density.

    The jump measure has density ``rate * decay * exp(-decay * z)`` on
    ``(0, inf)``: jumps arrive at intensity ``rate`` and have mean size
    ``1 / decay``.
    """

    rate: float
    decay: float

    def __post_init__(self) -> None:
        if not (self.rate > 0.0) or not math.isfinite(self.rate):
            raise DomainError(f"jump rate must be positive, got {self.rate}")
        if not (self.decay > 0.0) or not math.isfinite(self.decay):
            raise DomainError(f"jump decay must be positive, got {self.decay}")


@dataclass(frozen=True)
class TabulatedDensity:
    """Jump density given by linear interpolation of samples plus an exponential tail.

    The density equals the piecewise-linear interpolant of ``(grid, values)`` on
    ``[grid[0], grid[-1]]`` and continues as ``values[-1] * exp(-tail_rate *
    (z - grid[-1]))`` beyond the last grid point.  Any intended mass below
    ``grid[0]`` is dropped (a warning is logged when the first sample is
    positive, since that suggests the tabulation was cut off).

    ``grid`` and ``values`` are stored as tuples so instances are hashable and
    can key internal caches.  The per-cell coefficients, the total mass and
    the compensator mass are computed once here and kept as non-field
    attributes, so they take no part in equality or hashing.
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
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "tail_rate", float(tail_rate))
        object.__setattr__(self, "_cells", _cells(g, v))
        object.__setattr__(self, "_body", _tab_body(self, g[0]))
        object.__setattr__(self, "_mass", _tab_mass(self))
        object.__setattr__(self, "_m1", _tab_zmoment_below(self, 1.0))
        if g[0] > 0.0 and v[0] > 0.0:
            logger.warning(
                "tabulated jump density starts at z=%g with value %g; "
                "mass below the first grid point (~%g) is dropped",
                g[0], v[0], 0.5 * g[0] * v[0],
            )


JumpSpec = Union[NoJumps, ExponentialJumps, TabulatedDensity]


# --------------------------------------------------------------------------- #
# tabulated-density cell machinery
#
# Every integral of the piecewise-linear density against polynomials or
# exponentials is evaluated in closed form cell by cell, so the tabulated
# family has *no* quadrature error anywhere: the interpolated density itself
# is the model.
# --------------------------------------------------------------------------- #

def _cells(grid, values):
    """Per-cell linear coefficients: density = p + m*z on [z0, z1] (read-only)."""
    z = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=float)
    z0, z1 = z[:-1], z[1:]
    m = (v[1:] - v[:-1]) / (z1 - z0)
    p = v[:-1] - m * z0
    for arr in (z0, z1, p, m):
        arr.flags.writeable = False
    return z0, z1, p, m


def _tab_body(tab: TabulatedDensity, lo: float):
    """The piecewise-linear part on ``[lo, grid[-1]]`` as :func:`_tab_exp_moment`
    integrates it: nodes, end values, slope jumps ``m_(j-1) - m_j`` (slope 0
    outside), and the moments ``integral u^k pi(u) du`` for
    ``k < _TAYLOR_TERMS``."""
    z0, z1, p, m = tab._cells
    keep = z1 > lo
    c0 = np.maximum(z0[keep], lo)
    c1 = z1[keep]
    cp = p[keep]
    cm = m[keep]
    nodes = np.concatenate([c0[:1], c1])
    ends = (cp[0] + cm[0] * c0[0], cp[-1] + cm[-1] * c1[-1])
    slopes = np.concatenate([[0.0], cm, [0.0]])
    moments = []
    for k in range(_TAYLOR_TERMS):
        mk = (c1 ** (k + 1) - c0 ** (k + 1)) / (k + 1)
        mk1 = (c1 ** (k + 2) - c0 ** (k + 2)) / (k + 2)
        moments.append(np.sum(cp * mk + cm * mk1))
    return nodes, ends, slopes[:-1] - slopes[1:], moments


def _tab_exp_moment(tab: TabulatedDensity, a, lower: float = 0.0) -> np.ndarray:
    """``integral_{max(lower, grid[0])}^{inf} exp(a*u) pi(u) du``, elementwise
    over the complex array ``a``.

    The tail piece is evaluated by its closed form
    ``values[-1] * exp(a*zN) / (tail_rate - a)``, which is also the analytic
    continuation used on inversion contours where the defining integral
    diverges.  It is ``inf`` at the pole ``a = tail_rate`` and wherever
    ``Re(a) * zN`` exceeds ``_EXP_GUARD``.  Real-axis convergence checks are
    the caller's business.

    The linear pieces are integrated by parts,
    ``int f e^(au) du = [f e^(au) / a] - a^-2 sum_j e^(a u_j) (m_(j-1) - m_j)``
    over the nodes ``u_j`` and slopes ``m_j``, so each node costs one
    exponential and the cell sum is one matrix-vector product.  Its ``a^-2``
    factor cancels digits as ``a`` nears 0 (relative error ~1e-16 /
    (|a| zN)^2), so for ``|a| zN < 1`` the Taylor series in ``a`` over the
    stored moments is used instead; with ``_TAYLOR_TERMS`` terms its
    truncation is below ``(|a| zN)^16 / 16! < 5e-14`` relative.  Near the
    switch both branches hold about 1e-12 relative (against a 40-digit
    evaluation of the 401-node test table).
    """
    a = np.asarray(a, dtype=complex)
    zN = tab.grid[-1]
    r = tab.tail_rate
    lo = max(lower, tab.grid[0])
    total = np.zeros(a.shape, dtype=complex)
    guard = a.real * zN > _EXP_GUARD
    if lo < zN:
        nodes, (f0, fN), kinks, moments = (
            tab._body if lo == tab.grid[0] else _tab_body(tab, lo))
        taylor = (np.abs(a) * zN < 1.0) & ~guard
        if np.any(taylor):
            at = a[taylor]
            acc = np.zeros(at.shape, dtype=complex)
            ak = np.ones(at.shape, dtype=complex)
            for k, mom in enumerate(moments):
                acc += ak * mom
                ak *= at / (k + 1)
            total[taylor] = acc
        big = ~taylor & ~guard
        ab = a[big]
        e = np.multiply.outer(ab, nodes)
        np.exp(e, out=e)
        total[big] = (fN * e[:, -1] - f0 * e[:, 0] - (e @ kinks) / ab) / ab
    vN = tab.values[-1]
    pole = (a == r) & (vN > 0.0)
    if vN > 0.0:
        start = max(lo, zN)
        ok = ~pole & ~guard
        at = a[ok]
        # density on the tail is vN * exp(-r*(u - zN))
        total[ok] += vN * np.exp(at * start - r * (start - zN)) / (r - at)
    total[guard | pole] = np.inf
    return total


def _tab_mass(tab: TabulatedDensity, lower: float = 0.0) -> float:
    """Total jump intensity above ``lower``."""
    z0, z1, p, m = tab._cells
    zN = tab.grid[-1]
    lo = max(lower, tab.grid[0])
    total = 0.0
    if lo < zN:
        keep = z1 > lo
        c0 = np.maximum(z0[keep], lo)
        c1 = z1[keep]
        total += float(np.sum(p[keep] * (c1 - c0) + 0.5 * m[keep] * (c1**2 - c0**2)))
    vN = tab.values[-1]
    if vN > 0.0:
        start = max(lo, zN)
        total += vN * math.exp(-tab.tail_rate * (start - zN)) / tab.tail_rate
    return total


def _tab_zmoment_below(tab: TabulatedDensity, upper: float) -> float:
    """``integral_0^upper u * pi(u) du`` (the compensator mass below ``upper``)."""
    z0, z1, p, m = tab._cells
    zN = tab.grid[-1]
    r = tab.tail_rate
    total = 0.0
    keep = z0 < upper
    if np.any(keep):
        c0 = z0[keep]
        c1 = np.minimum(z1[keep], upper)
        total += float(np.sum(p[keep] * (c1**2 - c0**2) / 2 + m[keep] * (c1**3 - c0**3) / 3))
    vN = tab.values[-1]
    if vN > 0.0 and upper > zN:
        # integral zN..upper of u * vN * exp(-r*(u-zN)) du
        def prim(u: float) -> float:
            return -math.exp(-r * (u - zN)) * (u / r + 1.0 / r**2)
        total += vN * (prim(upper) - prim(zN))
    return total


def _tab_cumulative(tab: TabulatedDensity):
    """Exceedance masses at grid points (descending), for inverse-CDF sampling."""
    z0, z1, p, m = tab._cells
    cell_mass = p * (z1 - z0) + 0.5 * m * (z1**2 - z0**2)
    tail = tab.values[-1] / tab.tail_rate
    above = np.concatenate([np.cumsum(cell_mass[::-1])[::-1] + tail, [tail]])
    return above  # above[i] = mass above grid[i]


def _tab_quantile(tab: TabulatedDensity, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample of the density; ``u`` is uniform on [0,1)."""
    z0, z1, p, m = tab._cells
    grid = np.asarray(tab.grid)
    above = _tab_cumulative(tab)
    zN = grid[-1]
    r = tab.tail_rate
    if tab._mass <= 0.0:
        raise DomainError("tabulated density has no jump mass; cannot sample")
    target = (1.0 - np.asarray(u)) * tab._mass  # exceedance mass of the sample
    out = np.empty_like(target)
    tail_mass = above[-1]
    in_tail = target <= tail_mass
    if np.any(in_tail):
        t = np.maximum(target[in_tail], 1e-300)
        out[in_tail] = zN + np.log(tail_mass / t) / r if tail_mass > 0 else zN
    body = ~in_tail
    if np.any(body):
        t = target[body]
        # locate the cell: above[] is decreasing in the grid index
        idx = np.searchsorted(-above, -t, side="right") - 1
        idx = np.clip(idx, 0, len(z0) - 1)
        g1 = z1[idx]
        pp = p[idx]
        mm = m[idx]
        # solve mass(z .. g1) + above[idx+1] = t  for z in the cell
        rem = t - above[idx + 1]
        # pp*(g1 - z) + mm*(g1^2 - z^2)/2 = rem  ->  quadratic in z
        a2 = 0.5 * mm
        b2_ = pp
        c2 = rem - pp * g1 - 0.5 * mm * g1**2
        lin = np.abs(mm) < 1e-14
        z = np.empty_like(t)
        z[lin] = -c2[lin] / b2_[lin]
        ql = ~lin
        disc = np.sqrt(np.maximum(b2_[ql] ** 2 - 4 * a2[ql] * c2[ql], 0.0))
        zq = (-b2_[ql] + disc) / (2 * a2[ql])
        z[ql] = zq
        out[body] = np.clip(z, z0[idx], g1)
    return out


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
    if isinstance(jumps, NoJumps):
        return 0.0
    if isinstance(jumps, ExponentialJumps):
        lam, rho = jumps.rate, jumps.decay
        return lam * ((1.0 - math.exp(-rho)) / rho - math.exp(-rho))
    return jumps._m1


def jump_intensity(model: LevyModel) -> float:
    """Total arrival rate of jumps (finite for every supported jump spec)."""
    j = model.jumps
    if isinstance(j, NoJumps):
        return 0.0
    if isinstance(j, ExponentialJumps):
        return j.rate
    return j._mass


def _density_pieces(jumps: JumpSpec) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """A jump density (not ``NoJumps``) as ``(knots, values, tail_rate)``:
    linear between the ``(knots, values)`` samples, 0 below the first knot
    and ``values[-1] * exp(-tail_rate * (z - knots[-1]))`` past the last.
    Exponential jumps are the tail alone, from one knot at 0."""
    if isinstance(jumps, ExponentialJumps):
        return (0.0,), (jumps.rate * jumps.decay,), jumps.decay
    return jumps.grid, jumps.values, jumps.tail_rate


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
    """Jump part of psi for real theta, raising on divergence."""
    if isinstance(jumps, NoJumps):
        return 0.0
    if isinstance(jumps, ExponentialJumps):
        lam, rho = jumps.rate, jumps.decay
        if theta <= -rho:
            raise DivergentExponent(
                f"exp(-theta*z) is not integrable against the jump density for "
                f"theta={theta} <= -decay={-rho}"
            )
        return -lam * theta / (rho + theta) + theta * _m1(jumps)
    if theta <= -jumps.tail_rate and jumps.values[-1] > 0.0:
        raise DivergentExponent(
            f"jump tail decays at rate {jumps.tail_rate}; the exponent "
            f"diverges for theta={theta} <= {-jumps.tail_rate}"
        )
    moment = float(_tab_exp_moment(jumps, -theta).real)
    return moment - jumps._mass + theta * jumps._m1


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


def _psi_c(model: LevyModel, beta) -> np.ndarray:
    """Analytic continuation of psi for inversion contours, elementwise over
    the complex array ``beta``.

    Never raises: points past the abscissa of convergence use the closed-form
    continuation (rational families) or the tail continuation (tabulated);
    at a pole or where the magnitude would overflow, ``inf`` is returned so
    transform evaluations degrade to 0.
    """
    beta = np.asarray(beta, dtype=complex)
    j = model.jumps
    base = model.mu * beta + 0.5 * model.b2 * beta * beta
    if isinstance(j, NoJumps):
        return base
    if isinstance(j, ExponentialJumps):
        lam, rho = j.rate, j.decay
        pole = beta == -rho
        with np.errstate(divide="ignore", invalid="ignore"):
            out = base - lam * beta / (rho + beta) + beta * _m1(j)
        out[pole] = np.inf
        return out
    moment = _tab_exp_moment(j, -beta)
    out = base + moment - j._mass + beta * j._m1
    out[~np.isfinite(moment)] = np.inf
    return out


def _psi_fraction(model: LevyModel) -> tuple[np.ndarray, np.ndarray] | None:
    """``psi`` as a ratio ``num / den`` of polynomials (coefficient arrays,
    highest power first), or ``None`` when the jump part is not rational.

    Exponential jumps clear the denominator ``rho + theta``; without jumps
    ``den`` is 1.  Without a Gaussian part ``num`` drops its leading zero.
    """
    j = model.jumps
    half_b2 = model.b2 / 2.0
    if isinstance(j, NoJumps):
        num, den = [half_b2, model.mu, 0.0], [1.0]
    elif isinstance(j, ExponentialJumps):
        lam, rho = j.rate, j.decay
        mt = model.mu + _m1(j)
        num, den = [half_b2, mt + half_b2 * rho, mt * rho - lam, 0.0], [1.0, rho]
    else:
        return None
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

    For the tabulated family the tilted density ``exp(-lam z) pi(z)`` is
    re-tabulated on the same grid, so the identity above holds only up to the
    grid's interpolation error; rational families tilt exactly.
    """
    # will raise DivergentExponent when lam is out of the exponent's domain
    laplace_exponent(model, lam)
    j = model.jumps
    if isinstance(j, NoJumps):
        tilted: JumpSpec = NoJumps()
    elif isinstance(j, ExponentialJumps):
        if j.decay + lam <= 0.0:
            raise DivergentExponent("tilt parameter outside the exponent domain")
        tilted = ExponentialJumps(rate=j.rate * j.decay / (j.decay + lam),
                                  decay=j.decay + lam)
    else:
        if j.tail_rate + lam <= 0.0:
            raise DivergentExponent("tilt parameter outside the exponent domain")
        vals = tuple(v * math.exp(-lam * z) for z, v in zip(j.grid, j.values))
        tilted = TabulatedDensity(j.grid, vals, j.tail_rate + lam)
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
    tail to decay faster than ``exp(-z)`` (DivergentExponent otherwise).
    """
    if not (phi_q > 0.0):
        raise DomainError(f"phi_q must be positive, got {phi_q}")
    j = model.jumps
    if isinstance(j, NoJumps):
        return 0.0, 0.0
    if isinstance(j, ExponentialJumps):
        lam, rho = j.rate, j.decay
        if rho <= 1.0:
            raise DivergentExponent(
                f"I2 diverges: jump decay {rho} <= 1 so exp(z) beats the tail"
            )
        if s >= 0.0:
            e = math.exp(-rho * s)
            i1 = lam * e * phi_q / (rho + phi_q)
            i2 = lam * rho * e * (phi_q + 1.0) / ((rho - 1.0) * (rho + phi_q))
        else:
            i1 = lam * (1.0 - math.exp(phi_q * s) * rho / (rho + phi_q))
            i2 = lam * rho * (math.exp(-s) / (rho - 1.0)
                              - math.exp(phi_q * s) / (rho + phi_q))
        return i1, i2
    if j.tail_rate <= 1.0 and j.values[-1] > 0.0:
        raise DivergentExponent(
            f"I2 diverges: tabulated tail decay {j.tail_rate} <= 1"
        )
    lo = max(s, 0.0)
    mass = _tab_mass(j, lo)
    e_neg, e_pos = _tab_exp_moment(j, np.array([-phi_q, 1.0]), lo).real.tolist()
    i1 = mass - math.exp(phi_q * s) * e_neg
    i2 = math.exp(-s) * e_pos - math.exp(phi_q * s) * e_neg
    return max(i1, 0.0), max(i2, 0.0)


# --------------------------------------------------------------------------- #
# jump-size sampling (used by the simulator)
# --------------------------------------------------------------------------- #

def sample_jump_sizes(model: LevyModel, u: np.ndarray) -> np.ndarray:
    """Map uniforms ``u`` to jump sizes by the inverse CDF."""
    j = model.jumps
    u = np.asarray(u, dtype=float)
    if isinstance(j, NoJumps):
        raise DomainError("model has no jump component to sample")
    if isinstance(j, ExponentialJumps):
        return -np.log1p(-u) / j.decay
    return _tab_quantile(j, u)
