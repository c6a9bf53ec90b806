"""Scale functions of the dual process: closed forms and certified numeric inversion.

``W`` (denoted ``w`` here) is the nondecreasing function vanishing on the
negative half-line whose Laplace transform is ``1/(psi(beta) - q)`` for
``beta > Phi(q)``; ``Z(x) = 1 + q * integral_0^x W``.  Both drive every
first-passage identity and value formula in the solver.

Two evaluation routes exist and are cross-checked against each other:

* **Partial-fraction closed forms** whenever ``psi(theta) - q`` is rational
  (no jumps, or exponential jumps): clearing denominators leaves a polynomial
  of degree <= 3 whose simple roots ``theta_i`` give
  ``W(x) = sum_i c_i exp(theta_i x)``.
* **Numeric Laplace inversion** of the tilted transform
  ``G(b) = 1/(psi(b + Phi(q)) - q)`` (tilting moves the rightmost singularity
  to 0 and makes the inverse bounded, which conditions the inversion).  For
  rational exponents the primary rule is a 64-node fixed-Talbot contour with
  exactly rounded (fsum) accumulation, cross-validated by an Euler-summation
  inverter at 10 points.  Tabulated exponents have entire transform pieces
  whose ``psi - q`` acquires complex zeros off the real axis; a deformed
  contour silently crosses those poles, so there the Euler inverter (vertical
  Bromwich line, no deformation) is primary and certification is by the
  forward transform identity instead.

Both inverters work on arrays of ``x``: the cache grid, the 10 check points
or a derivative stencil go in as one call.  Each block of ``_CHUNK_ROWS``
points builds its (x, node) contour, calls the transform once on it and
combines the terms row by row, so a tabulated transform's (x, node, density
node) exponentials stay under 1 MB at a time.  Talbot still sums each x's
64 terms exactly rounded (``math.fsum`` per row).

The tabulated transform integrates the density by parts (see
``model._tab_exp_moment``), which orders its cell sum differently from a
cell-by-cell evaluation.  The Euler rule multiplies its series by
``e^(A/2)/x ~ 3.6e4/x``, which amplifies any such reordering, so Euler
values move by ~1e-11 relative between the two orders, far inside the
certified tolerances.  (Talbot values on rational transforms move by
~1e-13, from numpy's array arithmetic in place of scalar ``cmath``.)

Off the closed forms, ``W`` on the cache grid is a PCHIP interpolant of the
tilted values.  :func:`w` reads it from the stored knots and coefficients by
bisection, in PPoly's own evaluation order, so it equals
``PchipInterpolator`` bit for bit at a fraction of the per-call cost that
the nested quadratures of the solver pay tens of thousands of times.
"""

from __future__ import annotations

import cmath
import enum
import math
import warnings
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, wraps

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import PchipInterpolator

from .errors import AccuracyError, DomainError
from .model import (
    ExponentialJumps,
    LevyModel,
    NoJumps,
    _m1,
    _psi_c,
    esscher_tilt,
    jump_intensity,
    laplace_exponent,
    path_variation,
    phi,
)

__all__ = [
    "Method",
    "ScaleEvaluator",
    "scale_evaluator",
    "w",
    "z",
    "w_prime",
    "w_integrals",
    "tilted_w",
    "laplace_selfcheck",
]

_CACHE_LO, _CACHE_HI, _CACHE_N = 1e-4, 50.0, 2048
_TALBOT_M = 64
# Contour radius r = 8/x: small enough that float64 term rounding stays near
# 1e-13 of the result, large enough that the trapezoid discretisation error
# is far below that (verified against closed forms in the tests).
_TALBOT_RADIUS = 8.0
_TH = np.pi * np.arange(1, _TALBOT_M) / _TALBOT_M
_COT = 1.0 / np.tan(_TH)
_SIG = _TH + (_TH * _COT - 1.0) * _COT
_CONTOUR = _TH * (_COT + 1j)

# Euler-summation (binomial-averaged Bromwich series) parameters: aliasing
# error ~ exp(-A), roundoff ~ exp(A/2) * eps; A = 21 balances both near 1e-9.
_EULER_A, _EULER_N, _EULER_ME = 21.0, 20, 13
_EULER_BINOM = np.array([math.comb(_EULER_ME, j) for j in range(_EULER_ME + 1)], dtype=float)
_EULER_K = np.arange(_EULER_N + _EULER_ME + 1)
# series weights: the k = 0 term is halved, the rest alternate in sign
_EULER_SIGN = np.where(_EULER_K % 2 == 1, -1.0, 1.0)
_EULER_SIGN[0] = 0.5

# x-points per inverter block: 4 x 34 Euler nodes x 401 density nodes of
# complex exponentials is under 1 MB, so building a tabulated evaluator raises
# the peak resident memory by about that much, whatever the cache grid size.
_CHUNK_ROWS = 4


class Method(enum.Enum):
    """How an evaluator computes ``W``."""

    CLOSED_FORM_TWO_EXP = "closed_form_two_exp"
    CLOSED_FORM_THREE_EXP = "closed_form_three_exp"
    NUMERIC_INVERSION = "numeric_inversion"


# --------------------------------------------------------------------------- #
# numeric inverters
# --------------------------------------------------------------------------- #

def _in_row_blocks(rule):
    """Run an inversion rule on ``x`` in blocks of ``_CHUNK_ROWS`` points, so
    its (x, node) contour and the transform's arrays stay under 1 MB."""
    @wraps(rule)
    def invert(transform, x: np.ndarray) -> np.ndarray:
        return np.concatenate([rule(transform, x[i:i + _CHUNK_ROWS])
                               for i in range(0, len(x), _CHUNK_ROWS)])
    return invert


@_in_row_blocks
def _talbot(transform, x: np.ndarray) -> np.ndarray:
    """Fixed-Talbot inverse at each point of ``x``, each an exactly rounded sum."""
    r = _TALBOT_RADIUS / x
    s = np.empty((len(x), _TALBOT_M), dtype=complex)
    s[:, 0] = r
    s[:, 1:] = r[:, None] * _CONTOUR
    vals = transform(s)
    terms = np.empty((len(x), _TALBOT_M))
    terms[:, 0] = 0.5 * np.exp(r * x) * vals[:, 0].real
    terms[:, 1:] = (np.exp(x[:, None] * s[:, 1:]) * vals[:, 1:] * (1.0 + 1j * _SIG)).real
    return (r / _TALBOT_M) * np.array([math.fsum(row) for row in terms])


@_in_row_blocks
def _euler(transform, x: np.ndarray) -> np.ndarray:
    """Euler-summed Bromwich inverse at each point of ``x``."""
    s = np.empty((len(x), _EULER_N + _EULER_ME + 1), dtype=complex)
    s.real = (_EULER_A / (2.0 * x))[:, None]
    s.imag = _EULER_K * math.pi / x[:, None]
    terms = _EULER_SIGN * transform(s).real
    partial = np.cumsum(terms, axis=1)
    avg = partial[:, _EULER_N:] @ _EULER_BINOM
    return math.exp(_EULER_A / 2.0) / x * avg / 2.0**_EULER_ME


def _tilted_transform(model: LevyModel, q: float, phi_q: float):
    """``b -> 1/(psi(b + Phi(q)) - q)`` on arrays, 0 where psi is infinite."""
    def transform(b: np.ndarray) -> np.ndarray:
        den = _psi_c(model, b + phi_q) - q
        out = np.zeros_like(den)
        ok = (den != 0.0) & np.isfinite(den.real)
        out[ok] = 1.0 / den[ok]
        return out
    return transform


def _inverter(model: LevyModel):
    """Talbot for rational exponents, Euler for tabulated ones (module docstring)."""
    return _talbot if isinstance(model.jumps, (NoJumps, ExponentialJumps)) else _euler


# --------------------------------------------------------------------------- #
# evaluator
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class ScaleEvaluator:
    """Immutable per-(model, q) evaluator; build with :func:`scale_evaluator`.

    ``cache`` holds the precomputed ``(x, W(x))`` grid.  ``roots``/``weights``
    are the partial-fraction data for closed forms and ``None`` otherwise.
    Construction does all precomputation; every operation afterwards is pure.
    """

    model: LevyModel
    q: float
    method: Method
    phi_q: float
    w0: float
    w0_prime: float
    roots: tuple[complex, ...] | None
    weights: tuple[complex, ...] | None
    cache: np.ndarray = field(repr=False)
    _tilted: tuple[list[float], tuple[array, ...]] | None = field(repr=False)


def _rational_poly(model: LevyModel, q: float):
    """Polynomial with the roots of ``psi - q`` and the cleared numerator."""
    j = model.jumps
    if isinstance(j, NoJumps):
        if model.b2 > 0.0:
            poly = [model.b2 / 2.0, model.mu, -q]
        else:
            poly = [model.mu, -q]
        return np.array(poly), 0.0  # numerator (rho + theta) absent -> rho = None
    lam, rho = j.rate, j.decay
    mt = model.mu + _m1(j)
    if model.b2 > 0.0:
        poly = [model.b2 / 2.0, mt + model.b2 * rho / 2.0, mt * rho - lam - q, -q * rho]
    else:
        poly = [mt, mt * rho - lam - q, -q * rho]
    return np.array(poly), rho


def _closed_form_data(model: LevyModel, q: float):
    """Roots/weights of the partial-fraction representation, or None if degenerate."""
    poly, rho = _rational_poly(model, q)
    roots = np.roots(poly)
    if len(roots) > 1:
        sep = min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:])
        if sep < 1e-7 * (1.0 + max(abs(roots))):
            return None  # repeated roots need secular terms; fall back to inversion
    dpoly = np.polyder(poly)
    numer = (rho + roots) if isinstance(model.jumps, ExponentialJumps) else np.ones_like(roots)
    weights = numer / np.polyval(dpoly, roots)
    # sanity: the partial fractions must reproduce the transform
    beta = phi(model, q) + 1.0
    lhs = complex(np.sum(weights / (beta - roots)))
    rhs = 1.0 / (laplace_exponent(model, beta) - q)
    if abs(lhs - rhs) > 1e-8 * abs(rhs):
        return None
    return tuple(roots), tuple(weights)


def _closed_w(roots, weights, x: float) -> float:
    acc = 0.0
    for r, c in zip(roots, weights):
        acc += (c * cmath.exp(r * x)).real
    return acc


def _check_points() -> np.ndarray:
    return np.geomspace(1e-3, 40.0, 10)


@lru_cache(maxsize=64)
def scale_evaluator(model: LevyModel, q: float, method: Method | None = None) -> ScaleEvaluator:
    """Build (and memoise) the scale-function evaluator for ``(model, q)``.

    ``method=None`` selects closed forms for rational exponents and numeric
    inversion otherwise; passing :attr:`Method.NUMERIC_INVERSION` forces the
    inversion route (useful to cross-validate the closed forms).

    Raises
    ------
    AccuracyError
        if the numeric route cannot certify its target accuracy.
    """
    if not (q >= 0.0) or not math.isfinite(q):
        raise DomainError(f"scale functions need q >= 0, got {q}")
    phi_q = phi(model, q)
    pv = path_variation(model)
    if pv.bounded:
        w0 = 1.0 / pv.drift
        w0p = (q + jump_intensity(model)) / pv.drift**2
    else:
        w0 = 0.0
        w0p = 2.0 / model.b2
    rational = isinstance(model.jumps, (NoJumps, ExponentialJumps))

    roots = weights = None
    chosen = method
    if chosen is None or chosen is not Method.NUMERIC_INVERSION:
        if rational:
            data = _closed_form_data(model, q)
            if data is not None:
                roots, weights = data
                degree = len(roots)
                chosen = (Method.CLOSED_FORM_THREE_EXP if degree == 3
                          else Method.CLOSED_FORM_TWO_EXP)
            elif chosen is not None:
                # explicitly requested closed form but the roots are degenerate
                raise DomainError("closed form unavailable: repeated roots")
            else:
                chosen = Method.NUMERIC_INVERSION
        else:
            if chosen is not None:
                raise DomainError("closed forms need rational exponents")
            chosen = Method.NUMERIC_INVERSION

    grid = np.concatenate([[0.0], np.geomspace(_CACHE_LO, _CACHE_HI, _CACHE_N)])
    if chosen is Method.NUMERIC_INVERSION:
        transform = _tilted_transform(model, q, phi_q)
        invert = _inverter(model)
        tilted_vals = np.empty(len(grid))
        tilted_vals[0] = w0
        tilted_vals[1:] = invert(transform, grid[1:])
        wa = tilted_vals * np.exp(np.minimum(phi_q * grid, 700.0))
        cache = np.column_stack([grid, wa])
        ev = ScaleEvaluator(model=model, q=float(q), method=chosen, phi_q=phi_q,
                            w0=w0, w0_prime=w0p, roots=None, weights=None,
                            cache=cache, _tilted=_pchip_table(grid, tilted_vals))
        _certify(ev, transform, invert, rational)
        return ev

    wa = np.array([_closed_w(roots, weights, float(xv)) for xv in grid])
    cache = np.column_stack([grid, wa])
    return ScaleEvaluator(model=model, q=float(q), method=chosen, phi_q=phi_q,
                          w0=w0, w0_prime=w0p, roots=roots, weights=weights,
                          cache=cache, _tilted=None)


def _certify(ev: ScaleEvaluator, transform, primary, rational: bool) -> None:
    """Certify the numeric route or raise AccuracyError.

    Rational exponents: Talbot against the independent Euler inverter at the
    10 diagnostic points (both contours are valid there).  Tabulated
    exponents: the deformed Talbot contour is unsound, so certification uses
    the forward Laplace-transform identity instead.
    """
    if rational:
        secondary = _euler if primary is _talbot else _talbot
        xs = _check_points()
        for xv, a, b in zip(xs.tolist(), primary(transform, xs).tolist(),
                            secondary(transform, xs).tolist()):
            scale = max(abs(a), abs(b), 1e-12)
            if abs(a - b) / scale > 1e-7:
                raise AccuracyError(
                    f"independent inverters disagree at x={xv:g}: {a!r} vs {b!r}"
                )
        return
    for beta_off in (0.5, 1.0, 3.0):
        resid = laplace_selfcheck(ev, ev.phi_q + beta_off)
        if resid > 1e-6:
            raise AccuracyError(
                f"transform identity residual {resid:.2e} at "
                f"beta=Phi+{beta_off}; inversion not certified"
            )


# --------------------------------------------------------------------------- #
# operations
# --------------------------------------------------------------------------- #

def _w_direct(ev: ScaleEvaluator, xs: np.ndarray) -> np.ndarray:
    """Inversion at the points ``xs``, bypassing the cache (used past the grid edge)."""
    transform = _tilted_transform(ev.model, ev.q, ev.phi_q)
    return np.exp(ev.phi_q * xs) * _inverter(ev.model)(transform, xs)


def _pchip_table(grid: np.ndarray, vals: np.ndarray) -> tuple[list[float], tuple[array, ...]]:
    """Knots (a list, for bisection) and the four per-interval coefficient
    columns, highest power first, of the PCHIP interpolant of ``(grid, vals)``."""
    pp = PchipInterpolator(grid, vals, extrapolate=False)
    return pp.x.tolist(), tuple(array("d", col) for col in pp.c)


def _pchip_at(table: tuple[list[float], tuple[array, ...]], x: float) -> float:
    """The tabulated interpolant at ``knots[0] <= x <= knots[-1]``.

    Bitwise equal to ``PchipInterpolator.__call__``: the same interval (closed
    on the right at the last knot) and PPoly's power-sum order, without its
    ~10 us of per-call array overhead.
    """
    knots, (c3, c2, c1, c0) = table
    i = min(bisect_right(knots, x), len(knots) - 1) - 1
    s = x - knots[i]
    s2 = s * s
    return c0[i] + c1[i] * s + c2[i] * s2 + c3[i] * (s2 * s)


def w(ev: ScaleEvaluator, x: float) -> float:
    """``W(x)``: zero on the negative axis, ``w0`` at 0, nondecreasing after."""
    if x < 0.0:
        return 0.0
    if x == 0.0:
        return ev.w0
    if ev.roots is not None:
        return _closed_w(ev.roots, ev.weights, x)
    if x <= _CACHE_HI:
        return math.exp(ev.phi_q * x) * _pchip_at(ev._tilted, x)
    return float(_w_direct(ev, np.array([x]))[0])


def z(ev: ScaleEvaluator, x: float) -> float:
    """``Z(x) = 1 + q * integral_0^x W``; identically 1 for x <= 0."""
    if x <= 0.0 or ev.q == 0.0:
        return 1.0
    return 1.0 + ev.q * w_integrals(ev, x)[0]


def _exp_increment(r: complex, x: float) -> complex:
    """``(exp(r x) - 1) / r`` with the r -> 0 limit."""
    if abs(r) * max(1.0, x) < 1e-9:
        return x * (1.0 + r * x / 2.0)
    return (cmath.exp(r * x) - 1.0) / r


def w_integrals(ev: ScaleEvaluator, x: float) -> tuple[float, float]:
    """``(integral_0^x W(y) dy, integral_0^x exp(y) W(y) dy)``."""
    if x < 0.0:
        raise DomainError(f"w_integrals needs x >= 0, got {x}")
    if x == 0.0:
        return 0.0, 0.0
    if ev.roots is not None:
        acc0 = 0.0
        acc1 = 0.0
        for r, c in zip(ev.roots, ev.weights):
            acc0 += (c * _exp_increment(r, x)).real
            acc1 += (c * _exp_increment(r + 1.0, x)).real
        return acc0, acc1
    i0 = quad(lambda y: w(ev, y), 0.0, x, epsabs=1e-10, epsrel=1e-10, limit=200)[0]
    i1 = quad(lambda y: math.exp(y) * w(ev, y), 0.0, x,
              epsabs=1e-10, epsrel=1e-10, limit=200)[0]
    return i0, i1


def w_prime(ev: ScaleEvaluator, x: float) -> float:
    """Derivative of ``W`` at ``x > 0`` (use ``w0_prime`` for the boundary)."""
    if not (x > 0.0):
        raise DomainError("w_prime needs x > 0; the boundary value is w0_prime")
    if ev.roots is not None:
        acc = 0.0
        for r, c in zip(ev.roots, ev.weights):
            acc += (c * r * cmath.exp(r * x)).real
        return acc
    h = min(1e-3 * max(1.0, abs(x)), x / 2.0)
    wp1, wm1, wp2, wm2 = _w_direct(
        ev, np.array([x + h, x - h, x + h / 2.0, x - h / 2.0])).tolist()
    d1 = (wp1 - wm1) / (2.0 * h)
    d2 = (wp2 - wm2) / h
    richardson = (4.0 * d2 - d1) / 3.0
    err = abs(richardson - d2)
    if err > 1e-6 * max(abs(richardson), 1e-12):
        raise AccuracyError(
            f"derivative at x={x:g} not certified: Richardson gap {err:.2e}"
        )
    return richardson


def tilted_w(model: LevyModel, lam: float, p: float, x: float) -> float:
    """Scale function of the exponentially tilted process at level ``p``.

    Computed from the tilted process's own evaluator; the identity
    ``tilted_w(model, lam, p, x) = exp(-lam x) * w(model, p + psi(lam), x)``
    is a property the tests verify, not the formula used here.
    """
    tilted = esscher_tilt(model, lam)
    return w(scale_evaluator(tilted, p), x)


def laplace_selfcheck(ev: ScaleEvaluator, beta: float) -> float:
    """Relative residual of ``integral_0^inf exp(-beta x) W(x) dx = 1/(psi(beta)-q)``.

    The integral is truncated where ``exp((Phi(q) - beta) x) < 1e-14``, past
    which the integrand's envelope is below that fraction of its scale.
    """
    if not (beta > ev.phi_q + 0.1):
        raise DomainError(
            f"selfcheck needs beta > Phi(q)+0.1 = {ev.phi_q + 0.1:g}, got {beta}"
        )
    horizon = math.log(1e14) / (beta - ev.phi_q)
    # split at the cache edge: W switches representation there and the
    # seam otherwise triggers spurious roundoff reports from quad
    breaks = [x for x in (_CACHE_HI,) if 0.0 < x < horizon]
    with warnings.catch_warnings():
        # interpolated W has ~1e-12 wiggle; quad flags it as roundoff even
        # though the residual we return is orders of magnitude above it
        warnings.simplefilter("ignore", IntegrationWarning)
        val = quad(lambda t: math.exp(-beta * t) * w(ev, t), 0.0, horizon,
                   epsabs=1e-12, epsrel=1e-11, limit=400,
                   points=breaks or None)[0]
    target = 1.0 / (laplace_exponent(ev.model, beta) - ev.q)
    return abs(val - target) / abs(target)
