"""Scale functions of the dual process: closed forms and certified numeric inversion.

``W`` (denoted ``w`` here) is the nondecreasing function vanishing on the
negative half-line whose Laplace transform is ``1/(psi(beta) - q)`` for
``beta > Phi(q)``; ``Z(x) = 1 + q * integral_0^x W``.  Both drive every
first-passage identity and value formula in the solver.

Two evaluation routes exist and are cross-checked against each other:

* **Partial-fraction closed forms** whenever ``psi`` is rational
  (``model._psi_fraction`` gives it as ``num / den``): the simple roots
  ``theta_i`` of ``num - q den`` give ``W(x) = sum_i c_i exp(theta_i x)``.
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

Both inverters work on arrays of ``x``: the cache grid or the 10 check
points go in as one call, in blocks of ``_CHUNK_ROWS`` points.  Talbot
builds each block's (x, node) contour, calls the transform on it point by
point and sums each x's 64 terms exactly rounded (``math.fsum`` per row).
Euler's contour at ``x`` is a ladder of rungs ``A/(2x) + i k pi/x``, and the
transform gets the rung step ``pi/x`` with it.  A tabulated exponent then
forms each density node's exponential ``e^(-(s_0 + Phi) u_j)`` at the first
rung and multiplies it by ``e^(-i pi u_j/x)`` once per further rung (the rung
recurrence of ``model._psi_c``): two complex exponentials per (x, density
node) instead of one per (x, rung, density node).  A block holds only
(x, density node) arrays, so its memory does not grow with the rung count.

The tabulated transform integrates the density by parts (see its
exponential moment in ``model``), which orders its cell sum differently from a
cell-by-cell evaluation.  The Euler rule multiplies its series by
``e^(A/2)/x ~ 3.6e4/x``, which amplifies any such reordering, so Euler
values move by ~1e-11 relative between two orders (up to ~1e-10 near
``x = 50``), far inside the certified tolerances.  On the test tables the
cache holds 3e-11 relative to a 40-digit evaluation of the same Euler sum.
(Talbot values on rational transforms move by ~1e-13, from numpy's array
arithmetic in place of scalar ``cmath``.)

The solver's value formulas are combinations
``a W(v) + b (integral_0^v W + 1/q) + c e^(-v) integral_0^v e^y W`` whose
coefficients satisfy ``a + b/Phi + c/(Phi+1) = 0`` (``_w_combination``).
That condition cancels the ``exp(Phi * v)`` component.  With partial
fractions the cancellation is exact: the root at ``Phi(q)`` is grouped
analytically and leaves only ``-c_Phi c e^(-v)/(Phi+1)``, the other roots
decay, and ``(e^((theta+1) v) - 1)/(theta+1)`` stays finite at
``theta = -1`` (``q = psi(-1)``).  A closed form is only built when one root
lies within ``1e-6 (1 + Phi)`` of ``Phi(q)``; otherwise the evaluator
inverts.  On the numeric route the combination is formed from ``W`` and
its two integrals, so the cancellation happens in floating point: the
error is the inversion error times ``exp(Phi * v)``, immaterial within a
few units of ``log K`` but visible past ``Phi * v ~ 15``.

Off the closed forms, ``W`` on the cache grid is a PCHIP interpolant of the
tilted values.  :func:`w` reads it from the stored knots and coefficients by
bisection, in PPoly's own evaluation order, so it equals
``PchipInterpolator`` bit for bit without PPoly's per-call overhead.  The
build also tabulates ``integral_0^x W`` and ``integral_0^x e^y W`` at the
knots (``_cell_integrals``), which :func:`w_integrals` reads in O(log n).
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
    LevyModel,
    _psi_c,
    _psi_fraction,
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

# Gauss-Legendre (nodes, weights) on [-1, 1] for the integral tables: on
# a cache cell the integrand is e^(Phi x) times a cubic, which 8 nodes
# integrate to ~1e-12 relative even at (Phi + 1) h = 5, wider than any cell
# gets before e^(Phi x) overflows, and to rounding at Phi of order 1
_GAUSS8 = np.polynomial.legendre.leggauss(8)

# x-points per inverter block.  An Euler block on a tabulated exponent holds
# its (x, density node) exponentials and rung factors, 32 x 401 complex
# numbers each (0.2 MB), so building a tabulated evaluator raises the peak
# resident memory by under 1 MB, whatever the cache grid size.  Talbot
# inverts rational exponents only, which form no per-node array.
_CHUNK_ROWS = 32


class Method(enum.Enum):
    """How an evaluator computes ``W``."""

    CLOSED_FORM = "closed_form"
    NUMERIC_INVERSION = "numeric_inversion"


# --------------------------------------------------------------------------- #
# numeric inverters
# --------------------------------------------------------------------------- #

def _in_row_blocks(rule):
    """Run an inversion rule on ``x`` in blocks of ``_CHUNK_ROWS`` points, so
    the transform's arrays stay under 1 MB."""
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
    """Euler-summed Bromwich inverse at each point of ``x``; each row of the
    contour is a ladder with rung step ``pi/x``."""
    s = np.empty((len(x), _EULER_N + _EULER_ME + 1), dtype=complex)
    s.real = (_EULER_A / (2.0 * x))[:, None]
    s.imag = _EULER_K * math.pi / x[:, None]
    terms = _EULER_SIGN * transform(s, math.pi / x).real
    partial = np.cumsum(terms, axis=1)
    avg = partial[:, _EULER_N:] @ _EULER_BINOM
    return math.exp(_EULER_A / 2.0) / x * avg / 2.0**_EULER_ME


def _tilted_transform(model: LevyModel, q: float, phi_q: float):
    """``b -> 1/(psi(b + Phi(q)) - q)`` on arrays, 0 where psi is infinite;
    ``step`` marks ``b``'s last axis as a ladder (see ``model._psi_c``)."""
    def transform(b: np.ndarray, step=None) -> np.ndarray:
        den = _psi_c(model, b + phi_q, step) - q
        out = np.zeros_like(den)
        ok = (den != 0.0) & np.isfinite(den.real)
        out[ok] = 1.0 / den[ok]
        return out
    return transform


def _inverter(model: LevyModel):
    """Talbot for rational exponents, Euler for the others (module docstring)."""
    return _talbot if _psi_fraction(model) is not None else _euler


# --------------------------------------------------------------------------- #
# evaluator
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class ScaleEvaluator:
    """Immutable per-(model, q) evaluator; build with :func:`scale_evaluator`.

    ``roots``/``weights`` are the partial-fraction data for closed forms and
    ``None`` otherwise.  ``cache``, the precomputed ``(x, W(x))`` grid, the
    PCHIP table behind :func:`w` and the tables of ``integral_0^x W`` and
    ``integral_0^x e^y W`` at its knots are numeric-route only: a closed form
    stores ``None`` for all three, as its operations sum over the roots.
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
    cache: np.ndarray | None = field(default=None, repr=False)
    _tilted: tuple[list[float], tuple[array, ...]] | None = field(default=None, repr=False)
    _integrals: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)


def _closed_form_data(model: LevyModel, fraction, q: float, phi_q: float):
    """Roots/weights of the partial fractions of ``1/(psi - q) = den/(num - q den)``
    for ``fraction = (num, den)``, or None if degenerate."""
    num, den = fraction
    poly = np.polysub(num, q * den)
    roots = np.roots(poly)
    if len(roots) > 1:
        sep = min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:])
        if sep < 1e-7 * (1.0 + max(abs(roots))):
            return None  # repeated roots need secular terms; fall back to inversion
    if min(abs(roots - phi_q)) > 1e-6 * (1.0 + phi_q):
        return None  # no root to group at Phi(q) (module docstring); invert instead
    dpoly = np.polyder(poly)
    weights = np.polyval(den, roots) / np.polyval(dpoly, roots)
    # sanity: the partial fractions must reproduce the transform
    beta = phi_q + 1.0
    lhs = complex(np.sum(weights / (beta - roots)))
    rhs = 1.0 / (laplace_exponent(model, beta) - q)
    if abs(lhs - rhs) > 1e-8 * abs(rhs):
        return None
    return tuple(roots), tuple(weights)


def _phi_root(ev: ScaleEvaluator) -> int:
    """Index of the partial-fraction root at ``Phi(q)``."""
    return min(range(len(ev.roots)), key=lambda i: abs(ev.roots[i] - ev.phi_q))


def _w_at_zero(model: LevyModel, q: float) -> tuple[float, float]:
    """``(W(0+), W'(0+))``: ``1/d`` and ``(q + lambda)/d^2`` for bounded
    variation with drift ``d`` and jump intensity ``lambda``, else 0 and ``2/b^2``."""
    pv = path_variation(model)
    if pv.bounded:
        return 1.0 / pv.drift, (q + jump_intensity(model)) / pv.drift**2
    return 0.0, 2.0 / model.b2


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
    w0, w0p = _w_at_zero(model, q)
    fraction = _psi_fraction(model)
    if method is not Method.NUMERIC_INVERSION and fraction is not None:
        data = _closed_form_data(model, fraction, q, phi_q)
        if data is not None:
            roots, weights = data
            return ScaleEvaluator(model=model, q=float(q), method=Method.CLOSED_FORM,
                                  phi_q=phi_q, w0=w0, w0_prime=w0p, roots=roots,
                                  weights=weights)
    if method is Method.CLOSED_FORM:
        raise DomainError("closed form unavailable: the exponent is not rational, "
                          "or has repeated roots or no root at Phi(q)")

    grid = np.concatenate([[0.0], np.geomspace(_CACHE_LO, _CACHE_HI, _CACHE_N)])
    transform = _tilted_transform(model, q, phi_q)
    invert = _inverter(model)
    tilted_vals = np.empty(len(grid))
    tilted_vals[0] = w0
    tilted_vals[1:] = invert(transform, grid[1:])
    wa = tilted_vals * np.exp(np.minimum(phi_q * grid, 700.0))
    tilted = _pchip_table(grid, tilted_vals)
    cells = _cell_integrals(phi_q, tilted, np.arange(_CACHE_N), grid[:-1], grid[1:])
    ev = ScaleEvaluator(model=model, q=float(q), method=Method.NUMERIC_INVERSION,
                        phi_q=phi_q, w0=w0, w0_prime=w0p, roots=None, weights=None,
                        cache=np.column_stack([grid, wa]), _tilted=tilted,
                        _integrals=tuple(np.append(0.0, np.cumsum(i)) for i in cells))
    _certify(ev, transform, invert)
    return ev


def _certify(ev: ScaleEvaluator, transform, primary) -> None:
    """Certify the numeric route or raise AccuracyError.

    Rational exponents (Talbot primary): Talbot against the independent
    Euler inverter at the 10 diagnostic points (both contours are valid
    there).  Other exponents: the deformed Talbot contour is unsound, so
    certification uses the forward Laplace-transform identity instead.
    """
    if primary is _talbot:
        xs = np.geomspace(1e-3, 40.0, 10)
        for xv, a, b in zip(xs.tolist(), primary(transform, xs).tolist(),
                            _euler(transform, xs).tolist()):
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


def _cell_integrals(phi_q: float, tilted, i: np.ndarray, a: np.ndarray,
                    b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``integral_a^b W`` and ``integral_a^b e^y W`` from each cache knot
    ``a`` to ``b`` within its cell ``i``: ``_GAUSS8`` on ``e^(Phi y) P_i(y)``,
    summed one node at a time so no (point, node) array is formed."""
    c3, c2, c1, c0 = (np.frombuffer(col)[i] for col in tilted[1])
    half = 0.5 * (b - a)
    i0 = i1 = 0.0
    for t, wt in zip(*_GAUSS8):
        s = half * (1.0 + t)
        wy = wt * np.exp(phi_q * (a + s)) * (c0 + s * (c1 + s * (c2 + s * c3)))
        i0 = i0 + wy
        i1 = i1 + wy * np.exp(a + s)
    return half * i0, half * i1


def _integrals_at(ev: ScaleEvaluator, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(integral_0^x W, integral_0^x e^y W)`` at each ``x >= 0`` of ``xs``
    on the numeric route: the tables at the cell's left knot plus the partial
    cell.  Past ``_CACHE_HI`` each point adds ``_GAUSS8`` on panels of width
    at most ``1/(Phi+1)``, from one vectorised ``_w_direct`` call."""
    i = np.minimum(np.searchsorted(ev.cache[:, 0], xs, side="right"), _CACHE_N) - 1
    a = ev.cache[i, 0]
    p0, p1 = _cell_integrals(ev.phi_q, ev._tilted, i, a, np.minimum(xs, _CACHE_HI))
    i0 = ev._integrals[0][i] + p0
    i1 = ev._integrals[1][i] + p1
    t, wt = _GAUSS8
    for k in np.flatnonzero(xs > _CACHE_HI).tolist():
        panels = math.ceil((xs[k] - _CACHE_HI) * (ev.phi_q + 1.0))
        edges = np.linspace(_CACHE_HI, xs[k], panels + 1)
        half = np.diff(edges)[:, None] / 2.0
        ys = edges[:-1, None] + half * (1.0 + t)
        wy = half * wt * _w_direct(ev, ys.ravel()).reshape(ys.shape)
        i0[k] += wy.sum()
        i1[k] += (wy * np.exp(ys)).sum()
    return i0, i1


def w(ev: ScaleEvaluator, x: float) -> float:
    """``W(x)``: zero on the negative axis, ``w0`` at 0, nondecreasing after."""
    if x < 0.0:
        return 0.0
    if x == 0.0:
        return ev.w0
    if ev.roots is not None:
        acc = 0.0
        for r, c in zip(ev.roots, ev.weights):
            acc += (c * cmath.exp(r * x)).real
        return acc
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
    """``(integral_0^x W(y) dy, integral_0^x exp(y) W(y) dy)``.

    Closed forms sum over the roots; the integral tables exist on the
    numeric route only, which reads them in O(log n) (:func:`_integrals_at`).
    """
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
    i0, i1 = _integrals_at(ev, np.array([x]))
    return float(i0[0]), float(i1[0])


def _w_combination(ev: ScaleEvaluator, v: float, a: float, b: float, c: float) -> float:
    """``a W(v) + b (integral_0^v W + 1/q) + c e^(-v) integral_0^v e^y W``.

    Callers pass ``a + b/Phi + c/(Phi+1) = 0``, so the ``e^(Phi v)``
    component cancels (module docstring); ``v >= 0``.
    """
    if ev.roots is None:
        i0, i1 = w_integrals(ev, v)
        return a * w(ev, v) + b * (i0 + 1.0 / ev.q) + c * math.exp(-v) * i1
    lead = _phi_root(ev)
    decay = math.exp(-v)
    acc = 0.0
    for i, (r, cw) in enumerate(zip(ev.roots, ev.weights)):
        if i == lead:
            acc -= (cw * c * decay / (ev.phi_q + 1.0)).real
        else:
            acc += (cw * ((a + b / r) * cmath.exp(r * v)
                          + c * decay * _exp_increment(r + 1.0, v))).real
    return acc


def w_prime(ev: ScaleEvaluator, x: float) -> float:
    """Derivative of ``W`` at ``x > 0`` (use ``w0_prime`` for the boundary).

    Closed forms differentiate root by root.  On the numeric route
    ``W' = e^(Phi x) (Phi W_Phi + W_Phi')``, whose bracket has the transform
    ``(b + Phi) G(b) - w0`` (``W_Phi(0) = w0``), inverted at ``x`` by the
    build's inverter.  It shares ``G``'s singularities and decays like ``1/b``,
    so the build's check of the same contour on ``G`` certifies it too.
    """
    if not (x > 0.0):
        raise DomainError("w_prime needs x > 0; the boundary value is w0_prime")
    if ev.roots is not None:
        acc = 0.0
        for r, c in zip(ev.roots, ev.weights):
            acc += (c * r * cmath.exp(r * x)).real
        return acc
    tilted = _tilted_transform(ev.model, ev.q, ev.phi_q)

    def transform(b: np.ndarray, step=None) -> np.ndarray:
        return (b + ev.phi_q) * tilted(b, step) - ev.w0

    inverse = _inverter(ev.model)(transform, np.array([x]))
    return math.exp(ev.phi_q * x) * float(inverse[0])


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
