"""Scale functions of the dual process: closed forms and certified numeric inversion.

``W`` (denoted ``w`` here) is the nondecreasing function vanishing on the
negative half-line whose Laplace transform is ``1/(psi(beta) - q)`` for
``beta > Phi(q)``; ``Z(x) = 1 + q * integral_0^x W``.  Both drive every
first-passage identity and value formula in the solver.

Two evaluation routes exist and are cross-checked against each other:

* **Partial-fraction closed forms** whenever ``psi`` is rational
  (``model._psi_fraction`` gives it as ``num / den``, of degree at most 3):
  the simple roots ``theta_i`` of ``num - q den`` give
  ``W(x) = sum_i c_i exp(theta_i x)``.  ``roots[0]`` is ``Phi(q)``; the
  others solve the linear or quadratic quotient of ``num - q den`` by
  ``(theta - Phi)``, and one Newton step polishes each: no eigenvalue solve.
* **Numeric Laplace inversion** of the tilted transform
  ``G(b) = 1/(psi(b + Phi(q)) - q)`` (tilting moves the rightmost singularity
  to 0 and makes the inverse bounded, which conditions the inversion).  For
  rational exponents the primary rule is a 64-node fixed-Talbot contour with
  exactly rounded (fsum) accumulation, cross-validated by an Euler-summation
  inverter at 10 points (both read ``psi`` from its fraction; the tests hold
  the fraction to ``model._psi_c`` on their contours).  Tabulated exponents
  have entire transform pieces whose ``psi - q`` acquires complex zeros off
  the real axis; a deformed contour silently crosses those poles, so there
  the Euler inverter (vertical Bromwich line, no deformation) is primary and
  certification is by the forward transform identity instead.

Both inverters take an array of ``x``, in blocks of ``_CHUNK_ROWS``
points, and one point is an array of one: a one-point call takes the same
path as a profile, forms no block list and pays for little beyond its
transform values.  Talbot's contour at ``x`` is ``(R/x) c_k``, so a
block's contour is one product of its radii and the node constants
``_NODES`` (the first at 1), and its growth factors
``e^(x s_k) = e^(R c_k)`` do not depend on ``x``: with the trapezoid
weights they are the module constants ``_FACTORS``, and only a contour
moved by the 5% rule below forms its own.  The transform reads ``psi``
from the evaluator's fraction ``den/(num - q den)`` (``model._psi_fraction``,
read once per evaluator) by Horner, and each x's 64 terms are summed
exactly rounded (``math.fsum`` over a row's ``tolist()``).  Euler's
contour at ``x`` is a ladder of rungs
``A/(2x) + i k pi/x``, and the transform gets the rung step ``pi/x`` with
it.  A tabulated exponent then forms each density node's exponential
``e^(-(s_0 + Phi) u_j)`` at the first rung and multiplies it by
``e^(-i pi u_j/x)`` once per further rung (the rung recurrence of
``model._psi_c``): two complex exponentials per (x, density node) instead
of one per (x, rung, density node).  A block holds only (x, density node)
arrays, so its memory does not grow with the rung count.  At the smallest
``x``, where ``A/(2x)`` times the first node passes 746, every node
exponential underflows to exactly 0 and the ladder is not formed (the dead
rows of ``model._body_expm1``).  At larger ``x`` the same holds node by
node: past the node where the block's smallest ``A/(2x)`` times it passes
746, no exponential is formed (the live prefix), and where ``A/(2x)``
times the last knot passes 746 the tail's ``expm1`` is exactly -1 and is
not evaluated at the rungs' imaginary parts, up to ~1e12.  A skipped node
exponential is exactly 0 and a skipped ``expm1`` is -1, its correctly
rounded value (numpy's complex ``expm1`` reads -1 to within an ulp there).

The tabulated transform integrates the density by parts (see
``model._body_expm1``); Euler's factor ``e^(A/2)/x ~ 3.6e4/x`` amplifies
such a reordering of the cell sum to ~1e-11 relative (~1e-10 near
``x = 50``), far inside the certified tolerances.  On the test tables ``w``
holds 3e-12 relative to a 40-digit evaluation of the same Euler sum.

The forward identity ``integral_0^inf e^(-beta x) W = 1/(psi(beta) - q)``
(:func:`laplace_selfcheck`) is exact on the closed route, ``sum_i c_i/(beta -
theta_i)``.  On the numeric route it is the trapezoid rule in ``y = log x``
for ``integral_0^inf e^(-k x) W_Phi(x) dx`` (``k = beta - Phi``, the
bounded, nondecreasing ``W_Phi = e^(-Phi x) W``) on the lattice
``x_j = e^(j/3)``.  The lattice is fixed in ``x`` and shared by every
``beta`` of a call: ``W_Phi`` is inverted at its nodes once, and each
``beta`` weighs them by ``e^(-k x_j) x_j / 3``.  It runs from
``e^-23 / k_max`` to the first node whose weight at ``k_min`` is below
1e-17, past which no node can move the sum of a bounded ``W_Phi``; for the
build's ``Phi + {0.5, 1, 3}`` that is ``j`` in [-73, 14], 88 nodes.  Even
steps in ``log x`` resolve every scale of ``W_Phi`` alike, wherever the
lattice sits in ``log x``: a layer ``e^(-lambda x)`` is analytic and bounded
on ``|Im y| < pi/2`` for any ``lambda``, and the step 1/3 keeps the error
under 1e-10 (a Gauss-Laguerre rule, first node ``0.011/k``, reads 2e-3 on a
layer of rate ``200 k``).  Below the first node ``e^(-k x) W_Phi`` is
``w0 + O(x)``, so the nodes there sum to ``w0 x_0 / (3 (e^(1/3) - 1))``;
what the lattice leaves out is ``O(x_0^2)``, and a ``beta``'s residual does
not depend on the other ``beta`` of its call.  The test tables read
residuals <= 1e-8.

The solver's value formulas are combinations
``a W(v) + b (integral_0^v W + 1/q) + c e^(-v) integral_0^v e^y W
- d integral_0^v W(v - y) G(m + y) dy`` (``_w_combination``; the ``d`` term
is R4's jump overshoot, ``G = model.jump_excess``) with
``a + b/Phi + c/(Phi+1) - d (I2/(Phi+1) - I1/Phi) = 0`` for
``(I1, I2) = model.shifted_jump_integrals(model, m, Phi)``.  In ``v`` such a
combination has the transform ``N(s)/(psi(s) - q) + b/(q s)``, with
``N(s) = a + b/s + c/(s+1) - d Gm(s)`` (``Gm = model._excess_transform``),
and the condition is ``N(Phi) = 0``: the transform has no pole at ``Phi``.
With partial fractions the ``c`` and ``d`` terms convolve ``W`` with kernels
``g e^(-k y)`` (``e^(-y)``, and ``G(m) e^(-rho y)`` for a density that is
one exponential tail from 0); for each, the root at ``Phi(q)`` is grouped
analytically and leaves only ``-c_Phi g e^(-k v)/(Phi+k)``, and every other
root adds ``g (e^(theta v) - e^(-k v))/(theta+k)``, which decays, overflows
at no ``v`` and tends to ``g v e^(-k v)`` as ``theta -> -k``.  For an array
``v`` the closed route sums each root's term over the whole array, with
``G(m)`` and the kernels formed once per call, and the numeric route makes
one inversion of all the finite points.  At ``v = 0`` a combination is its
``v -> 0+`` value and at ``v = inf`` its limit 0.  A closed form is only
built when ``Phi(q)`` is a simple root, within a Newton step of
``1e-6 (1 + Phi)``; otherwise the evaluator inverts.  The
numeric route inverts the transform untilted, less ``f0/(s+1) + f1/(s+1)^2``
and plus ``(f0 + f1 v) e^(-v)``, where ``f0`` and ``f1 - f0`` are the exact
``v -> 0+`` value and slope (``_combination_at_zero``), so the inverted rest
decays like ``s^-3``.  No ``e^(Phi v)``-sized term is formed.

Every numeric-route operation is likewise one inversion of its own
transform (``_w_resolvent``), at one point or at a whole array of them in
one inverter call: ``w`` (``G`` itself), ``w_prime``, the two
``w_integrals`` (``G(b)/(b + Phi)`` and ``G(b)/(b + Phi + 1)``, tilted as
they grow like ``e^(Phi x)``) and the solver's small-z ``g``.  So the
evaluator holds no table of ``W``, and building it only certifies the route.
Near ``s = Phi`` a pole-free transform is a quotient of two small numbers,
so ``_invert_at`` moves each point's contour whose real point lies within 5%
of ``Phi`` up to ``1.05 Phi`` (scaling Talbot's radius or Euler's ``A``),
point by point.  Only untilted transforms are moved: a tilted one has a
true pole at ``b = 0``, and a contour pushed off its rule there loses
digits as ``x`` grows (1.6e-7 relative at ``x = 200`` on forced Talbot).
A batched point rounds as a one-point call does, except in the Euler
rule's final binomial average, a matrix product over the block's rows
whose summation order depends on the row count.  On the test
tables that moves ``W`` by under 1e-14 relative out to ``x = 50``, and a
combination by under 1e-14 of its ``v -> 0+`` value.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps

import numpy as np

from .errors import AccuracyError, DomainError
from .model import (
    LevyModel,
    _density_pieces,
    _excess_transform,
    _psi_c,
    _psi_fraction,
    esscher_tilt,
    jump_excess,
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

_TALBOT_M = 64
# Contour radius r = 8/x: small enough that float64 term rounding stays near
# 1e-13 of the result, large enough that the trapezoid discretisation error
# is far below that (verified against closed forms in the tests).
_TALBOT_RADIUS = 8.0
_TH = np.pi * np.arange(1, _TALBOT_M) / _TALBOT_M
_COT = 1.0 / np.tan(_TH)
# the contour at x is (scale R/x) times these nodes c_k, the first (theta ->
# 0) at 1; sigma_k is the node's slope term, 0 at the first
_NODES = np.concatenate([[1.0], _TH * (_COT + 1j)])
_SIG = np.concatenate([[0.0], _TH + (_TH * _COT - 1.0) * _COT])
# each node's trapezoid weight (1/(2M) at the first, 1/M after) times
# (1 + i sigma_k); M is a power of 2, so the 1/M scales without rounding
_SLOPES = np.where(np.arange(_TALBOT_M) == 0, 0.5, 1.0) / _TALBOT_M * (1.0 + 1j * _SIG)
# e^(x s_k) = e^(scale R c_k) does not depend on x: at scale 1 each node's
# whole factor is a constant
_FACTORS = _SLOPES * np.exp(_TALBOT_RADIUS * _NODES)

# Euler-summation (binomial-averaged Bromwich series) parameters: aliasing
# error ~ exp(-A), roundoff ~ exp(A/2) * eps; A = 21 balances both near 1e-9.
_EULER_A, _EULER_N, _EULER_ME = 21.0, 20, 13
_EULER_BINOM = np.array([math.comb(_EULER_ME, j) for j in range(_EULER_ME + 1)], dtype=float)
_EULER_K = np.arange(_EULER_N + _EULER_ME + 1)
# series weights: the k = 0 term is halved, the rest alternate in sign
_EULER_SIGN = np.where(_EULER_K % 2 == 1, -1.0, 1.0)
_EULER_SIGN[0] = 0.5

# x-points per inverter block.  An Euler block on a tabulated exponent holds
# its (x, density node) exponentials and rung factors, 32 x 401 complex
# numbers each (0.2 MB), so an inversion raises the peak resident memory by
# under 1 MB, however many points it takes.  Talbot inverts rational
# exponents only, which form no per-node array.
_CHUNK_ROWS = 32
# the largest x with a finite e^x
_LOG_MAX = math.log(np.finfo(float).max)

class Method(enum.Enum):
    """How an evaluator computes ``W``."""

    CLOSED_FORM = "closed_form"
    NUMERIC_INVERSION = "numeric_inversion"


# --------------------------------------------------------------------------- #
# numeric inverters
# --------------------------------------------------------------------------- #

def _in_row_blocks(rule):
    """Run an inversion rule on ``x`` in blocks of ``_CHUNK_ROWS`` points, so
    the transform's arrays stay under 1 MB; ``scale`` is one contour scale
    per point, or None for every contour where the rule puts it."""
    @wraps(rule)
    def invert(transform, x: np.ndarray, scale=None) -> np.ndarray:
        if len(x) <= _CHUNK_ROWS:
            return rule(transform, x, scale)
        return np.concatenate([rule(transform, x[i:i + _CHUNK_ROWS],
                                    None if scale is None else scale[i:i + _CHUNK_ROWS])
                               for i in range(0, len(x), _CHUNK_ROWS)])
    return invert


@_in_row_blocks
def _talbot(transform, x: np.ndarray, scale) -> np.ndarray:
    """Fixed-Talbot inverse at each point of ``x``, each an exactly rounded
    sum, on the contour of radius ``scale * _TALBOT_RADIUS / x``: one
    product of the radii and ``_NODES``, whose growth factors are the
    constants ``_FACTORS`` where ``scale`` is None (1 at every point)."""
    if scale is None:
        r, factors = _TALBOT_RADIUS / x, _FACTORS
    else:
        r = scale * _TALBOT_RADIUS / x
        factors = _SLOPES * np.exp(np.multiply.outer(scale * _TALBOT_RADIUS, _NODES))
    terms = (transform(r[:, None] * _NODES) * factors).real
    return r * np.array([math.fsum(row) for row in terms.tolist()])


@_in_row_blocks
def _euler(transform, x: np.ndarray, scale) -> np.ndarray:
    """Euler-summed Bromwich inverse at each point of ``x``, with ``A`` taken
    as ``scale * _EULER_A`` point by point (``_EULER_A`` where ``scale`` is
    None); each row of the contour is a ladder with rung step ``pi/x``."""
    big_a = _EULER_A if scale is None else scale * _EULER_A
    s = np.empty((len(x), _EULER_N + _EULER_ME + 1), dtype=complex)
    s.real = (big_a / (2.0 * x))[:, None]
    s.imag = _EULER_K * math.pi / x[:, None]
    terms = _EULER_SIGN * transform(s, math.pi / x).real
    partial = np.cumsum(terms, axis=1)
    avg = partial[:, _EULER_N:] @ _EULER_BINOM
    return np.exp(big_a / 2.0) / x * avg / 2.0**_EULER_ME


def _polyval(coeffs, s):
    """The polynomial with ``coeffs``, highest power first, at ``s``, by Horner."""
    val = coeffs[0]
    for c in coeffs[1:]:
        val = val * s + c
    return val


def _monic(coeffs, s):
    """``s^n + coeffs[0] s^(n-1) + ... + coeffs[-1]`` at ``s``, by Horner."""
    val = s + coeffs[0]
    for c in coeffs[1:]:
        val = val * s + c
    return val


def _resolvent_transform(ev: ScaleEvaluator, tilt: float, num=None, rest=None):
    """``b -> num(s)/(psi(s) - q) + rest(s)`` at ``s = b + tilt``, on arrays.

    ``num`` (1 if omitted) takes ``(s, step)``; the quotient is 0 where psi is
    infinite.  ``step`` marks ``b``'s last axis as a ladder (see
    ``model._psi_c``).  A rational exponent's ``1/(psi - q)`` is the
    evaluator's fraction ``den/(num - q den)`` (``ScaleEvaluator.resolvent``)
    by Horner, unless that is not finite at some point (a contour at ``x``
    under ~1e-98, where ``|s|`` passes ~1e100 and numpy warns of the
    overflow); any other, and those, read ``1/(model._psi_c - q)``.  With
    ``tilt = Phi(q)`` and nothing else this is the tilted transform
    ``G(b) = 1/(psi(b + Phi) - q)`` of ``e^(-Phi x) W(x)``.
    """
    model, q, fraction = ev.model, ev.q, ev.resolvent

    def transform(b: np.ndarray, step=None) -> np.ndarray:
        s = b + tilt
        out = None
        if fraction is not None:
            poly = _monic(fraction[1], s)
            out = _polyval(fraction[0], s) / poly
            # conj(poly) out = den conj(poly)/poly has the size of den and is
            # finite, except where Horner's powers pass the float range (|s|
            # past ~1e100, where out reads 0) or s is a root (out is inf);
            # their sum (one vdot) is finite only if every term is
            if not cmath.isfinite(np.vdot(poly, out)):
                out = None
            elif num is not None:
                out = num(s, step) * out
        if out is None:
            with np.errstate(all="ignore"):
                out = (1.0 if num is None else num(s, step)) / (_psi_c(model, s, step) - q)
            if not cmath.isfinite(out.sum()):
                out[~np.isfinite(out)] = 0.0
        return out if rest is None else out + rest(s)
    return transform


def _inverter(ev: ScaleEvaluator):
    """Talbot for rational exponents, Euler for the others (module docstring)."""
    return _talbot if ev.resolvent is not None else _euler


def _invert_at(ev: ScaleEvaluator, transform, x: np.ndarray, tilt: float) -> np.ndarray:
    """The inverse at each point of the array ``x`` of ``transform``, a
    function of ``b = s - tilt``, in one call of the route's inverter.  An
    untilted point's contour has its real point, Talbot's radius or Euler's
    ``A/(2x)``, moved up to ``1.05 Phi`` when it lies within 5% of ``Phi``
    (module docstring), point by point.  A tilted transform has its pole at
    ``b = 0``, not a removable singularity near ``Phi``, so its contours
    stay where the rule puts them."""
    invert = _inverter(ev)
    if tilt != 0.0:
        return invert(transform, x)
    point = (_TALBOT_RADIUS if invert is _talbot else _EULER_A / 2.0) / x
    near = np.abs(point - ev.phi_q) < 0.05 * ev.phi_q
    scale = np.where(near, 1.05 * ev.phi_q / point, 1.0) if near.any() else None
    return invert(transform, x, scale)


# --------------------------------------------------------------------------- #
# evaluator
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class ScaleEvaluator:
    """Immutable per-(model, q) evaluator; build with :func:`scale_evaluator`.

    ``roots``/``weights`` are the partial-fraction data for closed forms,
    ``Phi(q)``'s first, and ``None`` otherwise: closed-form operations sum
    over the roots, and numeric-route ones invert their own transform at
    their point, so the evaluator holds no table of ``W``.  Construction
    selects the route and, on the numeric one, certifies it; every
    operation afterwards is pure.
    """

    model: LevyModel
    q: float
    method: Method
    phi_q: float
    w0: float
    w0_prime: float
    roots: tuple[complex, ...] | None
    weights: tuple[complex, ...] | None

    @cached_property
    def resolvent(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]] | None:
        """``1/(psi - q) = den/(num - q den)`` of ``model._psi_fraction`` for
        a rational exponent, None for any other; it selects the Talbot route
        (:func:`_inverter`).  Read once, at the evaluator's first inversion,
        in the form :func:`_monic_form` gives."""
        return _monic_form(_resolvent_fraction(self.model, self.q))


def _horner(coeffs, x):
    """``(p(x), p'(x))`` for ``coeffs`` of ``p``, highest power first."""
    val = slope = 0.0
    for c in coeffs:
        val, slope = val * x + c, slope * x + val
    return val, slope


def _resolvent_fraction(model: LevyModel, q: float):
    """``(den, num - q den)`` for ``model._psi_fraction`` ``(num, den)``: the
    fraction ``1/(psi - q)``, highest power first, or None when ``psi`` is
    not rational."""
    fraction = _psi_fraction(model)
    if fraction is None:
        return None
    num, den = fraction
    poly = list(num)
    for i, c in enumerate(den, len(num) - len(den)):
        poly[i] -= q * c
    return den, tuple(poly)


def _monic_form(fraction):
    """The evaluator's ``resolvent`` for the float ``fraction = (den, poly)``
    of :func:`_resolvent_fraction`, or None: both divided by ``poly``'s
    leading coefficient, ``poly`` then held without its leading 1, so
    Horner's first step takes no product (:func:`_monic`), and each
    coefficient a complex 0-d array, which a complex contour's Horner steps
    take without a cast."""
    if fraction is None:
        return None
    den, poly = fraction
    return tuple(tuple(np.asarray(complex(c / poly[0])) for c in part) for part in (den, poly[1:]))


def _closed_form_data(fraction, phi_q: float):
    """Roots/weights of the partial fractions of ``1/(psi - q) = den/poly``
    for ``fraction = (den, poly)``, the root at ``Phi(q)`` first, or None if
    degenerate.  ``poly`` is deflated at ``Phi(q)`` (module docstring);
    with ``k`` exponential phases it would be deflated at each root found."""
    den, poly = fraction
    val, slope = _horner(poly, phi_q)
    if slope == 0.0 or abs(val / slope) > 1e-6 * (1.0 + phi_q):
        return None  # no simple root to group at Phi(q) (module docstring); invert instead
    quot = [poly[0]]  # poly / (theta - Phi), its remainder poly(Phi) dropped
    for c in poly[1:-1]:
        quot.append(quot[-1] * phi_q + c)
    roots = [phi_q]
    if len(quot) == 2:
        roots.append(-quot[1] / quot[0])
    elif len(quot) == 3:
        a, b, c = quot
        disc = b * b - 4.0 * a * c
        root = math.sqrt(disc) if disc >= 0.0 else cmath.sqrt(disc)
        t = -(b + math.copysign(1.0, b) * root) / 2.0
        roots += [t / a, c / t if t else 0.0]  # t = 0: a double root at 0
    if len(roots) > 1:
        sep = min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:])
        if sep < 1e-7 * (1.0 + max(map(abs, roots))):
            return None  # repeated roots need secular terms; fall back to inversion
    roots = [r - f / df for r in roots for f, df in [_horner(poly, r)]]
    weights = [_horner(den, r)[0] / _horner(poly, r)[1] for r in roots]
    return tuple(roots), tuple(weights)


def _w_at_zero(model: LevyModel, q: float) -> tuple[float, float]:
    """``(W(0+), W'(0+))``: ``1/d`` and ``(q + lambda)/d^2`` for bounded
    variation with drift ``d`` and jump intensity ``lambda``, else 0 and ``2/b^2``."""
    pv = path_variation(model)
    if pv.bounded:
        return 1.0 / pv.drift, (q + jump_intensity(model)) / pv.drift**2
    return 0.0, 2.0 / model.b2


def _combination_at_zero(model: LevyModel, q: float, a: float, b: float, c: float,
                         d: float = 0.0, m: float = 0.0) -> tuple[float, float]:
    """The ``v -> 0+`` value and slope of :func:`_w_combination`:
    ``a w0 + b/q`` and ``a w0' + (b + c) w0 - d w0 G(m)``, with
    ``(w0, w0') = (W(0+), W'(0+))`` and ``G = model.jump_excess``."""
    w0, w0p = _w_at_zero(model, q)
    slope = a * w0p + (b + c) * w0
    if d and w0:
        slope -= d * w0 * float(jump_excess(model, m))
    return a * w0 + b / q, slope


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
    fraction = _resolvent_fraction(model, q)
    if method is not Method.NUMERIC_INVERSION and fraction is not None:
        data = _closed_form_data(fraction, phi_q)
        if data is not None:
            ev = ScaleEvaluator(model=model, q=float(q), method=Method.CLOSED_FORM,
                                phi_q=phi_q, w0=w0, w0_prime=w0p, roots=data[0],
                                weights=data[1])
            # sanity: the partial fractions must reproduce the transform
            if laplace_selfcheck(ev, phi_q + 1.0) <= 1e-8:
                return ev
    if method is Method.CLOSED_FORM:
        raise DomainError("closed form unavailable: the exponent is not rational, "
                          "or has repeated roots or no root at Phi(q)")

    ev = ScaleEvaluator(model=model, q=float(q), method=Method.NUMERIC_INVERSION,
                        phi_q=phi_q, w0=w0, w0_prime=w0p, roots=None, weights=None)
    _certify(ev)
    return ev


def _certify(ev: ScaleEvaluator) -> None:
    """Certify the numeric route or raise AccuracyError: Talbot (rational
    exponents) against the independent Euler inverter at 10 points; Euler
    (the others, where a deformed contour is unsound) by the forward
    transform identity at ``beta = Phi + {0.5, 1, 3}``, one
    :func:`laplace_selfcheck` call on one inversion."""
    if _inverter(ev) is _talbot:
        transform = _resolvent_transform(ev, ev.phi_q)
        xs = np.geomspace(1e-3, 40.0, 10)
        for xv, a, b in zip(xs.tolist(), _talbot(transform, xs).tolist(),
                            _euler(transform, xs).tolist()):
            scale = max(abs(a), abs(b), 1e-12)
            if abs(a - b) / scale > 1e-7:
                raise AccuracyError(
                    f"independent inverters disagree at x={xv:g}: {a!r} vs {b!r}"
                )
        return
    offsets = (0.5, 1.0, 3.0)
    resids = laplace_selfcheck(ev, [ev.phi_q + off for off in offsets])
    for beta_off, resid in zip(offsets, resids):
        if resid > 1e-6:
            raise AccuracyError(
                f"transform identity residual {resid:.2e} at "
                f"beta=Phi+{beta_off}; inversion not certified"
            )


# --------------------------------------------------------------------------- #
# operations
# --------------------------------------------------------------------------- #

def _w_resolvent(ev: ScaleEvaluator, v, num, rest=None, tilt: float = 0.0):
    """The inverse of ``num(s)/(psi(s) - q) + rest(s)`` (see
    :func:`_resolvent_transform`) at each point of the array ``v`` (every
    point finite and positive), inverted in ``b = s - tilt`` by one
    :func:`_invert_at` call and scaled back by ``e^(tilt v)``.  A scalar
    ``v`` is inverted as an array of one and gives a float, scaled by
    ``math.exp``.

    A transform whose inverse grows like ``e^(Phi v)`` is tilted by ``Phi``;
    one whose numerator vanishes at ``Phi`` is inverted untilted.
    """
    transform = _resolvent_transform(ev, tilt, num, rest)
    if isinstance(v, float) or np.ndim(v) == 0:
        v = float(v)
        return math.exp(tilt * v) * float(_invert_at(ev, transform, np.array([v]), tilt)[0])
    vs = np.asarray(v, dtype=float)
    x = vs.ravel()
    return (np.exp(tilt * x) * _invert_at(ev, transform, x, tilt)).reshape(vs.shape)


def w(ev: ScaleEvaluator, x: float) -> float:
    """``W(x)``: zero on the negative axis, ``w0`` at 0, nondecreasing after;
    ``inf`` once its growth ``e^(Phi x)`` passes the float range."""
    if x < 0.0:
        return 0.0
    if x == 0.0:
        return ev.w0
    if ev.phi_q * x > _LOG_MAX:
        return math.inf
    if ev.roots is not None:
        return sum((c * cmath.exp(r * x)).real for r, c in zip(ev.roots, ev.weights))
    return _w_resolvent(ev, x, None, tilt=ev.phi_q)


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

    Closed forms sum over the roots.  The numeric route makes two tilted
    inversions, of ``G(b)/(b + Phi)`` and ``G(b)/(b + Phi + 1)``: the
    transforms of ``integral_0^x W`` and ``e^(-x) integral_0^x e^y W``
    tilted by ``e^(-Phi x)``.
    """
    if x < 0.0:
        raise DomainError(f"w_integrals needs x >= 0, got {x}")
    if x == 0.0:
        return 0.0, 0.0
    if ev.roots is not None:
        pairs = list(zip(ev.roots, ev.weights))
        return (sum((c * _exp_increment(r, x)).real for r, c in pairs),
                sum((c * _exp_increment(r + 1.0, x)).real for r, c in pairs))
    return (_w_resolvent(ev, x, lambda s, step: 1.0 / s, tilt=ev.phi_q),
            math.exp(x) * _w_resolvent(ev, x, lambda s, step: 1.0 / (s + 1.0), tilt=ev.phi_q))


def _w_combination(ev: ScaleEvaluator, v, a: float, b: float, c: float,
                   d: float = 0.0, m: float = 0.0):
    """``a W(v) + b (integral_0^v W + 1/q) + c e^(-v) integral_0^v e^y W
    - d integral_0^v W(v - y) G(m + y) dy``, with ``G = model.jump_excess``,
    at each point of the array ``v`` (a float for a scalar ``v``).

    Callers pass ``a + b/Phi + c/(Phi+1) - d (I2/(Phi+1) - I1/Phi) = 0``
    (module docstring), ``v >= 0`` and, if ``d``, ``m >= 0``: then on the
    closed route ``G(m + y) = G(m) e^(-rho y)`` at the tail rate ``rho``,
    and every route gives the limit 0 at ``v = inf``.
    """
    model = ev.model
    vs = np.asarray(v, dtype=float)
    if ev.roots is None:
        f0, f1 = _combination_at_zero(model, ev.q, a, b, c, d, m)
        f1 += f0

        def num(s, step):
            top = a + b / s + c / (s + 1.0)
            return top - d * _excess_transform(model, m, s, step) if d else top

        def rest(s):
            return b / (ev.q * s) - f0 / (s + 1.0) - f1 / (s + 1.0) ** 2

        # v = 0 takes the v -> 0+ value and v = inf the limit 0 (no pole on
        # Re(s) >= 0); the points between make one inversion
        acc = np.where(vs == 0.0, f0, 0.0)
        live = (vs > 0.0) & (vs < math.inf)
        if live.any():
            x = vs[live]
            acc[live] = _w_resolvent(ev, x, num, rest) + (f0 + f1 * x) * np.exp(-x)
        return float(acc) if vs.ndim == 0 else acc
    # (k, g, e^(-k v)) of each kernel g e^(-k y), with G(m) read once
    g_jump = -d * float(jump_excess(model, m)) if d else 0.0
    pairs = ((1.0, c), (_density_pieces(model)[2], g_jump))
    kernels = [(k, g, np.exp(-k * vs)) for k, g in pairs if g]
    acc = np.zeros(vs.shape)
    # np.where forms both branches; at v = inf the unused one is 0 * inf
    with np.errstate(invalid="ignore"):
        for i, (r, cw) in enumerate(zip(ev.roots, ev.weights)):
            if i == 0:  # Phi(q): a + b/Phi + sum_k g/(Phi+k) = 0 cancels its e^(Phi v) part
                term = -sum(g * decay / (ev.phi_q + k) for k, g, decay in kernels)
            else:
                grow = np.exp(r * vs)
                term = (a + b / r) * grow
                for k, g, decay in kernels:
                    small = abs(r + k) * np.maximum(1.0, vs) < 1e-9  # the theta -> -k limit
                    term = term + g * np.where(small, decay * vs * (1.0 + (r + k) * vs / 2.0),
                                               (grow - decay) / ((r + k) or 1.0))
            acc += (cw * term).real
    return float(acc) if vs.ndim == 0 else acc


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
        return sum((c * r * cmath.exp(r * x)).real for r, c in zip(ev.roots, ev.weights))
    return _w_resolvent(ev, x, lambda s, step: s, lambda s: -ev.w0, tilt=ev.phi_q)


def tilted_w(model: LevyModel, lam: float, p: float, x: float) -> float:
    """Scale function of the exponentially tilted process at level ``p``.

    Computed from the tilted process's own evaluator; the identity
    ``tilted_w(model, lam, p, x) = exp(-lam x) * w(model, p + psi(lam), x)``
    is a property the tests verify, not the formula used here.
    """
    tilted = esscher_tilt(model, lam)
    return w(scale_evaluator(tilted, p), x)


def _cert_lattice(k_min: float, k_max: float) -> np.ndarray:
    """laplace_selfcheck's nodes ``x_j = e^(j/3)``: from ``e^-23 / k_max``
    to the first node whose weight ``e^(-k_min x) x/3`` is below 1e-17, as
    nodes past it cannot move the sum of a bounded ``W_Phi`` (module
    docstring)."""
    lo = math.floor(3.0 * (-23.0 - math.log(k_max)))
    hi = math.ceil(-3.0 * math.log(k_min))  # the weight peaks at x = 1/k_min
    while math.exp(-k_min * math.exp(hi / 3.0) + hi / 3.0) / 3.0 >= 1e-17:
        hi += 1
    return np.exp(np.arange(lo, hi + 1) / 3.0)


def laplace_selfcheck(ev: ScaleEvaluator, beta):
    """Relative residual of ``integral_0^inf exp(-beta x) W(x) dx = 1/(psi(beta)-q)``
    at one ``beta`` (a float) or at each of a sequence (a list): the integral
    is ``sum_i c_i/(beta - theta_i)`` on the closed route and, on the numeric
    route, a trapezoid sum in ``log x`` per ``beta`` over one batched
    inversion of the tilted transform, shared by every ``beta`` (module
    docstring)."""
    betas = [float(b) for b in np.ravel(beta)]
    for b in betas:
        if not (b > ev.phi_q + 0.1):
            raise DomainError(
                f"selfcheck needs beta > Phi(q)+0.1 = {ev.phi_q + 0.1:g}, got {b}"
            )
    if ev.roots is not None:
        vals = [sum(c / (b - r) for r, c in zip(ev.roots, ev.weights)).real for b in betas]
    else:
        ks = [b - ev.phi_q for b in betas]
        x = _cert_lattice(min(ks), max(ks))
        w_phi = _inverter(ev)(_resolvent_transform(ev, ev.phi_q), x)
        # the nodes below x[0], where e^(-k x) W_Phi = w0 + O(x), sum to this
        head = ev.w0 * x[0] / (3.0 * math.expm1(1.0 / 3.0))
        vals = [math.fsum((np.exp(-k * x) * x / 3.0 * w_phi).tolist()) + head for k in ks]
    resid = []
    for b, val in zip(betas, vals):
        target = 1.0 / (laplace_exponent(ev.model, b) - ev.q)
        resid.append(abs(val - target) / abs(target))
    return resid if np.ndim(beta) else resid[0]
