"""Scale-function tests: closed forms, numeric inversion, transform identities.

Frozen numbers come from an independent partial-fraction oracle whose output
was itself validated against the Laplace-transform identity by quadrature
(residuals ~1e-16) before this module existed.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import levybond.scale as scale_module

from levybond import (
    AccuracyError,
    DomainError,
    ExponentialJumps,
    LevyModel,
    TabulatedDensity,
    bounded_variation_model,
    laplace_exponent,
)
from levybond.scale import (
    Method,
    ScaleEvaluator,
    _w_combination,
    laplace_selfcheck,
    scale_evaluator,
    tilted_w,
    w,
    w_integrals,
    w_prime,
    z,
)

CANON = LevyModel(mu=0.0, b2=2.0)
BV_RHO1 = bounded_variation_model(2.0, ExponentialJumps(rate=1.0, decay=1.0))
EXPJ = LevyModel(mu=0.1, b2=0.3, jumps=ExponentialJumps(rate=0.8, decay=1.7))
BV2 = bounded_variation_model(2.0, ExponentialJumps(rate=1.0, decay=2.0))


def tabulated_exp_density(n: int = 401, z_hi: float = 8.0) -> TabulatedDensity:
    zg = np.linspace(0.004, z_hi, n)
    return TabulatedDensity(zg, 2.0 * np.exp(-2.0 * zg), 2.0)


def mp_partial_fractions(model, q, dps):
    """The roots and weights of ``1/(psi - q)`` at ``dps`` digits, from the
    float coefficients of ``model._psi_fraction`` by ``mpmath.polyroots``."""
    mp = pytest.importorskip("mpmath")
    from levybond.model import _psi_fraction

    num, den = _psi_fraction(model)
    with mp.workdps(dps):
        den = [mp.mpf(c) for c in den]
        poly = [mp.mpf(c) for c in num]
        for i, c in enumerate(den, len(poly) - len(den)):
            poly[i] -= mp.mpf(q) * c
        roots = mp.polyroots(poly, maxsteps=200, extraprec=4 * dps)
        slope = [c * (len(poly) - 1 - i) for i, c in enumerate(poly[:-1])]
        weights = [mp.polyval(den, r) / mp.polyval(slope, r) for r in roots]
    return roots, weights


def mp_w(model, q, x, dps):
    """``W(x) = sum_i c_i e^(theta_i x)`` at ``dps`` digits."""
    mp = pytest.importorskip("mpmath")
    roots, weights = mp_partial_fractions(model, q, dps)
    with mp.workdps(dps):
        return mp.re(sum(c * mp.exp(r * mp.mpf(x)) for r, c in zip(roots, weights)))


class TestClosedForms:
    def test_canonical_is_scaled_sinh(self):
        ev = scale_evaluator(CANON, 1.0)
        assert ev.method is Method.CLOSED_FORM and len(ev.roots) == 2
        assert w(ev, 1.0) == pytest.approx(1.1752011936438014, rel=1e-12)
        assert w(ev, 2.5) == pytest.approx(6.0502044810397875, rel=1e-12)
        assert w(ev, -0.5) == 0.0
        assert ev.w0 == 0.0
        assert ev.w0_prime == pytest.approx(1.0)

    def test_canonical_z_and_derivative(self):
        ev = scale_evaluator(CANON, 1.0)
        assert z(ev, 1.0) == pytest.approx(1.5430806348152437, rel=1e-11)
        assert z(ev, -2.0) == 1.0
        assert z(ev, 0.0) == 1.0
        assert w_prime(ev, 1.0) == pytest.approx(1.5430806348152437, rel=1e-12)

    def test_canonical_integrals(self):
        ev = scale_evaluator(CANON, 1.0)
        assert w_integrals(ev, 0.0) == (0.0, 0.0)
        i_w, i_ew = w_integrals(ev, 1.0)
        assert i_w == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-12)
        assert i_ew == pytest.approx(1.0972640247326624, rel=1e-12)

    def test_bv_family(self):
        ev = scale_evaluator(BV_RHO1, 1.0)
        assert ev.method is Method.CLOSED_FORM and len(ev.roots) == 2
        assert ev.w0 == pytest.approx(0.5, rel=1e-13)
        # bounded variation, drift 2, unit jump intensity: (q + rate)/d^2
        assert ev.w0_prime == pytest.approx(0.5, rel=1e-13)
        assert w(ev, 1.0) == pytest.approx(1.1730167388969817, rel=1e-12)
        assert w(ev, 2.5) == pytest.approx(3.5177917700407555, rel=1e-12)
        assert w(ev, 0.0) == pytest.approx(0.5)

    def test_three_exp_family(self):
        ev = scale_evaluator(EXPJ, 1.2)
        assert ev.method is Method.CLOSED_FORM and len(ev.roots) == 3
        assert ev.w0 == 0.0
        assert ev.w0_prime == pytest.approx(2.0 / 0.3, rel=1e-13)
        assert w(ev, 1.0) == pytest.approx(11.115153772015244, rel=1e-11)
        assert w(ev, 0.3) == pytest.approx(1.7439391058677234, rel=1e-11)
        assert w_prime(ev, 1.0) == pytest.approx(26.949782463939542, rel=1e-11)
        i_w, i_ew = w_integrals(ev, 2.0)
        assert i_w == pytest.approx(50.46408414747353, rel=1e-10)
        assert i_ew == pytest.approx(266.12525628224665, rel=1e-10)

    def test_zero_discount_rate(self):
        drifted = LevyModel(mu=-3.0, b2=2.0)  # psi = theta^2 - 3 theta
        ev = scale_evaluator(drifted, 0.0)
        assert w(ev, 1.0) == pytest.approx((math.e**3 - 1.0) / 3.0, rel=1e-11)
        assert z(ev, 5.0) == 1.0

    def test_driftless_zero_rate_falls_back_to_inversion(self):
        # psi = theta^2 has a double root at 0; closed form must step aside
        ev = scale_evaluator(CANON, 0.0)
        assert ev.method is Method.NUMERIC_INVERSION
        assert w(ev, 1.0) == pytest.approx(1.0, rel=1e-7)  # W(x) = 2x/b2 = x
        assert w(ev, 3.0) == pytest.approx(3.0, rel=1e-7)
        with pytest.raises(DomainError):
            scale_evaluator(CANON, 0.0, Method.CLOSED_FORM)

    def test_drift_only_has_one_root(self):
        # psi = theta/2: Phi(0.3) = 0.6 is the whole fraction, W = 2 e^(0.6 x)
        ev = scale_evaluator(LevyModel(0.5, 0.0), 0.3)
        assert ev.method is Method.CLOSED_FORM
        assert ev.roots == (0.6,) and ev.weights == (2.0,)

    @pytest.mark.parametrize("model, q", [
        (CANON, 1.0), (CANON, 0.05), (LevyModel(-3.0, 2.0), 0.0), (EXPJ, 1.2), (EXPJ, 0.01),
        (BV_RHO1, 1.0), (BV2, 0.8), (LevyModel(0.5, 0.0), 0.3),
    ], ids=["CANON", "CANON-low", "drifted-q0", "EXPJ", "EXPJ-low", "BV_RHO1", "BV2",
            "drift-only"])
    def test_partial_fractions_match_40_digits(self, model, q):
        # the roots deflated from Phi(q) and polished, their weights and W
        # against mpmath.polyroots on the same float coefficients
        ev = scale_evaluator(model, q)
        assert ev.method is Method.CLOSED_FORM
        roots, weights = mp_partial_fractions(model, q, 40)
        assert len(ev.roots) == len(roots)
        # roots[0] is the root at Phi(q)
        assert abs(ev.roots[0] - ev.phi_q) <= 1e-15 * (1.0 + ev.phi_q)
        for r, c in zip(ev.roots, ev.weights):
            i = min(range(len(roots)), key=lambda j: abs(roots[j] - r))
            assert abs(roots[i] - r) <= 1e-15 * (1.0 + abs(r))
            assert abs(weights[i] - c) <= 1e-14 * abs(weights[i])
        for xv in (0.01, 0.5, 10.0):
            exact = mp_w(model, q, xv, 40)
            assert abs(w(ev, xv) - exact) <= 1e-13 * abs(exact), xv


class TestNumericInversion:
    @pytest.mark.parametrize("model, q", [(CANON, 1.0), (BV_RHO1, 1.0), (EXPJ, 1.2)])
    def test_matches_closed_forms(self, model, q):
        closed = scale_evaluator(model, q)
        numeric = scale_evaluator(model, q, Method.NUMERIC_INVERSION)
        assert numeric.method is Method.NUMERIC_INVERSION
        xs = np.geomspace(0.01, 10.0, 60)
        for xv in xs:
            assert w(numeric, float(xv)) == pytest.approx(
                w(closed, float(xv)), rel=1e-6
            )

    def test_cache_shape_and_monotone_grid(self):
        # the evaluator holds no table of W: numeric-route w inverts at its
        # point, and stays nondecreasing on a geometric grid out to 50
        fields = {f.name for f in dataclasses.fields(ScaleEvaluator)}
        assert not fields & {"cache", "_tilted"}
        ev = scale_evaluator(CANON, 1.0, Method.NUMERIC_INVERSION)
        wa = np.array([w(ev, x) for x in np.geomspace(1e-4, 50.0, 200).tolist()])
        assert np.all(np.diff(wa) > -1e-12)
        # a closed form sums over its roots
        for model, q in [(CANON, 1.0), (EXPJ, 1.2), (BV_RHO1, 1.0)]:
            closed = scale_evaluator(model, q)
            assert closed.roots is not None

    @pytest.mark.parametrize("inverter, rel", [("route", 1e-12), ("euler", 5e-9)])
    def test_single_point_w_matches_closed_forms(self, monkeypatch, inverter, rel):
        # forced inversion at one point each, near 0 and out to 49; the
        # memoised evaluators are built before the inverter is swapped
        cases = [(CANON, 1.0), (BV2, 0.8), (EXPJ, 1.2)]
        evs = [(scale_evaluator(model, q), scale_evaluator(model, q, Method.NUMERIC_INVERSION))
               for model, q in cases]
        if inverter == "euler":
            monkeypatch.setattr(scale_module, "_inverter", lambda model: scale_module._euler)
        for closed, numeric in evs:
            for xv in (1e-4, 3e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 30.0, 49.0):
                assert w(numeric, xv) == pytest.approx(w(closed, xv), rel=rel, abs=0.0), xv

    def test_beyond_cache_direct_inversion(self):
        closed = scale_evaluator(CANON, 1.0)
        numeric = scale_evaluator(CANON, 1.0, Method.NUMERIC_INVERSION)
        assert w(numeric, 55.0) == pytest.approx(w(closed, 55.0), rel=1e-6)

    def test_numeric_derivative_certified(self):
        closed = scale_evaluator(EXPJ, 1.2)
        numeric = scale_evaluator(EXPJ, 1.2, Method.NUMERIC_INVERSION)
        assert w_prime(numeric, 1.0) == pytest.approx(w_prime(closed, 1.0), rel=1e-6)

    @pytest.mark.parametrize("model, q", [
        (EXPJ, 1.2), (CANON, 1.0), (BV2, 1.0),
        (LevyModel(mu=0.25, b2=0.1, jumps=ExponentialJumps(1.0, 2.0)), 0.8),
    ], ids=["EXPJ", "CANON", "BV2", "EXP_LOW_VOL"])
    def test_numeric_derivative_matches_closed_form(self, model, q):
        # the transform-inverted derivative, near 0 and far out
        closed = scale_evaluator(model, q)
        numeric = scale_evaluator(model, q, Method.NUMERIC_INVERSION)
        for xv in (0.01, 0.1, 3.0, 10.0):
            assert w_prime(numeric, xv) == pytest.approx(w_prime(closed, xv), rel=1e-9, abs=0.0)

    def test_closed_form_refused_for_tabulated(self):
        model = LevyModel(mu=0.25, b2=0.1, jumps=tabulated_exp_density())
        with pytest.raises(DomainError):
            scale_evaluator(model, 0.8, Method.CLOSED_FORM)


class TestFloatRange:
    """W grows like e^(Phi x): past the float range it reads inf on both
    routes, and below it holds the 50-digit partial-fraction sum."""

    @pytest.mark.parametrize("method", [Method.CLOSED_FORM, Method.NUMERIC_INVERSION])
    def test_w_past_the_float_range_is_inf(self, method):
        ev = scale_evaluator(EXPJ, 1.2, method)
        assert ev.method is method
        exact = mp_w(EXPJ, 1.2, 200.0, 50)
        if method is Method.CLOSED_FORM:
            # a correctly rounded Phi still moves e^(Phi x) by up to Phi x
            # half-ulps: the closed form holds (Phi x + 10) 2^-52 relative
            tol = (ev.phi_q * 200.0 + 10.0) * 2.0**-52
        else:
            # forced Talbot on the tilted transform reads ~7e-13; a contour
            # pushed off its rule's radius at large x read 1.6e-7
            tol = 1e-11
        assert abs(w(ev, 200.0) - exact) <= tol * exact
        assert w(ev, 400.0) == math.inf

    @pytest.mark.parametrize("q", [2.6, 1.05])
    def test_tilted_inverse_keeps_its_limit_at_large_x(self, q):
        # e^(-Phi x) W(x) tends to 1/psi'(Phi), and by x = 100 the rest is
        # far below rounding; the plain Euler rule's ~e^(-21) discretisation
        # error leaves ~1e-9.  A tilted contour moved off the rule's A read
        # 0.341 at q 2.6 and x 200
        model = LevyModel(mu=0.1, b2=0.3, jumps=tabulated_exp_density(401))
        ev = scale_evaluator(model, q)
        ph = ev.phi_q

        def slope(h):
            return (laplace_exponent(model, ph + h) - laplace_exponent(model, ph - h)) / (2.0 * h)

        limit = 3.0 / (4.0 * slope(5e-4) - slope(1e-3))   # one Richardson step
        for xv in (100.0, 150.0, 200.0):
            assert abs(math.exp(-ph * xv) * w(ev, xv) - limit) <= 2e-9, xv

    @pytest.mark.parametrize("q", [1.0, 2.5])
    def test_forced_bounded_variation_holds_the_50_digit_sum(self, q):
        # forced inversion of the bounded-variation family out to x = 300,
        # where a contour pushed off its rule's scale by the 5% pole rule
        # lost all accuracy; it reads ~7e-13 off the partial-fraction sum
        ev = scale_evaluator(BV2, q, Method.NUMERIC_INVERSION)
        assert ev.method is Method.NUMERIC_INVERSION
        for xv in (100.0, 200.0, 300.0):
            exact = mp_w(BV2, q, xv, 50)
            assert abs(w(ev, xv) - exact) <= 1e-11 * exact, xv


class TestTabulatedInversion:
    def test_tracks_exponential_family(self):
        # tabulation of the same nominal density; only interpolation distance
        tab_model = LevyModel(mu=0.25, b2=0.1, jumps=tabulated_exp_density())
        exp_model = LevyModel(mu=0.25, b2=0.1, jumps=ExponentialJumps(1.0, 2.0))
        ev_t = scale_evaluator(tab_model, 0.8)
        ev_e = scale_evaluator(exp_model, 0.8)
        assert ev_t.method is Method.NUMERIC_INVERSION
        for xv in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert w(ev_t, xv) == pytest.approx(w(ev_e, xv), rel=5e-3)

    def test_bounded_variation_boundary(self):
        tab_model = bounded_variation_model(2.0, tabulated_exp_density())
        ev = scale_evaluator(tab_model, 0.5)
        assert ev.w0 == pytest.approx(0.5, rel=1e-12)
        assert w(ev, 0.0) == pytest.approx(0.5)
        # approach from the right stays near the boundary value
        assert w(ev, 1e-4) == pytest.approx(0.5, abs=2e-3)

    def test_cold_build_is_fast(self):
        # the 401-node Euler build, certification included, bypassing the memo
        model = LevyModel(mu=0.25, b2=0.1, jumps=tabulated_exp_density())
        t0 = time.perf_counter()
        ev = scale_evaluator.__wrapped__(model, 0.8)
        assert time.perf_counter() - t0 < 5.0
        assert ev.method is Method.NUMERIC_INVERSION

    def test_w_matches_40_digit_euler_sum(self):
        # single-point w against the same Euler sum, with psi of the same
        # piecewise-linear density cell by cell at 40 digits, at five points
        # from 1e-4 to 50.  Float roundoff, amplified by the rule's
        # e^(A/2)/x, leaves ~3e-12 here; a rung recurrence off by 1e-11 in
        # magnitude per rung reads ~1e-8
        mp = pytest.importorskip("mpmath")
        from levybond.scale import _EULER_A, _EULER_ME, _EULER_N

        tab = tabulated_exp_density(n=101)
        model = LevyModel(mu=0.1, b2=0.3, jumps=tab)
        ev = scale_evaluator(model, 2.6)
        with mp.workdps(40):
            z = [mp.mpf(u) for u in tab.grid]
            v = [mp.mpf(y) for y in tab.values]
            r = mp.mpf(tab.tail_rate)
            cells, m1 = [], mp.mpf(0)
            for z0, z1, v0, v1 in zip(z, z[1:], v, v[1:]):
                m = (v1 - v0) / (z1 - z0)
                cells.append((v0, v1, m, (v0 + v1) * (z1 - z0) / 2))
                lo, hi = min(z0, 1), min(z1, 1)
                m1 += (v0 - m * z0) * (hi**2 - lo**2) / 2 + m * (hi**3 - lo**3) / 3

            def psi(beta):
                ex = [mp.exp(-beta * u) for u in z]
                out = (mp.mpf(0.1) * beta + mp.mpf(0.3) / 2 * beta**2 + beta * m1
                       + v[-1] / r * (r * ex[-1] / (r + beta) - 1))
                for k, (v0, v1, m, mass) in enumerate(cells):
                    out -= ((v1 * ex[k + 1] - v0 * ex[k]) / beta
                            + m * (ex[k + 1] - ex[k]) / beta**2 + mass)
                return out

            A, ph, q = mp.mpf(_EULER_A), mp.mpf(ev.phi_q), mp.mpf(2.6)
            for xv in np.geomspace(1e-4, 50.0, 2048)[[0, 511, 1023, 1535, 2047]].tolist():
                wv = w(ev, xv)
                x = mp.mpf(xv)
                partial, acc = [], mp.mpf(0)
                for k in range(_EULER_N + _EULER_ME + 1):
                    g = (1 / (psi(A / (2 * x) + 1j * k * mp.pi / x + ph) - q)).real
                    acc += g / 2 if k == 0 else (-1) ** k * g
                    partial.append(acc)
                avg = mp.fsum(math.comb(_EULER_ME, j) * partial[_EULER_N + j]
                              for j in range(_EULER_ME + 1))
                want = mp.exp(ph * x + A / 2) / x * avg / 2**_EULER_ME
                assert wv == pytest.approx(float(want), rel=2e-11, abs=0.0), xv

    def test_derivative_matches_family(self):
        tab_model = LevyModel(mu=0.25, b2=0.1, jumps=tabulated_exp_density())
        exp_model = LevyModel(mu=0.25, b2=0.1, jumps=ExponentialJumps(1.0, 2.0))
        d_tab = w_prime(scale_evaluator(tab_model, 0.8), 1.0)
        d_exp = w_prime(scale_evaluator(exp_model, 0.8), 1.0)
        assert d_tab == pytest.approx(d_exp, rel=5e-3)

    def test_derivative_near_zero_matches_family(self):
        tab_model = LevyModel(mu=0.25, b2=0.1, jumps=tabulated_exp_density())
        exp_model = LevyModel(mu=0.25, b2=0.1, jumps=ExponentialJumps(1.0, 2.0))
        d_tab = w_prime(scale_evaluator(tab_model, 0.8), 0.01)
        d_exp = w_prime(scale_evaluator(exp_model, 0.8), 0.01)
        assert d_tab == pytest.approx(d_exp, rel=5e-3)


class TestTransformIdentity:
    # the last two have a W_Phi rising at rate ~40 and ~200 from 0; the
    # residual sums the partial fractions exactly (a 128-point Gauss-Laguerre
    # sum of the roots reads 2e-3 on the last)
    @pytest.mark.parametrize("model, q", [(CANON, 1.0), (BV_RHO1, 1.0),
                                          (LevyModel(0.5, 0.05), 1.0), (LevyModel(1.0, 0.02), 1.0)])
    def test_closed_forms_tight(self, model, q):
        ev = scale_evaluator(model, q)
        beta = ev.phi_q + 2.0
        assert laplace_selfcheck(ev, beta) <= 1e-8

    @pytest.mark.parametrize("model, q", [(CANON, 1.0), (BV_RHO1, 1.0), (EXPJ, 1.2)])
    @pytest.mark.parametrize("offset", [0.5, 1.0, 3.0])
    def test_all_families_within_tolerance(self, model, q, offset):
        ev = scale_evaluator(model, q)
        assert laplace_selfcheck(ev, ev.phi_q + offset) <= 1e-6

    def test_numeric_route_within_tolerance(self):
        ev = scale_evaluator(CANON, 1.0, Method.NUMERIC_INVERSION)
        for offset in (0.5, 1.0, 3.0):
            assert laplace_selfcheck(ev, ev.phi_q + offset) <= 1e-6

    @pytest.mark.parametrize("model, q", [(LevyModel(0.5, 0.05), 1.0), (LevyModel(1.0, 0.02), 1.0)])
    def test_numeric_rule_resolves_a_fast_boundary_layer(self, model, q):
        # W_Phi rises at rate ~40 and ~200 from 0; a 128-point Gauss-Laguerre
        # rule reads 2e-3 on the second, the trapezoid rule in log x 3e-12
        ev = scale_evaluator(model, q, Method.NUMERIC_INVERSION)
        for offset in (0.5, 1.0, 3.0):
            assert laplace_selfcheck(ev, ev.phi_q + offset) <= 1e-8, offset

    @pytest.mark.parametrize("mu, b2, n, q", [(0.1, 0.3, 401, 1.05), (0.1, 0.3, 101, 2.6),
                                              (0.5, 0.05, 401, 1.0), (0.5, 0.05, 101, 0.3)],
                             ids=["TAB401", "TAB101", "TAB401-drift", "TAB101-drift"])
    def test_tabulated_certificate(self, mu, b2, n, q):
        # the build's own check, the trapezoid sum over inverted W at
        # Phi + {0.5, 1, 3}, holds far inside its 1e-6 bound, also on the
        # drift-dominated models whose boundary layer a Laguerre rule misses
        # (9.2e-5 at 128 points on the third)
        ev = scale_evaluator(LevyModel(mu=mu, b2=b2, jumps=tabulated_exp_density(n)), q)
        for offset in (0.5, 1.0, 3.0):
            assert laplace_selfcheck(ev, ev.phi_q + offset) <= 1e-8, offset

    def test_rejects_beta_at_singularity(self):
        ev = scale_evaluator(CANON, 1.0)
        with pytest.raises(DomainError):
            laplace_selfcheck(ev, ev.phi_q + 0.05)

    @pytest.mark.parametrize("model, q, method, expected", [
        (LevyModel(0.1, 0.3, tabulated_exp_density(101)), 1.7, None, {"_euler": 1, "_talbot": 0}),
        (CANON, 1.7, Method.NUMERIC_INVERSION, {"_euler": 1, "_talbot": 1})],
        ids=["euler", "talbot"])
    def test_numeric_build_is_one_inversion(self, monkeypatch, model, q, method, expected):
        # Euler's certificate inverts W_Phi once for all three offsets;
        # Talbot's is one Talbot and one Euler call, as before
        calls = {"_euler": 0, "_talbot": 0}
        for name in calls:
            def counted(*args, _rule=getattr(scale_module, name), _name=name):
                calls[_name] += 1
                return _rule(*args)
            monkeypatch.setattr(scale_module, name, counted)
        scale_evaluator.cache_clear()
        scale_evaluator(model, q, method)
        assert calls == expected

    @pytest.mark.parametrize("model, q, method", [
        (LevyModel(0.1, 0.3, tabulated_exp_density(401)), 1.05, None),
        (LevyModel(0.5, 0.05, tabulated_exp_density(101)), 0.3, None),
        (bounded_variation_model(2.0, tabulated_exp_density(101)), 1.0, None),
        (BV2, 1.0, Method.NUMERIC_INVERSION),
        (EXPJ, 1.2, None)], ids=["TAB401", "TAB101-drift", "TAB101-bv", "BV2-talbot", "closed"])
    def test_batched_agrees_with_single_calls(self, model, q, method):
        # a beta's residual does not depend on the others sharing its lattice,
        # also where W_Phi starts at w0 > 0 below the lattice
        ev = scale_evaluator(model, q, method)
        betas = [ev.phi_q + offset for offset in (0.5, 1.0, 3.0)]
        batched = laplace_selfcheck(ev, betas)
        assert len(batched) == 3
        for beta, resid in zip(betas, batched):
            assert abs(resid - laplace_selfcheck(ev, beta)) <= 1e-13, beta

    @pytest.mark.parametrize("method", [None, Method.NUMERIC_INVERSION])
    def test_batched_rejects_a_beta_at_singularity(self, method):
        ev = scale_evaluator(LevyModel(0.1, 0.3, tabulated_exp_density(101))
                             if method is None else CANON, 1.0, method)
        for low in (0.1, 0.05, -1.0, math.nan):
            for at in range(3):
                betas = [ev.phi_q + 0.5, ev.phi_q + 1.0, ev.phi_q + 3.0]
                betas[at] = ev.phi_q + low
                with pytest.raises(DomainError):
                    laplace_selfcheck(ev, betas)


class TestBatchedInversion:
    """``_invert_at`` inverts a profile in one call of the route's inverter,
    each point on its own contour (the 5% rule, point by point)."""

    @pytest.mark.parametrize("model, q, method", [
        (LevyModel(0.1, 0.3, tabulated_exp_density(401)), 1.05, None),
        (LevyModel(0.5, 0.05, tabulated_exp_density(101)), 0.3, None),
        (BV2, 1.0, Method.NUMERIC_INVERSION)], ids=["TAB401", "TAB101-drift", "BV2-talbot"])
    @pytest.mark.parametrize("tilted", [False, True], ids=["g", "w"])
    def test_profile_matches_single_points(self, model, q, method, tilted):
        # small-z g's transform untilted, with points on both sides of the
        # 5% rule, and W's tilted by Phi out to x = 50.  A tilted contour's
        # real point Phi + A/(2x) nears Phi only past x = 20 A/(2 Phi), well
        # beyond the range in which the Euler rule resolves W_Phi
        ev = scale_evaluator(model, q, method)
        ph = ev.phi_q
        reach = (scale_module._TALBOT_RADIUS if scale_module._inverter(model) is scale_module._talbot
                 else scale_module._EULER_A / 2.0)
        x = np.geomspace(1e-3, 50.0, 9)
        if tilted:
            tilt, num = ph, None
        else:
            tilt, num = 0.0, lambda s, step: (s - ph) / (s * (s + 1.0))
            x = np.concatenate([x, reach / (ph * np.array([0.97, 1.0, 1.04, 1.06]))])
            moved = np.abs(reach / x - ph) < 0.05 * ph
            assert moved.any() and not moved.all()
        transform = scale_module._resolvent_transform(model, q, tilt, num)
        batch = scale_module._invert_at(ev, transform, x, tilt)
        for xv, got in zip(x.tolist(), batch.tolist()):
            want = float(scale_module._invert_at(ev, transform, np.array([xv]), tilt)[0])
            assert abs(got - want) <= 1e-13 * abs(want), (xv, got, want)


class TestShapeInvariants:
    @pytest.mark.parametrize("model, q", [(CANON, 1.0), (BV_RHO1, 1.0), (EXPJ, 1.2)])
    def test_w_and_z_nondecreasing(self, model, q):
        ev = scale_evaluator(model, q)
        grid = np.linspace(0.0, 10.0, 200)
        wa = np.array([w(ev, float(xv)) for xv in grid])
        za = np.array([z(ev, float(xv)) for xv in grid])
        assert np.all(np.diff(wa) >= -1e-12 * np.abs(wa[:-1]))
        assert np.all(np.diff(za) >= -1e-12 * np.abs(za[:-1]))

    @pytest.mark.parametrize("model, q", [(CANON, 1.0), (BV_RHO1, 1.0), (EXPJ, 1.2)])
    def test_exit_combination_is_a_probability(self, model, q):
        # Z(y) - (q/Phi) W(y) is a discounted exit functional: in (0, 1]
        ev = scale_evaluator(model, q)
        for y in np.linspace(0.0, 8.0, 30):
            val = z(ev, float(y)) - q / ev.phi_q * w(ev, float(y))
            assert 0.0 < val <= 1.0 + 1e-12

    def test_boundary_derivative_extrapolation(self):
        for model, q, expect in [(CANON, 1.0, 1.0), (BV_RHO1, 1.0, 0.5)]:
            ev = scale_evaluator(model, q)
            h = 1e-6
            slope = (w(ev, h) - ev.w0) / h
            assert slope == pytest.approx(expect, rel=1e-3)

    def test_bv_derivative_finite_difference(self):
        ev = scale_evaluator(BV_RHO1, 1.0)
        for xv in np.linspace(0.1, 5.0, 12):
            h = 1e-5 * max(1.0, xv)
            fd = (w(ev, xv + h) - w(ev, xv - h)) / (2 * h)
            assert w_prime(ev, float(xv)) == pytest.approx(fd, rel=1e-5)


class TestCombination:
    """``_w_combination`` groups the partial-fraction root at Phi(q) on the
    closed route; the numeric route inverts the combination's own transform,
    so the two must agree on the solver's coefficient triples."""

    @staticmethod
    def triples(model, q, phi_q):
        alpha, beta, K, c = 1.0, 1.0, 2.0, 0.3
        s = q - laplace_exponent(model, -1.0) - beta
        bc = beta * math.exp(c)
        return {
            "exit": (-1.0, phi_q, 0.0),
            "premium": (0.0, -phi_q, phi_q + 1.0),
            "simultaneous": (alpha / phi_q - K * s / (phi_q + 1.0), -alpha, s * K),
            "early_call": (alpha / phi_q + bc / (phi_q + 1.0) - K * q / phi_q,
                           K * q - alpha, -bc),
        }

    @pytest.mark.parametrize("model, q", [(CANON, 0.5), (CANON, 4.0), (BV2, 0.8),
                                          (BV2, 2.0), (EXPJ, 2.8)])
    def test_closed_route_matches_inversion(self, model, q):
        closed = scale_evaluator(model, q)
        numeric = scale_evaluator(model, q, Method.NUMERIC_INVERSION)
        assert closed.roots is not None and numeric.roots is None
        for v in np.geomspace(0.05, 2.0, 12).tolist():
            wv = w(closed, v)
            i0, i1 = w_integrals(closed, v)
            for name, (a, b, c) in self.triples(model, q, closed.phi_q).items():
                # the bound is relative to the size of the terms, not of
                # their sum
                size = abs(a) * wv + abs(b) * (i0 + 1.0 / q) + abs(c) * math.exp(-v) * i1
                got = _w_combination(closed, v, a, b, c)
                ref = _w_combination(numeric, v, a, b, c)
                assert abs(got - ref) <= 1e-6 * size, (name, v, got, ref)


class TestIntegralTables:
    """``w_integrals`` on the numeric route is two tilted inversions at the
    point, near 0 and far out alike."""

    # adaptive quadrature (epsrel 1e-10) of the same forced-inversion
    # evaluators at x = 60
    QUAD_AT_60 = {
        "CANON": (5.710036949078599e+25, 3.2604521959840846e+51),
        "EXPJ": (9.03897008048924e+61, 7.279146307319263e+87),
        "BV2": (12721993549432.742, 4.842870215547095e+38),
    }

    @pytest.mark.parametrize("name, model, q", [("CANON", CANON, 1.0), ("EXPJ", EXPJ, 1.2),
                                                ("BV2", BV2, 0.8)])
    def test_tables_match_closed_forms(self, name, model, q):
        closed = scale_evaluator(model, q)
        numeric = scale_evaluator(model, q, Method.NUMERIC_INVERSION)
        assert closed.method is Method.CLOSED_FORM
        assert numeric.method is Method.NUMERIC_INVERSION
        for x in np.geomspace(0.1, 50.0, 25).tolist():
            for got, want in zip(w_integrals(numeric, x), w_integrals(closed, x)):
                assert got == pytest.approx(want, rel=1e-10, abs=0.0), x
        for got, want in zip(w_integrals(numeric, 60.0), self.QUAD_AT_60[name]):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model, q", [(CANON, 1.0), (EXPJ, 1.2)], ids=["CANON", "EXPJ"])
    def test_near_zero_matches_closed_forms(self, model, q):
        # O(x^2) integrals near 0, where an integral of an interpolated W
        # would carry its ~1e-7 relative first-cell error
        closed = scale_evaluator(model, q)
        numeric = scale_evaluator(model, q, Method.NUMERIC_INVERSION)
        for x in (1e-3, 1e-2):
            for got, want in zip(w_integrals(numeric, x), w_integrals(closed, x)):
                assert got == pytest.approx(want, rel=1e-9, abs=0.0), x


class TestTilt:
    def test_zero_tilt_reduces(self):
        ev = scale_evaluator(EXPJ, 1.2)
        assert tilted_w(EXPJ, 0.0, 1.2, 1.3) == pytest.approx(w(ev, 1.3), rel=1e-13)

    @pytest.mark.parametrize("model, lam, p, x", [
        (CANON, -1.0, 3.0, 1.0),
        (CANON, 0.7, 0.9, 2.0),
        (EXPJ, 0.6, 1.0, 1.4),
        (EXPJ, -0.5, 2.0, 0.6),
    ])
    def test_tilt_identity(self, model, lam, p, x):
        # the tilted process's own scale function vs the shifted-level formula
        lhs = tilted_w(model, lam, p, x) * math.exp(lam * x)
        shifted = p + laplace_exponent(model, lam)
        rhs = w(scale_evaluator(model, shifted), x)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_tabulated_tilt_identity(self):
        # the tilted density is re-tabulated on the same grid, so the identity
        # holds to its interpolation error (~5e-5 here), not to rounding
        model = LevyModel(mu=0.25, b2=0.1, jumps=tabulated_exp_density())
        lhs = tilted_w(model, 0.5, 0.8, 1.2) * math.exp(0.5 * 1.2)
        rhs = w(scale_evaluator(model, 0.8 + laplace_exponent(model, 0.5)), 1.2)
        assert lhs == pytest.approx(rhs, rel=5e-4)

    def test_unit_tilt_recovers_conversion_weighting(self):
        # lam=-1, p=q-psi(-1): tilted scale equals e^x W^(q)(x)
        q = 4.0
        p = q - laplace_exponent(CANON, -1.0)
        lhs = tilted_w(CANON, -1.0, p, 1.5)
        rhs = math.exp(1.5) * w(scale_evaluator(CANON, q), 1.5)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            scale_evaluator(CANON, -1.0)

    def test_integral_domain(self):
        ev = scale_evaluator(CANON, 1.0)
        with pytest.raises(DomainError):
            w_integrals(ev, -0.1)
        with pytest.raises(DomainError):
            w_prime(ev, 0.0)
