"""Threshold, classification, valuation and fit tests.

Expected numbers were computed by an independent quadrature oracle (the
closed value expressions integrated with adaptive quadrature over the scale
function, thresholds by bisection on the defining conditions) and are frozen
here.  Oracle values carry ~1e-9 quadrature error, so value comparisons use
relative 1e-7; threshold comparisons are tighter because both routes agree
to machine precision.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levybond import (
    DomainError,
    ExponentialJumps,
    LevyModel,
    MomentConditionError,
    RegimeError,
    TabulatedDensity,
    bounded_variation_model,
    exp_growth_rate,
    phi,
)
from levybond.scale import scale_evaluator
from levybond.solver import (
    IMMEDIATE_STOP,
    FitKind,
    GameParams,
    Regime,
    _boundary_condition,
    _overshoot_exponential,
    _overshoot_quadrature,
    a_star,
    c_star,
    call_boundary_value,
    classify,
    exit_expectation,
    fit_report,
    g_function,
    q0,
    q1,
    value,
    value_profile,
)

CANON = LevyModel(0.0, 2.0)          # psi(-1) = 1
B05 = LevyModel(0.0, 0.5)            # psi(-1) = 0.25: all four regimes reachable
B02 = LevyModel(0.0, 0.2)            # psi(-1) = 0.10
BV2 = bounded_variation_model(2.0, ExponentialJumps(1.0, 2.0))   # psi(-1) = -1
EXPJ = LevyModel(0.1, 0.3, ExponentialJumps(0.8, 1.7))           # psi(-1) ~ 0.954

with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # deliberate sub-grid mass drop
    _g = np.linspace(0.004, 8.0, 401)
    TAB = LevyModel(0.1, 0.3, TabulatedDensity(tuple(_g), tuple(2.0 * np.exp(-2.0 * _g)), 2.0))
EXPJM = LevyModel(0.1, 0.3, ExponentialJumps(1.0, 2.0))  # what TAB approximates


def gp(q, alpha=1.0, beta=1.0, K=2.0):
    return GameParams(alpha, beta, q, K)


Q0 = {  # bisection-oracle values of the upper critical rate
    "CANON": 2.7988675940594376,
    "B05": 1.9299559895001774,
    "B02": 1.7205417243657708,
    "BV2": 1.1876338053717235,
    "EXPJ": 2.593985841716461,
}
Q1 = {  # scan+bisection oracle on the issuer-boundary condition
    "CANON": 1.0,
    "B05": 1.1852782296184787,
    "B02": 1.2816607716471398,
    "EXPJ": 1.9968840920498807,
}
CSTAR = {  # brentq oracle on the boundary-value equation
    ("CANON", 0.75): 0.07450457203081645,
    ("B05", 0.75): -0.23740078615161803,
    ("B02", 1.0): 0.2747698924083459,
    ("EXPJ", 1.2484420460249404): 0.22529598468870146,
    ("BV2", 0.8): 0.2593326011335,
}
MODELS = {"CANON": CANON, "B05": B05, "B02": B02, "BV2": BV2, "EXPJ": EXPJ}


class TestHolderThreshold:
    def test_frozen_values(self):
        # canonical q=5 is (5+sqrt(5))/15 by hand reduction of the formula
        assert a_star(CANON, gp(5.0)) == pytest.approx((5 + math.sqrt(5)) / 15, rel=1e-14)
        assert a_star(CANON, gp(3.0)) == pytest.approx(1.5773502691896257, rel=1e-13)
        assert a_star(BV2, gp(2.5)) == pytest.approx(0.6737715508089903, rel=1e-13)
        assert a_star(B05, gp(1.5)) == pytest.approx(5.632993161855452, rel=1e-13)

    def test_strictly_decreasing(self):
        for name, model in MODELS.items():
            lo = exp_growth_rate(model) + 1.0
            qs = np.linspace(lo + 0.01, 4.0 * Q0[name], 50)
            vals = [a_star(model, gp(float(qq))) for qq in qs]
            assert all(b < a for a, b in zip(vals, vals[1:])), name

    def test_domain_gate(self):
        with pytest.raises(DomainError):
            a_star(CANON, gp(2.0))  # psi(-1)+beta = 2 exactly
        with pytest.raises(DomainError):
            a_star(EXPJ, gp(1.5))   # below psi(-1)+beta ~ 1.954


class TestCriticalRates:
    def test_q0_frozen(self):
        for name, model in MODELS.items():
            assert q0(model, gp(1.0)) == pytest.approx(Q0[name], rel=1e-12), name

    def test_q0_is_cap_crossing(self):
        for name, model in MODELS.items():
            r = q0(model, gp(1.0))
            assert abs(a_star(model, gp(r)) - 2.0) <= 1e-9 * 2.0
            assert r > max(0.5, exp_growth_rate(model) + 1.0)

    def test_q1_frozen(self):
        for name, model in MODELS.items():
            expect = Q1.get(name, Q0[name])  # b2=0 collapses q1 onto q0
            assert q1(model, gp(1.0)) == pytest.approx(expect, rel=1e-10), name

    def test_q1_canonical_exact(self):
        # on the canonical instance the boundary condition vanishes at q=1
        assert abs(q1(CANON, gp(1.0)) - 1.0) <= 1e-8
        assert abs(_boundary_condition(CANON, gp(1.0), 1.0)) <= 1e-12

    def test_ordering(self):
        for name, model in MODELS.items():
            r0, r1 = q0(model, gp(1.0)), q1(model, gp(1.0))
            assert 0.5 < r1 <= r0, name

    def test_bv_collapse(self):
        assert q1(BV2, gp(1.0)) == q0(BV2, gp(1.0))


class TestIssuerThreshold:
    def test_frozen_values(self):
        for (name, qq), expect in CSTAR.items():
            got = c_star(MODELS[name], gp(qq))
            assert got == pytest.approx(expect, abs=1e-12), (name, qq)

    def test_no_jump_reduction(self):
        # with no jumps the defining equation solves in closed form
        for model, qq in [(CANON, 0.75), (B05, 0.75), (B02, 1.0)]:
            ph = phi(model, qq)
            closed = math.log((ph + 1.0) * (2.0 * qq - 1.0) / ph)
            assert c_star(model, gp(qq)) == pytest.approx(closed, abs=1e-12)

    def test_boundary_equation_residual(self):
        for name, qq in [("EXPJ", 1.2484420460249404), ("BV2", 0.8)]:
            model = MODELS[name]
            root = c_star(model, gp(qq))
            resid = call_boundary_value(model, gp(qq), root) - 2.0
            assert abs(resid) <= 1e-9 * 2.0

    def test_boundary_value_shape(self):
        # increasing in c, correct deep limit, above the cap near log K
        model, qq = EXPJ, 1.2484420460249404
        ph = phi(model, qq)
        log_k = math.log(2.0)
        cs = np.linspace(log_k - 6.0, log_k - 1e-6, 40)
        vals = [call_boundary_value(model, gp(qq), float(c)) for c in cs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        deep = call_boundary_value(model, gp(qq), log_k - 20.0)
        assert deep == pytest.approx(2.0 - (2.0 * qq - 1.0) / ph, rel=1e-6)
        assert vals[-1] > 2.0

    def test_regime_gate(self):
        with pytest.raises(RegimeError):
            c_star(B05, gp(1.5))   # R3 territory
        with pytest.raises(RegimeError):
            c_star(B05, gp(2.5))   # R2 territory
        with pytest.raises(RegimeError):
            c_star(B05, gp(0.4))   # R1 territory


class TestClassification:
    def test_regime_dispatch(self):
        cases = [
            (B05, 0.4, Regime.R1), (B05, 0.75, Regime.R4),
            (B05, 1.5, Regime.R3), (B05, 2.5, Regime.R2),
            (BV2, 0.8, Regime.R4), (BV2, 2.5, Regime.R2),
            (BV2, 1.05, Regime.R4),   # no Gaussian part: R3 band is empty
            (EXPJ, 2.295434966883171, Regime.R3),
        ]
        for model, qq, expect in cases:
            assert classify(model, gp(qq)).regime is expect, (qq, expect)

    def test_ties(self):
        assert classify(B05, gp(0.5)).regime is Regime.R1          # q = alpha/K
        assert classify(B05, gp(Q0["B05"])).regime is Regime.R2    # q = q0
        assert classify(B05, gp(Q1["B05"])).regime is Regime.R3    # q = q1

    def test_solution_fields(self):
        s2 = classify(B05, gp(2.5))
        assert s2.a_star is not None and s2.c_star is None
        assert s2.tau_level == pytest.approx(math.log(s2.a_star))
        assert s2.sigma_level == pytest.approx(math.log(2.0))
        s4 = classify(B05, gp(0.75))
        assert s4.a_star is None and s4.c_star == pytest.approx(CSTAR[("B05", 0.75)])
        assert s4.tau_level == pytest.approx(math.log(2.0))
        assert s4.sigma_level == s4.c_star
        s1 = classify(B05, gp(0.4))
        assert s1.sigma_level is IMMEDIATE_STOP
        s3 = classify(B05, gp(1.5))
        assert s3.tau_level == s3.sigma_level == pytest.approx(math.log(2.0))
        for s in (s1, s2, s3, s4):
            assert s.q0 == pytest.approx(Q0["B05"], rel=1e-12)
            assert s.q1 == pytest.approx(Q1["B05"], rel=1e-10)

    def test_discount_condition_gate(self):
        with pytest.raises(MomentConditionError, match="psi"):
            classify(CANON, gp(0.75))
        with pytest.raises(MomentConditionError):
            classify(EXPJ, gp(0.9))

    def test_params_validation(self):
        for bad in [dict(alpha=-1.0), dict(beta=0.0), dict(q=0.0), dict(K=-2.0),
                    dict(q=math.nan)]:
            kw = dict(alpha=1.0, beta=1.0, q=1.0, K=2.0)
            kw.update(bad)
            with pytest.raises(DomainError):
                GameParams(**kw)


class TestPremiumKernel:
    # oracle: quadrature of (Phi+1) int e^(y-z) W - Phi int W
    G_CANON5 = {0.25: 0.02401916064628659, 0.3: 0.032865144302876126,
                0.5: 0.07480143708790887, 1.0: 0.18826167247973813,
                2.0: 0.34185789220940777}

    def test_frozen_values(self):
        for zz, expect in self.G_CANON5.items():
            assert g_function(CANON, 5.0, zz) == pytest.approx(expect, rel=1e-12)
        assert g_function(BV2, 2.5, 1.0) == pytest.approx(0.34720150332906674, rel=1e-12)

    def test_zero_and_domain(self):
        assert g_function(CANON, 5.0, 0.0) == 0.0
        with pytest.raises(DomainError):
            g_function(CANON, 5.0, -0.1)

    def test_strictly_increasing(self):
        for model, qq in [(CANON, 5.0), (BV2, 2.5), (EXPJ, 3.0)]:
            zs = np.linspace(0.0, 4.0, 60)
            vals = [g_function(model, qq, float(zz)) for zz in zs]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestExitExpectation:
    def test_canonical_is_exponential(self):
        # Brownian with b^2=2, q=1: the expression collapses to e^(-y)
        for y in (0.3, 1.0, 2.5):
            assert exit_expectation(CANON, 1.0, y) == pytest.approx(math.exp(-y), rel=1e-12)

    def test_at_or_below_zero(self):
        # Gaussian part leaves the start upward instantly, so the zero-level
        # transform is 1; from strictly above it is 1 by definition
        assert exit_expectation(CANON, 4.0, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert exit_expectation(CANON, 4.0, -1.0) == 1.0

    def test_at_zero_bounded_variation_waits_for_a_jump(self):
        # downward drift pins the path below the start until a jump clears it:
        # the transform collapses to 1 - q/(Phi d)
        for q in (0.8, 2.0):
            expect = 1.0 - q / (phi(BV2, q) * 2.0)
            assert exit_expectation(BV2, q, 0.0) == pytest.approx(expect, rel=1e-12)

    @given(y=st.floats(0.001, 12.0), qq=st.floats(1.3, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_bounded_in_unit_interval(self, y, qq):
        val = exit_expectation(CANON, qq, y)
        assert 0.0 < val <= 1.0 + 1e-12

    def test_monotone_decreasing_in_level(self):
        for model, qq in [(B05, 1.2), (BV2, 0.9), (EXPJ, 2.0)]:
            ys = np.linspace(0.0, 6.0, 40)
            vals = [exit_expectation(model, qq, float(y)) for y in ys]
            assert all(b < a + 1e-15 for a, b in zip(vals, vals[1:]))


VALUES = {  # quadrature-oracle values of V(x), rel ~1e-9
    ("CANON", 3.0): [(-1.0, 0.5538574433245261), (0.0, 1.0401168510749152),
                     (0.3, 1.355944532468118)],
    ("BV2", 2.5): [(-0.5, 0.641180164616612)],
    ("B05", 1.5): [(-0.5, 1.13754624881636), (0.0, 1.4178465463245207),
                   (0.5, 1.8194942802740683)],
    ("EXPJ", 2.295434966883171): [(0.0, 1.2551873755205207),
                                  (0.4, 1.6554442366981863)],
    ("B05", 0.75): [(-1.0, 1.8260257457178488), (-0.5, 1.968518054160563)],
    ("B02", 1.0): [(-0.5, 1.634015800759462), (0.0, 1.9171428684381233)],
    ("EXPJ", 1.2484420460249404): [(-0.9747040153112985, 1.317327108770813),
                                   (-0.17470401531129856, 1.7936981029316539)],
    ("BV2", 0.8): [(-1.0, 1.458372550466424),
                   (0.059332601133499974, 1.8612739465670054)],
}


class TestValue:
    def test_frozen_values(self):
        for (name, qq), pts in VALUES.items():
            sol = classify(MODELS[name], gp(qq))
            for x, expect in pts:
                assert sol.value(x) == pytest.approx(expect, rel=1e-7), (name, qq, x)

    def test_r1_is_payoff(self):
        sol = classify(B05, gp(0.4))
        for x in (-2.0, 0.0, math.log(2.0), 1.5):
            assert sol.value(x) == max(2.0, math.exp(x))

    def test_stopping_region_values(self):
        s2 = classify(CANON, gp(3.0))
        assert s2.value(s2.tau_level + 0.4) == pytest.approx(math.exp(s2.tau_level + 0.4))
        s4 = classify(B05, gp(0.75))
        assert s4.value(s4.c_star + 1e-9) == pytest.approx(2.0)
        assert s4.value(2.0) == pytest.approx(math.exp(2.0))

    def test_continuity_at_boundaries(self):
        for name, qq in [("CANON", 3.0), ("B05", 1.5), ("B05", 0.75), ("BV2", 0.8)]:
            sol = classify(MODELS[name], gp(qq))
            b = sol.tau_level if sol.regime is Regime.R2 else \
                (sol.c_star if sol.regime is Regime.R4 else math.log(2.0))
            gap = abs(sol.value(b - 1e-12) - sol.value(b + 1e-12))
            assert gap <= 1e-8, (name, qq, gap)

    def test_deep_tail_limit(self):
        # far out of the money only the perpetual coupon stream remains
        for name, qq in [("B05", 0.75), ("B05", 1.5), ("BV2", 0.8)]:
            model = MODELS[name]
            sol = classify(model, gp(qq))
            x = -30.0
            expect = 1.0 / qq + math.exp(x) / (qq - exp_growth_rate(model))
            assert sol.value(x) == pytest.approx(expect, rel=1e-9), (name, qq)

    def test_bounds_and_monotone_all_regimes(self):
        for qq in (0.4, 0.75, 1.5, 2.5):
            sol = classify(B05, gp(qq))
            lo = (sol.c_star if sol.regime is Regime.R4 else math.log(2.0)) - 3.0
            xs = np.linspace(lo, math.log(2.0) + 2.0, 50)
            vals = value_profile(B05, gp(qq), sol, xs)
            for x, vv in zip(xs, vals):
                assert math.exp(x) - 1e-9 <= vv <= max(math.exp(x), 2.0) + 1e-9
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), qq

    def test_r2_derivative_nonnegative(self):
        sol = classify(CANON, gp(3.0))
        xs = np.linspace(sol.tau_level - 4.0, sol.tau_level + 1.0, 60)
        vals = value_profile(CANON, gp(3.0), sol, xs)
        derivs = np.diff(vals) / np.diff(xs)
        assert derivs.min() >= -1e-9

    def test_tabulated_tracks_closed_family(self):
        # the tabulation deliberately drops ~4e-3 sub-grid mass, so the two
        # models agree to tabulation accuracy rather than solver accuracy
        for qq in (2.6, 1.05):
            se, st_ = classify(EXPJM, gp(qq)), classify(TAB, gp(qq))
            assert st_.regime is se.regime
            assert st_.q0 == pytest.approx(se.q0, rel=1e-3)
            assert st_.q1 == pytest.approx(se.q1, rel=1e-3)
            if se.c_star is not None:
                assert st_.c_star == pytest.approx(se.c_star, abs=1e-3)
            for x in (-1.0, 0.0):
                assert st_.value(x) == pytest.approx(se.value(x), rel=1e-4), (qq, x)

    def test_overshoot_dual_route(self):
        # closed partial-fraction overshoot vs independent 2-D quadrature
        for model, qq in [(EXPJM, 1.05), (BV2, 0.8)]:
            sol = classify(model, gp(qq))
            ev = scale_evaluator(model, qq)
            for x in (-1.0, sol.c_star - 0.3):
                closed = _overshoot_exponential(ev, gp(qq), sol.c_star, sol.c_star - x)
                quadv = _overshoot_quadrature(ev, gp(qq), sol.c_star, x)
                assert quadv == pytest.approx(closed, rel=1e-6, abs=1e-10)


class TestFitReports:
    def test_r2_unbounded_variation_smooth(self):
        sol = classify(CANON, gp(3.0))
        fr = fit_report(CANON, gp(3.0), sol)
        assert fr.expected_kind is FitKind.SMOOTH
        assert fr.boundary == pytest.approx(math.log(sol.a_star))
        assert fr.left_value == pytest.approx(sol.a_star, rel=1e-9)
        assert fr.right_value == pytest.approx(sol.a_star, rel=1e-9)
        assert abs(fr.left_deriv - fr.right_deriv) <= 1e-4 * sol.a_star
        assert fr.right_deriv == pytest.approx(sol.a_star, rel=1e-6)

    def test_r2_bounded_variation_continuous(self):
        sol = classify(BV2, gp(2.5))
        fr = fit_report(BV2, gp(2.5), sol)
        assert fr.expected_kind is FitKind.CONTINUOUS_ONLY
        assert abs(fr.left_value - fr.right_value) <= 1e-6
        assert fr.left_value == pytest.approx(sol.a_star, rel=1e-8)
        assert fr.left_deriv == pytest.approx(0.33155711, rel=1e-4)
        assert fr.right_deriv - fr.left_deriv > 0.2  # genuine derivative kink

    def test_r3_interior_neither(self):
        sol = classify(B05, gp(1.5))
        fr = fit_report(B05, gp(1.5), sol)
        assert fr.expected_kind is FitKind.NEITHER_INTERIOR
        # left derivative matches K + (2 alpha / (Phi b^2)) (K/a* - 1)
        ph = phi(B05, 1.5)
        a = a_star(B05, gp(1.5))
        formula = 2.0 + (2.0 / (ph * 0.5)) * (2.0 / a - 1.0)
        assert formula == pytest.approx(0.9468027352578194, rel=1e-12)
        assert fr.left_deriv == pytest.approx(formula, rel=1e-5)
        assert fr.right_deriv == pytest.approx(2.0, rel=1e-7)
        assert abs(fr.left_value - 2.0) <= 1e-9

    def test_r3_smooth_at_critical_rates(self):
        qq = Q1["B05"]
        sol = classify(B05, gp(qq))
        assert sol.regime is Regime.R3
        fr = fit_report(B05, gp(qq), sol)
        assert fr.expected_kind is FitKind.SMOOTH
        assert abs(fr.left_deriv) <= 1e-3  # boundary-condition zero at q1

    def test_r4_unbounded_variation_smooth(self):
        sol = classify(B05, gp(0.75))
        fr = fit_report(B05, gp(0.75), sol)
        assert fr.expected_kind is FitKind.SMOOTH
        assert abs(fr.left_deriv) <= 1e-4 * 2.0
        assert fr.left_value == pytest.approx(2.0, abs=1e-9)
        assert fr.right_value == pytest.approx(2.0, abs=1e-12)

    def test_r4_call_threshold_just_below_cap(self):
        # log K - c* ~ 1.1e-5 is under the default step 1e-4, yet the
        # right-hand stencil must stay on the flat V = K branch below log K
        sol = classify(B05, gp(1.18527))
        assert sol.regime is Regime.R4
        assert 0.0 < math.log(2.0) - sol.c_star < 1e-4
        fr = fit_report(B05, gp(1.18527), sol)
        assert fr.right_value == pytest.approx(2.0, abs=1e-12)
        assert abs(fr.right_deriv) <= 1e-9
        assert abs(fr.left_value - fr.right_value) <= 1e-6 * 2.0
        assert abs(fr.left_deriv) <= 1e-4 * 2.0

    def test_r4_bounded_variation_continuous(self):
        sol = classify(BV2, gp(0.8))
        fr = fit_report(BV2, gp(0.8), sol)
        assert fr.expected_kind is FitKind.CONTINUOUS_ONLY
        assert abs(fr.left_value - 2.0) <= 1e-8
        assert fr.left_deriv == pytest.approx(0.76797840, rel=1e-4)
        assert abs(fr.right_deriv) <= 1e-9  # cap side is flat here

    def test_r1_kink_at_cap(self):
        sol = classify(B05, gp(0.4))
        fr = fit_report(B05, gp(0.4), sol)
        assert fr.expected_kind is FitKind.CONTINUOUS_ONLY
        assert abs(fr.left_deriv) <= 1e-9
        assert fr.right_deriv == pytest.approx(2.0, rel=1e-7)

    def test_step_validation(self):
        sol = classify(B05, gp(1.5))
        with pytest.raises(DomainError):
            fit_report(B05, gp(1.5), sol, h=0.5)
        with pytest.raises(DomainError):
            fit_report(B05, gp(1.5), sol, h=0.0)
