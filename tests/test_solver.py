"""Threshold, classification, valuation and fit tests.

Expected numbers were computed by an independent quadrature oracle (the
closed value expressions integrated with adaptive quadrature over the scale
function, thresholds by bisection on the defining conditions) and are frozen
here.  Oracle values carry ~1e-9 quadrature error, so value comparisons use
relative 1e-7; threshold comparisons are tighter because both routes agree
to machine precision.
"""

import dataclasses
import math
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

import levybond.model as model_module
import levybond.scale as scale_module
import levybond.solver as solver_module

from levybond import (
    BracketError,
    DomainError,
    ExponentialJumps,
    LevyModel,
    MomentConditionError,
    RegimeError,
    TabulatedDensity,
    bounded_variation_model,
    exp_growth_rate,
    laplace_exponent,
    phi,
    shifted_jump_integrals,
)
from levybond.scale import Method, _w_combination, scale_evaluator, w
from levybond.solver import (
    IMMEDIATE_STOP,
    FitKind,
    GameParams,
    Regime,
    _boundary_condition,
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
    _g = _g401 = np.linspace(0.004, 8.0, 401)
    TAB = LevyModel(0.1, 0.3, TabulatedDensity(tuple(_g), tuple(2.0 * np.exp(-2.0 * _g)), 2.0))
    _g = np.linspace(0.004, 8.0, 101)
    TAB101 = LevyModel(0.1, 0.3, TabulatedDensity(tuple(_g), tuple(2.0 * np.exp(-2.0 * _g)), 2.0))
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


def _q1_full_scan(model, params):
    """Oracle for ``q1``: brentq in ``q`` over the whole range above
    ``alpha/K`` on the boundary condition in its ``q`` form
    ``K b^2/2 + K (q - psi(-1) - beta)/(Phi(q)+1) - alpha/Phi(q)``, solving
    for ``Phi`` at every point."""
    growth = exp_growth_rate(model)

    def cond(qq):
        ph = phi(model, qq)
        return (params.K * model.b2 / 2.0
                + params.K * (qq - growth - params.beta) / (ph + 1.0)
                - params.alpha / ph)

    lo = hi = params.alpha / params.K
    while cond(hi) <= 0.0:
        hi *= 2.0
    return float(brentq(cond, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=256))


def _overshoot(ev, params, c, v):
    """The R4 overshoot term at ``v = c - x`` as one ``_w_combination``:
    ``J W(v) - K integral_0^v W(v - y) G(log K - c + y) dy``, with
    ``J = K (I2/(Phi+1) - I1/Phi)``."""
    ph, K = ev.phi_q, params.K
    m = math.log(K) - c
    i1, i2 = shifted_jump_integrals(ev.model, m, ph)
    return _w_combination(ev, v, K * (i2 / (ph + 1.0) - i1 / ph), 0.0, 0.0, K, m)


def _interpolated_w(ev):
    """``W`` of a numeric-route evaluator from one batched Euler inversion of
    its tilted transform on ``[0] + geomspace(1e-4, 50, 2048)``, read
    through PCHIP, for oracles that read ``W`` at thousands of points.  The
    interpolant's pieces are evaluated by bisection, without the ~10 us of
    ``PchipInterpolator.__call__`` per point."""
    grid = np.geomspace(1e-4, 50.0, 2048)
    tilted = scale_module._euler(
        scale_module._resolvent_transform(ev, ev.phi_q), grid)
    pp = PchipInterpolator(np.concatenate([[0.0], grid]), np.concatenate([[ev.w0], tilted]))
    knots, (c3, c2, c1, c0) = pp.x.tolist(), pp.c.tolist()
    last, ph = len(knots) - 1, ev.phi_q

    def w_at(x):
        if x < 0.0:
            return 0.0
        i = bisect_right(knots, x, 0, last) - 1
        s = x - knots[i]
        return math.exp(ph * x) * (((c3[i] * s + c2[i]) * s + c1[i]) * s + c0[i])
    return w_at


def _overshoot_oracle(ev, params, c, x):
    """Independent route for the R4 overshoot term: the defining double
    integral by iterated adaptive quadrature, over jump sizes that clear the
    cap (outer) and pre-jump offsets (inner), absolute tolerance 1e-8 on each
    axis, with the density's knots handed to the outer subdivider.  ``W`` is
    the closed form's, or a numeric route's interpolated once per call."""
    ph, K = ev.phi_q, params.K
    w_at = (lambda y: w(ev, y)) if ev.roots is not None else _interpolated_w(ev)
    v = c - x
    m = math.log(K) - c
    jumps = ev.model.jumps
    # density * e^z from `start` on is edge * exp(-(rate - 1) (z - start))
    if isinstance(jumps, ExponentialJumps):
        rate, start, edge = jumps.decay, 0.0, jumps.rate * jumps.decay
    else:
        rate, start = jumps.tail_rate, jumps.grid[-1]
        edge = jumps.values[-1] * math.exp(start)
    # truncated where the remaining share-weighted jump mass is negligible
    tail_mass = edge / ((rate - 1.0) * 1e-14 * max(1.0, K))
    u_max = max(m, start + max(math.log(tail_mass), 0.0) / (rate - 1.0)) + 1.0

    def dens_growth(t):
        if t > start:
            return edge * math.exp(-(rate - 1.0) * (t - start))
        if t < jumps.grid[0]:
            return 0.0
        return float(np.interp(t, jumps.grid, jumps.values)) * math.exp(t)

    w_v = w_at(v)
    y_floor = -40.0 / ph

    def inner(zv):
        ylo = max(m - zv, y_floor)
        if ylo >= 0.0:
            return 0.0
        cap = K * math.exp(-zv) if zv < 700.0 else 0.0

        def f(y):
            return (math.exp(ph * y) * w_v - w_at(v + y)) * (math.exp(c + y) - cap)

        pieces = [ylo, -v, 0.0] if ylo < -v < 0.0 else [ylo, 0.0]
        return sum(quad(f, a, b, epsabs=1e-9, epsrel=1e-9, limit=200)[0]
                   for a, b in zip(pieces[:-1], pieces[1:]))

    pts = None
    if isinstance(jumps, TabulatedDensity):
        nodes = [t for t in jumps.grid if m < t < u_max]
        pts = nodes[::max(1, -(-len(nodes) // 400))] or None
    with warnings.catch_warnings():
        # interpolated W makes the inner bracket cancel to ~1e-10 noise near
        # y = 0, which trips quad's roundoff detector far below the target
        warnings.simplefilter("ignore")
        val, err = quad(lambda zv: dens_growth(zv) * inner(zv), m, u_max,
                        epsabs=1e-8, epsrel=1e-9,
                        limit=200 + (len(pts) if pts else 0), points=pts)
    assert err <= 1e-6, err
    return val


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

    @pytest.mark.parametrize("K", [2.0, 1.3])
    @pytest.mark.parametrize("name", ["CANON", "B05", "B02", "EXPJ", "EXPJM", "TAB101"])
    def test_q1_equals_full_scan(self, name, K):
        # the theta-form root must be the root of the q-form condition
        model = {"CANON": CANON, "B05": B05, "B02": B02, "EXPJ": EXPJ,
                 "EXPJM": EXPJM, "TAB101": TAB101}[name]
        params = gp(1.0, K=K)
        assert q1(model, params) == pytest.approx(_q1_full_scan(model, params),
                                                  rel=1e-12, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(["brownian", "exp_jumps", "bv_exp"]),
           u=st.tuples(*[st.floats(0.0, 1.0)] * 4),
           alpha=st.floats(0.1, 3.0), beta=st.floats(0.1, 3.0), K=st.floats(0.5, 5.0))
    @example(family="brownian", u=(0.0, 0.0, 0.0, 0.0), alpha=1.171875, beta=2.0, K=1.0625)
    def test_boundary_condition_brackets_one_root(self, family, u, alpha, beta, K):
        # alpha at 0, -Phi(q0) (Phi(q0)+1) K b^2/2 at Phi(q0), and -F/(theta (theta+1))
        # strictly increasing in between: one root on [0, Phi(q0)]
        if family == "brownian":
            model = LevyModel(-1.0 + 2.0 * u[0], 0.05 + 3.0 * u[1])
        elif family == "exp_jumps":
            model = LevyModel(-1.0 + 2.0 * u[0], 0.05 + 2.0 * u[1],
                              ExponentialJumps(0.1 + 2.0 * u[2], 1.5 + 3.0 * u[3]))
        else:
            model = bounded_variation_model(0.5 + 2.5 * u[0],
                                            ExponentialJumps(0.1 + 2.0 * u[1], 1.5 + 3.0 * u[2]))
        params = GameParams(alpha, beta, 1.0, K)
        hi = phi(model, q0(model, params))
        assert _boundary_condition(model, params, 0.0) == alpha
        thetas = np.linspace(hi / 40.0, hi, 40)
        hs = [-_boundary_condition(model, params, float(th)) / (th * (th + 1.0))
              for th in thetas]
        assert all(b > a for a, b in zip(hs, hs[1:]))
        edge = -hi * (hi + 1.0) * K * model.b2 / 2.0
        # at Phi(q0) the holder condition vanishes: a_star = K there.  The
        # condition is a sum of terms that cancel (on the example, ~0.39
        # from terms of ~52), so its rounding scales with their magnitudes
        terms = (alpha * (hi + 1.0) + K * model.b2 / 2.0 * hi * (hi + 1.0)
                 + K * hi * (abs(laplace_exponent(model, hi)) + abs(exp_growth_rate(model)) + beta))
        at_edge = _boundary_condition(model, params, hi)
        assert at_edge == pytest.approx(edge, rel=0.0, abs=1e-12 * terms)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_q1_scan_without_sign_change(self, monkeypatch, sign):
        # a condition that keeps one sign on the bracket cannot be solved
        monkeypatch.setattr(solver_module, "_boundary_condition", lambda m, p, th: sign)
        with pytest.raises(BracketError, match="no sign change"):
            q1(CANON, gp(1.0))

    def test_q0_without_crossing(self, monkeypatch):
        # a holder condition that stays positive never brackets Phi(q0)
        monkeypatch.setattr(solver_module, "_holder_condition", lambda m, p, th: 1.0)
        with pytest.raises(BracketError, match="holder threshold never crosses the cap"):
            q0(CANON, gp(1.0))

    def test_divergent_growth_rate_has_no_critical_rates(self):
        # jump tail rate 1: psi(-1) = inf, so the holder condition is nan at 0
        model = bounded_variation_model(2.0, ExponentialJumps(1.0, 1.0))
        for rate in (q0, q1):
            with pytest.raises(DomainError, match="finite psi"):
                rate(model, gp(1.0))

    @pytest.mark.parametrize("name, qq", [("B05", 0.75), ("B05", 1.5), ("B05", 2.5),
                                          ("B05", 0.4), ("BV2", 0.8), ("EXPJ", 1.2484420460249404),
                                          ("TAB101", 1.05)])
    def test_cold_classify_inverts_psi_only_at_q(self, monkeypatch, name, qq):
        # q0 and q1 are roots in theta found from theta = 0: the only inverse of
        # psi a classification takes is Phi(q), for a_star or c_star
        model = {**MODELS, "TAB101": TAB101}[name]
        model = LevyModel(model.mu, model.b2, model.jumps)  # a cold copy
        levels = []

        def recorded(m, p):
            levels.append(p)
            return phi(m, p)

        monkeypatch.setattr(solver_module, "phi", recorded)
        monkeypatch.setattr(scale_module, "phi", recorded)
        classify(model, gp(qq))
        assert set(levels) <= {qq}

    def test_q1_canonical_exact(self):
        # on the canonical instance the boundary condition vanishes at q=1
        assert abs(q1(CANON, gp(1.0)) - 1.0) <= 1e-8
        assert abs(_boundary_condition(CANON, gp(1.0), phi(CANON, 1.0))) <= 1e-12

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

    def test_cold_threshold_forms_no_moment(self, monkeypatch):
        # every boundary value cuts the density's one body, whose mass is a
        # suffix sum, and model._root_past brackets s = log K - c from 1e-10;
        # a fresh density, so no earlier call has formed anything for it
        density = TabulatedDensity(tuple(_g401), tuple(2.0 * np.exp(-2.0 * _g401)), 2.0)
        model = LevyModel(0.1, 0.3, density)
        calls, moments = [], []
        boundary, formed = solver_module._call_boundary_value, model_module._moments
        monkeypatch.setattr(solver_module, "_call_boundary_value",
                            lambda *args: calls.append(args[3]) or boundary(*args))
        monkeypatch.setattr(model_module, "_moments",
                            lambda *args: moments.append(args[1:4]) or formed(*args))
        phi.cache_clear()
        c = c_star(model, gp(1.05))
        assert moments == [] and len(calls) <= 9, (moments, calls)
        assert abs(call_boundary_value(model, gp(1.05), c) - 2.0) <= 1e-12

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

    @pytest.mark.parametrize("name", ["EXPJ", "TAB"])
    def test_far_below_the_cap_stays_finite(self, name):
        # s = log K - c = 800: exp(Phi s) overflows unless the shift stays in
        # the jump moments' exponents; the jump terms underflow to 0 there
        model = {"EXPJ": EXPJ, "TAB": TAB}[name]
        c = math.log(2.0) - 800.0
        ph = phi(model, 1.05)
        got = call_boundary_value(model, gp(1.05), c)
        assert math.isfinite(got)
        if name == "EXPJ":
            lam, rho, s = 0.8, 1.7, math.log(2.0) - c
            e = math.exp(-rho * s)
            i1 = lam * e * ph / (rho + ph)
            i2 = lam * rho * e * (ph + 1.0) / ((rho - 1.0) * (rho + ph))
            closed = (2.0 * (1.0 - 1.05 / ph) + 1.0 / ph + math.exp(c) / (ph + 1.0)
                      + 2.0 * (i2 / (ph + 1.0) - i1 / ph))
            assert got == pytest.approx(closed, rel=1e-14)

    def test_far_above_the_cap_names_the_shift(self):
        # s = log K - c = -800: the jump moment I2 grows like exp(800)
        with pytest.raises(DomainError, match="s=-800"):
            call_boundary_value(EXPJ, gp(1.05), math.log(2.0) + 800.0)

    @pytest.mark.parametrize("excess, message", [
        (0.0, "does not exceed the cap below log K"),
        (1.0, "no lower bracket for the issuer threshold")])
    def test_unbracketed_threshold_raises(self, monkeypatch, excess, message):
        # a boundary value stuck at K (or above it) holds no root below log K
        monkeypatch.setattr(solver_module, "_call_boundary_value",
                            lambda m, p, ph, c: p.K + excess)
        with pytest.raises(BracketError, match=message):
            c_star(B05, gp(0.75))

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
        for bad in [dict(alpha=-1.0), dict(alpha=0.0), dict(beta=0.0), dict(q=0.0), dict(K=-2.0),
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
            assert g_function(CANON, 5.0, zz) == pytest.approx(expect, rel=1e-12, abs=0.0)
        assert g_function(BV2, 2.5, 1.0) == pytest.approx(0.34720150332906674,
                                                          rel=1e-12, abs=0.0)

    def test_root_at_minus_one_matches_quadrature(self):
        # q = psi(-1): a partial-fraction root sits at -1, where the
        # e^y-weighted integral of that root's term grows linearly
        ev = scale_evaluator(CANON, 1.0)
        ph = ev.phi_q
        for zz in (0.1, 0.5, 1.0, 3.0, 8.0):
            iw = quad(lambda t: w(ev, t), 0.0, zz, epsabs=0.0, epsrel=1e-12)[0]
            iew = quad(lambda t: math.exp(t - zz) * w(ev, t), 0.0, zz,
                       epsabs=0.0, epsrel=1e-12)[0]
            expect = (ph + 1.0) * iew - ph * iw
            assert g_function(CANON, 1.0, zz) == pytest.approx(expect, rel=1e-9), zz

    @pytest.mark.parametrize("model, qq", [(CANON, 1.02), (EXPJ, 3.0)])
    def test_small_z_against_mpmath(self, model, qq):
        # g is O(z^2) while its grouped form adds O(1) terms, which cost
        # digits as z -> 0; oracle: the same partial fractions at 40 digits
        mp = pytest.importorskip("mpmath")
        ev = scale_evaluator(model, qq)
        with mp.workdps(40):
            ph = mp.mpf(ev.phi_q)
            for zz in (1e-3, 1e-2, 5e-2):
                zm = mp.mpf(zz)
                expect = mp.mpf(0)
                for r, c in zip(ev.roots, ev.weights):
                    r, c = mp.mpc(r), mp.mpc(c)
                    expect += (c * ((ph + 1) * mp.exp(-zm) * mp.expm1((r + 1) * zm) / (r + 1)
                                    - ph * mp.expm1(r * zm) / r)).real
                assert g_function(model, qq, zz) == pytest.approx(float(expect), rel=1e-12, abs=0.0), zz

    @pytest.mark.parametrize("qq", [1.05, 2.6])
    def test_small_z_tabulated_against_quadrature_of_inverted_w(self, qq):
        # small-z g inverts its own transform; oracle: 6-point
        # Gauss-Legendre on each cell of a geometric grid below z of W as
        # the numeric route defines it, the tilted inversion of its transform
        # (smooth, so the rule is exact to rounding on cells this narrow),
        # summed exactly rounded.  Each side is one Euler inversion away from
        # the true value, so they agree to the rule's 2e-8, not to rounding
        ev = scale_evaluator(TAB, qq)
        ph = ev.phi_q
        knots = np.geomspace(1e-4, 50.0, 2048)
        nodes, weights = np.polynomial.legendre.leggauss(6)
        tilted = scale_module._resolvent_transform(ev, ph)
        for zz in (1e-3, 1e-2, 5e-2):
            edges = np.array([0.0, *knots[(knots > 0.0) & (knots < zz)], zz])
            mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
            y = (mid[:, None] + half[:, None] * nodes).ravel()
            w_y = np.exp(ph * y) * scale_module._euler(tilted, y)
            f = (1.0 + (ph + 1.0) * np.expm1(y - zz)) * w_y
            expect = math.fsum((np.repeat(half, len(nodes)) * np.tile(weights, len(mid)) * f).tolist())
            assert g_function(TAB, qq, zz) == pytest.approx(expect, rel=2e-8, abs=0.0), zz

    def test_euler_route_against_closed_forms(self, monkeypatch):
        # both g branches on forced-inversion evaluators, inverted by the
        # Euler rule (the tabulated route's inverter), against the closed g;
        # the memoised evaluators are built before the inverter is swapped
        cases = [(CANON, 1.02), (EXPJM, 2.6), (BV2, 2.5), (B05, 2.0)]
        zs = (1e-3, 1e-2, 5e-2, 0.2, 1.0, 4.0, 8.0)
        closed = {case: [g_function(*case, zz) for zz in zs] for case in cases}
        numeric = {case: scale_evaluator(*case, Method.NUMERIC_INVERSION) for case in cases}
        monkeypatch.setattr(scale_module, "_inverter", lambda model: scale_module._euler)
        monkeypatch.setattr(solver_module, "scale_evaluator", lambda *case: numeric[case])
        for case in cases:
            for zz, expect in zip(zs, closed[case]):
                assert g_function(*case, zz) == pytest.approx(expect, rel=2e-8, abs=0.0), (case, zz)

    def test_zero_and_domain(self):
        assert g_function(CANON, 5.0, 0.0) == 0.0
        with pytest.raises(DomainError):
            g_function(CANON, 5.0, -0.1)
        with pytest.raises(DomainError):
            g_function(CANON, 5.0, math.nan)

    def test_strictly_increasing(self):
        for model, qq in [(CANON, 5.0), (BV2, 2.5), (EXPJ, 3.0)]:
            zs = np.linspace(0.0, 4.0, 60)
            vals = [g_function(model, qq, float(zz)) for zz in zs]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            # an array takes the same per-point values in one pass
            assert g_function(model, qq, zs).tolist() == vals


class TestBatchedNumericRoute:
    """A numeric-route profile is one inversion: ``_w_combination``'s finite
    points and small-z ``g``'s each make one inverter call, and match the
    one-point calls within 1e-13 relative."""

    @staticmethod
    def counted_euler(monkeypatch):
        calls = []
        euler = scale_module._euler

        def counted(*args):
            calls.append(len(args[1]))
            return euler(*args)
        monkeypatch.setattr(scale_module, "_euler", counted)
        return calls

    @pytest.mark.parametrize("qq, regime", [(2.3, Regime.R3), (1.05, Regime.R4)])
    def test_combination_matches_single_points(self, monkeypatch, qq, regime):
        sol = classify(TAB, gp(qq))
        assert sol.regime is regime
        ev = scale_evaluator(TAB, qq)
        ph = ev.phi_q
        coef = (solver_module._r3_coefficients(TAB, gp(qq), ph) if regime is Regime.R3
                else solver_module._r4_coefficients(TAB, gp(qq), sol.c_star))
        # Euler's real point A/(2v) lies within 5% of Phi near v = 10.5/Phi
        v = np.array([1e-3, 0.05, 0.5, 2.0, 10.5 / (0.97 * ph), 10.5 / ph,
                      10.5 / (1.08 * ph), 20.0, math.inf])
        one = [_w_combination(ev, x, *coef) for x in v.tolist()]
        calls = self.counted_euler(monkeypatch)
        batch = _w_combination(ev, v, *coef)
        assert calls == [len(v) - 1]
        assert batch[-1] == one[-1] == 0.0
        # the batched and one-point Euler averages differ in their reduction
        # order only.  At v = 20 the value has decayed to ~1e-8 of its
        # v -> 0+ value f0, and the bound is relative to f0 there
        f0 = scale_module._combination_at_zero(TAB, qq, *coef)[0]
        for x, got, want in zip(v.tolist(), batch.tolist(), one):
            size = abs(want) if x < 20.0 else abs(f0)
            assert abs(got - want) <= 1e-13 * size, (x, got, want)

    @pytest.mark.parametrize("qq", [1.05, 2.6])
    def test_small_z_g_matches_single_points(self, monkeypatch, qq):
        z = np.array([0.0, 1e-4, 1e-3, 0.01, 0.03, 0.05, 0.0999])
        one = [g_function(TAB, qq, zz) for zz in z.tolist()]
        calls = self.counted_euler(monkeypatch)
        batch = g_function(TAB, qq, z)
        assert calls == [len(z) - 1]
        assert batch[0] == one[0] == 0.0
        for zz, got, want in zip(z.tolist(), batch.tolist(), one):
            assert abs(got - want) <= 1e-13 * abs(want), (zz, got, want)

    @pytest.mark.parametrize("model, qq", [(TAB, 2.6), (TAB101, 1.05),
                                           (bounded_variation_model(2.0, TAB101.jumps), 1.0)],
                             ids=["TAB", "TAB101", "TAB101-bv"])
    def test_zero_distance_is_the_limit(self, model, qq):
        # v = 0 takes the v -> 0+ value a w0 + b/q, so exit_expectation at 0
        # is 1 with a Gaussian part and 1 - q/(Phi d) with drift d without
        ev = scale_evaluator(model, qq)
        assert ev.method is Method.NUMERIC_INVERSION
        got = exit_expectation(model, qq, 0.0)
        drift = 2.0 if model.b2 == 0.0 else math.inf
        assert got == pytest.approx(1.0 - qq / (ev.phi_q * drift), rel=1e-15)
        assert exit_expectation(model, qq, 1e-9) == pytest.approx(got, abs=1e-6)
        premium = _w_combination(ev, np.array([0.0, 1e-9]), 0.0, -ev.phi_q, ev.phi_q + 1.0)
        assert premium[0] == -ev.phi_q / qq


class TestExitExpectation:
    def test_canonical_is_exponential(self):
        # Brownian with b^2=2, q=1: the expression collapses to e^(-y); the
        # other partial-fraction root sits at -1 here (q = psi(-1))
        for y in (0.3, 1.0, 2.5, 6.0, 9.0, 12.0):
            assert exit_expectation(CANON, 1.0, y) == pytest.approx(math.exp(-y),
                                                                    rel=1e-12, abs=0.0)

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

    def test_limits_at_infinity_on_the_numeric_route(self, monkeypatch):
        # every W combination tends to 0, so g -> Phi/q and the transform -> 0
        evs = {(TAB101, 2.6): scale_evaluator(TAB101, 2.6),
               (CANON, 1.3): scale_evaluator(CANON, 1.3, Method.NUMERIC_INVERSION)}
        monkeypatch.setattr(solver_module, "scale_evaluator", lambda *case: evs[case])
        for (model, qq), ev in evs.items():
            assert ev.method is Method.NUMERIC_INVERSION
            assert g_function(model, qq, math.inf) == ev.phi_q / qq
            assert exit_expectation(model, qq, math.inf) == 0.0
            # finite points of the same array keep their values
            got = g_function(model, qq, np.array([0.05, 2.0, math.inf]))
            assert got.tolist() == [g_function(model, qq, 0.05), g_function(model, qq, 2.0),
                                    ev.phi_q / qq]

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
            model = MODELS[name]
            sol = classify(model, gp(qq))
            for x, expect in pts:
                assert value(model, gp(qq), sol, x) == pytest.approx(expect, rel=1e-7), (name, qq, x)

    def test_r1_is_payoff(self):
        sol = classify(B05, gp(0.4))
        for x in (-2.0, 0.0, math.log(2.0), 1.5):
            assert value(B05, gp(0.4), sol, x) == max(2.0, math.exp(x))

    def test_stopping_region_values(self):
        s2 = classify(CANON, gp(3.0))
        x2 = s2.tau_level + 0.4
        assert value(CANON, gp(3.0), s2, x2) == pytest.approx(math.exp(x2))
        s4 = classify(B05, gp(0.75))
        assert value(B05, gp(0.75), s4, s4.c_star + 1e-9) == pytest.approx(2.0)
        assert value(B05, gp(0.75), s4, 2.0) == pytest.approx(math.exp(2.0))

    def test_continuity_at_boundaries(self):
        for name, qq in [("CANON", 3.0), ("B05", 1.5), ("B05", 0.75), ("BV2", 0.8)]:
            sol = classify(MODELS[name], gp(qq))
            b = sol.tau_level if sol.regime is Regime.R2 else \
                (sol.c_star if sol.regime is Regime.R4 else math.log(2.0))
            gap = abs(value(MODELS[name], gp(qq), sol, b - 1e-12)
                      - value(MODELS[name], gp(qq), sol, b + 1e-12))
            assert gap <= 1e-8, (name, qq, gap)

    def test_deep_tail_limit(self):
        # far out of the money only the perpetual coupon stream remains
        for name, qq in [("B05", 0.75), ("B05", 1.5), ("BV2", 0.8)]:
            model = MODELS[name]
            sol = classify(model, gp(qq))
            x = -30.0
            expect = 1.0 / qq + math.exp(x) / (qq - exp_growth_rate(model))
            assert value(model, gp(qq), sol, x) == pytest.approx(expect, rel=1e-9), (name, qq)

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
                assert value(TAB, gp(qq), st_, x) == pytest.approx(
                    value(EXPJM, gp(qq), se, x), rel=1e-4), (qq, x)

    def test_overshoot_dual_route(self):
        # closed partial-fraction overshoot vs independent 2-D quadrature
        for model, qq in [(EXPJM, 1.05), (BV2, 0.8)]:
            sol = classify(model, gp(qq))
            ev = scale_evaluator(model, qq)
            for x in (-1.0, sol.c_star - 0.3):
                closed = _overshoot(ev, gp(qq), sol.c_star, sol.c_star - x)
                quadv = _overshoot_oracle(ev, gp(qq), sol.c_star, x)
                assert quadv == pytest.approx(closed, rel=1e-6, abs=1e-10)

    def test_tabulated_overshoot_matches_quadrature(self):
        # numeric-route overshoot on the tabulated density vs the 2-D quadrature
        sol = classify(TAB, gp(1.05))
        ev = scale_evaluator(TAB, 1.05)
        c = sol.c_star
        for x in (c - 1e-4, -1.0, c - 2.0):
            table = _overshoot(ev, gp(1.05), c, c - x)
            assert table == pytest.approx(_overshoot_oracle(ev, gp(1.05), c, x),
                                          abs=1e-8, rel=0.0), x

    def test_overshoot_tables_match_closed_form(self):
        # forced inversion: the inverted overshoot against the closed overshoot
        for model, qq in [(EXPJM, 1.05), (BV2, 0.8)]:
            sol = classify(model, gp(qq))
            closed = scale_evaluator(model, qq)
            numeric = scale_evaluator(model, qq, Method.NUMERIC_INVERSION)
            c = sol.c_star
            for x in (c - 1e-4, -1.0, c - 2.0):
                expect = _overshoot(closed, gp(qq), c, c - x)
                got = _overshoot(numeric, gp(qq), c, c - x)
                assert got == pytest.approx(expect, abs=1e-8, rel=0.0), (qq, x)


class TestValueProfile:
    """A profile is one array pass per regime; ``value`` is a one-point profile."""

    # one rate per regime each model reaches (CANON has no R1 or R4 at K = 2:
    # psi(-1) = q1 = 1; BV2 has no Gaussian part, so no R3).  EXPJM at q 0.8
    # has a root theta with (theta + rho) * 800 > 709: its x = -800 point
    # overflows e^((theta+rho) v) in the kernel form (e^((theta+rho) v) - 1)
    # e^(-rho v)/(theta+rho)
    CASES = {"CANON": (1.5, 3.0), "B05": (0.4, 0.75, 1.5, 2.5), "B02": (0.4, 1.0, 1.5, 2.0),
             "BV2": (0.4, 0.8, 2.5), "EXPJ": (1.25, 2.3, 3.0), "EXPJM": (0.8, 2.3, 2.6)}
    REGIMES = {"CANON": "R3 R2", "B05": "R1 R4 R3 R2", "B02": "R1 R4 R3 R2",
               "BV2": "R1 R4 R2", "EXPJ": "R4 R3 R2", "EXPJM": "R4 R3 R2"}

    @staticmethod
    def _points(sol):
        """The thresholds exactly, the small-z band and beyond below the
        active boundary, a point above it, -800 and -inf."""
        edge = {Regime.R2: sol.tau_level, Regime.R4: sol.c_star}.get(sol.regime, math.log(2.0))
        pts = [sol.tau_level, math.log(2.0), edge + 0.3, -800.0, -math.inf]
        pts += [edge - d for d in (1e-3, 0.05, 0.0999, 0.1, 0.5, 2.0, 6.0)]
        return pts + ([sol.c_star] if sol.c_star is not None else [])

    def test_matches_forced_inversion(self, monkeypatch):
        # the memoised closed evaluators are read first, then the solver is
        # pointed at forced-inversion ones (small-z g included)
        cases = [(MODELS.get(name, EXPJM), qq) for name, qs in self.CASES.items() for qq in qs]
        sols = [classify(model, gp(qq)) for model, qq in cases]
        assert " ".join(s.regime.name for s in sols) == " ".join(self.REGIMES.values())
        closed = [value_profile(model, gp(qq), sol, self._points(sol))
                  for (model, qq), sol in zip(cases, sols)]
        numeric = {case: scale_evaluator(*case, Method.NUMERIC_INVERSION) for case in cases}
        monkeypatch.setattr(solver_module, "scale_evaluator", lambda *case: numeric[case])
        for (model, qq), sol, expect in zip(cases, sols, closed):
            got = value_profile(model, gp(qq), sol, self._points(sol))
            assert got == pytest.approx(expect, rel=1e-9, abs=0.0), (qq, sol.regime)

    def test_canonical_r2_is_the_brownian_value(self):
        # psi = theta^2 gives W = sinh(Phi x)/Phi with Phi = sqrt(q), and the
        # R2 value collapses to e^x + (alpha/q)(1 + (Phi e^(-z) - e^(-Phi z))/(1 - Phi))
        # at z = log a* - x
        for qq in (3.0, 4.5):
            sol = classify(CANON, gp(qq))
            assert sol.regime is Regime.R2
            ph, la = math.sqrt(qq), sol.tau_level
            xs = la - np.array([1e-4, 0.01, 0.05, 0.0999, 0.1, 0.3, 1.0, 3.0, 8.0, 20.0])
            z = la - xs
            expect = np.exp(xs) + (1.0 + (ph * np.exp(-z) - np.exp(-ph * z)) / (1.0 - ph)) / qq
            got = value_profile(CANON, gp(qq), sol, xs)
            assert got == pytest.approx(expect, rel=1e-12, abs=0.0), qq

    def test_value_is_a_one_point_profile(self):
        for name, qs in self.CASES.items():
            model = MODELS.get(name, EXPJM)
            for qq in qs:
                sol = classify(model, gp(qq))
                pts = self._points(sol)
                prof = value_profile(model, gp(qq), sol, pts)
                assert [value(model, gp(qq), sol, x) for x in pts] == prof.tolist(), (name, qq)

    @pytest.mark.parametrize("model, qq", [(EXPJ, 1.25), (BV2, 0.8), (CANON, 3.0), (B05, 1.5),
                                           (B05, 0.4), (TAB, 2.6), (TAB, 1.05)])
    def test_limit_at_minus_infinity(self, model, qq):
        # K in R1, the perpetual coupon alpha/q in R2-R4 on either route; the
        # same limit the profile reaches at x = -800
        sol = classify(model, gp(qq))
        limit = 2.0 if sol.regime is Regime.R1 else 1.0 / qq
        assert value(model, gp(qq), sol, -math.inf) == limit
        assert value_profile(model, gp(qq), sol, [-math.inf, -800.0]) == pytest.approx(
            [limit, limit], rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("qq, regime", [(0.4, Regime.R1), (2.5, Regime.R2)])
    def test_payoff_past_the_float_range(self, qq, regime):
        # e^x overflows past x = log(float max) ~ 709.78: the payoff is inf
        sol = classify(B05, gp(qq))
        assert sol.regime is regime
        assert value(B05, gp(qq), sol, 710.0) == math.inf
        finite = [-1.0, 0.0, 0.5, 709.0]
        prof = value_profile(B05, gp(qq), sol, [710.0, *finite, 1e4])
        assert prof[0] == prof[-1] == math.inf
        assert prof[1:-1].tolist() == value_profile(B05, gp(qq), sol, finite).tolist()

    @pytest.mark.parametrize("model, qq", [(B05, 0.4), (B05, 0.75), (B05, 1.5), (B05, 2.5),
                                           (TAB, 1.05)])
    def test_nan_point_raises(self, model, qq):
        sol = classify(model, gp(qq))
        with pytest.raises(DomainError):
            value(model, gp(qq), sol, math.nan)
        with pytest.raises(DomainError):
            value_profile(model, gp(qq), sol, [0.0, math.nan])


class TestFarBelowBoundary:
    """Forced-inversion R4 values against the closed forms down to
    ``Phi v ~ 54``: the numeric route inverts the value's own pole-free
    transform, so no term of size ``e^(Phi v)`` cancels.  ``v = 8/Phi`` and
    ``21/(2 Phi)`` put the Talbot and Euler contours' real point on ``Phi``
    before it is moved off."""

    CASES = [(EXPJ, 1.5), (EXPJM, 1.05), (BV2, 0.8)]

    @pytest.mark.parametrize("inverter, rel", [("route", 1e-12), ("euler", 1e-9)])
    def test_matches_closed_forms(self, monkeypatch, inverter, rel):
        # the memoised evaluators are built before the inverter is swapped
        evs = [(scale_evaluator(model, qq), scale_evaluator(model, qq, Method.NUMERIC_INVERSION))
               for model, qq in self.CASES]
        if inverter == "euler":
            monkeypatch.setattr(scale_module, "_inverter", lambda model: scale_module._euler)
        for (model, qq), (closed, numeric) in zip(self.CASES, evs):
            sol = classify(model, gp(qq))
            assert sol.regime is Regime.R4
            coeffs = solver_module._r4_coefficients(model, gp(qq), sol.c_star)
            for v in (1e-3, 0.5, 2.0, 5.0, 8.0, 10.0, 12.0, 20.0,
                      8.0 / closed.phi_q, 21.0 / (2.0 * closed.phi_q)):
                assert _w_combination(numeric, v, *coeffs) + 1.0 / qq == pytest.approx(
                    _w_combination(closed, v, *coeffs) + 1.0 / qq, rel=rel, abs=0.0), (qq, v)

    def test_threshold_conditioning(self):
        # R4's combination has a = 0 at c*, but any rounding in its
        # coefficients leaves a residue at Phi that e^(Phi v) amplifies.  On
        # TAB at q 1.5 (Phi 2.62), moving c* by k ulps moves V(c* - 4) by
        # C |k| eps e^(4 Phi), C at most 2.69 (k = +1: 2.1e-11; k = -10:
        # 1.0e-10); C = 4 bounds it.  V(c* - 0.1) moves by at most 2.3e-16.
        # Each point sits at a fixed distance below the moved c*: at a fixed
        # x the distance moves too, and the Euler inverter reads that move
        # at its own rounding level (~6e-13 at 0.1)
        qq, eps = 1.5, np.finfo(float).eps
        sol = classify(TAB, gp(qq))
        ph, c = phi(TAB, qq), sol.c_star
        assert sol.regime is Regime.R4 and 2.6 < ph < 2.7
        for k in (1, -1, 10, -10):
            ck = c
            for _ in range(abs(k)):
                ck = math.nextafter(ck, math.copysign(math.inf, k))
            moved = dataclasses.replace(sol, c_star=ck, sigma_level=ck)
            for v, limit in ((4.0, 4.0 * abs(k) * eps * math.exp(ph * 4.0)), (0.1, 1e-14)):
                rel = abs(value(TAB, gp(qq), moved, ck - v) / value(TAB, gp(qq), sol, c - v) - 1.0)
                assert rel <= limit, (v, k, rel)


def _stencil_limits(model, params, sol, h=None):
    """Oracle for :func:`fit_report`: one-sided three-point stencils at steps
    ``h``, ``h/2``, ``h/4`` (quadratic extrapolation), each side sampling only
    its own branch of ``V``.  The default step is ``1e-4 * max(1, |b|)``, cut
    to a quarter of the gap when an R4 threshold ``b`` lies closer than that
    below ``log K``.  Returns ``(left_value, right_value, left_deriv,
    right_deriv)``, good to ~1e-12 in value and 1e-9 to 1e-7 in slope."""
    log_k = math.log(params.K)
    b = {Regime.R2: sol.tau_level, Regime.R4: sol.c_star}.get(sol.regime, log_k)
    if h is None:
        h = 1e-4 * max(1.0, abs(b))
        if sol.regime is Regime.R4 and 0.0 < log_k - b < h:
            h = (log_k - b) / 4.0
    l1, l2, l3 = (value(model, params, sol, b - h / k) for k in (1.0, 2.0, 4.0))
    r1, r2, r3 = (value(model, params, sol, b + h / k) for k in (1.0, 2.0, 4.0))
    return (l1 / 3.0 - 2.0 * l2 + 8.0 * l3 / 3.0,
            r1 / 3.0 - 2.0 * r2 + 8.0 * r3 / 3.0,
            (2.0 * l1 - 10.0 * l2 + 8.0 * l3) / h,
            -(2.0 * r1 - 10.0 * r2 + 8.0 * r3) / h)


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
        # log K - c* ~ 1.1e-5: the right-hand limits must be the flat
        # V = K branch below log K, not the share branch just above it
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


class TestExactLimits:
    """``fit_report``'s closed one-sided limits against the stencil oracle,
    their exactness where the paper's criterion fixes them, and the absence
    of any scale build behind them."""

    @pytest.mark.parametrize("name, qq, regime, h", [
        ("CANON", 3.0, Regime.R2, None), ("CANON", 1.5, Regime.R3, None),
        ("B05", 0.4, Regime.R1, None), ("B05", 0.75, Regime.R4, None),
        ("B05", 1.5, Regime.R3, None), ("B05", 2.5, Regime.R2, None),
        ("B02", 0.4, Regime.R1, None), ("B02", 1.0, Regime.R4, None),
        ("B02", 1.5, Regime.R3, None), ("B02", 2.5, Regime.R2, None),
        ("BV2", 0.4, Regime.R1, None), ("BV2", 0.8, Regime.R4, None),
        ("BV2", 2.5, Regime.R2, None),
        ("EXPJ", 1.2484420460249404, Regime.R4, None), ("EXPJ", 2.3, Regime.R3, None),
        ("EXPJ", 3.0, Regime.R2, None),
        ("EXPJM", 1.05, Regime.R4, None), ("EXPJM", 2.2, Regime.R3, None),
        ("EXPJM", 3.0, Regime.R2, None),
        ("TAB", 1.05, Regime.R4, None), ("TAB", 2.6, Regime.R2, None),
        # at h = 1e-3 the stencil is good to ~1e-7 in the R3 slope here
        ("TAB", 2.3, Regime.R3, 1e-3),
    ])
    def test_match_stencil(self, name, qq, regime, h):
        model = {**MODELS, "EXPJM": EXPJM, "TAB": TAB}[name]
        par = gp(qq)
        sol = classify(model, par)
        assert sol.regime is regime
        fr = fit_report(model, par, sol)
        got = (fr.left_value, fr.right_value, fr.left_deriv, fr.right_deriv)
        # scaled by max(|oracle|, K): a smooth-fit slope is 0, where a
        # purely relative band would be empty
        for i, (exact, oracle) in enumerate(zip(got, _stencil_limits(model, par, sol, h))):
            tol = 1e-9 if i < 2 else 1e-6
            assert abs(exact - oracle) <= tol * max(abs(oracle), par.K), (i, exact, oracle)

    @pytest.mark.parametrize("model, qq", [(CANON, 3.0), (B05, 2.5), (EXPJ, 3.0), (TAB, 2.6)],
                             ids=["CANON", "B05", "EXPJ", "TAB"])
    def test_r2_unbounded_variation_slope_is_a_star(self, model, qq):
        sol = classify(model, gp(qq))
        assert sol.regime is Regime.R2
        assert fit_report(model, gp(qq), sol).left_deriv == pytest.approx(
            sol.a_star, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model, qq", [(B05, 0.75), (B02, 1.0), (EXPJ, 1.2484420460249404),
                                           (EXPJM, 1.05), (TAB, 1.05)],
                             ids=["B05", "B02", "EXPJ", "EXPJM", "TAB"])
    def test_r4_unbounded_variation_slope_vanishes(self, model, qq):
        sol = classify(model, gp(qq))
        assert sol.regime is Regime.R4
        assert abs(fit_report(model, gp(qq), sol).left_deriv) <= 1e-12 * 2.0

    def test_r4_reads_no_boundary_value(self, monkeypatch):
        # a = call_boundary_value(c*) - K is 0 at c* by the definition of c*,
        # and the R4 value and fit report take it as 0: they form no jump
        # integral pair, and with a Gaussian part the fit is smooth to the
        # bit.  The computed boundary excess here is rounding noise, -4.4e-16
        sol = classify(TAB, gp(1.5))
        assert sol.regime is Regime.R4

        def unused(*args):
            raise AssertionError("an R4 value formed the boundary value's jump integrals")

        monkeypatch.setattr(solver_module, "shifted_jump_integrals", unused)
        assert fit_report(TAB, gp(1.5), sol).left_deriv == 0.0
        xs = [sol.c_star - 4.0, sol.c_star - 1.0, sol.c_star - 0.1]
        assert np.all(np.isfinite(value_profile(TAB, gp(1.5), sol, xs)))

    def test_r4_bounded_variation_value_is_the_cap(self):
        sol = classify(BV2, gp(0.8))
        assert sol.regime is Regime.R4
        assert abs(fit_report(BV2, gp(0.8), sol).left_value - 2.0) <= 1e-12 * 2.0

    @pytest.mark.parametrize("qq", [1.05, 2.3, 2.6])
    def test_tabulated_builds_no_evaluator(self, qq):
        before = scale_evaluator.cache_info()
        fit_report(TAB, gp(qq), classify(TAB, gp(qq)))
        after = scale_evaluator.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
