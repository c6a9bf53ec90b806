"""Acceptance gate: one test per release criterion.

Each test is a self-contained check of one shipping criterion at its stated
tolerance; the terminal summary (see ``conftest.py``) prints one PASS/FAIL
line per criterion.  Deterministic criteria use closed-form or independently
re-derived oracles; stochastic criteria fix their seeds and assert agreement
within three standard errors plus explicit wall-clock budgets.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from levybond import (
    ExponentialJumps,
    FitKind,
    GameParams,
    LevyModel,
    Method,
    Regime,
    SimConfig,
    bounded_variation_model,
    c_star,
    call_boundary_value,
    classify,
    estimate_game_values,
    exit_expectation,
    fit_report,
    g_function,
    laplace_selfcheck,
    phi,
    q0,
    q1,
    saddle_check,
    scale_evaluator,
    sup_exponential_moment,
    two_sided_exit,
    upcrossing_discount_profile,
    value_profile,
    w,
    wiener_hopf_check,
)
from levybond.cli import main as cli_main

CANON = LevyModel(0.0, 2.0)          # the b2=2 driftless Gaussian family
B05 = LevyModel(0.0, 0.5)            # small volatility: all four regimes live
BV2 = bounded_variation_model(2.0, ExponentialJumps(1.0, 2.0))
BV_RHO1 = bounded_variation_model(2.0, ExponentialJumps(1.0, 1.0))
EXPJ = LevyModel(0.1, 0.3, ExponentialJumps(0.8, 1.7))

K = 2.0
LOG_K = math.log(K)


def gp(q: float) -> GameParams:
    return GameParams(1.0, 1.0, q, K)


def test_c01_scale_transform_identity():
    """Quadrature of exp(-beta x) W(x) matches 1/(psi(beta) - q).

    Gaussian (b2 = 2) and bounded-variation exponential-jump (drift 2,
    intensity 1, jump rate 1) families; q in {0.5, 1, 4}; beta at three
    offsets above Phi(q); relative residual <= 1e-6 in under 5 s.
    """
    t0 = time.perf_counter()
    for model in (CANON, BV_RHO1):
        for q in (0.5, 1.0, 4.0):
            ev = scale_evaluator(model, q)
            for bump in (0.5, 1.0, 3.0):
                res = laplace_selfcheck(ev, ev.phi_q + bump)
                assert res <= 1e-6, (model, q, bump, res)
    assert time.perf_counter() - t0 < 5.0


def test_c02_numeric_inversion_matches_closed_forms():
    """Certified transform inversion reproduces the partial-fraction forms.

    Relative agreement 1e-6 on x in [0.01, 10] for both closed families,
    in under 10 s.
    """
    t0 = time.perf_counter()
    xs = np.geomspace(0.01, 10.0, 40)
    for model, qs in ((CANON, (0.5, 4.0)), (BV2, (0.8, 2.0))):
        for q in qs:
            closed = scale_evaluator(model, q)
            numeric = scale_evaluator(model, q, method=Method.NUMERIC_INVERSION)
            for x in xs:
                ref = w(closed, x)
                got = w(numeric, x)
                assert abs(got - ref) <= 1e-6 * abs(ref), (model, q, x)
    assert time.perf_counter() - t0 < 10.0


def test_c03_scale_boundary_values():
    """W(0+) = 1/drift on BV families; W'(0+) = 2/b2 on Gaussian ones.

    Both limits are recovered from small-x evaluations by Richardson
    extrapolation, so the check exercises the evaluators rather than the
    stored boundary constants.
    """
    h = 1e-6
    for model, drift, q in ((BV2, 2.0, 1.3), (BV_RHO1, 2.0, 0.7)):
        ev = scale_evaluator(model, q)
        w0 = 2.0 * w(ev, h / 2) - w(ev, h)
        assert abs(w0 - 1.0 / drift) <= 1e-6, (drift, q, w0)
    h = 1e-5
    for model, b2, q in ((CANON, 2.0, 1.7), (B05, 0.5, 1.7)):
        ev = scale_evaluator(model, q)
        s_h = (w(ev, h) - w(ev, 0.0)) / h
        s_h2 = (w(ev, h / 2) - w(ev, 0.0)) / (h / 2)
        slope = 2.0 * s_h2 - s_h
        assert abs(slope - 2.0 / b2) <= 1e-3 * (2.0 / b2), (b2, q, slope)


def test_c04_critical_rates_on_canonical_instance():
    """Critical discount rates of the driftless b2 = 2 instance.

    The lower rate equals 1 to 1e-8 and satisfies the defining relation
    exactly (the boundary derivative expression vanishes when substituted);
    the upper rate matches an independent bisection on the cap-hitting
    equation, written here from scratch with the closed Phi(q) = sqrt(q).
    """
    par = gp(1.0)
    lo = q1(CANON, par)
    hi = q0(CANON, par)
    assert abs(lo - 1.0) <= 1e-8

    # direct substitution: with Phi(1) = 1 the analytic continuation of the
    # conversion threshold gives -2, and the boundary-derivative expression
    # K + (2 alpha / (Phi b2)) (K/a - 1) evaluates to exactly zero
    ph1 = phi(CANON, 1.0)
    a_cont = 1.0 * (ph1 + 1.0) / (ph1 * (1.0 - 1.0 - 1.0))
    resid = K + (2.0 * 1.0 / (ph1 * 2.0)) * (K / a_cont - 1.0)
    assert abs(resid) <= 1e-12

    # independent oracle: bisect the q where the conversion threshold
    # (alpha (Phi+1) / (Phi (q - growth - beta)), growth = 1 here) hits K
    def cap_gap(qv: float) -> float:
        ph = math.sqrt(qv)
        return (ph + 1.0) / (ph * (qv - 2.0)) - K

    qa, qb = 2.05, 6.0
    assert cap_gap(qa) > 0.0 > cap_gap(qb)
    for _ in range(60):
        qm = 0.5 * (qa + qb)
        if cap_gap(qm) > 0.0:
            qa = qm
        else:
            qb = qm
    oracle = 0.5 * (qa + qb)
    assert abs(hi - oracle) <= 1e-3
    assert hi == pytest.approx(2.799, abs=1e-3)
    assert 0.5 < lo <= hi and hi > 2.0   # alpha/K < q1 <= q0, q0 > beta+growth


def test_c05_call_threshold_closed_reduction():
    """Jump-free root-finder threshold collapses to its closed form.

    On the driftless b2 = 2 instance at q = 0.75 the general root-finder
    must reproduce log((Phi+1)(Kq - alpha) / (beta Phi)) to 1e-8; on an
    exponential-jump instance the defining boundary equation holds at the
    root to 1e-9.
    """
    par = gp(0.75)
    cs = c_star(CANON, par)
    ph = phi(CANON, 0.75)
    closed = math.log((ph + 1.0) * (K * 0.75 - 1.0) / (1.0 * ph))
    assert abs(cs - closed) <= 1e-8
    assert cs == pytest.approx(0.07451, abs=1e-5)

    parj = gp(1.2484420460249404)
    cj = c_star(EXPJ, parj)
    assert abs(call_boundary_value(EXPJ, parj, cj) - K) <= 1e-9


# one instance per regime, all on the small-volatility family (the only
# Gaussian family here whose four regime bands all intersect the admissible
# discount range)
_REGIME_RATES = ((Regime.R1, 0.3), (Regime.R4, 0.75), (Regime.R3, 1.5),
                 (Regime.R2, 2.5))


def test_c06_value_bounds_and_monotonicity():
    """Payoff bounds, monotonicity, and derivative positivity per regime."""
    for regime, q in _REGIME_RATES:
        par = gp(q)
        sol = classify(B05, par)
        assert sol.regime is regime, (q, sol.regime)
        anchors = [LOG_K, sol.tau_level]
        if sol.c_star is not None:
            anchors.append(sol.c_star)
        xs = np.linspace(min(anchors) - 2.5, LOG_K + 2.0, 50)
        vs = value_profile(B05, par, sol, xs)
        ex = np.exp(xs)
        assert np.all(vs >= ex - 1e-9), (q, "lower bound")
        assert np.all(vs <= np.maximum(ex, K) + 1e-9), (q, "upper bound")
        assert np.all(np.diff(vs) >= -1e-9), (q, "monotone")
        if regime is Regime.R2:
            slopes = np.diff(vs) / np.diff(xs)
            assert np.all(slopes >= -1e-9), (q, "derivative positivity")

    # the conversion-region gain function increases strictly
    h = 1e-6
    for z in np.linspace(0.05, 3.0, 30):
        gpos = g_function(B05, 2.5, z + h) - g_function(B05, 2.5, z)
        assert gpos > 0.0, z


def test_c07_boundary_fit_kinds():
    """One-sided pasting behaviour at each regime's stopping boundary."""
    # Gaussian conversion regime: smooth pasting onto the share payoff
    par = gp(2.5)
    sol = classify(B05, par)
    fr = fit_report(B05, par, sol)
    assert fr.expected_kind is FitKind.SMOOTH
    assert abs(fr.left_deriv - sol.a_star) <= 1e-4 * sol.a_star

    # bounded-variation conversion regime: value continuous, slope free
    solb = classify(BV2, par)
    frb = fit_report(BV2, par, solb)
    assert frb.expected_kind is FitKind.CONTINUOUS_ONLY
    assert abs(frb.left_value - frb.right_value) <= 1e-6

    # simultaneous-stop regime, interior rate: the left slope at the cap
    # matches K + (2 alpha / (Phi b2)) (K/a - 1) and sits strictly inside
    # (0, K), so it matches neither payoff's slope
    q_i = 1.5
    sol3 = classify(B05, gp(q_i))
    fr3 = fit_report(B05, gp(q_i), sol3)
    ph_i = phi(B05, q_i)
    a_i = (ph_i + 1.0) / (ph_i * (q_i - 0.25 - 1.0))
    expect = K + (2.0 / (ph_i * 0.5)) * (K / a_i - 1.0)
    assert sol3.regime is Regime.R3
    assert fr3.expected_kind is FitKind.NEITHER_INTERIOR
    assert abs(fr3.left_deriv - expect) <= 1e-3
    assert 0.0 < fr3.left_deriv < K

    # at the lower critical rate the slope flattens onto the cap ...
    lo = q1(B05, gp(1.0))
    fr_lo = fit_report(B05, gp(lo), classify(B05, gp(lo)))
    assert abs(fr_lo.left_deriv) <= 1e-3

    # ... and at the upper critical rate it steepens onto the share
    hi = q0(B05, gp(1.0))
    fr_hi = fit_report(B05, gp(hi), classify(B05, gp(hi)))
    assert abs(fr_hi.left_deriv - K) <= 1e-3

    # Gaussian forced-call regime: smooth pasting onto the cap
    sol4 = classify(B05, gp(0.75))
    fr4 = fit_report(B05, gp(0.75), sol4)
    assert sol4.regime is Regime.R4
    assert abs(fr4.left_deriv) <= 1e-4 * K


def test_c08_monte_carlo_agreement():
    """Path simulation reproduces four families of closed expressions.

    2e5 paths on the exact event engine (jump epochs, exact bridge maxima
    and passage times), so dt = 1e-3 plays no role.  Every comparison
    within three standard errors; whole batch under 120 s.
    """
    t0 = time.perf_counter()
    n, dt = 200_000, 1e-3

    # (a) discounted first passage above a level vs the boundary formula
    levels = [0.25, 0.5, 1.0]
    prof = upcrossing_discount_profile(
        CANON, 2.0, levels, SimConfig(n, 6.0, dt, seed=9101))
    for lvl, est in zip(levels, prof):
        expect = exit_expectation(CANON, 2.0, lvl)
        assert abs(est.mean - expect) <= 3.0 * est.stderr, (lvl, est, expect)

    # (b) two-sided exit identity: discounted down-passage before an upper
    # barrier equals the scale-function ratio
    for model, p, down, up, horizon in ((CANON, 1.0, 0.6, 0.8, 4.0),
                                        (BV2, 0.9, 0.8, 0.7, 25.0)):
        ev = scale_evaluator(model, p)
        expect = w(ev, up) / w(ev, down + up)
        est = two_sided_exit(model, p, down, up,
                             SimConfig(n, horizon, dt, seed=9102))
        assert abs(est.mean - expect) <= 3.0 * est.stderr, (model, est, expect)

    # (c) game value at three interior starts, conversion regime (Gaussian)
    # and forced-call regime (bounded-variation jumps)
    par2 = gp(3.0)
    sol2 = classify(CANON, par2)
    xs2 = [sol2.tau_level - 1.0, sol2.tau_level - 0.5, sol2.tau_level - 0.1]
    ests2 = estimate_game_values(CANON, par2, xs2, sol2.tau_level,
                                 sol2.sigma_level, SimConfig(n, 5.0, dt, seed=9103))
    vals2 = value_profile(CANON, par2, sol2, np.array(xs2))
    for x, est, v in zip(xs2, ests2, vals2):
        assert abs(est.mean - v) <= 3.0 * est.stderr, ("R2", x, est, v)

    par4 = gp(0.8)
    sol4 = classify(BV2, par4)
    xs4 = [sol4.c_star - 1.0, sol4.c_star - 0.6, sol4.c_star - 0.2]
    ests4 = estimate_game_values(BV2, par4, xs4, sol4.tau_level,
                                 sol4.sigma_level, SimConfig(n, 40.0, dt, seed=9104))
    vals4 = value_profile(BV2, par4, sol4, np.array(xs4))
    for x, est, v in zip(xs4, ests4, vals4):
        assert abs(est.mean - v) <= 3.0 * est.stderr, ("R4", x, est, v)

    # (d) E[e^(-sup)] for the running maximum at an independent exponential
    # clock; the closed value is exactly 2/3 here
    closed = sup_exponential_moment(CANON, 4.0)
    assert closed == pytest.approx(2.0 / 3.0, rel=1e-12)
    est = wiener_hopf_check(CANON, 4.0, SimConfig(n, 5.0, dt, seed=9105))
    assert abs(est.mean - closed) <= 3.0 * est.stderr, est

    assert time.perf_counter() - t0 < 120.0


def test_c09_saddle_point_inequalities():
    """Perturbing either threshold by 0.1 never improves that player's side.

    Conversion regime on the b2 = 2 family; forced-call regime on the
    bounded-variation exponential-jump family (the b2 = 2 family admits no
    forced-call rate compatible with the discount condition, since its lower
    critical rate coincides with the share growth rate).  All four paired
    comparisons must pass in each regime, under 120 s total.
    """
    t0 = time.perf_counter()
    par2 = gp(3.0)
    sol2 = classify(CANON, par2)
    rep2 = saddle_check(CANON, par2, sol2, delta=0.1,
                        config=SimConfig(100_000, 5.0, 1e-3, seed=9106))
    assert rep2.all_pass(), [(c.label, c.verdict, c.gap, c.gap_stderr)
                             for c in rep2.comparisons]

    par4 = gp(0.8)
    sol4 = classify(BV2, par4)
    rep4 = saddle_check(BV2, par4, sol4, delta=0.1,
                        config=SimConfig(100_000, 40.0, 1e-3, seed=9107))
    assert rep4.all_pass(), [(c.label, c.verdict, c.gap, c.gap_stderr)
                             for c in rep4.comparisons]
    assert time.perf_counter() - t0 < 120.0


_C10_CONFIG = """\
[model]
family = brownian
mu = 0.0
b2 = 2.0

[game]
alpha = 1.0
beta = 1.0
q = 3.0
K = 2.0

[grid]
x_min = -2.0
x_max = 1.0
n_points = 25

[sim]
n_paths = 20000
horizon = 5.0
dt = 0.002
seed = 11
delta = 0.1
"""


def test_c10_deterministic_outputs(tmp_path, capsys):
    """Identical seeds give byte-identical CSV files and reports.

    The estimators advance fixed-size path chunks whose generator streams are
    keyed by (seed, purpose, chunk index) alone, so the output cannot depend
    on how many OS threads the linear-algebra backend happens to use; two
    full CLI round trips must agree byte for byte.
    """
    cfg = tmp_path / "run.ini"
    cfg.write_text(_C10_CONFIG)

    csv_path = tmp_path / "profile.csv"
    outputs = []
    for _ in range(2):
        assert cli_main(["solve", str(cfg), "--csv", str(csv_path)]) == 0
        solve_report = capsys.readouterr().out
        assert cli_main(["simulate", str(cfg)]) == 0
        sim_report = capsys.readouterr().out
        outputs.append((csv_path.read_bytes(), solve_report, sim_report))

    assert outputs[0][0] == outputs[1][0], "CSV bytes differ between runs"
    assert outputs[0][1] == outputs[1][1], "solve reports differ between runs"
    assert outputs[0][2] == outputs[1][2], "simulate reports differ"
    assert b"x,V,lower,upper,regime" in outputs[0][0].splitlines()[0]
