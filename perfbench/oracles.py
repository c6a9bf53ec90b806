"""Output checks.  Every band is the one the test suite uses; none is looser.

A check raises :class:`CheckFailed`; the worker counts the operation as
failed.  Sources of the bands:

* value bounds and monotonicity: ``test_c06`` (1e-9);
* regime against ``alpha/K``, ``q1`` and ``q0``: ``classify`` and
  ``TestClassification`` (ties within 1e-12 of a critical rate);
* issuer-threshold residual: ``test_c05`` (1e-9);
* frozen critical rates and thresholds: ``test_solver.Q0/Q1/CSTAR``;
* forced inversion against closed forms: ``test_c02`` (1e-6 on [0.01, 10]);
* tabulated against its closed family: ``test_tabulated_tracks_closed_family``;
* pasting: the tolerances of ``levybond fit`` (see :func:`pasting`);
* Monte Carlo: the Pass/Inconclusive/Fail rule of ``levybond simulate`` and
  ``saddle_check`` (3 stderr plus the horizon-truncation budget); identities
  at 3 stderr as in ``test_c08``.
"""

from __future__ import annotations

import math

import numpy as np

import levybond as lb

from inputs import ALPHA, BETA, BV2, CANON, EXPJ, K, LOG_K, params


class CheckFailed(Exception):
    """An output is outside its band."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def rel_close(got: float, want: float, rel: float, what: str) -> None:
    require(abs(got - want) <= rel * abs(want), f"{what}: {got!r} vs {want!r} (rel {rel:g})")


# --------------------------------------------------------------------------- #
# analytic layer
# --------------------------------------------------------------------------- #

def value_bounds(xs, vs, what: str) -> None:
    ex = np.exp(np.asarray(xs))
    vs = np.asarray(vs)
    require(bool(np.all(np.isfinite(vs))), f"{what}: non-finite value")
    require(bool(np.all(vs >= ex - 1e-9)), f"{what}: V below e^x")
    require(bool(np.all(vs <= np.maximum(ex, K) + 1e-9)), f"{what}: V above max(e^x, K)")
    require(bool(np.all(np.diff(vs) >= -1e-9)), f"{what}: V not monotone")


def regime(model: lb.LevyModel, q: float, sol: lb.RegimeSolution, what: str) -> None:
    """The regime must be the one the critical rates put ``q`` in."""
    band = 1e-12
    require(sol.q1 <= sol.q0 * (1.0 + band), f"{what}: q1 {sol.q1} above q0 {sol.q0}")
    if q <= ALPHA / K:
        want = lb.Regime.R1
    elif q >= sol.q0 - band * max(1.0, sol.q0):
        want = lb.Regime.R2
    elif model.b2 > 0.0 and q >= sol.q1 - band * max(1.0, sol.q1):
        want = lb.Regime.R3
    else:
        want = lb.Regime.R4
    require(sol.regime is want, f"{what}: regime {sol.regime.name}, rates say {want.name}")
    if sol.regime is lb.Regime.R4:
        resid = lb.call_boundary_value(model, params(q), sol.c_star) - K
        require(abs(resid) <= 1e-9 * K, f"{what}: c* boundary residual {resid:.3e}")
        require(sol.c_star < LOG_K, f"{what}: c* {sol.c_star} not below log K")
    if sol.regime is lb.Regime.R2:
        require(sol.tau_level <= LOG_K + 1e-9, f"{what}: log a* above log K")


def pasting(fr: lb.FitReport, sol: lb.RegimeSolution, what: str) -> None:
    """Continuous value, and smooth pasting where it is predicted, at the
    tolerances of ``levybond fit``.  The fit command also demands a slope
    gap above 1e-3 K in the interior R3 regime; that gap shrinks to zero
    at the band edges, so only the command-line cases (rates well inside
    the band) are held to it."""
    tol_value = 1e-6 * max(1.0, K)
    tol_deriv = 1e-3 * max(1.0, K)
    value_gap = abs(fr.left_value - fr.right_value)
    deriv_gap = abs(fr.left_deriv - fr.right_deriv)
    require(value_gap <= tol_value, f"{what}: value gap {value_gap:.3e} at the boundary")
    if fr.expected_kind is lb.FitKind.SMOOTH:
        gap = min(deriv_gap, abs(fr.left_deriv)) if sol.regime is lb.Regime.R3 else deriv_gap
        require(gap <= tol_deriv, f"{what}: slope gap {gap:.3e} under smooth fit")


def solution(model, q, sol, xs, vs, fr, what: str) -> None:
    regime(model, q, sol, what)
    value_bounds(xs, vs, what)
    pasting(fr, sol, what)


# frozen values of test_solver (same models, same rates, same tolerances)
CANONICAL = {
    "CANON": (CANON, 2.7988675940594376, 1.0),
    "B05": (lb.LevyModel(0.0, 0.5), 1.9299559895001774, 1.1852782296184787),
    "B02": (lb.LevyModel(0.0, 0.2), 1.7205417243657708, 1.2816607716471398),
    "BV2": (BV2, 1.1876338053717235, 1.1876338053717235),
    "EXPJ": (EXPJ, 2.593985841716461, 1.9968840920498807),
}
CSTAR = (("CANON", 0.75, 0.07450457203081645), ("B05", 0.75, -0.23740078615161803),
         ("B02", 1.0, 0.2747698924083459), ("EXPJ", 1.2484420460249404, 0.22529598468870146),
         ("BV2", 0.8, 0.2593326011335))


def frozen_rates(name: str, q0: float, q1: float) -> None:
    _, want0, want1 = CANONICAL[name]
    rel_close(q0, want0, 1e-12, f"{name} q0")
    rel_close(q1, want1, 1e-10, f"{name} q1")


def frozen_cstar(name: str, got: float, want: float) -> None:
    require(abs(got - want) <= 1e-12, f"{name} c*: {got!r} vs {want!r}")


def inversion_matches_closed(numeric, closed, what: str) -> None:
    for x in np.geomspace(0.01, 10.0, 40):
        ref = lb.w(closed, float(x))
        rel_close(lb.w(numeric, float(x)), ref, 1e-6, f"{what} W({x:.3g})")


def tracks_closed_family(tab_sol, ref_sol, tab_values, ref_model, q, what: str,
                         value_band: bool) -> None:
    """``test_tabulated_tracks_closed_family`` bands.  The value band (rel
    1e-4 at x = -1, 0) is stated for the 401-node density; the 101-node one
    misses it by its tabulation error (~3e-4) and is held to the rest."""
    require(tab_sol.regime is ref_sol.regime,
            f"{what}: regime {tab_sol.regime.name} vs closed {ref_sol.regime.name}")
    rel_close(tab_sol.q0, ref_sol.q0, 1e-3, f"{what} q0")
    rel_close(tab_sol.q1, ref_sol.q1, 1e-3, f"{what} q1")
    if ref_sol.c_star is not None:
        require(abs(tab_sol.c_star - ref_sol.c_star) <= 1e-3,
                f"{what} c*: {tab_sol.c_star} vs {ref_sol.c_star}")
    if value_band:
        for x, got in tab_values.items():
            want = lb.value(ref_model, params(q), ref_sol, x)
            rel_close(got, want, 1e-4, f"{what} V({x:g})")


# --------------------------------------------------------------------------- #
# Monte Carlo
# --------------------------------------------------------------------------- #

def truncation_budget(model, q: float, x: float, horizon: float) -> float:
    """Discounted remainder bound past the horizon (``levybond simulate``)."""
    gr = lb.exp_growth_rate(model)
    tail = math.exp(x + (gr - q) * horizon) * max(1.0, BETA / max(q - gr, 1e-300))
    return math.exp(-q * horizon) * K + tail


def mc_value(est: lb.PayoffEstimate, analytic: float, budget: float, what: str) -> None:
    """Only a Fail counts; Inconclusive (inside the budget) passes."""
    diff = abs(est.mean - analytic)
    if est.stderr == 0.0:
        require(diff <= 1e-9 * max(1.0, abs(analytic)), f"{what}: deterministic {diff:.3e}")
        return
    require(diff <= 3.0 * est.stderr + budget,
            f"{what}: mc {est.mean:.6g}+-{est.stderr:.2g} vs {analytic:.6g}")


def mc_identity(est: lb.PayoffEstimate, exact: float, what: str) -> None:
    require(abs(est.mean - exact) <= 3.0 * est.stderr,
            f"{what}: mc {est.mean:.6g}+-{est.stderr:.2g} vs {exact:.6g}")


def saddle(report: lb.SaddleReport, what: str) -> None:
    bad = [c.label for c in report.comparisons if c.verdict == "Fail"]
    require(not bad, f"{what}: saddle Fail on {bad}")


# --------------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------------- #

def report_field(report: str, key: str) -> str:
    for line in report.splitlines():
        if line.startswith(key + "="):
            return line[len(key) + 1:]
    raise CheckFailed(f"report has no {key}= line")


def solve_csv(text: str, report: str, what: str) -> None:
    lines = text.splitlines()
    require(lines and lines[0] == "x,V,lower,upper,regime", f"{what}: CSV header")
    rows = [ln.split(",") for ln in lines[1:]]
    require(len(rows) == 25, f"{what}: {len(rows)} CSV rows")
    regimes = {r[4] for r in rows}
    require(regimes == {report_field(report, "regime")}, f"{what}: CSV regime {regimes}")
    xs = [float(r[0]) for r in rows]
    vs = [float(r[1]) for r in rows]
    value_bounds(xs, vs, what)
