"""Config-driven command line front end.

Commands (all take an INI-style config file):

``solve``
    classify the game, print thresholds and critical rates, optionally write
    a value-function CSV (``--csv PATH``);
``simulate``
    compare the analytic value against Monte Carlo at grid quartiles and run
    the saddle-point perturbation check;
``fit``
    print one-sided boundary limits and whether the observed pasting matches
    the predicted kind;
``selfcheck``
    run the internal consistency battery (Laplace transform residual, tilt
    identity, boundary values, supremum-factor Monte Carlo).

Config layout::

    [model]
    family = brownian | exp_jumps | tabulated
    mu = 0.0          ; drift parameter of the Laplace exponent
    b2 = 2.0          ; Gaussian coefficient (>= 0)
    lambda = 1.0      ; exp_jumps: jump rate
    rho = 2.0         ; exp_jumps: jump-size decay
    density_file = jumps.csv   ; tabulated: two comma-separated columns z,density
    tail_rate = 2.0   ; tabulated: exponential decay rate beyond the grid

    [game]
    alpha = 1.0       ; coupon level
    beta = 1.0        ; coupon share sensitivity
    q = 2.0           ; discount rate
    K = 2.0           ; conversion cap

    [grid]            ; solve / simulate
    x_min = -2.0
    x_max = 1.5
    n_points = 50

    [sim]             ; simulate / selfcheck
    n_paths = 20000
    horizon = 10.0
    dt = 0.001        ; validated, read by no estimator (all are exact)
    seed = 7
    delta = 0.1       ; saddle perturbation size (optional, default 0.1)

``density_file`` paths are resolved relative to the config file.  Every
library error ends the run with one line on stderr and an exit code:

0   success;
1   config error (``ConfigError``, or a file that cannot be read);
2   discount/growth assumption violated (``MomentConditionError``);
3   a check failed;
4   numerical error: any other library error, e.g. an inversion whose
    accuracy certificate fails (``AccuracyError``).

All randomness flows from ``seed``; repeated runs produce byte-identical
reports and CSV.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LevyBondError, MomentConditionError
from .model import (
    ExponentialJumps,
    LevyModel,
    NoJumps,
    TabulatedDensity,
    exp_growth_rate,
    jump_intensity,
    laplace_exponent,
    path_variation,
    phi,
    require_discount_condition,
)
from .scale import laplace_selfcheck, scale_evaluator, tilted_w, w, w_prime
from .solver import (
    FitKind,
    GameParams,
    Regime,
    classify,
    fit_report,
    value,
    value_profile,
)
from .mc import (
    _MAX_JUMPS,
    SimConfig,
    _truncation_bound,
    _verdict,
    estimate_game_values,
    mc_eligible,
    saddle_check,
    sup_exponential_moment,
    wiener_hopf_check,
)

__all__ = ["RunConfig", "load_config", "run_solve", "run_simulate",
           "run_fit", "run_selfcheck", "main"]

_FAMILIES = ("brownian", "exp_jumps", "tabulated")


@dataclass(frozen=True)
class RunConfig:
    """Validated run inputs; ``grid``/``sim`` stay None when their sections
    are absent (commands that need them say so)."""

    model: LevyModel
    params: GameParams
    grid: np.ndarray | None
    sim: SimConfig | None
    delta: float


class _Section:
    """Typed key access with field-addressed error messages."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self._parser = parser
        self.name = name

    def raw(self, key: str) -> str:
        try:
            return self._parser.get(self.name, key)
        except (configparser.NoOptionError, configparser.NoSectionError):
            raise ConfigError(f"{self.name}.{key}: missing") from None

    def number(self, key: str) -> float:
        text = self.raw(key)
        try:
            return float(text)
        except ValueError:
            raise ConfigError(
                f"{self.name}.{key}: expected a number, got {text!r}") from None

    def integer(self, key: str) -> int:
        text = self.raw(key)
        try:
            return int(text)
        except ValueError:
            raise ConfigError(
                f"{self.name}.{key}: expected an integer, got {text!r}") from None

    def optional_number(self, key: str, default: float) -> float:
        if not self._parser.has_option(self.name, key):
            return default
        return self.number(key)


def _build_model(section: _Section, base_dir) -> LevyModel:
    family = section.raw("family").strip().lower()
    if family not in _FAMILIES:
        raise ConfigError(
            f"model.family: unknown family {family!r}; expected one of "
            f"{', '.join(_FAMILIES)}")
    mu = section.number("mu")
    b2 = section.number("b2")
    if family == "brownian":
        jumps = NoJumps()
    elif family == "exp_jumps":
        rate = section.number("lambda")
        decay = section.number("rho")
        try:
            jumps = ExponentialJumps(rate, decay)
        except LevyBondError as exc:
            raise ConfigError(f"model: {exc}") from None
    else:
        path = base_dir / section.raw("density_file")
        tail_rate = section.number("tail_rate")
        try:
            table = np.loadtxt(path, delimiter=",", ndmin=2)
        except OSError as exc:
            raise ConfigError(f"model.density_file: {exc}") from None
        except ValueError as exc:
            raise ConfigError(
                f"model.density_file: {path} is not two-column z,density "
                f"data ({exc})") from None
        if table.shape[1] != 2:
            raise ConfigError(
                f"model.density_file: expected 2 columns, found {table.shape[1]}")
        try:
            jumps = TabulatedDensity(tuple(table[:, 0]), tuple(table[:, 1]),
                                     tail_rate)
        except LevyBondError as exc:
            raise ConfigError(f"model: {exc}") from None
    try:
        return LevyModel(mu, b2, jumps)
    except LevyBondError as exc:
        raise ConfigError(f"model: {exc}") from None


def load_config(path_text: str) -> RunConfig:
    """Parse and re-validate a run configuration file."""
    from pathlib import Path

    path = Path(path_text)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for required in ("model", "game"):
        if not parser.has_section(required):
            raise ConfigError(f"{required}: section missing")

    model = _build_model(_Section(parser, "model"), path.parent)

    game = _Section(parser, "game")
    try:
        params = GameParams(game.number("alpha"), game.number("beta"),
                            game.number("q"), game.number("K"))
    except LevyBondError as exc:
        raise ConfigError(f"game: {exc}") from None

    grid = None
    if parser.has_section("grid"):
        gs = _Section(parser, "grid")
        x_min, x_max = gs.number("x_min"), gs.number("x_max")
        n_points = gs.integer("n_points")
        if not x_min < x_max:
            raise ConfigError(
                f"grid.x_min: {x_min:g} must be below grid.x_max {x_max:g}")
        if n_points < 2:
            raise ConfigError(f"grid.n_points: need at least 2, got {n_points}")
        grid = np.linspace(x_min, x_max, n_points)

    sim = None
    delta = 0.1
    if parser.has_section("sim"):
        ss = _Section(parser, "sim")
        try:
            sim = SimConfig(n_paths=ss.integer("n_paths"),
                            horizon=ss.number("horizon"),
                            dt=ss.number("dt"),
                            seed=ss.integer("seed"))
        except ConfigError as exc:
            raise ConfigError(f"sim: {exc}") from None
        delta = ss.optional_number("delta", 0.1)
        if delta < 0.0:
            raise ConfigError(f"sim.delta: must be nonnegative, got {delta:g}")

    return RunConfig(model=model, params=params, grid=grid, sim=sim,
                     delta=delta)


def _need(cfg: RunConfig, field: str, command: str):
    if getattr(cfg, field) is None:
        section = "grid" if field == "grid" else "sim"
        raise ConfigError(
            f"{section}: section missing (required by the {command} command)")


def _report_header(cfg: RunConfig, solution, out) -> None:
    model, params = cfg.model, cfg.params
    out(f"regime={solution.regime.name}")
    out(f"psi(-1)={exp_growth_rate(model):.10g}")
    out(f"Phi(q)={phi(model, params.q):.10g}")
    out(f"q0={solution.q0:.10g}")
    out(f"q1={solution.q1:.10g}")
    if solution.a_star is not None:
        out(f"a*={solution.a_star:.10g} (log a*={math.log(solution.a_star):.10g})")
    if solution.c_star is not None:
        out(f"c*={solution.c_star:.10g}")


def run_solve(cfg: RunConfig, csv_path: str | None = None, out=print) -> int:
    """Classify, report thresholds, optionally write the value CSV."""
    _need(cfg, "grid", "solve")
    solution = classify(cfg.model, cfg.params)
    _report_header(cfg, solution, out)
    fr = fit_report(cfg.model, cfg.params, solution)
    out(f"fit={fr.expected_kind.value}")
    if csv_path is not None:
        xs = cfg.grid
        vs = value_profile(cfg.model, cfg.params, solution, xs)
        with open(csv_path, "w", encoding="utf-8", newline="") as handle:
            handle.write("x,V,lower,upper,regime\n")
            for x, v in zip(xs, vs):
                lower = math.exp(x)
                upper = max(lower, cfg.params.K)
                handle.write(f"{x:.17g},{v:.17g},{lower:.17g},"
                             f"{upper:.17g},{solution.regime.name}\n")
        out(f"csv={csv_path} ({len(xs)} rows)")
    return 0


def run_simulate(cfg: RunConfig, out=print) -> int:
    """Monte Carlo value comparison at grid quartiles plus the saddle check."""
    _need(cfg, "grid", "simulate")
    _need(cfg, "sim", "simulate")
    model, params = cfg.model, cfg.params
    if not mc_eligible(model, cfg.sim.horizon):
        rate, horizon = jump_intensity(model), cfg.sim.horizon
        out(f"MC-ineligible: jump rate {rate:.3g}, {rate * horizon:.3g} expected jumps "
            f"per path over horizon {horizon:g}; the event engine takes a rate of at "
            f"most 1e6 and {_MAX_JUMPS} jumps per path; simulation skipped")
        print("warning: model is not eligible for path simulation",
              file=sys.stderr)
        return 0
    solution = classify(model, params)
    out(f"regime={solution.regime.name}")

    lo, hi = float(cfg.grid[0]), float(cfg.grid[-1])
    starts = [lo + f * (hi - lo) for f in (0.25, 0.5, 0.75)]
    estimates = estimate_game_values(model, params, starts,
                                     solution.tau_level, solution.sigma_level,
                                     cfg.sim)
    failed = False
    for x, est in zip(starts, estimates):
        analytic = value(model, params, solution, x)
        diff = est.mean - analytic
        if est.stderr == 0.0:
            verdict = ("Pass" if abs(diff) <= 1e-9 * max(1.0, abs(analytic))
                       else "Fail")
            out(f"value x={x:.6g}: analytic={analytic:.10g} "
                f"mc={est.mean:.10g} (deterministic): {verdict}")
        else:
            z = diff / est.stderr
            budget = _truncation_bound(model, params.q, x, cfg.sim.horizon,
                                       params.beta, params.K)
            verdict = _verdict(abs(diff), est.stderr, budget)
            out(f"value x={x:.6g}: analytic={analytic:.10g} "
                f"mc={est.mean:.10g}+-{est.stderr:.3g} z={z:+.2f}: {verdict}")
        failed = failed or verdict == "Fail"

    report = saddle_check(model, params, solution, delta=cfg.delta,
                          config=cfg.sim)
    out(f"saddle (delta={cfg.delta:g}, equilibrium="
        f"{report.equilibrium.mean:.10g}+-{report.equilibrium.stderr:.3g}):")
    for comp in report.comparisons:
        out(f"  {comp.label} ({comp.direction}): gap={comp.gap:+.6g}"
            f"+-{comp.gap_stderr:.3g}: {comp.verdict}")
        failed = failed or comp.verdict == "Fail"
    out(f"verdict={'Fail' if failed else 'Pass'}")
    return 3 if failed else 0


_FIT_LABELS = {
    FitKind.SMOOTH: "smooth fit",
    FitKind.CONTINUOUS_ONLY: "continuous fit",
    FitKind.NEITHER_INTERIOR: "continuous value with an interior derivative gap",
}


def run_fit(cfg: RunConfig, out=print) -> int:
    """Boundary pasting report: predicted kind vs observed one-sided limits."""
    solution = classify(cfg.model, cfg.params)
    _report_header(cfg, solution, out)
    fr = fit_report(cfg.model, cfg.params, solution)
    out(f"boundary={fr.boundary:.10g}")
    out(f"left value={fr.left_value:.10g}  right value={fr.right_value:.10g}")
    out(f"left derivative={fr.left_deriv:.10g}  "
        f"right derivative={fr.right_deriv:.10g}")

    tol_value = 1e-6 * max(1.0, cfg.params.K)
    tol_deriv = 1e-3 * max(1.0, cfg.params.K)
    value_gap = abs(fr.left_value - fr.right_value)
    deriv_gap = abs(fr.left_deriv - fr.right_deriv)
    kind = fr.expected_kind
    if kind is FitKind.SMOOTH:
        if solution.regime is Regime.R3:
            # Both payoffs meet at the cap, so smooth pasting may be against
            # the share (slope K, upper critical rate) or against the cap
            # itself (slope 0, lower critical rate).
            slope_gap = min(deriv_gap, abs(fr.left_deriv))
        else:
            slope_gap = deriv_gap
        observed = value_gap <= tol_value and slope_gap <= tol_deriv
    elif kind is FitKind.CONTINUOUS_ONLY:
        observed = value_gap <= tol_value
    else:
        # interior simultaneous regime: the value pastes continuously but the
        # derivative must genuinely jump
        observed = value_gap <= tol_value and deriv_gap > tol_deriv
    label = _FIT_LABELS[kind]
    if observed:
        out(f"{label}: expected, observed")
        return 0
    out(f"{label}: expected, NOT observed "
        f"(value gap={value_gap:.3g}, derivative gap={deriv_gap:.3g})")
    return 3


def run_selfcheck(cfg: RunConfig, out=print) -> int:
    """Internal consistency battery for the configured model and rate."""
    _need(cfg, "sim", "selfcheck")
    model, q = cfg.model, cfg.params.q
    require_discount_condition(model, q)
    ev = scale_evaluator(model, q)
    checks: list[tuple[str, float, float]] = []

    betas = [ev.phi_q + bump for bump in (0.5, 1.0, 3.0)]
    resids = laplace_selfcheck(ev, betas)
    checks += [(f"laplace transform residual at beta={beta:.6g}", resid, 1e-6)
               for beta, resid in zip(betas, resids)]

    lam = 0.5
    shifted = q + laplace_exponent(model, lam)
    ev_shift = scale_evaluator(model, shifted)
    for x in (0.5, 2.0):
        direct = math.exp(-lam * x) * w(ev_shift, x)
        tilted = tilted_w(model, lam, q, x)
        checks.append((f"tilt identity residual at x={x:g}",
                       abs(tilted - direct) / max(abs(direct), 1e-30), 1e-6))

    pv = path_variation(model)
    if pv.bounded:
        target = 1.0 / pv.drift
        checks.append(("boundary W(0+) vs 1/drift residual",
                       abs(w(ev, 1e-9) - target) / target, 1e-6))
    else:
        # W(0+) = 0, read at h = 1e-9 against h W'(h/2), the midpoint rule
        # for the integral of W', exact to second order: |W(h)| alone is
        # ~2h/b2, and h W'(0+) is off by ~(mu/b2) h relative
        slope = 1e-9 * w_prime(ev, 5e-10)
        checks.append(("boundary W(1e-9) vs 1e-9 W'(5e-10) residual",
                       abs(w(ev, 1e-9) - slope) / slope, 1e-6))
        # W' at the point where W(0+) is read, from the derivative's own
        # closed form or transform: no difference quotient of W
        checks.append(("boundary W'(0+) vs 2/b2 residual",
                       abs(w_prime(ev, 1e-9) - ev.w0_prime) / ev.w0_prime, 1e-3))

    if mc_eligible(model, cfg.sim.horizon):
        est = wiener_hopf_check(model, q, cfg.sim)
        closed = sup_exponential_moment(model, q)
        zval = abs(est.mean - closed) / est.stderr if est.stderr > 0 else 0.0
        checks.append((f"supremum factor z-score (closed={closed:.10g}, "
                       f"mc={est.mean:.10g}+-{est.stderr:.3g})", zval, 3.0))
    else:
        out("supremum factor: skipped (MC-ineligible model)")

    failed = False
    for name, residual, tol in checks:
        ok = residual <= tol
        failed = failed or not ok
        out(f"{name}: {residual:.3e} (tol {tol:g}): {'pass' if ok else 'FAIL'}")
    out(f"verdict={'FAIL' if failed else 'pass'}")
    return 3 if failed else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use and kept."""
    parser = argparse.ArgumentParser(
        prog="levybond",
        description="Perpetual convertible-bond stopping game: solve, "
                    "simulate, fit diagnostics and self checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve", "classify the game and write the value function"),
            ("simulate", "Monte Carlo verification of values and the saddle"),
            ("fit", "boundary pasting diagnostics"),
            ("selfcheck", "internal consistency battery")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to an INI run configuration")
        cmd.add_argument("--quiet", action="store_true",
                         help="suppress the report (exit code only)")
        if name == "solve":
            cmd.add_argument("--csv", metavar="PATH",
                             help="write the value function grid as CSV")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    out = (lambda *a, **k: None) if args.quiet else print
    try:
        cfg = load_config(args.config)
        if args.command == "solve":
            return run_solve(cfg, csv_path=args.csv, out=out)
        if args.command == "simulate":
            return run_simulate(cfg, out=out)
        if args.command == "fit":
            return run_fit(cfg, out=out)
        return run_selfcheck(cfg, out=out)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MomentConditionError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return 2
    except LevyBondError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
