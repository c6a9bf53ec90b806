"""Run one workload and write its raw record as JSON.

Started by ``run.py`` in a fresh interpreter with thread pools pinned to one
thread.  A run is a sequence of passes; pass ``k`` draws its inputs from
``(seed, k)``; the number of passes is fixed by ``--passes``, so the checked
inputs depend only on the seed and the pass count.  Pass and solve times
are recorded both as measured and at reference speed (see ``speed.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import levybond as lb  # noqa: E402
from levybond.cli import main as cli_main  # noqa: E402

if Path(lb.__file__).resolve().parent != SRC / "levybond":
    sys.exit(f"levybond imported from {lb.__file__}, not from {SRC}")

import inputs  # noqa: E402
import oracles  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402


class Run:
    """Operation ledger of one worker: counts and failures over the run,
    solve latencies and an output digest per pass."""

    def __init__(self, tracer, workdir: Path):
        self.tr = tracer
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.solves: list[tuple[float, float]] = []
        self.mc_calls: list[tuple[float, float]] = []
        self.digest = hashlib.sha256()

    @contextlib.contextmanager
    def op(self, name: str, layer: str):
        """One attempted operation; an exception or a failed check inside
        counts it as failed and the run goes on."""
        self.attempted += 1
        self.tr.instance = name
        try:
            with self.tr.span("bench.op", op=name, layer=layer):
                yield
        except Exception as exc:  # every failure is counted, none stops the run
            self.failed += 1
            if len(self.failures) < 20:
                detail = str(exc) if isinstance(exc, oracles.CheckFailed) \
                    else traceback.format_exc(limit=3)
                self.failures.append(f"{name}: {detail}")

    def record(self, *values) -> None:
        self.digest.update(repr([float(v) for v in values]).encode())


def _route(ev: lb.ScaleEvaluator, family: str) -> str:
    if ev.method is not lb.Method.NUMERIC_INVERSION:
        return "closed"
    return "euler" if family == "tabulated" else "talbot"


def fit_step(sol: lb.RegimeSolution) -> float | None:
    """Step for ``fit_report``: its default ``1e-4 * max(1, |b|)``, cut to a
    quarter of the distance when the boundary ``b`` lies that close below
    ``log K``.  The default step then puts the right-hand stencil across the
    kink at ``log K`` (``V = e^x`` above it), so the report misreads a
    continuous value as a gap.  That is a defect of the library's default,
    left standing there; with the shorter step the pasting check still
    holds every instance to the full tolerance.  ``None`` keeps the default."""
    b = {lb.Regime.R2: sol.tau_level, lb.Regime.R4: sol.c_star}.get(sol.regime)
    if b is None:
        return None
    room = inputs.LOG_K - b
    h = 1e-4 * max(1.0, abs(b))
    return room / 4.0 if 0.0 < room < h else None


def solve(run: Run, inst: inputs.Instance):
    """The pricer's request: phi, cold scale build, classify, value profile,
    fit report.  Its latency is one ``solve_ms`` sample."""
    tr, fam, model, q = run.tr, inst.family, inst.model, inst.q
    p = inputs.params(q)
    t0 = perf_counter()
    with tr.span("bench.solve"):
        with tr.span("model.phi", family=fam):
            ph = lb.phi(model, q)
        with tr.span("scale.build", family=fam) as a:
            ev = lb.scale_evaluator(model, q)
        a["route"] = _route(ev, fam)
        if fam == "tabulated":
            a["nodes"] = len(model.jumps.grid)
        with tr.span("solver.classify", family=fam) as a:
            sol = lb.classify(model, p)
        a["regime"] = sol.regime.name
        with tr.span("solver.value_profile", family=fam, regime=sol.regime.name,
                     points=len(inst.xs)):
            vs = lb.value_profile(model, p, sol, inst.xs)
        with tr.span("solver.fit_report", family=fam):
            fr = lb.fit_report(model, p, sol, fit_step(sol))
    run.solves.append((t0, perf_counter()))
    run.record(ph, sol.q0, sol.q1, sol.tau_level, *vs, fr.left_value, fr.left_deriv)
    return sol, vs, fr


def cli(run: Run, command: str, *args: str) -> str:
    """``levybond <command> ...`` in process; returns its report."""
    buf = io.StringIO()
    with run.tr.span(f"cli.{command}") as a, contextlib.redirect_stdout(buf):
        code = cli_main([command, *args])
    a["exit"] = code
    oracles.require(code == 0, f"levybond {command} exited {code}")
    return buf.getvalue()


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #

def closed_sweep_pass(run: Run, work) -> None:
    instances, cli_cases = work
    for inst in instances:
        with run.op(inst.iid, "solver"):
            sol, vs, fr = solve(run, inst)
            oracles.solution(inst.model, inst.q, sol, inst.xs, vs, fr, inst.iid)

    for name, (model, _, _) in oracles.CANONICAL.items():
        with run.op(f"frozen.rates.{name}", "solver"):
            with run.tr.span("solver.critical_rates"):
                r0 = lb.q0(model, inputs.params(1.0))
                r1 = lb.q1(model, inputs.params(1.0))
            oracles.frozen_rates(name, r0, r1)
    for name, q, want in oracles.CSTAR:
        with run.op(f"frozen.cstar.{name}", "solver"):
            with run.tr.span("solver.c_star"):
                got = lb.c_star(oracles.CANONICAL[name][0], inputs.params(q))
            oracles.frozen_cstar(name, got, want)

    for case in cli_cases:
        ini = run.workdir / f"{case.iid}.ini"
        csv = run.workdir / f"{case.iid}.csv"
        ini.write_text(case.ini)
        with run.op(f"{case.iid}.solve", "cli"):
            report = cli(run, "solve", str(ini), "--csv", str(csv))
            oracles.solve_csv(csv.read_text(), report, case.iid)
        with run.op(f"{case.iid}.fit", "cli"):
            cli(run, "fit", str(ini))


def tabulated_pass(run: Run, work: inputs.TabulatedInputs) -> None:
    ref = lb.LevyModel(0.1, 0.3, lb.ExponentialJumps(work.lam, work.rho))
    for inst, value_band in ((work.fine, True), (work.coarse, False)):
        with run.op(inst.iid, "solver"):
            sol, vs, fr = solve(run, inst)
            oracles.solution(inst.model, inst.q, sol, inst.xs, vs, fr, inst.iid)
            ref_sol = lb.classify(ref, inputs.params(inst.q))
            band_points = {x: v for x, v in zip(inst.xs, vs) if x in (-1.0, 0.0)}
            oracles.tracks_closed_family(sol, ref_sol, band_points, ref, inst.q,
                                         inst.iid, value_band)
    for fam, model, q in work.talbot:
        with run.op(f"{work.fine.iid}.talbot.{fam}", "scale"):
            with run.tr.span("scale.build", family=fam, route="talbot"):
                numeric = lb.scale_evaluator(model, q, lb.Method.NUMERIC_INVERSION)
            closed = lb.scale_evaluator(model, q)
            oracles.inversion_matches_closed(numeric, closed, f"talbot {fam}")
            run.record(*(lb.w(numeric, x) for x in (0.1, 1.0, 5.0)))


@contextlib.contextmanager
def _mc_span(run: Run, fn: str, kind: str, model, cfg: lb.SimConfig):
    """A Monte Carlo call: traced, and kept as array work for the speed probe."""
    if model.b2 > 0.0:
        span = run.tr.span(f"mc.{fn}", engine="grid", kind=kind,
                           path_steps=cfg.n_paths * max(1, round(cfg.horizon / cfg.dt)))
    else:
        span = run.tr.span(f"mc.{fn}", engine="event", kind=kind, paths=cfg.n_paths)
    t0 = perf_counter()
    try:
        with span as attrs:
            yield attrs
    finally:
        run.mc_calls.append((t0, perf_counter()))


def _record_estimates(run: Run, ests) -> None:
    run.record(*(v for e in ests for v in (e.mean, e.stderr)))


def mc_verify_pass(run: Run, work: inputs.McInputs) -> None:
    sols = {}

    def solve_checked(instances) -> None:
        for inst in instances:
            with run.op(inst.iid, "solver"):
                sol, vs, fr = solve(run, inst)
                oracles.solution(inst.model, inst.q, sol, inst.xs, vs, fr, inst.iid)
                sols[inst.iid] = sol

    solve_checked((work.grid_saddle, work.grid_values, work.event_saddle))
    # the neighbours are solved in groups between the seven MC calls, so the
    # solve latencies sample the whole pass rather than its first second
    groups = iter([work.neighbours[i::7] for i in range(7)])

    for inst, key in ((work.grid_saddle, "grid_saddle"), (work.event_saddle, "event_saddle")):
        cfg = work.cfg[key]
        solve_checked(next(groups))
        with run.op(inst.iid + ".saddle", "mc"):
            with _mc_span(run, "saddle_check", "saddle", inst.model, cfg):
                rep = lb.saddle_check(inst.model, inputs.params(inst.q), sols[inst.iid],
                                      0.1, cfg)
            oracles.saddle(rep, key)
            _record_estimates(run, [rep.equilibrium, *(c.estimate for c in rep.comparisons)])

    inst, cfg = work.grid_values, work.cfg["grid_values"]
    solve_checked(next(groups))
    with run.op(inst.iid + ".values", "mc"):
        sol = sols[inst.iid]
        p = inputs.params(inst.q)
        with _mc_span(run, "estimate_game_values", "values", inst.model, cfg):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", lb.TruncationWarning)  # budgeted below
                ests = lb.estimate_game_values(inst.model, p, work.value_starts,
                                               sol.tau_level, sol.sigma_level, cfg)
        for x, est in zip(work.value_starts, ests):
            budget = oracles.truncation_budget(inst.model, inst.q, x, cfg.horizon)
            oracles.mc_value(est, lb.value(inst.model, p, sol, x), budget, f"V({x:g})")
        _record_estimates(run, ests)

    bm, cfg = work.brownian, work.cfg["grid_upcross"]
    solve_checked(next(groups))
    levels = (0.25, 0.5, 1.0)
    with run.op("grid.upcross", "mc"):
        with _mc_span(run, "upcrossing_discount_profile", "identity", bm, cfg):
            ests = lb.upcrossing_discount_profile(bm, 2.0, levels, cfg)
        for y, est in zip(levels, ests):
            oracles.mc_identity(est, lb.exit_expectation(bm, 2.0, y), f"upcross {y}")
        _record_estimates(run, ests)

    cfg = work.cfg["grid_two_sided"]
    solve_checked(next(groups))
    with run.op("grid.two_sided", "mc"):
        with _mc_span(run, "two_sided_exit", "identity", bm, cfg):
            est = lb.two_sided_exit(bm, 1.0, 0.6, 0.8, cfg)
        ev = lb.scale_evaluator(bm, 1.0)
        oracles.mc_identity(est, lb.w(ev, 0.8) / lb.w(ev, 1.4), "two-sided exit")
        _record_estimates(run, [est])

    cfg = work.cfg["grid_sup"]
    solve_checked(next(groups))
    with run.op("grid.sup", "mc"):
        with _mc_span(run, "wiener_hopf_check", "identity", bm, cfg):
            est = lb.wiener_hopf_check(bm, 4.0, cfg)
        oracles.mc_identity(est, lb.sup_exponential_moment(bm, 4.0), "sup moment")
        _record_estimates(run, [est])

    bv, cfg = work.bv, work.cfg["event_upcross"]
    solve_checked(next(groups))
    levels = (0.0, 0.7, 1.5)
    with run.op("event.upcross", "mc"):
        with _mc_span(run, "upcrossing_discount_profile", "identity", bv, cfg):
            ests = lb.upcrossing_discount_profile(bv, 0.8, levels, cfg)
        for y, est in zip(levels, ests):
            oracles.mc_identity(est, lb.exit_expectation(bv, 0.8, y), f"event upcross {y}")
        _record_estimates(run, ests)

    ini = run.workdir / "mc.ini"
    ini.write_text(work.cli_ini)
    for command in ("simulate", "selfcheck"):
        with run.op(f"cli.{command}", "cli"):
            run.digest.update(cli(run, command, str(ini)).encode())


def warm_up() -> None:
    """Untimed solves of the canonical test instances, so that the first
    timed calls of a fresh process do not pay its first-call costs (lazy
    imports, cold caches); a long-lived pricer or validator pays them once."""
    for model, _, _ in oracles.CANONICAL.values():
        for q in (0.4, 0.8, 1.2, 1.6, 2.4, 3.2):
            if lb.meets_discount_condition(model, q):
                p = inputs.params(q)
                sol = lb.classify(model, p)
                lb.value_profile(model, p, sol, inputs.PROFILE_XS)
                lb.fit_report(model, p, sol)


def span_cost(calls: int = 2000, repeats: int = 5) -> float:
    """Seconds one empty span costs, the median over ``repeats`` timings of
    ``calls`` spans on a scratch tracer."""
    per_call = []
    for _ in range(repeats):
        tr = Tracer()
        t0 = perf_counter()
        for _ in range(calls):
            with tr.span("bench.empty", family="brownian"):
                pass
        per_call.append((perf_counter() - t0) / calls)
    return sorted(per_call)[repeats // 2]


PASSES = {
    "closed-sweep": closed_sweep_pass,
    "tabulated": tabulated_pass,
    "mc-verify": mc_verify_pass,
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    generate = inputs.GENERATORS[args.workload]
    work = generate(args.seed, 0)
    if args.setup_only:
        return 0

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(Tracer() if args.trace else NullTracer(), workdir)
    run_pass = PASSES[args.workload]
    passes: list[tuple[float, float]] = []
    digests: list[str] = []
    solves: list[list[tuple[float, float]]] = []
    mc_calls: list[list[tuple[float, float]]] = []
    warm_up()
    try:
        with SpeedProbe() as probe:
            for k in range(args.passes):
                if k:
                    work = generate(args.seed, k)
                run.digest = hashlib.sha256()
                run.solves = []
                run.mc_calls = []
                t0 = perf_counter()
                run_pass(run, work)
                passes.append((t0, perf_counter()))
                digests.append(run.digest.hexdigest())
                solves.append(run.solves)
                mc_calls.append(run.mc_calls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_walls_s": [b - a for a, b in passes],
        "pass_ref_s": [probe.reference_seconds(a, b, mc)
                       for (a, b), mc in zip(passes, mc_calls)],
        "digests": digests,
        "solve_ref_s": [[probe.reference_seconds(a, b) for a, b in p] for p in solves],
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": run.tr.spans,
        "span_cost_s": span_cost() if args.trace else 0.0,
    }
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
