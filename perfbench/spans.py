"""In-memory spans around the benchmark's calls into the library, and the
per-layer metrics derived from them.

A span is ``name, start, end, parent, instance, attrs, error``; its layer is
the part of the name before the first dot (``model``, ``scale``, ``solver``,
``mc``, ``cli``, or ``bench`` for the benchmark's own operations).  Spans
stay in memory and are written once, when the worker ends.
"""

from __future__ import annotations

import contextlib
import statistics
from time import perf_counter

LAYERS = ("model", "scale", "solver", "mc", "cli")
FAMILIES = ("brownian", "exp_jumps", "bv_exp", "tabulated")
REGIMES = ("R1", "R2", "R3", "R4")
# regime x family pairs that can occur (no R3 without a Gaussian part; the
# tabulated instances sit at an R4 and an R2 rate)
VALUE_PAIRS = tuple((r, f) for f in FAMILIES for r in REGIMES
                    if not (f == "bv_exp" and r == "R3")
                    and not (f == "tabulated" and r in ("R1", "R3")))


class Tracer:
    """Collects spans; ``span`` yields the span's attribute dict, which the
    caller may fill in after the call returns."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.instance: str | None = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None,
               "instance": self.instance, "attrs": attrs, "error": False}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        except BaseException:
            rec["error"] = True
            raise
        finally:
            rec["end"] = perf_counter()
            self._open.pop()


class NullTracer:
    """Tracing off: every span is one shared no-op context."""

    instance = None
    spans: list[dict] = []
    _null = contextlib.nullcontext({})

    def span(self, name: str, **attrs):
        return self._null


# --------------------------------------------------------------------------- #
# derivation
# --------------------------------------------------------------------------- #

def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p: float) -> float:
    """Linear-interpolation percentile (0 for an empty sample)."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-layer self time: span duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += _dur(s)
    out = dict.fromkeys(LAYERS, 0.0)
    for s, c in zip(spans, child):
        layer = s["name"].split(".", 1)[0]
        if layer in out:
            out[layer] += _dur(s) - c
    return out


def failures_by_layer(spans: list[dict]) -> dict[str, int]:
    """One failure per failed operation, charged to the library span that
    raised, else to the layer whose output failed its check (for the
    command line: a non-zero exit)."""
    out = dict.fromkeys(LAYERS, 0)
    deepest: dict[int, str] = {}
    for s in spans:
        if s["error"] and not s["name"].startswith("bench."):
            root = s["parent"]
            while root is not None and spans[root]["parent"] is not None:
                root = spans[root]["parent"]
            deepest[root] = s["name"].split(".", 1)[0]
    for i, s in enumerate(spans):
        if s["name"] == "bench.op" and s["error"]:
            out[deepest.get(i, s["attrs"]["layer"])] += 1
    return out


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """The per-layer table, every entry present on every workload (zero
    where the workload does not exercise it)."""
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def pick(name, **want):
        return [s for s in by.get(name, ())
                if all(s["attrs"].get(k) == v for k, v in want.items())]

    m: dict[str, tuple[float, str]] = {}
    phi = pick("model.phi")
    m["model.phi_us.p50"] = (_median([_dur(s) for s in phi]) * 1e6, "us")
    m["model.phi.calls"] = (len(phi), "count")

    closed = [_dur(s) * 1e3 for s in pick("scale.build", route="closed")]
    m["scale.build_ms.closed.p50"] = (percentile(closed, 50), "ms")
    m["scale.build_ms.closed.p90"] = (percentile(closed, 90), "ms")
    m["scale.builds.closed"] = (len(closed), "count")
    for nodes in (401, 101):
        m[f"scale.build_s.euler.{nodes}"] = (
            _median([_dur(s) for s in pick("scale.build", route="euler", nodes=nodes)]), "s")
    m["scale.builds.euler"] = (len(pick("scale.build", route="euler")), "count")
    talbot = [_dur(s) for s in pick("scale.build", route="talbot")]
    m["scale.build_s.talbot"] = (_median(talbot), "s")
    m["scale.builds.talbot"] = (len(talbot), "count")

    for fam in FAMILIES:
        m[f"solver.classify_ms.{fam}"] = (
            _median([_dur(s) for s in pick("solver.classify", family=fam)]) * 1e3, "ms")
    points = 0
    for reg, fam in VALUE_PAIRS:
        sel = pick("solver.value_profile", family=fam, regime=reg)
        n = sum(s["attrs"]["points"] for s in sel)
        points += n
        m[f"solver.value_us_per_point.{reg}.{fam}"] = (
            sum(_dur(s) for s in sel) / n * 1e6 if n else 0.0, "us")
    m["solver.value_points"] = (points, "count")
    for fam in FAMILIES:
        m[f"solver.fit_report_ms.{fam}"] = (
            _median([_dur(s) for s in pick("solver.fit_report", family=fam)]) * 1e3, "ms")
    for reg in REGIMES:
        m[f"solver.regime.{reg}"] = (len(pick("solver.classify", regime=reg)), "count")

    mc = [s for name, ss in by.items() if name.startswith("mc.") for s in ss]
    grid = [s for s in mc if s["attrs"]["engine"] == "grid"]
    event = [s for s in mc if s["attrs"]["engine"] == "event"]
    steps = sum(s["attrs"]["path_steps"] for s in grid)
    busy = sum(_dur(s) for s in grid)
    m["mc.grid.path_steps"] = (steps, "count")
    m["mc.grid.busy_s"] = (busy, "s")
    m["mc.grid.path_steps_per_s"] = (steps / busy if busy else 0.0, "1/s")
    for kind in ("saddle", "values", "identity"):
        m[f"mc.grid.{kind}_s"] = (sum(_dur(s) for s in grid if s["attrs"]["kind"] == kind), "s")
    paths = sum(s["attrs"]["paths"] for s in event)
    ebusy = sum(_dur(s) for s in event)
    m["mc.event.paths"] = (paths, "count")
    m["mc.event.busy_s"] = (ebusy, "s")
    m["mc.event.paths_per_s"] = (paths / ebusy if ebusy else 0.0, "1/s")

    for cmd in ("solve", "fit", "simulate", "selfcheck"):
        m[f"cli.{cmd}_s"] = (sum(_dur(s) for s in by.get(f"cli.{cmd}", ())), "s")

    for layer, t in self_times(spans).items():
        m[f"{layer}.self_s"] = (t, "s")
    for layer, n in failures_by_layer(spans).items():
        m[f"{layer}.failed"] = (n, "count")
    m["solve.samples"] = (len(pick("bench.solve")), "count")
    return m
