"""levybond benchmark launcher.

    python3 perfbench/run.py --workload closed-sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout; the library is imported from
``src/`` (no install step).  A run is a fixed number of passes, set by
the workload and ``--seconds``, so the inputs it checks depend only on the
seed.  With ``--trace 0`` it measures set-up five times in fresh
interpreters, then runs the passes untraced in one worker process and
prints the end-to-end metrics.  With ``--trace 1`` it runs one pass
untraced and the same pass traced, and prints the per-layer metrics derived
from the traced run's spans plus the cost of the spans.  The last
line of standard output is the JSON result.  Thread pools are pinned to one
thread: the load is a single closed-loop client.  Times are reported at the
reference speed of ``speed.py``; the pass times as measured are printed on
the summary line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("closed-sweep", "tabulated", "mc-verify")
# passes in a run at --seconds 25; another --seconds scales the count.  A
# pass takes about 3.8 s (closed-sweep), 36 s (tabulated) and 24 s
# (mc-verify) at reference speed.
PASSES_AT_25S = {"closed-sweep": 8, "tabulated": 1, "mc-verify": 1}
# set-up pairs per run: more would be steadier, but every run pays for them
SETUP_REPEATS = 5
# two workers per traced run must end inside the 180 s a run may take
WORKER_TIMEOUT_S = 80
SETUP_TIMEOUT_S = 30
THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

sys.path.insert(0, str(HERE))
from spans import layer_metrics, percentile  # noqa: E402
from speed import SETUP_REFERENCE, SETUP_REFERENCE_S  # noqa: E402


def _env() -> dict:
    return {**os.environ, **THREADS, "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0"}


def _seconds(*argv: str) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, *argv], env=_env(), check=True, timeout=SETUP_TIMEOUT_S)
    return perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> float:
    """Fresh interpreter up to ``import levybond`` and the inputs generated,
    at reference speed: scaled by ``SETUP_REFERENCE_S`` over the time of a
    fresh interpreter that imports only the third-party modules, run just
    before it."""
    ref = _seconds("-c", SETUP_REFERENCE)
    busy = _seconds(str(WORKER), "--workload", workload, "--seed", str(seed), "--setup-only")
    return busy * SETUP_REFERENCE_S / ref


def worker(workload: str, seed: int, tag: str, *extra: str) -> dict:
    out = HERE / ".work" / f"{workload}-{seed}-{tag}.json"
    out.parent.mkdir(exist_ok=True)
    subprocess.run([sys.executable, str(WORKER), "--workload", workload,
                    "--seed", str(seed), "--out", str(out), *extra],
                   env=_env(), check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(out.read_text())


def end_to_end(rec: dict, setup: list[float]) -> dict[str, tuple[float, str]]:
    """Pass-level figures are medians over the run's passes, so a pass that
    falls in a slow spell of a shared machine moves them little."""
    per_pass = rec["solve_ref_s"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(rec["pass_ref_s"]), "s"),
        "solve_ms.p50": (statistics.median(percentile(p, 50) for p in per_pass) * 1e3, "ms"),
        "solve_ms.p90": (statistics.median(percentile(p, 90) for p in per_pass) * 1e3, "ms"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "levybond" / "__init__.py").is_file():
        print(f"error: no levybond sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        plain = worker(args.workload, args.seed, "plain")
        rec = worker(args.workload, args.seed, "traced", "--trace")
        spans = rec.pop("spans")
        metrics = layer_metrics(spans)
        metrics["trace.spans"] = (len(spans), "count")
        metrics["trace.overhead_s"] = (len(spans) * rec["span_cost_s"], "s")
        attempted = plain["attempted"] + rec["attempted"]
        failed = plain["failed"] + rec["failed"]
        failures = plain["failures"] + rec["failures"]
        repeat_ok = plain["digests"] == rec["digests"]
        print(f"output digest untraced={plain['digests'][0][:16]} "
              f"traced={rec['digests'][0][:16]} identical={repeat_ok}")
        print(f"traced minus untraced pass time "
              f"{rec['pass_ref_s'][0] - plain['pass_ref_s'][0]:+.3f} s "
              f"(two single passes, so mostly their noise)")
    else:
        setup = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        passes = max(1, round(PASSES_AT_25S[args.workload] * args.seconds / 25))
        rec = worker(args.workload, args.seed, "run", "--passes", str(passes))
        metrics = end_to_end(rec, setup)
        attempted, failed, failures = rec["attempted"], rec["failed"], rec["failures"]
        repeat_ok = True
        print(f"output digest pass0={rec['digests'][0][:16]} "
              f"setup_s=[{' '.join(f'{x:.3f}' for x in setup)}]")

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    walls = " ".join(f"{w:.3f}" for w in rec["pass_walls_s"])
    ref = " ".join(f"{w:.3f}" for w in rec["pass_ref_s"])
    print(f"workload={args.workload} seed={args.seed} pass_walls_s=[{walls}] "
          f"pass_ref_s=[{ref}] "
          f"attempted={attempted} failed={failed} failed_frac={failed / attempted:.4g} "
          f"solve_samples={sum(map(len, rec['solve_ref_s']))}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and repeat_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
