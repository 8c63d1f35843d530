"""Benchmark worker: one process, no threads, runs one workload in-process.

Started by run.py as ``python3 perfbench/worker.py --workload W --seed N
--seconds S --trace T [--setup-only]``.  It imports ``carousel`` from the
checkout's ``src/``, runs one untimed warm-up item, prints ``ready`` and,
unless ``--setup-only``, runs whole passes over the workload's items
until the next pass would end after ``--seconds``.  The last line of its
standard output is one JSON object with the raw measurements.

The host's speed is sampled throughout (see hostspeed.py), and every
item latency and the set-up come with their speed factor.  With
``--trace 1`` the worker alternates plain and traced passes, so that
the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import carousel  # noqa: E402

if Path(carousel.__file__).resolve().parent != SRC / "carousel":
    sys.exit(f"carousel imported from {carousel.__file__}, not from {SRC}")

import mpmath  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import make_items, run_item, warmup_item  # noqa: E402

STAGES = ("parse", "invariants", "line", "radii", "carousel")


def run_pass(workload: str, items: list, tracer: Tracer | None) -> dict:
    """One pass over every item; failures are recorded and the pass goes on."""
    spans = []
    failures = []
    facts = []
    start = time.perf_counter()
    for item in items:
        span = tracer.begin_item() if tracer else None
        t0 = time.perf_counter()
        try:
            failed, item_facts = run_item(workload, item)
        except Exception as exc:  # the batch must survive a failing item
            failed = [f"raised {type(exc).__name__}: {exc}"]
            item_facts = {}
            traceback.print_exc(file=sys.stderr)
        finally:
            spans.append((t0, time.perf_counter()))
            if tracer:
                tracer.end_item(span)
        if failed:
            failures.append({"item": item[0], "checks": failed})
        facts.append(item_facts)
    return {
        "wall_s": time.perf_counter() - start,
        "spans": spans,
        "failures": failures,
        "facts": facts,
    }


def module_loc() -> dict:
    """Non-blank, non-comment lines of each src/carousel/*.py."""
    out = {}
    for path in sorted((SRC / "carousel").glob("*.py")):
        lines = path.read_text().splitlines()
        name = "init" if path.stem == "__init__" else path.stem
        out[name] = sum(
            1 for line in lines if line.strip() and not line.strip().startswith("#")
        )
    return out


def layer_metrics(
    tracer: Tracer, traced: list, items_per_pass: int, speed: HostSpeed
) -> dict:
    """Per-layer metrics per traced pass; run.py keeps those BENCHMARK.json lists.

    Span times leave out the host-speed samples and are not scaled.
    """
    n = len(traced)
    totals = tracer.layer_totals(speed.outside)
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0))[0] / n

    def self_s(name):
        return totals.get(name, (0, 0.0))[1] / n

    out = {}
    for stage in STAGES:
        out[f"report.{stage}_s"] = sum(
            f.get("timings_ms", {}).get(stage, 0.0) for p in traced for f in p["facts"]
        ) / 1000.0 / n
    for layer, attrs in TRACED.items():
        for attr in attrs:
            name = f"{layer}.{attr}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
    out["puiseux.puiseux_branches.calls_per_item"] = (
        calls("puiseux.puiseux_branches") / items_per_pass
    )
    attempts = counts["polar.line_attempts"]
    checked = sum(f.get("teissier_checked", 0) for p in traced for f in p["facts"])
    teissier_ok = sum(f.get("teissier_ok", 0) for p in traced for f in p["facts"])
    steps_used = counts["tracking.steps_used"]
    out["polar.line_attempts"] = attempts / n
    out["polar.line_useful_ratio"] = (
        counts["polar.line_selections"] / attempts if attempts else 0.0
    )
    out["polar.teissier_ok_ratio"] = teissier_ok / checked if checked else 0.0
    out["roots.aberth_roots.retries"] = counts["roots.aberth_roots.retries"] / n
    out["tracking.fiber_points"] = counts["tracking.fiber_points"] / n
    out["tracking.steps_used"] = steps_used / n
    out["tracking.step_accept_ratio"] = (
        counts["tracking.steps_requested"] / steps_used if steps_used else 0.0
    )
    out["tracking.eta_candidates"] = counts["tracking.eta_candidates"] / n
    out["family.points_found"] = counts["family.points_found"] / n
    return out


def scaled_pass_s(measured: list) -> float:
    """Mean pass time at the host's nominal speed, from per-item measures."""
    return statistics.mean(sum(t / f for t, f in p) for p in measured)


def setup_measures(speed: HostSpeed, t0: float, t1: float) -> dict:
    """Seconds spent in samples during set-up, and the set-up's speed factor.

    run.py times set-up from outside the worker and takes the sampled
    seconds out of it.
    """
    outside, factor = speed.measure(t0, t1)
    return {"setup_sampled_s": t1 - t0 - outside, "setup_factor": factor}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    speed = HostSpeed()
    setup_start = time.perf_counter()
    speed.start()
    items = make_items(args.workload, args.seed)
    run_item(args.workload, warmup_item(args.workload, args.seed))
    print("ready", flush=True)
    setup_end = time.perf_counter()
    if args.setup_only:
        speed.stop()
        print(json.dumps(setup_measures(speed, setup_start, setup_end)), flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(run_pass(args.workload, items, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_pass(args.workload, items, None))
        # Stop when the pass due next would end after --seconds.  A traced
        # run makes at least one pass of each kind.
        due = traced if tracer is not None and len(traced) < len(plain) else plain
        if not due:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall_s"] for p in due) > args.seconds:
            break

    passes = plain + traced
    speed.stop()
    measured = [[speed.measure(*span) for span in p["spans"]] for p in plain]
    result = {"item_texts": [item[0] for item in items]}
    result.update(setup_measures(speed, setup_start, setup_end))
    result["latencies"] = [[m[0] for m in p] for p in measured]
    result["factors"] = [[m[1] for m in p] for p in measured]
    # a pass's time is its items' time outside the samples
    result["wall_s"] = [sum(p) for p in result["latencies"]]
    result.update({
        "attempted": len(items) * len(passes),
        "failures": [f for p in passes for f in p["failures"]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "carousel_max_precision": os.environ.get("CAROUSEL_MAX_PRECISION"),
        },
    })
    if tracer is not None:
        layers = layer_metrics(tracer, traced, len(items), speed)
        traced_measured = [[speed.measure(*span) for span in p["spans"]] for p in traced]
        # traced minus plain pass, both scaled by the host's speed
        layers["trace.overhead_s"] = scaled_pass_s(traced_measured) - scaled_pass_s(measured)
        layers.update({f"{name}.loc": loc for name, loc in module_loc().items()})
        result["traced_wall_s"] = [sum(m[0] for m in p) for p in traced_measured]
        result["layers"] = layers
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            fields = ("name", "start", "end", "parent", "item")
            with open(args.spans_out, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(fields, span))) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
