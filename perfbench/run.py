"""Benchmark entry point for the carousel library.

    python3 perfbench/run.py --workload {corpus,invariants,family} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  It starts one worker process at a time
(see worker.py) with ``CAROUSEL_MAX_PRECISION`` pinned to its default of
4096, prints every metric by name and unit, lists each failed item by
its input text, writes the run's record under ``perfbench/out/`` and
prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median
over several fresh worker processes of the time from start to ``ready``:
importing ``carousel`` and ``mpmath`` plus one untimed warm-up item.
Every end-to-end time is divided by the host-speed factor sampled
while it ran (see hostspeed.py).  ``--trace 1`` gives the per-layer
metrics of a traced run instead.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("corpus", "invariants", "family")
SETUPS = 5  # fresh processes whose set-up time is measured, median reported
RUN_LIMIT_S = 170.0  # all workers of one run end within this, or the run fails


def git_commit() -> str:
    """HEAD of the checkout's own .git, or 'unknown' outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def start_worker(args, extra: list, deadline: float) -> tuple:
    """Start a worker, wait for its ready line; returns (process, setup seconds)."""
    env = dict(os.environ, CAROUSEL_MAX_PRECISION="4096", PYTHONHASHSEED="0")
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    t0 = time.perf_counter()
    # Unbuffered, so that reading the ready line reads nothing after it:
    # communicate() reads the pipe itself and would miss buffered output.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
    line = proc.stdout.readline().decode() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        sys.exit(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline: float) -> str:
    """Wait for a worker until the deadline; returns its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("worker exceeded its time limit")
    return out.decode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "carousel" / "__init__.py").is_file():
        sys.exit(f"no carousel sources under {ROOT / 'src'}")

    deadline = time.perf_counter() + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups = []  # (seconds to ready outside samples, speed factor)
    extra = []
    if args.trace:
        extra = ["--spans-out", str(OUT / f"spans-{tag}.jsonl")]
    else:
        for _ in range(SETUPS - 1):
            proc, setup = start_worker(args, ["--setup-only"], deadline)
            lines = finish(proc, deadline).strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"worker failed after set-up (exit {proc.returncode})")
            measures = json.loads(lines[-1])
            setups.append((setup - measures["setup_sampled_s"], measures["setup_factor"]))
    proc, setup = start_worker(args, extra, deadline)
    lines = finish(proc, deadline).strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"worker failed (exit {proc.returncode})")
    raw = json.loads(lines[-1])
    if not args.trace:
        setups.append((setup - raw["setup_sampled_s"], raw["setup_factor"]))

    failed = len(raw["failures"])
    attempted = raw["attempted"]
    if args.trace:
        values = raw["layers"]
    else:
        # Times are divided by the host-speed factor sampled while they ran
        # (hostspeed.py), so that they read as on the host at its nominal
        # speed; the raw times are kept in the record.
        scaled = [
            [t / f for t, f in zip(lat, fac)]
            for lat, fac in zip(raw["latencies"], raw["factors"])
        ]
        values = {
            "setup_s": statistics.median(s / f for s, f in setups),
            "wall_s": statistics.mean(sum(p) for p in scaled),
            "item_p50_s": statistics.median(t for p in scaled for t in p),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    missing = sorted(set(units) - set(values))
    if missing:
        sys.exit(f"metrics of BENCHMARK.json not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    env = dict(raw["env"], nproc=os.cpu_count(), commit=git_commit())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "items": len(raw["item_texts"]),
        "passes": len(raw["wall_s"]),
        "pass_wall_s": raw["wall_s"],
        "traced_pass_wall_s": raw.get("traced_wall_s", []),
        "item_latencies_s": {
            text: [p[i] for p in raw["latencies"]]
            for i, text in enumerate(raw["item_texts"])
        },
        "item_factors": {
            text: [p[i] for p in raw["factors"]]
            for i, text in enumerate(raw["item_texts"])
        },
        "setup_samples_s": [s for s, _ in setups],
        "setup_factors": [f for _, f in setups],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": raw["failures"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"env {json.dumps(env)}")
    print(f"{args.workload}: {record['items']} items, {record['passes']} plain passes")
    if not args.trace:
        print(
            f"unscaled: setup {statistics.median(s for s, _ in setups):.6g} s, "
            f"pass {statistics.mean(raw['wall_s']):.6g} s; host-speed factor "
            f"{statistics.median(f for p in raw['factors'] for f in p):.4g}"
        )
    for failure in raw["failures"]:
        print(f"FAILED {failure['item']!r}: {'; '.join(failure['checks'])}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
