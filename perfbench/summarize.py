"""Summarize the run records under perfbench/out/ as one JSON document.

    python3 perfbench/summarize.py > perfbench/baseline.json

For each workload: the median and quartiles of every end-to-end metric
over its untraced runs, with the spread (q3 - q1) / median, and the
per-layer metrics of its traced runs (median over runs).  The
environment of the first record is kept; all records are expected to
come from one commit on one host.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summary(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "runs": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "runs": len(values),
    }


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("result-*.json"))]
    if not records:
        sys.exit(f"no run records under {OUT}")
    doc = {"env": records[0]["env"], "workloads": {}}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        plain = [r for r in runs if not r["trace"]]
        traced = [r for r in runs if r["trace"]]
        entry = {
            "seeds": sorted(r["seed"] for r in plain),
            "seconds": sorted({r["seconds"] for r in runs}),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": [f for r in runs for f in r["failures"]],
        }
        for kind, group in (("end_to_end", plain), ("per_layer", traced)):
            names = group[0]["metrics"] if group else {}
            entry[kind] = {
                name: dict(
                    summary([r["metrics"][name]["value"] for r in group]),
                    unit=group[0]["metrics"][name]["unit"],
                )
                for name in names
            }
        if traced:
            entry["traced_seeds"] = sorted(r["seed"] for r in traced)
            entry["traced_pass_wall_s"] = summary(
                [statistics.median(r["traced_pass_wall_s"]) for r in traced]
            )
        doc["workloads"][workload] = entry
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
