#!/usr/bin/env python3
"""Median and quartiles per metric over benchmark result lines.

Usage:

    python3 benchmarks/summarize.py hdl-91=runs-hdl.jsonl expand-307=runs-expand.jsonl

Each file holds the last output line (the JSON result) of several runs of
one workload.  Prints one JSON object, by workload then metric, with the run
count, median, first and third quartile (``statistics.quantiles(n=4)``) and
the quartile spread as a share of the median.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(results: list[dict]) -> dict:
    summary = {
        "runs": len(results),
        "all_correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary["metrics"][name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main(argv: list[str]) -> int:
    out = {}
    for arg in argv:
        workload, _, path = arg.partition("=")
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        out[workload] = summarize([json.loads(line) for line in lines if line.strip()])
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
