#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one commit, apart in time.

    python3 layerbench/steady.py --runs 10 --gap-s 120 --out steady.json

Each set runs every workload ``--runs`` times with a different seed per
run, alternating the workload order from one run to the next. After
``--gap-s`` seconds the second set repeats this with fresh seeds. For
every end-to-end metric of every workload it reports each set's median
and quartiles (``statistics.quantiles(n=4)``), the quartile spread as a
share of the median, and the gap between the two sets' medians against
the metric's bound in BENCHMARK.json. ``--sets 1`` makes one set only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_set(workloads, runs, seconds, first_seed, log) -> dict:
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result = one_run(workload, first_seed + i, seconds)
            results[workload].append(result)
            log(f"{workload} seed {first_seed + i}: " + json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            ))
    return results


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else float("inf"),
    }


def report(sets: list[dict], bench: dict) -> dict:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    out: dict = {}
    for workload in sets[0]:
        rows = {}
        for name, spec in bounds.items():
            per_set = []
            for results in sets:
                values = [
                    r["metrics"][name]["value"]
                    for r in results[workload]
                    if name in r["metrics"]
                ]
                if len(values) >= 2:
                    per_set.append(summarize(values))
            if not per_set:
                continue
            row = {"bound": spec["bound"], "sets": per_set}
            if len(per_set) == 2:
                first, second = per_set[0]["median"], per_set[1]["median"]
                worse = (second - first) / first
                if spec["better"] == "higher":
                    worse = -worse
                row["second_worse_by"] = worse
                row["within_bound"] = worse <= spec["bound"]
            rows[name] = row
        failed = [
            [r["failed"] / r["attempted"] for r in results[workload]]
            for results in sets
        ]
        out[workload] = {"metrics": rows, "failed_share": failed}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--gap-s", type=float, default=120.0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    sets = [run_set(workloads, args.runs, args.seconds, 1, log)]
    if args.sets == 2:
        time.sleep(args.gap_s)
        sets.append(run_set(workloads, args.runs, args.seconds, 1001, log))
    summary = report(sets, bench)
    text = json.dumps(summary, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
