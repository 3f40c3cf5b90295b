#!/usr/bin/env python3
"""Run one workload of the layered benchmark and print its result line.

    python3 layerbench/run.py --workload flow-sim --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced variant and reports every per-layer metric instead (layers a
workload does not touch read 0). The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from layerbench.common import add_src_to_path, emit, metric  # noqa: E402

WORKLOADS = ("flow-sim", "cluster-life", "serve-mix")

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {
    "cli.import_s": "s",
    "serve.wire.parse_ms": "ms",
    "api.spec.from_dict_us": "us",
    "api.cache.spec_key_us": "us",
    "api.cache.probe_ms": "ms",
    "api.cache.put_ms": "ms",
    "api.cache.hit_ratio": "ratio",
    "api.session.evaluate_ms": "ms",
    "api.session.telemetry_ms": "ms",
    "api.session.link_utilization_ms": "ms",
    "api.session.repair_ms": "ms",
    "api.session.tenancy_ms": "ms",
    "api.session.fleet_ms": "ms",
    "api.result.encode_ms": "ms",
    "api.result.bytes": "bytes",
    "sim.engine.events": "count",
    "sim.engine.events_per_s": "1/s",
    "kernels.waterfill.calls": "count",
    "kernels.waterfill.ms": "ms",
    "sim.network.runs_per_op": "count",
    "sim.telemetry.record_ms": "ms",
    "obs.tracer.ms": "ms",
    "kernels.repair.calls": "count",
    "kernels.repair.ms": "ms",
    "tenancy.run_ms": "ms",
    "tenancy.events_per_s": "1/s",
    "tenancy.place_calls": "count",
    "tenancy.place_ms": "ms",
    "tenancy.find_offset_calls": "count",
    "tenancy.find_offset_ms": "ms",
    "tenancy.defrag_ms": "ms",
    "tenancy.place_success_ratio": "ratio",
    "fleet.run_ms": "ms",
    "fleet.events_per_s": "1/s",
    "serve.router.self_ms": "ms",
    "serve.router.proxy_ms": "ms",
    "serve.router.coalesced": "count",
    "serve.worker.queue_wait_ms": "ms",
    "serve.worker.batch_size": "count",
    "serve.worker.evaluate_ms": "ms",
    "trace.overhead_pct": "%",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Returns ``(attempted, failed, metric values, check failures)``."""
    add_src_to_path()
    if workload == "serve-mix":
        from layerbench import serve_mix

        return serve_mix.run(seed, seconds, trace)
    from layerbench import serial

    cls = serial.WORKLOADS[workload]
    # A serial operation that raises ends the run, so none is counted.
    if not trace:
        attempted, values, problems = serial.end_to_end(cls, seed, seconds)
        return attempted, 0, values, problems
    tracer = serial.FlowTracer() if cls is serial.FlowSim else serial.ClusterTracer()
    stream = cls(seed)
    attempted, values = serial.traced(stream, seconds, tracer)
    return attempted, 0, values, stream.problems


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    attempted, failed, values, problems = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        unknown = set(values) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
        values = {
            name: metric(float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER.items()
        }
    emit(not problems, attempted, failed, values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
