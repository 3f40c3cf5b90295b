"""The two in-process workloads, ``flow-sim`` and ``cluster-life``.

Both issue seeded specs serially through one ``FabricSession.run``
caller with the result cache off. A run issues a fixed number of whole
rounds (see :mod:`layerbench.gen`): ``--seconds`` divided by the
workload's nominal round time on the reference host, so a faster
program does the same operations in less time and two commits are
compared on identical work. Each operation is timed alone; the output
checks run between rounds, outside the timed calls.

An untraced run splits its rounds over :data:`PARTS` fresh worker
processes, one after the other, and pools their latencies: on the 2-CPU
reference host a whole process ran either about 30 % fast or at the
usual speed, so one process per run made runs of identical work differ
by that much.

A traced run issues half the rounds untraced, then installs the probe
and issues the very same rounds again, in one process; the ratio of the
two passes' operation time is the tracing overhead.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time

from . import checks, gen
from .common import (
    ROOT,
    CheckFailed,
    child_env,
    cli_import_seconds,
    metric,
    peak_rss_mb,
    percentile,
    time_fresh_start,
)
from .tracing import Probe, Samples, SpanTotals

#: Fresh interpreter starts whose median is ``setup_s``.
SETUP_STARTS = 5
#: Worker processes an untraced run's rounds are split over.
PARTS = 3
SETUP_CODE = (
    "import repro.api as api\n"
    "api.FabricSession(result_cache=api.NullResultCache())\n"
    "print('ready', flush=True)\n"
)


class SerialWorkload:
    """One serial stream of specs; subclasses supply rounds and checks."""

    name = ""
    #: Mean sojourn limit that ``max_rate_rps`` is computed against.
    latency_limit_s = 0.0
    #: Seconds one round takes on the reference host (see README.md).
    round_s = 1.0

    def __init__(self, seed: int) -> None:
        from repro.api import FabricSession, NullResultCache

        self.seed = seed
        self.session = FabricSession(result_cache=NullResultCache())
        #: Output-check failures, one message per failing round.
        self.problems: list[str] = []
        #: What the checks covered, summed over worker processes.
        self.counts: dict[str, int] = {}

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            yield self.make_round(rng)

    def make_round(self, rng: random.Random) -> list[dict]:
        raise NotImplementedError

    def check_round(self, specs: list[dict], results: list[dict]) -> None:
        raise NotImplementedError

    @classmethod
    def rounds_for(cls, seconds: float) -> int:
        return max(1, round(seconds / cls.round_s))

    def pass_(self, rounds: int, tracer=None, skip: int = 0) -> list[float]:
        """Issue rounds ``skip`` to ``skip + rounds - 1`` of the stream;
        returns the per-operation latencies in seconds."""
        from repro.api import ScenarioSpec

        latencies: list[float] = []
        for done, specs in enumerate(self.rounds()):
            if done < skip:
                continue
            if done == skip + rounds:
                break
            results = []
            for data in specs:
                spec = ScenarioSpec.from_dict(data)
                t0 = time.perf_counter()
                result = self.session.run(spec)
                elapsed = time.perf_counter() - t0
                latencies.append(elapsed)
                if tracer is not None:
                    results.append(tracer.after_op(data, result, elapsed))
                else:
                    results.append(result.to_dict())
            try:
                self.check_round(specs, results)
            except CheckFailed as exc:
                self.problems.append(f"{self.name} round {done}: {exc}")
        return latencies


def sustained_rate(service_s: list[float], limit_s: float) -> float:
    """Highest Poisson arrival rate at which one serial evaluator keeps
    the mean sojourn time (queueing plus service) within ``limit_s``.

    The evaluator is an M/G/1 queue whose service-time distribution is
    the measured ``service_s``; by the Pollaczek-Khinchine formula its
    mean sojourn at rate ``lam`` is ``E[S] + lam E[S^2] / (2 (1 - lam
    E[S]))``, which is solved for ``lam``. It depends on the first two
    moments only, not on the order the seed gave the operations.
    """
    mean = sum(service_s) / len(service_s)
    second = sum(s * s for s in service_s) / len(service_s)
    slack = limit_s - mean
    if slack <= 0:
        raise ValueError(
            f"mean service time {mean:.3f} s exceeds the {limit_s} s limit"
        )
    return 2 * slack / (second + 2 * mean * slack)


def end_to_end(cls: type, seed: int, seconds: float) -> tuple[int, dict, list]:
    """Set-up timing, then the run's rounds split over :data:`PARTS`
    fresh worker processes (see :func:`run_part`), latencies pooled."""
    setup = statistics.median(time_fresh_start(SETUP_CODE, SETUP_STARTS))
    total = cls.rounds_for(seconds)
    latencies: list[float] = []
    problems: list[str] = []
    counts: dict[str, int] = {}
    rss = 0.0
    skip = 0
    for part in range(PARTS):
        rounds = total // PARTS + (part < total % PARTS)
        if not rounds:
            continue
        out = subprocess.run(
            [sys.executable, "-m", "layerbench.serial", cls.name,
             str(seed), str(skip), str(rounds)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=600, check=True,
        )
        done = json.loads(out.stdout.strip().splitlines()[-1])
        latencies += done["latencies"]
        problems += done["problems"]
        for key, value in done["counts"].items():
            counts[key] = counts.get(key, 0) + value
        rss = max(rss, done["peak_rss_mb"])
        skip += rounds
    if counts:
        print(
            f"{cls.name}: " + ", ".join(f"{v} {k}" for k, v in counts.items()),
            file=sys.stderr,
        )
    metrics = {
        "setup_s": metric(setup, "s"),
        "latency_p50_ms": metric(percentile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": metric(percentile(latencies, 0.9) * 1e3, "ms"),
        "throughput_ops_s": metric(len(latencies) / sum(latencies), "ops/s"),
        "max_rate_rps": metric(
            sustained_rate(latencies, cls.latency_limit_s), "req/s"
        ),
        "peak_rss_mb": metric(rss, "MiB"),
    }
    return len(latencies), metrics, problems


def run_part(name: str, seed: int, skip: int, rounds: int) -> dict:
    """One worker process's share of an untraced run."""
    workload = WORKLOADS[name](seed)
    latencies = workload.pass_(rounds, skip=skip)
    return {
        "latencies": latencies,
        "problems": workload.problems,
        "counts": workload.counts,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(
    workload: SerialWorkload, seconds: float, tracer: "OpTracer"
) -> tuple[int, dict]:
    rounds = max(1, workload.rounds_for(seconds) // 2)
    untraced = workload.pass_(rounds)
    tracer.install()
    try:
        traced_lat = workload.pass_(rounds, tracer)
    finally:
        tracer.probe.close()
    values = tracer.metrics()
    values["cli.import_s"] = cli_import_seconds()
    values["trace.overhead_pct"] = (sum(traced_lat) / sum(untraced) - 1) * 100
    return len(untraced) + len(traced_lat), values


class OpTracer:
    """Installs the probe and turns each operation's spans into samples."""

    def __init__(self) -> None:
        self.probe = Probe()
        self.samples = Samples()

    def install(self) -> None:
        from repro.api import backends, session
        from repro.api.session import FabricSession
        from repro.sim import engine

        probe = self.probe
        probe.wrap(FabricSession, "run", "session")
        probe.wrap(session, "spec_key", "spec_key")
        base = backends._TorusBackendBase
        for section, method in (
            ("telemetry", "telemetry"),
            ("link_utilization", "link_utilization"),
            ("trace", "trace"),
            ("tenancy", "tenancy_report"),
            ("fleet", "fleet_report"),
        ):
            probe.wrap(base, method, f"section.{section}")
        probe.track_instances(engine.EventEngine, "engines")

    def after_op(self, data: dict, result, elapsed: float) -> dict:
        """Record one operation's samples; returns its JSON form."""
        spans, instances = self.probe.take()
        add = self.samples.add
        add("api.session.evaluate_ms", spans["session"].total_s * 1e3)
        add("api.cache.spec_key_us", spans["spec_key"].total_s * 1e6)
        for section in ("telemetry", "link_utilization", "tenancy", "fleet"):
            span = spans.get(f"section.{section}")
            if span is not None:
                add(f"api.session.{section}_ms", span.total_s * 1e3)
        events = sum(e.processed for e in instances.get("engines", ()))
        add("sim.engine.events", events)
        add("op_s", elapsed)
        started = time.perf_counter()
        payload = result.to_dict()
        encoded = json.dumps(payload, indent=2, sort_keys=True)
        add("api.result.encode_ms", (time.perf_counter() - started) * 1e3)
        add("api.result.bytes", len(encoded))
        self.after_op_layers(data, spans, instances, payload)
        return payload

    def after_op_layers(self, data, spans, instances, payload) -> None:
        pass

    def metrics(self) -> dict:
        s = self.samples
        values = {
            name: s.median(name)
            for name in (
                "api.session.evaluate_ms",
                "api.cache.spec_key_us",
                "api.session.telemetry_ms",
                "api.session.link_utilization_ms",
                "api.session.tenancy_ms",
                "api.session.fleet_ms",
                "sim.engine.events",
                "api.result.encode_ms",
                "api.result.bytes",
            )
        }
        values["sim.engine.events_per_s"] = s.total("sim.engine.events") / s.total(
            "op_s"
        )
        return values


# -- flow-sim ---------------------------------------------------------------------


class FlowSim(SerialWorkload):
    """Distinct sim-mode layouts, each on both torus fabrics."""

    name = "flow-sim"
    latency_limit_s = 1.0
    round_s = 4.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.api import FabricSession

        # Closed-form costs and congestion for the checks (cache on).
        self.oracle = FabricSession()
        self.counts = {"layouts checked": 0, "of them congestion-free": 0}

    def make_round(self, rng: random.Random) -> list[dict]:
        return gen.flow_round(rng)

    def check_round(self, specs: list[dict], results: list[dict]) -> None:
        from repro.api import ScenarioSpec

        for i in range(0, len(specs), 2):
            electrical = specs[i]
            closed = ScenarioSpec.from_dict(
                dict(
                    electrical,
                    mode="closed_form",
                    outputs=["costs", "congestion"],
                )
            )
            free = checks.check_flow_layout(
                results[i], results[i + 1], self.oracle.run(closed).to_dict()
            )
            self.counts["layouts checked"] += 1
            self.counts["of them congestion-free"] += free


class FlowTracer(OpTracer):
    def install(self) -> None:
        super().install()
        from repro.sim import network, telemetry

        self.probe.track_instances(network.FlowNetwork, "networks")
        self.probe.wrap(telemetry.LinkTelemetry, "record", "telemetry.record")
        from repro.kernels import STATS

        self.stats = STATS
        self.kernels_before = STATS.snapshot()

    def after_op_layers(self, data, spans, instances, payload) -> None:
        add = self.samples.add
        after = self.stats.snapshot()
        calls = seconds = 0.0
        for key, stats in after.items():
            if key.endswith(".waterfill"):
                prior = self.kernels_before.get(key, {"calls": 0, "seconds": 0.0})
                calls += stats["calls"] - prior["calls"]
                seconds += stats["seconds"] - prior["seconds"]
        self.kernels_before = after
        add("kernels.waterfill.calls", calls)
        add("kernels.waterfill.ms", seconds * 1e3)
        add("sim.network.runs_per_op", len(instances.get("networks", ())))
        record = spans.get("telemetry.record")
        if "link_utilization" in data["outputs"]:
            add("sim.telemetry.record_ms", record.self_s * 1e3 if record else 0.0)
        if "trace" in data["outputs"]:
            # The trace section reruns the telemetry simulation with a
            # tracer attached; the difference is what tracing costs.
            add(
                "obs.tracer.ms",
                (spans["section.trace"].total_s - spans["section.telemetry"].total_s)
                * 1e3,
            )

    def metrics(self) -> dict:
        values = super().metrics()
        s = self.samples
        for name in (
            "kernels.waterfill.calls",
            "kernels.waterfill.ms",
            "sim.telemetry.record_ms",
            "obs.tracer.ms",
        ):
            values[name] = s.median(name)
        runs = s.values["sim.network.runs_per_op"]
        values["sim.network.runs_per_op"] = sum(runs) / len(runs)
        return values


# -- cluster-life -------------------------------------------------------------------


class ClusterLife(SerialWorkload):
    """Tenancy + fleet specs rotating policy, profile and dispatch."""

    name = "cluster-life"
    latency_limit_s = 1.0
    round_s = 3.0

    def make_round(self, rng: random.Random) -> list[dict]:
        return gen.cluster_round(rng)

    def check_round(self, specs: list[dict], results: list[dict]) -> None:
        for spec, result in zip(specs, results):
            checks.check_cluster(spec, result)


class ClusterTracer(OpTracer):
    def install(self) -> None:
        super().install()
        from repro.fleet import simulator as fleet_sim
        from repro.tenancy import cluster, policies
        from repro.tenancy import simulator as tenancy_sim

        probe = self.probe
        probe.wrap(tenancy_sim.TenancySimulator, "run", "tenancy.run")
        probe.wrap(fleet_sim.FleetSimulator, "run", "fleet.run")
        for cls in (
            policies.FirstFitPolicy,
            policies.BestFitPolicy,
            policies.SteerOnArrivalPolicy,
        ):
            probe.wrap(
                cls,
                "place",
                "tenancy.place",
                reentrant=False,
                success=lambda allocation: allocation is not None,
            )
        probe.wrap(cluster.ClusterState, "find_offset", "tenancy.find_offset")
        probe.wrap(
            policies.DefragOnDeparturePolicy, "on_departure", "tenancy.defrag"
        )

    def after_op_layers(self, data, spans, instances, payload) -> None:
        add = self.samples.add
        zero = SpanTotals()
        tenancy = spans["tenancy.run"]
        fleet = spans["fleet.run"]
        add("tenancy.run_ms", tenancy.total_s * 1e3)
        add("tenancy.run_s", tenancy.total_s)
        add(
            "tenancy.events",
            sum(payload["tenancy"][f]["events_processed"] for f in _FABRICS),
        )
        add("fleet.run_ms", fleet.total_s * 1e3)
        add("fleet.run_s", fleet.total_s)
        add(
            "fleet.events",
            sum(payload["fleet"][f]["events_processed"] for f in _FABRICS),
        )
        place = spans.get("tenancy.place", zero)
        add("tenancy.place_calls", place.calls)
        add("tenancy.place_hits", place.hits)
        add("tenancy.place_ms", place.total_s * 1e3)
        find = spans.get("tenancy.find_offset", zero)
        add("tenancy.find_offset_calls", find.calls)
        add("tenancy.find_offset_ms", find.total_s * 1e3)
        if data["tenancy"]["policy"] == "defrag":
            add("tenancy.defrag_ms", spans.get("tenancy.defrag", zero).total_s * 1e3)

    def metrics(self) -> dict:
        values = super().metrics()
        s = self.samples
        for name in (
            "tenancy.run_ms",
            "fleet.run_ms",
            "tenancy.place_calls",
            "tenancy.place_ms",
            "tenancy.find_offset_calls",
            "tenancy.find_offset_ms",
            "tenancy.defrag_ms",
        ):
            values[name] = s.median(name)
        values["tenancy.events_per_s"] = s.total("tenancy.events") / s.total(
            "tenancy.run_s"
        )
        values["fleet.events_per_s"] = s.total("fleet.events") / s.total(
            "fleet.run_s"
        )
        values["tenancy.place_success_ratio"] = s.total(
            "tenancy.place_hits"
        ) / s.total("tenancy.place_calls")
        return values


_FABRICS = ("electrical", "photonic")


WORKLOADS = {cls.name: cls for cls in (FlowSim, ClusterLife)}


if __name__ == "__main__":
    from .common import add_src_to_path

    add_src_to_path()
    name, seed, skip, rounds = sys.argv[1:5]
    print(json.dumps(run_part(name, int(seed), int(skip), int(rounds))))
