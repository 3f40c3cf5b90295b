"""The ``serve-mix`` workload: open-loop HTTP load on the sharded tier.

The benchmark starts ``repro serve --workers 1`` (a router and one
worker process) with an empty disk cache and sends it the seeded request
stream of :func:`layerbench.gen.serve_round` on a fixed schedule: two
client threads, one connection each, send every request when it is due
and time it from that moment, so a stalled server also charges the wait
it imposes on later requests.

Each of three fresh tiers is warmed up and sent a block of requests at
:data:`REFERENCE_RPS` (pooled: the latency figures). The last tier then
climbs :data:`LADDER_RPS`, :data:`STEP_REQUESTS` requests per step,
until a step misses :data:`LATENCY_LIMIT_S` at p90 or ends with a
backlog; ``max_rate_rps`` interpolates the rate where p90 crosses the
limit between the last passing and the failing step. Finally
:data:`FLOOD_REQUESTS` requests are all due at once: the rate at which
the tier clears them is ``throughput_ops_s``.
"""

from __future__ import annotations

import json
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from . import checks, gen
from .common import (
    CheckFailed,
    ROOT,
    child_env,
    cli_import_seconds,
    metric,
    peak_rss_mb,
    percentile,
    remove_work_dir,
    work_dir,
)

#: Fresh server starts whose median is ``setup_s`` (the last one serves
#: the run).
SETUP_STARTS = 3
#: Requests sent one at a time before timing starts, from a stream of
#: their own, so the worker's lazy imports and first-use costs are paid.
WARMUP_REQUESTS = 24
REFERENCE_RPS = 30.0
REFERENCE_SHARE = 0.2
MIN_REFERENCE_REQUESTS = 120
#: Open-loop rates from 50 req/s up in 5 % steps (to about 1000 req/s).
LADDER_RPS = tuple(round(50.0 * 1.05**k, 2) for k in range(62))
STEP_REQUESTS = 100
#: Requests of the saturation step.
FLOOD_REQUESTS = 300
LATENCY_LIMIT_S = 0.100
CLIENT_THREADS = 2


# -- the server ---------------------------------------------------------------------


class Server:
    """One ``repro serve --workers 1`` tier on an ephemeral port."""

    def __init__(self, work: Path, index: int, trace_dir: Path | None = None):
        self.log_path = work / f"serve-{index}.log"
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "1",
            "--cache-dir", str(work / f"cache-{index}"),
            "--log-level", "info",
        ]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        self.port = self._wait_port()
        self._wait_healthy()
        self.ready_s = time.perf_counter() - self.started

    def _wait_port(self) -> int:
        deadline = time.monotonic() + 60
        pattern = re.compile(rb"router listening on http://[\w.]+:(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(self.log_path.read_bytes())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                status, body = request(self.port, "GET", "/healthz")
            except OSError:
                status = 0
            if status == 200:
                self.health = json.loads(body)
                return
            time.sleep(0.002)
        self.stop()
        raise RuntimeError("server never answered /healthz with 200")

    def pids(self) -> list[int]:
        return [self.process.pid] + [
            w["pid"] for w in self.health["workers"] if w["pid"] is not None
        ]

    def stop(self) -> None:
        """SIGTERM (the tier drains and writes its traces), then wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def request(
    port: int, method: str, path: str, body: bytes = b""
) -> tuple[int, bytes]:
    """One HTTP/1.1 request on a fresh connection; ``(status, body)``."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
        conn.sendall(head + body)
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    header, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, payload


# -- open-loop load -----------------------------------------------------------------


class Step:
    """One fixed-rate open-loop step's outcome."""

    def __init__(self, rate: float, specs: list[dict]):
        self.rate = rate
        self.specs = specs
        self.latencies = [0.0] * len(specs)
        self.lateness = [0.0] * len(specs)
        self.statuses = [0] * len(specs)
        self.bodies: list[bytes] = [b""] * len(specs)
        self.started = self.finished = 0.0

    @property
    def p90(self) -> float:
        return percentile(self.latencies, 0.9)

    @property
    def backlogged(self) -> bool:
        """The last sends left later than the limit: the queue grew."""
        tail = self.lateness[-max(1, len(self.lateness) // 10):]
        return statistics.median(tail) > LATENCY_LIMIT_S

    @property
    def passed(self) -> bool:
        return (
            all(s == 200 for s in self.statuses)
            and self.p90 <= LATENCY_LIMIT_S
            and not self.backlogged
        )


def run_step(port: int, rate: float, specs: list[dict]) -> Step:
    """Send ``specs`` at ``rate`` per second from two client threads."""
    step = Step(rate, specs)
    bodies = [json.dumps(spec).encode() for spec in specs]
    lock = threading.Lock()
    cursor = iter(range(len(specs)))
    errors: list[BaseException] = []
    start = time.perf_counter() + 0.01

    def client() -> None:
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due = start + i / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                status, body = request(port, "POST", "/v1/evaluate", bodies[i])
                step.latencies[i] = time.perf_counter() - due
                step.lateness[i] = sent - due
                step.statuses[i] = status
                step.bodies[i] = body
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(CLIENT_THREADS)]
    step.started = start
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    step.finished = time.perf_counter()
    if errors:
        raise errors[0]
    return step


def climb(port: int, stream: "Stream") -> list[Step]:
    """Run the ladder up to and including the first failing step."""
    steps = []
    for rate in LADDER_RPS:
        steps.append(run_step(port, rate, stream.take(STEP_REQUESTS)))
        if not steps[-1].passed:
            return steps
    raise RuntimeError(
        f"the top of the ladder ({LADDER_RPS[-1]} req/s) still met the"
        " latency limit; extend LADDER_RPS"
    )


def max_rate(steps: list[Step]) -> float:
    """Rate where p90 crosses the limit, interpolated between the last
    passing step and the failing one (the last of ``steps``)."""
    *passing, high = steps
    # A backlogged step reads as at least at the limit: its p90 only
    # grows with the step length.
    high_p90 = max(high.p90, LATENCY_LIMIT_S)
    if not passing:
        return high.rate * LATENCY_LIMIT_S / high_p90
    low = passing[-1]
    share = (LATENCY_LIMIT_S - low.p90) / (high_p90 - low.p90)
    return low.rate + (high.rate - low.rate) * share


def saturation(port: int, stream: "Stream") -> Step:
    """Every request due at once: both connections stay busy throughout."""
    return run_step(port, float("inf"), stream.take(FLOOD_REQUESTS))


def served_rate(step: Step) -> float:
    return len(step.specs) / (step.finished - step.started)


class Stream:
    """The seeded request stream, drawn a round at a time."""

    def __init__(self, seed: int | str) -> None:
        self.rng = random.Random(seed)
        self.history: list[dict] = []
        self.pending: list[dict] = []

    def take(self, count: int) -> list[dict]:
        while len(self.pending) < count:
            self.pending.extend(gen.serve_round(self.rng, self.history))
        taken, self.pending = self.pending[:count], self.pending[count:]
        return taken


# -- output checks --------------------------------------------------------------------


class Checker:
    """Checks every answer against an in-process evaluation (cache off)."""

    def __init__(self) -> None:
        from repro.api import FabricSession, NullResultCache

        self.session = FabricSession(result_cache=NullResultCache())
        self.first: dict[str, bytes] = {}
        self.problems: list[str] = []
        self.paper_specs = 0
        self.failed = 0

    def summary(self) -> str:
        return (
            f"serve-mix: {len(self.first)} distinct answers checked against"
            f" in-process evaluation, {self.paper_specs} against the paper's"
            " closed forms"
        )

    def expected(self, spec: dict) -> bytes:
        from repro.api import ScenarioSpec

        result = self.session.run(ScenarioSpec.from_dict(spec))
        return (
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        ).encode()

    def check_step(self, step: Step) -> None:
        """Check every answered request of ``step``; a request that got
        no 200 is a failed operation, counted in :attr:`failed`."""
        for index, (spec, status, body) in enumerate(
            zip(step.specs, step.statuses, step.bodies)
        ):
            if status != 200:
                self.failed += 1
                continue
            key = json.dumps(spec, sort_keys=True)
            try:
                if key in self.first:
                    checks.check_served_bytes(
                        body, self.first[key], "repeated spec"
                    )
                    continue
                checks.check_served_bytes(body, self.expected(spec), "answer")
                self.first[key] = body
                self.paper_specs += checks.check_paper_costs(
                    spec, json.loads(body)
                )
            except CheckFailed as exc:
                self.problems.append(
                    f"serve-mix {step.rate} req/s request {index}: {exc}"
                )


# -- runs -----------------------------------------------------------------------------


def warm_up(port: int, seed: int) -> None:
    for spec in Stream(f"warm-up {seed}").take(WARMUP_REQUESTS):
        status, body = request(port, "POST", "/v1/evaluate", json.dumps(spec).encode())
        if status != 200:
            raise RuntimeError(f"warm-up request failed: HTTP {status} {body[:200]!r}")


def reference_requests(seconds: float) -> int:
    return max(MIN_REFERENCE_REQUESTS, round(seconds * REFERENCE_SHARE * REFERENCE_RPS))


def end_to_end(
    seed: int, seconds: float, work: Path
) -> tuple[int, int, dict, list[str]]:
    """Each of the :data:`SETUP_STARTS` fresh tiers is warmed up and sent
    an equal block of the reference step (pooled for the latency
    figures, so one tier's placement on the CPUs does not decide them);
    the last tier then climbs the ladder."""
    checker = Checker()
    servers, blocks = [], []
    per_block = reference_requests(seconds) // SETUP_STARTS
    for index in range(SETUP_STARTS):
        server = Server(work, index)
        servers.append(server)
        stream = Stream(f"{seed}/{index}")
        try:
            warm_up(server.port, seed)
            blocks.append(
                run_step(server.port, REFERENCE_RPS, stream.take(per_block))
            )
            if index == SETUP_STARTS - 1:
                steps = climb(server.port, stream)
                flood = saturation(server.port, stream)
                rss = sum(peak_rss_mb(pid) for pid in server.pids())
        finally:
            server.stop()
    for step in blocks + steps + [flood]:
        checker.check_step(step)
    reference = [lat for block in blocks for lat in block.latencies]
    metrics = {
        "setup_s": metric(statistics.median([s.ready_s for s in servers]), "s"),
        "latency_p50_ms": metric(percentile(reference, 0.5) * 1e3, "ms"),
        "latency_p90_ms": metric(percentile(reference, 0.9) * 1e3, "ms"),
        "throughput_ops_s": metric(served_rate(flood), "ops/s"),
        "max_rate_rps": metric(max_rate(steps), "req/s"),
        "peak_rss_mb": metric(rss, "MiB"),
    }
    attempted = sum(len(s.specs) for s in blocks + steps + [flood])
    print(checker.summary(), file=sys.stderr)
    return attempted, checker.failed, metrics, checker.problems


def traced(
    seed: int, seconds: float, work: Path
) -> tuple[int, int, dict, list[str]]:
    """Reference step untraced, then traced; spans plus an in-process
    replay of the same request bodies."""
    checker = Checker()
    plain = Server(work, 0)
    try:
        warm_up(plain.port, seed)
        untraced = run_step(
            plain.port, REFERENCE_RPS, Stream(seed).take(reference_requests(seconds))
        )
    finally:
        plain.stop()
    trace_dir = work / "traces"
    tracing = Server(work, 1, trace_dir=trace_dir)
    try:
        warm_up(tracing.port, seed)
        traced_step = run_step(
            tracing.port, REFERENCE_RPS, Stream(seed).take(reference_requests(seconds))
        )
    finally:
        tracing.stop()
    for step in (untraced, traced_step):
        checker.check_step(step)
    values = runtime_span_metrics(trace_dir, work / "merged.trace.json")
    values.update(replay(traced_step.specs, work / "replay-cache"))
    values["cli.import_s"] = cli_import_seconds()
    values["trace.overhead_pct"] = (
        sum(traced_step.latencies) / sum(untraced.latencies) - 1
    ) * 100
    attempted = len(untraced.specs) + len(traced_step.specs)
    return attempted, checker.failed, values, checker.problems


def runtime_span_metrics(trace_dir: Path, merged: Path) -> dict:
    """Router and worker layers from the tier's own runtime spans."""
    files = sorted(str(p) for p in trace_dir.glob("*.trace.json"))
    if not files:
        raise RuntimeError(f"the traced tier wrote no trace files in {trace_dir}")
    subprocess.run(
        [sys.executable, "-m", "repro", "obs", "merge", "--out", str(merged)]
        + files,
        cwd=ROOT, env=child_env(), check=True, capture_output=True, timeout=120,
    )
    events = json.loads(merged.read_text())["traceEvents"]
    spans: dict[str, list[dict]] = {}
    for event in events:
        if event.get("ph") in ("X", "i", "I"):
            spans.setdefault(event["name"], []).append(event)
    proxy_by_trace: dict[str, float] = {}
    for event in spans.get("router.proxy", ()):
        trace_id = event.get("args", {}).get("trace_id")
        proxy_by_trace[trace_id] = proxy_by_trace.get(trace_id, 0.0) + event["dur"]
    router_self = []
    for event in spans.get("router.request", ()):
        trace_id = event.get("args", {}).get("trace_id")
        router_self.append(
            (event["dur"] - proxy_by_trace.get(trace_id, 0.0)) / 1e3
        )
    coalesced = sum(
        1
        for event in spans.get("router.singleflight", ())
        if event.get("args", {}).get("role") != "leader"
    )
    batch_sizes = [
        e.get("args", {}).get("batch_size", 0) for e in spans.get("serve.batch", ())
    ]

    def med_ms(name: str) -> float:
        durations = [e["dur"] / 1e3 for e in spans.get(name, ())]
        return statistics.median(durations) if durations else 0.0

    return {
        "serve.router.self_ms": statistics.median(router_self) if router_self else 0.0,
        "serve.router.proxy_ms": med_ms("router.proxy"),
        "serve.router.coalesced": coalesced,
        "serve.worker.queue_wait_ms": med_ms("serve.queue"),
        "serve.worker.batch_size": (
            sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
        ),
        "serve.worker.evaluate_ms": med_ms("serve.evaluate"),
    }


def replay(specs: list[dict], cache_dir: Path) -> dict:
    """Send the request bodies through the worker's layers in process."""
    from repro.api import DiskResultCache, FabricSession, ScenarioSpec, backends
    from repro.api import cache as cache_module
    from repro.kernels import STATS
    from repro.serve import wire
    from repro.serve.service import parse_evaluate_request

    from .serial import FlowTracer
    from .tracing import Samples

    # The flow-sim probes (session, sections, engines, networks, link
    # telemetry) give the sim-mode layers of the sim requests.
    flow = FlowTracer()
    flow.install()
    probe = flow.probe
    samples = Samples()
    disk = DiskResultCache(root=cache_dir)
    session = FabricSession(result_cache=disk)
    probe.wrap(
        cache_module.DiskResultCache, "get", "cache.get",
        success=lambda hit: hit is not None,
    )
    probe.wrap(cache_module.DiskResultCache, "put", "cache.put")
    for cls in (backends.ElectricalBackend, backends.PhotonicBackend):
        probe.wrap(cls, "repair", "section.repair")
    hits = lookups = 0
    try:
        for spec in specs:
            body = json.dumps(spec).encode()
            req = wire.Request(
                method="POST", path="/v1/evaluate", headers={}, body=body
            )
            started = time.perf_counter()
            parsed, _ = parse_evaluate_request(req)
            samples.add("parse_ms", (time.perf_counter() - started) * 1e3)
            started = time.perf_counter()
            ScenarioSpec.from_dict(spec)
            samples.add("from_dict_us", (time.perf_counter() - started) * 1e6)
            kernels_before = STATS.snapshot()
            result = session.run(parsed)
            started = time.perf_counter()
            encoded = (
                json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
            ).encode()
            samples.add("encode_ms", (time.perf_counter() - started) * 1e3)
            samples.add("bytes", len(encoded))
            spans, instances = probe.take()
            if "section.telemetry" in spans:
                flow.samples.add(
                    "sim.engine.events",
                    sum(e.processed for e in instances.get("engines", ())),
                )
                flow.samples.add("op_s", spans["session"].total_s)
                for section in ("telemetry", "link_utilization"):
                    if f"section.{section}" in spans:
                        flow.samples.add(
                            f"api.session.{section}_ms",
                            spans[f"section.{section}"].total_s * 1e3,
                        )
                flow.after_op_layers(spec, spans, instances, None)
            get = spans["cache.get"]
            lookups += get.calls
            hits += get.hits
            samples.add("probe_ms", get.total_s * 1e3)
            samples.add("spec_key_us", spans["spec_key"].total_s * 1e6)
            if "cache.put" in spans:
                samples.add("put_ms", spans["cache.put"].total_s * 1e3)
                samples.add("evaluate_ms", spans["session"].total_s * 1e3)
            if "section.repair" in spans:
                samples.add("repair_ms", spans["section.repair"].total_s * 1e3)
                calls = seconds = 0.0
                for key, stats in STATS.snapshot().items():
                    if key.endswith(".repair"):
                        prior = kernels_before.get(
                            key, {"calls": 0, "seconds": 0.0}
                        )
                        calls += stats["calls"] - prior["calls"]
                        seconds += stats["seconds"] - prior["seconds"]
                samples.add("repair_calls", calls)
                samples.add("repair_kernel_ms", seconds * 1e3)
    finally:
        probe.close()
    repair_calls = samples.values.get("repair_calls", [])
    sim = flow.metrics()
    sim_layers = {
        name: sim[name]
        for name in (
            "api.session.telemetry_ms",
            "api.session.link_utilization_ms",
            "sim.engine.events",
            "sim.engine.events_per_s",
            "kernels.waterfill.calls",
            "kernels.waterfill.ms",
            "sim.network.runs_per_op",
            "sim.telemetry.record_ms",
            "obs.tracer.ms",
        )
    }
    return sim_layers | {
        "serve.wire.parse_ms": samples.median("parse_ms"),
        "api.spec.from_dict_us": samples.median("from_dict_us"),
        "api.cache.spec_key_us": samples.median("spec_key_us"),
        "api.cache.probe_ms": samples.median("probe_ms"),
        "api.cache.put_ms": samples.median("put_ms"),
        "api.cache.hit_ratio": hits / lookups,
        "api.session.evaluate_ms": samples.median("evaluate_ms"),
        "api.session.repair_ms": samples.median("repair_ms"),
        "api.result.encode_ms": samples.median("encode_ms"),
        "api.result.bytes": samples.median("bytes"),
        "kernels.repair.calls": (
            sum(repair_calls) / len(repair_calls) if repair_calls else 0.0
        ),
        "kernels.repair.ms": samples.median("repair_kernel_ms"),
    }


def run(
    seed: int, seconds: float, trace: bool
) -> tuple[int, int, dict, list[str]]:
    """One serve-mix run; ``seconds`` sizes the reference step."""
    work = work_dir("serve-mix")
    try:
        if trace:
            return traced(seed, seconds, work)
        return end_to_end(seed, seconds, work)
    finally:
        remove_work_dir(work)
