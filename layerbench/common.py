"""Helpers shared by the workloads: statistics, fresh-start timing,
memory, the work directory and the result line."""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (``layerbench/..``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; every run makes and removes its
#: own subdirectory here.
WORK = ROOT / ".layerbench_work"


class CheckFailed(AssertionError):
    """An output check found a result that breaks a required property."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return ordered[rank - 1]


def child_env() -> dict[str, str]:
    """Environment for program subprocesses: the checkout's ``src`` on
    the import path and no inherited kernel override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_KERNEL", None)
    return env


def add_src_to_path() -> None:
    """Import ``repro`` from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def time_fresh_start(code: str, starts: int) -> list[float]:
    """Seconds from spawning ``python3 -c code`` until it prints a line.

    ``code`` must print one line once it is ready to serve its first
    operation. Each start is a fresh interpreter; each child is waited
    for before the next starts.
    """
    times = []
    for _ in range(starts):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            assert child.stdout is not None
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            code_ = child.wait(timeout=60)
        if not line or code_ != 0:
            raise RuntimeError(f"fresh start failed (exit {code_}): {code!r}")
        times.append(elapsed)
    return times


def cli_import_seconds(starts: int = 3) -> float:
    """Median in-process time to ``import repro.cli`` in a fresh
    interpreter (the floor every CLI call pays)."""
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t, flush=True)"
    )
    values = []
    for _ in range(starts):
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        values.append(float(out.stdout.strip()))
    return statistics.median(values)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def work_dir(workload: str) -> Path:
    """A fresh, empty per-run directory under :data:`WORK`."""
    path = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
