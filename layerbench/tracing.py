"""Span recording around the program's public entry points.

Only traced runs (``--trace 1``) use this module. A :class:`Probe`
replaces chosen functions and methods with wrappers that time each call,
and puts the originals back when it is closed; untraced runs install
nothing. Spans nest: a wrapper that runs inside another charges its
duration to the enclosing span, so each name gets both its total time
and its *self* time (its span minus the child spans it covers).

Spans are aggregated in memory per operation: :meth:`Probe.take`
returns what was recorded since the previous call and starts afresh.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable


class SpanTotals:
    """What one span name recorded during one operation."""

    __slots__ = ("calls", "total_s", "self_s", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: calls whose result passed the wrapper's ``success`` test.
        self.hits = 0


class Probe:
    """Installs timing wrappers and aggregates their spans."""

    def __init__(self) -> None:
        self._stack: list[list[Any]] = []
        self._totals: dict[str, SpanTotals] = {}
        self._restore: list[tuple[Any, str, Any]] = []
        self.instances: dict[str, list[Any]] = {}

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        reentrant: bool = True,
        success: Callable[[Any], bool] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``owner`` is the class or module that defines ``attr``. With
        ``reentrant=False`` a call made while a span of the same name is
        open is not recorded separately (a policy that delegates to a
        wrapped base policy counts as one placement). ``success`` tallies
        calls whose result it accepts.
        """
        original = owner.__dict__[attr]
        stack = self._stack
        totals = self._totals
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not reentrant and stack and stack[-1][0] == name:
                return original(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = SpanTotals()
                entry.calls += 1
                entry.total_s += elapsed
                entry.self_s += elapsed - frame[1]
            if success is not None and success(result):
                entry.hits += 1
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def track_instances(self, cls: type, name: str) -> None:
        """Keep every ``cls`` (or subclass) built from now on in
        ``instances[name]``; ``cls`` must define ``__init__`` itself."""
        original = cls.__dict__["__init__"]
        bucket = self.instances.setdefault(name, [])

        def init(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            bucket.append(obj)

        cls.__init__ = init
        self._restore.append((cls, "__init__", original))

    def take(self) -> tuple[dict[str, SpanTotals], dict[str, list[Any]]]:
        """Spans and tracked instances since the last call; resets both.

        The wrappers keep references to the containers, so they are
        emptied in place rather than replaced.
        """
        totals = dict(self._totals)
        self._totals.clear()
        instances = {key: list(items) for key, items in self.instances.items()}
        for items in self.instances.values():
            items.clear()
        return totals, instances

    def close(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


class Samples:
    """Per-operation samples of named per-layer quantities."""

    def __init__(self) -> None:
        self.values: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        values = self.values.get(name)
        return statistics.median(values) if values else 0.0

    def total(self, name: str) -> float:
        return float(sum(self.values.get(name, ())))
