"""Measurement primitives of the benchmark: statistics, spans, failures, /proc.

Nothing here imports the engine, so the self-tests exercise these pieces
without building a video.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

# -- statistics ---------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by the nearest-rank rule.

    Nearest rank returns a measured sample, never an interpolation, so a p90
    over ``n`` samples leaves ``n - ceil(0.9 n)`` samples strictly above it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must lie in (0, 100], got {q}")
    ordered = sorted(values)
    return float(ordered[math.ceil(q / 100.0 * len(ordered)) - 1])


def samples_beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def trimmed_mean(values: Sequence[float], share: float = 0.1) -> float:
    """The mean of the samples left after dropping ``share`` of them at each end.

    A run that mixes fast and slow queries of one class has a two-mode
    sample, whose median jumps between the modes as their counts shift by
    one; the mean moves smoothly with the mix.  Dropping the extremes keeps
    a stall of the host, which a run meets a few times, out of the figure.
    """
    if not values:
        raise ValueError("trimmed mean of an empty sample")
    if not 0 <= share < 0.5:
        raise ValueError(f"trimmed share must lie in [0, 0.5), got {share}")
    ordered = sorted(values)
    cut = int(share * len(ordered))
    kept = ordered[cut : len(ordered) - cut]
    return math.fsum(kept) / len(kept)


# -- failures -----------------------------------------------------------------------

#: Outcome labels of one attempted query; every label but ``ok`` is a failure.
OUTCOMES = ("ok", "raised", "refused", "timed_out", "check_failed")


@dataclass
class Tally:
    """Per-query outcomes, thread-safe; the basis of ``failed``/``attempted``."""

    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(OUTCOMES, 0))
    notes: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, outcome: str, note: str = "") -> None:
        if outcome not in self.counts:
            raise ValueError(f"unknown outcome {outcome!r}")
        with self._lock:
            self.counts[outcome] += 1
            if note and len(self.notes) < 20:
                self.notes.append(f"{outcome}: {note}")

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["ok"]


# -- spans --------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One timed call into a layer; ``count`` is the work it was handed.

    ``self_s`` is the duration minus the part of it covered by child spans.
    """

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    query_id: str | None
    count: int = 0
    self_s: float = 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "query": self.query_id,
            "count": self.count,
            "self_s": self.self_s,
        }


class _Open:
    """A span still on its thread's stack, accumulating its children's time."""

    __slots__ = ("span_id", "query_id", "child_s")

    def __init__(self, span_id: int, query_id: str | None) -> None:
        self.span_id = span_id
        self.query_id = query_id
        self.child_s = 0.0


@dataclass
class LayerTotals:
    """Per span name: calls, summed work counts, summed self and total time."""

    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    work: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    total_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def add(self, name: str, count: int, self_s: float, total_s: float) -> None:
        self.calls[name] += 1
        self.work[name] += count
        self.self_s[name] += self_s
        self.total_s[name] += total_s

    def merge(self, other: LayerTotals) -> None:
        for mine, theirs in (
            (self.calls, other.calls),
            (self.work, other.work),
            (self.self_s, other.self_s),
            (self.total_s, other.total_s),
        ):
            for key, value in theirs.items():
                mine[key] += value

    def to_json(self) -> dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "work": dict(self.work),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> LayerTotals:
        totals = cls()
        for key in ("calls", "work", "self_s", "total_s"):
            getattr(totals, key).update(payload[key])
        return totals


class SpanRecorder:
    """In-memory span store fed by wrappers installed around layer callables.

    Parents come from a per-thread stack, so a span opened inside another on
    the same thread is its child; spans opened on worker threads are roots.
    Self time is computed as each span closes.  Spans of per-frame calls are
    folded into :attr:`folded` instead of being kept one by one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.folded = LayerTotals()
        self.counters: dict[str, float] = defaultdict(float)
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()

    # .. recording ..................................................................

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple[Any, ...] = (),
        kwargs: dict[str, Any] | None = None,
        count: int = 0,
        query_id: str | None = None,
        keep: bool = True,
    ) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        opened = _Open(
            next(self._ids),
            query_id if query_id is not None else (parent.query_id if parent else None),
        )
        stack.append(opened)
        start = self._clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = self._clock()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent.child_s += duration
            own = max(0.0, duration - opened.child_s)
            if keep:
                self.spans.append(Span(
                    opened.span_id,
                    parent.span_id if parent else None,
                    name, start, end, opened.query_id, count, own,
                ))
            else:
                with self._lock:
                    self.folded.add(name, count, own, duration)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Bump a named counter (work counted at a layer boundary)."""
        with self._lock:
            self.counters[name] += amount

    def totals(self) -> LayerTotals:
        """Per-name totals over kept and folded spans."""
        totals = LayerTotals()
        totals.merge(self.folded)
        for span in self.spans:
            totals.add(span.name, span.count, span.self_s, span.end - span.start)
        return totals

    # .. wrapper installation .......................................................

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        count: Callable[..., int] | None = None,
        query_id: Callable[..., str | None] | None = None,
        keep: bool = True,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``owner`` is the module or class the caller looks the callable up
        through; ``count`` and ``query_id`` derive the span's work count and
        query id from the call's arguments; ``keep=False`` folds the spans
        (for calls made once per frame).
        """
        original = _attribute(owner, attribute)
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return recorder.call(
                name,
                original,
                args,
                kwargs,
                count(*args, **kwargs) if count is not None else 0,
                query_id(*args, **kwargs) if query_id is not None else None,
                keep,
            )

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", attribute)
        self.replace(owner, attribute, wrapper)

    def replace(self, owner: Any, attribute: str, replacement: Any) -> None:
        """Install ``replacement`` at ``owner.attribute``, undone by :meth:`uninstall`."""
        self._installed.append((owner, attribute, _attribute(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every replaced attribute, last installed first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # .. output .....................................................................

    def dump(self, path: str, extra: dict[str, Any] | None = None) -> None:
        """Write ``extra``, the counters, folded totals and every kept span."""
        payload = dict(extra or {})
        payload["counters"] = dict(self.counters)
        payload["folded"] = self.folded.to_json()
        payload["spans"] = [span.to_json() for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _attribute(owner: Any, attribute: str) -> Any:
    """The raw attribute: a class's own function, not an inherited or bound one."""
    return owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)


def totals_from_dump(payload: dict[str, Any]) -> LayerTotals:
    """Per-name totals of a :meth:`SpanRecorder.dump` document."""
    totals = LayerTotals.from_json(payload["folded"])
    for row in payload["spans"]:
        totals.add(row["name"], row["count"], row["self_s"], row["end"] - row["start"])
    return totals


# -- /proc --------------------------------------------------------------------------


def proc_peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def proc_cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU seconds a process has used, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        stat = handle.read()
    # The command name may contain spaces; fields resume after its ')'.
    fields = stat[stat.rindex(")") + 2 :].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")
