"""Shard workers: speculative, ordered detection prefetch.

:class:`ShardDriver` is the driver half of the parallel engine, shared by
both backends.  The driving plan runs unchanged on the driver thread; when it
announces the frame order it is about to verify (a scan range, a sampling
permutation, an importance ranking), the driver splits that order across the
shards of a :class:`~repro.parallel.shards.ShardPlan` and starts one worker
per shard.  Each worker computes detections for its shard's frames *in the
announced order* and streams them back chunk by chunk.

The plan consumes through :meth:`ShardDriver.take`: because it visits each
shard's frames in exactly the order the worker produces them, a take either
finds the frame buffered (skipping frames the plan decided not to verify —
their speculative detections are discarded) or pulls chunks until the worker
catches up.  Charging stays entirely on the driver side: workers never touch
the execution ledger, so the simulated-cost accounting of a parallel run is
bit-for-bit the sequential one, and speculative overshoot costs wall-clock
only.  A worker that ends early (an error, a crash) finishes its shard;
``take`` then returns ``None`` and the plan computes the frame inline.

A backend supplies only the transport: ``_launch`` starts a shard's worker,
``_pull`` moves the next chunk into the shard's buffer (or finishes a shard
whose worker is gone), and ``shutdown`` stops and reaps the workers.
:class:`DetectionPrefetcher` is the thread backend: one worker thread per
shard, each in its own :class:`~repro.core.context.ExecutionContext`
(spawned RNG stream keyed by shard id), feeding a bounded per-shard queue.
The process backend lives in :mod:`repro.parallel.process_executor`.

Cancellation is cooperative and prompt: workers watch both the execution's
:class:`~repro.stopping.CancellationToken` (a LIMIT satisfied across shards,
a cancelled stream) and the driver's own shutdown token (stream closed,
execution completed), checking between detection chunks.  ``shutdown``
joins every worker, so once it returns no further detector call can happen.
"""

from __future__ import annotations

import abc
import queue
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generic, TypeVar

import numpy as np

from repro.core.events import ShardProgress
from repro.parallel.shards import Shard, ShardPlan
from repro.stopping import CancellationToken

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import ExecutionContext
    from repro.detection.base import DetectionResult

#: Default bound (in chunks) on how far one worker may run ahead of the
#: driver's consumption when the access order is not announced as monotone.
DEFAULT_WINDOW_CHUNKS = 8

#: Poll interval for cancel-aware blocking queue operations.
POLL_SECONDS = 0.05

_DONE = object()  # per-shard end-of-worklist sentinel


@dataclass
class ShardState:
    """Driver-side bookkeeping for one shard, common to every backend."""

    shard: Shard
    frames: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    position_of: dict[int, int] = field(default_factory=dict)
    buffer: "dict[int, DetectionResult]" = field(default_factory=dict)
    consumed: int = 0  # positions < consumed have been taken or passed
    monotone: bool = False  # the driver consumes the shard front to back
    started: bool = False
    finished: bool = False  # end of the worker's stream seen, or worker dead


StateT = TypeVar("StateT", bound=ShardState)


class ShardDriver(abc.ABC, Generic[StateT]):
    """The driver side of per-shard speculative detection.

    Attached to the driver's context (see
    :func:`repro.parallel.plan.parallel_events`) so plan code needs no
    parallel-specific branches — the announce/take protocol hides entirely
    behind ``ExecutionContext.detect_batch``.
    """

    def __init__(
        self,
        shard_plan: ShardPlan,
        states: dict[int, StateT],
        external_cancel: CancellationToken,
        chunk_size: int,
        window_chunks: int,
    ) -> None:
        self.shard_plan = shard_plan
        self.chunk_size = max(1, chunk_size)
        self.window_chunks = max(1, window_chunks)
        self._external_cancel = external_cancel
        self._shutdown = CancellationToken()
        self._states = states
        self._announced = False
        self._lock = threading.Lock()
        self.progress_events: "queue.SimpleQueue[ShardProgress]" = queue.SimpleQueue()
        #: Frames computed speculatively by workers (consumed or not); the
        #: difference to the driver's charged calls is the speculation cost.
        self.frames_prefetched = 0
        #: Per-shard span payloads (wall time, frames, chunks) reported by
        #: workers on exit, keyed by shard id; stitched into the driver's
        #: trace after shutdown.
        self._worker_spans: dict[int, dict[str, Any]] = {}

    # -- driver-side protocol -------------------------------------------------------

    def announce(
        self, frame_order: np.ndarray | Iterable[int], monotone: bool = False
    ) -> None:
        """Declare the frame order the plan is about to verify.

        Only the first announcement takes effect (a plan's later phases —
        e.g. a scrubbing fallback sweep — revisit frames already planned);
        frames outside the announced order are simply computed inline by the
        caller.  ``monotone`` promises the driver consumes shards strictly
        front-to-back (full scans), which lets a backend lift its
        speculation window so trailing shards can prefetch their whole range.
        """
        if self._announced or self._cancelled():
            return
        # Only the driver thread calls announce(), before any worker reads
        # the flag; taking a lock here would suggest cross-thread traffic
        # that doesn't exist.
        self._announced = True  # repro: allow[RPR003]: driver-thread-only state
        order = np.asarray(
            frame_order if isinstance(frame_order, np.ndarray) else list(frame_order),
            dtype=np.int64,
        )
        shard_ids = self.shard_plan.owners_of(order)
        for shard_id, state in self._states.items():
            state.frames = order[shard_ids == shard_id]
            state.position_of = {int(f): i for i, f in enumerate(state.frames)}
            state.monotone = monotone
        # Eager workers in density order (NeedleTail scheduling): pruned
        # shards wait for an actual request for one of their frames.
        for shard in self.shard_plan.scheduling_order():
            if not shard.pruned:
                self._start_worker(self._states[shard.shard_id])

    def take(self, frame_index: int) -> "DetectionResult | None":
        """The prefetched detection for a frame, or ``None`` to compute inline.

        Blocks while the owning worker is still ahead of this frame; returns
        ``None`` when the frame was never announced, was already passed, the
        pipeline is shutting down, or the worker is gone — callers fall back
        to a direct (charged) detector call, so a ``None`` is always safe.
        """
        if not self._announced:
            return None
        state = self._states[self.shard_plan.owner_of(int(frame_index)).shard_id]
        position = state.position_of.get(int(frame_index))
        if position is None or position < state.consumed:
            return None
        if not state.started:
            self._start_worker(state)
        while True:
            result = state.buffer.get(int(frame_index))
            if result is not None:
                state.consumed = position + 1
                self._purge_passed(state)
                return result
            if state.finished or self._cancelled():
                return None
            self._pull(state)

    def take_many(
        self, frame_indices: Iterable[int]
    ) -> "dict[int, DetectionResult]":
        """Prefetched detections for a batch (hits only), in driver order."""
        out: "dict[int, DetectionResult]" = {}
        if not self._announced:
            return out
        for frame_index in frame_indices:
            result = self.take(int(frame_index))
            if result is not None:
                out[int(frame_index)] = result
        return out

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Stop every worker and reap it; no detector call can follow."""

    def worker_spans(self) -> "list[dict[str, Any]]":
        """Span payloads of every reporting worker, in shard-id order.

        Call after :meth:`shutdown`: workers report on exit, so reaped
        workers have all reported (a worker that died without reporting
        simply has no span).  Wall durations are display-only (the tracer's
        determinism contract); identity comes from shard ids.
        """
        with self._lock:
            return [self._worker_spans[k] for k in sorted(self._worker_spans)]

    # -- transport hooks ------------------------------------------------------------

    @abc.abstractmethod
    def _launch(self, state: StateT) -> None:
        """Start the worker for a shard with a non-empty worklist."""

    @abc.abstractmethod
    def _pull(self, state: StateT) -> None:
        """Wait briefly for the shard's next chunk and buffer it.

        Returns after at most one poll interval; marks the shard finished on
        its end-of-stream sentinel or when its worker is found dead.
        """

    # -- shared helpers -------------------------------------------------------------

    def _cancelled(self) -> bool:
        return self._shutdown.is_set() or self._external_cancel.is_set()

    def _start_worker(self, state: StateT) -> None:
        with self._lock:
            if state.started:
                return
            state.started = True
            if state.frames.size == 0 or self._cancelled():
                state.finished = True
                return
            self._launch(state)

    def _buffer(self, state: StateT, results: "Iterable[DetectionResult]") -> None:
        """Keep the chunk's results the driver has not yet passed."""
        for result in results:
            position = state.position_of.get(result.frame_index)
            if position is not None and position >= state.consumed:
                state.buffer[result.frame_index] = result

    def _note_chunk(self, state: StateT, frames: int, computed: int) -> None:
        """Count a computed chunk and emit the shard's progress event."""
        with self._lock:
            self.frames_prefetched += frames
        shard = state.shard
        self.progress_events.put(
            ShardProgress(
                shard=shard.shard_id,
                start_frame=shard.start,
                end_frame=shard.end,
                frames_computed=computed,
                shard_frames=int(state.frames.size),
                done=computed >= state.frames.size,
            )
        )

    def _note_span(self, payload: dict[str, Any]) -> None:
        with self._lock:
            self._worker_spans[payload["shard_id"]] = payload

    def _purge_passed(self, state: StateT) -> None:
        if not state.buffer:
            return
        passed = [f for f in state.buffer if state.position_of[f] < state.consumed]
        for f in passed:
            del state.buffer[f]


@dataclass
class _ThreadShardState(ShardState):
    """A shard's worker thread, its context and its chunk queue."""

    context: "ExecutionContext" = field(kw_only=True)
    chunks: "queue.Queue[Any]" = field(default_factory=queue.Queue)
    thread: threading.Thread | None = None


class DetectionPrefetcher(ShardDriver[_ThreadShardState]):
    """Per-shard speculative detection in worker *threads*.

    Built by the parallel stream driver with one worker context per shard
    (see :func:`repro.parallel.plan.parallel_events`).
    """

    def __init__(
        self,
        shard_plan: ShardPlan,
        worker_contexts: Callable[[Shard], "ExecutionContext"],
        external_cancel: CancellationToken,
        chunk_size: int,
        window_chunks: int = DEFAULT_WINDOW_CHUNKS,
    ) -> None:
        super().__init__(
            shard_plan,
            {
                shard.shard_id: _ThreadShardState(
                    shard=shard, context=worker_contexts(shard)
                )
                for shard in shard_plan.shards
            },
            external_cancel,
            chunk_size,
            window_chunks,
        )

    def shutdown(self) -> None:
        """Stop every worker and join them; no detector call can follow."""
        self._shutdown.set()
        for state in self._states.values():
            if state.thread is not None:
                state.thread.join()
                state.thread = None

    # -- transport ------------------------------------------------------------------

    def _launch(self, state: _ThreadShardState) -> None:
        state.chunks = queue.Queue(maxsize=0 if state.monotone else self.window_chunks)
        state.thread = threading.Thread(
            target=self._run_worker,
            args=(state,),
            name=f"repro-shard-{state.shard.shard_id}",
            daemon=True,
        )
        state.thread.start()

    def _pull(self, state: _ThreadShardState) -> None:
        try:
            item = state.chunks.get(timeout=POLL_SECONDS)
        except queue.Empty:
            return
        if item is _DONE:
            state.finished = True
        else:
            self._buffer(state, item)

    # -- worker side ----------------------------------------------------------------

    def _run_worker(self, state: _ThreadShardState) -> None:
        context = state.context
        frames = state.frames
        computed = 0
        chunks = 0
        started = time.perf_counter()  # repro: allow[RPR001]: worker span wall stamping (display only)
        try:
            while computed < frames.size and not self._cancelled():
                chunk = frames[computed : computed + self.chunk_size]
                results = self._compute_chunk(context, chunk)
                if not self._put(state, results):
                    return
                computed += len(chunk)
                chunks += 1
                self._note_chunk(state, len(chunk), computed)
        finally:
            # Always terminate the stream — a worker that dies on a detector
            # or recording error must not leave the driver polling forever.
            # take() then returns None for the shard's remaining frames and
            # the driver computes them inline, reproducing (and surfacing)
            # the error on its own thread with normal charging.
            self._put(state, _DONE)
            wall = time.perf_counter() - started  # repro: allow[RPR001]: worker span wall stamping (display only)
            self._note_span(
                {
                    "shard_id": state.shard.shard_id,
                    "name": "shard_worker",
                    "wall_duration": wall,
                    "frames": computed,
                    "chunks": chunks,
                    "backend": "threads",
                }
            )

    def _compute_chunk(
        self, context: "ExecutionContext", chunk: np.ndarray
    ) -> "list[DetectionResult]":
        """Uncharged detection for one chunk.

        Workers *read* the shared cross-query cache (frames a previous query
        already paid for cost nothing to prefetch) but never write it: only
        the driver populates the cache, on consumption, so an execution's
        own speculative work can never masquerade as a cross-query hit and
        distort its charged accounting.
        """
        frames = [int(f) for f in chunk]
        hits: "dict[int, DetectionResult]" = {}
        if context.shared_cache is not None:
            hits = context.shared_cache.get_many(context.cache_key, frames)
        misses = [f for f in frames if f not in hits]
        if misses:
            if context.recorded is not None:
                fresh = {f: context.recorded.result(f) for f in misses}
            else:
                # Speculative prefetch is intentionally uncharged: the
                # driver charges the ledger when (and only when) a
                # prefetched frame is actually consumed, keeping parallel
                # accounting identical to sequential.
                fresh = dict(
                    zip(misses, context.detector.detect_many(context.video, misses), strict=True)  # repro: allow[RPR002]: uncharged speculation, charged on consumption
                )
            hits.update(fresh)
        return [hits[f] for f in frames]

    def _put(self, state: _ThreadShardState, item: object) -> bool:
        while not self._cancelled():
            try:
                state.chunks.put(item, timeout=POLL_SECONDS)
                return True
            except queue.Full:
                continue
        return False
