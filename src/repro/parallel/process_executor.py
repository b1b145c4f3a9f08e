"""Process shard workers: speculative detection with shared-memory transport.

:class:`ProcessShardExecutor` is the process-backed twin of the thread-based
:class:`~repro.parallel.executor.DetectionPrefetcher`: both build on the
driver core :class:`~repro.parallel.executor.ShardDriver` (announce, take,
progress events, prefetch counts), so
:class:`~repro.core.context.ExecutionContext` needs no backend branches.  Use
it when the detector *holds* the GIL per call (pure-Python compute, a badly
behaved extension): thread workers then serialize while process workers each
own an interpreter.

Workers are spawn-safe: each receives a picklable
:class:`~repro.core.context.ContextSpec` (video spec + track list + detector)
and rebuilds its shard context from scratch — detections are deterministic
per (detector seed, video seed, frame index), so a worker's speculative
output is bit-for-bit what the driver would have computed.  Results travel
as columnar npz payloads through a per-shard ring of shared-memory slots
(:mod:`repro.parallel.shm`); the driver decodes, charges the ledger on
consumption exactly as in sequential execution, and emits
:class:`~repro.core.events.ShardProgress` as headers arrive.  The shared
cross-query cache and recorded detections stay driver-only: a process worker
recomputing a cached frame costs wall-clock, never simulated budget.

Failure handling is fall-back-to-inline, like the thread backend: a worker
that dies (crash, SIGKILL) simply stops publishing; the driver notices the
dead process, marks the shard finished, and ``take`` returns ``None`` so the
plan computes the remaining frames inline with normal charging.  ``shutdown``
terminates stragglers and unlinks every shared-memory segment — the driver
owns them all, so a crashed worker can never leak one.
"""

from __future__ import annotations

import multiprocessing
import queue
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.context import ContextSpec
from repro.detection.columnar import decode_from_bytes, encode_to_bytes
from repro.parallel.executor import POLL_SECONDS, ShardDriver, ShardState
from repro.parallel.shards import ShardPlan
from repro.parallel.shm import SlotRing, attach_slots, detach_slots
from repro.stopping import CancellationToken

__all__ = ["ProcessShardExecutor", "ShardWorkerSpec"]

#: Grace period for worker processes to exit after the stop event is set
#: before the driver escalates to ``terminate()``.
_JOIN_SECONDS = 2.0

#: Size of one shared-memory slot.  A chunk's npz payload is a few tens of
#: kilobytes for realistic detection densities; payloads that still exceed
#: the slot spill to an inline (pickled-bytes) header instead of failing.
DEFAULT_SLOT_BYTES = 1 << 20


@dataclass(frozen=True)
class ShardWorkerSpec:
    """Everything one worker process needs, in picklable form.

    Deliberately plain data — no locks, sockets or driver state — so the
    spawn pickling is cheap and the fork-safety checker (RPR006) has nothing
    to say about it.
    """

    shard_id: int
    context_spec: ContextSpec
    frames: np.ndarray
    chunk_size: int
    slot_names: tuple[str, ...]
    slot_bytes: int


@dataclass
class _ProcessShardState(ShardState):
    """A shard's worker process and its shared-memory transport."""

    process: Any = None
    ring: SlotRing | None = None
    free_slots: Any = None  # mp.Queue[int]
    ready: Any = None  # mp.Queue[header tuple]


class ProcessShardExecutor(ShardDriver[_ProcessShardState]):
    """Per-shard speculative detection in worker *processes*.

    Built by :func:`repro.parallel.plan.parallel_events` when the backend
    decision (optimizer or explicit ``backend="processes"``) selects
    processes.  ``monotone`` announcements need no special case here — the
    slot ring is itself the speculation window, and recycling keeps memory
    bounded for full scans too.
    """

    def __init__(
        self,
        shard_plan: ShardPlan,
        context_spec: ContextSpec,
        external_cancel: CancellationToken,
        chunk_size: int,
        window_chunks: int,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
    ) -> None:
        super().__init__(
            shard_plan,
            {shard.shard_id: _ProcessShardState(shard=shard) for shard in shard_plan.shards},
            external_cancel,
            chunk_size,
            window_chunks,
        )
        self.context_spec = context_spec
        self.slot_bytes = slot_bytes
        self._mp = multiprocessing.get_context("spawn")
        self._stop = self._mp.Event()

    def shutdown(self) -> None:
        """Stop and reap every worker, then unlink every shm segment.

        After this returns no worker process is alive and no shared-memory
        slot remains registered — the driver owns all segments, so even a
        SIGKILLed worker leaks nothing.
        """
        self._shutdown.set()
        self._stop.set()
        for state in self._states.values():
            process = state.process
            if process is not None and process.pid is not None:
                process.join(timeout=_JOIN_SECONDS)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=_JOIN_SECONDS)
                if process.is_alive():  # pragma: no cover - unkillable worker
                    process.kill()
                    process.join()
            state.process = None
            # The exiting worker's ``done`` sentinel (carrying its span
            # payload) may still sit undelivered in the ready queue when the
            # driver stopped taking early; drain it before the transport is
            # torn down so traces keep their worker spans.
            self._drain_done_sentinels(state)
            self._teardown_transport(state)

    def _drain_done_sentinels(self, state: _ProcessShardState) -> None:
        if state.ready is None:
            return
        while True:
            try:
                header = state.ready.get_nowait()
            except (queue.Empty, OSError, ValueError):
                return
            if header[0] == "done":
                self._note_done(state, header)

    def _note_done(self, state: _ProcessShardState, header: tuple[Any, ...]) -> None:
        state.finished = True
        # Arity-tolerant: old-style sentinels are ("done", computed); new
        # workers append their span payload as a third element.
        if len(header) > 2 and isinstance(header[2], dict):
            payload = dict(header[2])
            payload.setdefault("shard_id", state.shard.shard_id)
            self._note_span(payload)

    def _teardown_transport(self, state: _ProcessShardState) -> None:
        """Close the shard's queues and unlink its shm segments."""
        for q in (state.free_slots, state.ready):
            if q is not None:
                q.cancel_join_thread()
                q.close()
        state.free_slots = None
        state.ready = None
        if state.ring is not None:
            state.ring.destroy()
            state.ring = None

    # -- transport ------------------------------------------------------------------

    def _launch(self, state: _ProcessShardState) -> None:
        state.ring = SlotRing(
            state.shard.shard_id, self.window_chunks, self.slot_bytes
        )
        state.free_slots = self._mp.Queue()
        for index in range(self.window_chunks):
            state.free_slots.put(index)
        state.ready = self._mp.Queue()
        spec = ShardWorkerSpec(
            shard_id=state.shard.shard_id,
            context_spec=self.context_spec,
            frames=state.frames,
            chunk_size=self.chunk_size,
            slot_names=state.ring.names,
            slot_bytes=self.slot_bytes,
        )
        state.process = self._mp.Process(
            target=_shard_worker_main,
            args=(spec, state.free_slots, state.ready, self._stop),
            name=f"repro-shard-proc-{state.shard.shard_id}",
            daemon=True,
        )
        try:
            state.process.start()
        except BaseException:
            # Spawn refused — e.g. the interpreter is still bootstrapping
            # because the caller's script lacks an ``if __name__ ==
            # "__main__"`` guard.  Release this shard's segments and queues
            # before propagating, so the subsequent shutdown() neither joins
            # a never-started process nor leaks shared memory.
            state.process = None
            state.finished = True
            self._teardown_transport(state)
            raise

    def _pull(self, state: _ProcessShardState) -> None:
        try:
            header = state.ready.get(timeout=POLL_SECONDS)
        except queue.Empty:
            if state.process is None or state.process.is_alive():
                return
            # Crashed or killed worker: one last drain attempt (the feeder
            # may have flushed after our timed-out get), then finish the
            # shard so the plan computes inline.
            try:
                header = state.ready.get_nowait()
            except queue.Empty:
                state.finished = True
                return
        self._ingest(state, header)

    def _ingest(self, state: _ProcessShardState, header: tuple[Any, ...]) -> None:
        """Decode one publication header into the shard's result buffer."""
        kind = header[0]
        if kind == "done":
            self._note_done(state, header)
            return
        if kind == "slot":
            _, slot_index, nbytes, computed = header
            assert state.ring is not None
            payload = state.ring.read(slot_index, nbytes)
            results = decode_from_bytes(payload)
            state.free_slots.put(slot_index)
        else:  # "inline": payload too large for a slot
            _, payload, computed = header
            results = decode_from_bytes(payload)
        self._buffer(state, results)
        self._note_chunk(state, len(results), computed)


# -- worker process -------------------------------------------------------------------


def _shard_worker_main(
    spec: ShardWorkerSpec, free_slots: Any, ready: Any, stop: Any
) -> None:
    """Entry point of one spawned shard worker.

    Rebuilds the shard's video and detector from the picklable spec, computes
    the announced frames chunk-by-chunk in order, and publishes each chunk's
    columnar payload through the next free shared-memory slot.  Always sends
    the ``done`` sentinel on the way out so a clean exit (worklist drained,
    stop event, detector error) is distinguishable from a crash.
    """
    slots = attach_slots(spec.slot_names)
    computed = 0
    chunks = 0
    started = time.perf_counter()  # repro: allow[RPR001]: worker span wall stamping (display only)
    try:
        video = spec.context_spec.build_video()
        detector = spec.context_spec.detector
        frames = [int(f) for f in spec.frames]
        while computed < len(frames) and not stop.is_set():
            chunk = frames[computed : computed + spec.chunk_size]
            # Speculative prefetch is intentionally uncharged: the driver
            # charges the ledger when (and only when) a prefetched frame is
            # actually consumed, keeping parallel accounting identical to
            # sequential execution.
            results = detector.detect_many(video, chunk)  # repro: allow[RPR002]: uncharged speculation, charged on consumption
            payload = encode_to_bytes(results)
            computed += len(chunk)
            chunks += 1
            if not _publish(payload, computed, slots, free_slots, ready, stop):
                return
    finally:
        wall = time.perf_counter() - started  # repro: allow[RPR001]: worker span wall stamping (display only)
        span_payload = {
            "shard_id": spec.shard_id,
            "name": "shard_worker",
            "wall_duration": wall,
            "frames": computed,
            "chunks": chunks,
            "backend": "processes",
        }
        try:
            ready.put(("done", computed, span_payload))
        except (OSError, ValueError):  # pragma: no cover - driver gone
            pass
        detach_slots(slots)


def _publish(
    payload: bytes,
    computed: int,
    slots: list,
    free_slots: Any,
    ready: Any,
    stop: Any,
) -> bool:
    """Send one chunk payload to the driver; ``False`` when stopping."""
    if len(payload) > slots[0].size:
        # Pathologically dense chunk: fall back to sending the bytes inline
        # through the queue rather than failing the shard.
        ready.put(("inline", payload, computed))
        return True
    while not stop.is_set():
        try:
            slot_index = free_slots.get(timeout=POLL_SECONDS)
        except queue.Empty:
            continue
        slots[slot_index].buf[: len(payload)] = payload
        ready.put(("slot", slot_index, len(payload), computed))
        return True
    return False
