"""Execution context shared by physical plans.

The context bundles everything a plan needs to run a query over the unseen
("test day") video: the video itself, the labeled set, the configured
detector, an optional recording of the detector's output over the test day
(see :class:`~repro.core.recorded.RecordedDetections`), the UDF registry, the
engine configuration and a seeded random generator.

A context is built per video but may serve many queries: a
:class:`~repro.api.session.QuerySession` caches one context per video so
expensive per-video state (the cheap-feature matrix) is shared, and rebinds
the RNG stream per execution via :meth:`ExecutionContext.bind_rng` so
repeated approximate queries draw independent samples.

It also centralises detector access so every plan charges detection cost the
same way, whether the output comes from a live detector call or from the
recording.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.config import BlazeItConfig
from repro.core.labeled_set import LabeledSet
from repro.core.recorded import RecordedDetections
from repro.detection.base import (
    DetectionResult,
    ObjectDetector,
    resolve_detection_batch,
)
from repro.metrics.runtime import ExecutionLedger, OperatorCost, RuntimeLedger
from repro.udf.registry import UDFRegistry
from repro.video.synthetic import SyntheticVideo

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a runtime cycle)
    from repro.index.view import IndexView
    from repro.obs.trace import Tracer
    from repro.parallel.cache import SharedDetectionCache
    from repro.parallel.executor import ShardDriver
    from repro.video.synthetic import Track, VideoSpec


@dataclass(frozen=True)
class ContextSpec:
    """Picklable recipe for rebuilding a shard worker's detection context.

    Process shard workers cannot share the driver's :class:`ExecutionContext`
    (it holds threads' worth of unpicklable, driver-only state); instead they
    receive this spec and rebuild exactly what speculative detection needs —
    the video, reconstructed bit-for-bit from its spec and track list, and
    the detector, whose output is deterministic per (detector seed, video
    seed, frame index).  Everything else (ledger, caches, RNG streams,
    recording) stays on the driver, which charges on consumption.
    """

    video_spec: "VideoSpec"
    tracks: "tuple[Track, ...]"
    detector: ObjectDetector

    def build_video(self) -> SyntheticVideo:
        """Rebuild the exact video (works for sliced videos too)."""
        return SyntheticVideo(self.video_spec, list(self.tracks))


@dataclass
class ExecutionContext:
    """Everything a physical plan needs to execute one query."""

    video: SyntheticVideo
    detector: ObjectDetector
    udf_registry: UDFRegistry
    config: BlazeItConfig
    labeled_set: LabeledSet | None = None
    recorded: RecordedDetections | None = None
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )
    #: Seed sequence this context's RNG stream was spawned from; the parallel
    #: engine spawns one child per shard from it (keyed by shard id), so
    #: shard-local randomness is reproducible and independent.
    seed_sequence: np.random.SeedSequence | None = field(default=None, repr=False)
    #: Process-wide cross-query detection cache (``None`` when disabled):
    #: consulted before the detector is called and before any charge is made.
    shared_cache: "SharedDetectionCache | None" = field(default=None, repr=False)
    #: Namespace of this context's frames in the shared cache (video name
    #: plus detector identity, built by the engine).
    cache_key: str = ""
    #: Persistent-index view for this video (``None`` when no committed index
    #: matches the cache key): serves exact persisted detector output — and
    #: sketch-proven skips — before any detector charge.
    index_view: "IndexView | None" = field(default=None, repr=False)
    #: Span tracer for this execution (``None`` — the default — disables
    #: tracing at true zero overhead; see :mod:`repro.obs.trace`).  Sessions
    #: attach a fresh tracer per traced execution on a private context copy;
    #: shard workers never receive it — their spans ship back over the
    #: executor transport and are stitched in driver-side.
    tracer: "Tracer | None" = field(default=None, repr=False)
    _features_cache: np.ndarray | None = field(default=None, repr=False)
    _prefetcher: "ShardDriver[Any] | None" = field(default=None, repr=False)

    def bind_rng(self, rng: np.random.Generator) -> ExecutionContext:
        """Attach the RNG stream for the next execution and return ``self``.

        Sessions call this before every plan execution so each run of a
        (possibly shared) context samples from its own stream.
        """
        self.rng = rng
        return self

    # -- parallel execution hooks ------------------------------------------------------

    def execution_clone(
        self,
        rng: np.random.Generator,
        seed_sequence: np.random.SeedSequence | None = None,
    ) -> ExecutionContext:
        """A private copy of this context for one (parallel) execution.

        Shares every per-video asset — video, detector, recording, labeled
        set, shared cache and the feature matrix if already computed — but
        owns its RNG binding, so a parallel execution can never contaminate
        the session's cached context while its stream is live.
        """
        return dataclasses.replace(
            self, rng=rng, seed_sequence=seed_sequence, _prefetcher=None
        )

    def shard_context(self, rng: np.random.Generator) -> ExecutionContext:
        """The context one shard worker computes detections in.

        Workers share the read-only assets (video, detector, recording,
        shared cache) but never the driver's RNG, prefetcher or feature
        cache; their detection work is uncharged — the driver charges on
        consumption.
        """
        return dataclasses.replace(
            self,
            rng=rng,
            seed_sequence=None,
            tracer=None,
            _prefetcher=None,
            _features_cache=None,
        )

    def with_prefetcher(self, prefetcher: "ShardDriver[Any]") -> ExecutionContext:
        """Attach a detection prefetcher (driver side of parallel execution)."""
        self._prefetcher = prefetcher
        return self

    def spawn_spec(self) -> ContextSpec:
        """Export the picklable :class:`ContextSpec` for process shard workers.

        Raises :class:`~repro.errors.SpawnExportError` when the context
        cannot cross a process boundary: a recording replaces the detector as
        the source of truth and lives only on the driver, and a detector that
        will not pickle cannot be rebuilt in a worker.  Routing treats the
        error as "use threads instead".
        """
        import pickle

        from repro.errors import SpawnExportError

        if self.recorded is not None:
            raise SpawnExportError(
                "context replays a recorded test day; recordings are "
                "driver-only, so process workers cannot reproduce them"
            )
        try:
            pickle.dumps(self.detector)
        except Exception as exc:
            raise SpawnExportError(
                f"detector {self.detector.name!r} is not picklable: {exc}"
            ) from exc
        return ContextSpec(
            video_spec=self.video.spec,
            tracks=tuple(self.video.tracks),
            detector=self.detector,
        )

    def announce_access_plan(
        self, frame_order: np.ndarray, monotone: bool = False
    ) -> None:
        """Declare the frame order this execution is about to verify.

        A no-op on sequential executions; under parallel execution this is
        the signal that starts the shard workers prefetching (see
        :meth:`repro.parallel.executor.ShardDriver.announce`).
        Plans call it exactly when their candidate order becomes known — a
        scan range, a sampling permutation, an importance ranking.
        """
        if self._prefetcher is not None:
            self._prefetcher.announce(frame_order, monotone=monotone)

    # -- detector access -----------------------------------------------------------

    def detect(
        self,
        frame_index: int,
        ledger: RuntimeLedger | None = None,
        cost_scale: float = 1.0,
    ) -> DetectionResult:
        """Run (or replay) object detection on one test-day frame.

        A batch of one: see :meth:`detect_batch` for the tiers and charging.
        """
        return self.detect_batch([frame_index], ledger, cost_scale)[0]

    def detect_batch(
        self,
        frame_indices: np.ndarray | list[int],
        ledger: RuntimeLedger | None = None,
        cost_scale: float = 1.0,
    ) -> list[DetectionResult]:
        """Run (or replay) detection on a batch of frames, charging once.

        The single detection resolver.  Each frame is served by the first
        tier that has it:

        1. the :class:`ExecutionLedger` per-execution cache (a cache hit);
        2. the process-wide shared cache, then the persistent index — both
           uncharged (see :meth:`_serve_uncharged`);
        3. the parallel prefetch pipeline, the recording, or the detector's
           vectorized :meth:`~repro.detection.base.ObjectDetector.detect_many`
           — charged to ``ledger`` with a single ``charge(cost, count)``,
           scaled by ``cost_scale`` when a spatial filter cropped the frame,
           and written back to the shared cache.

        Repeated frames within the batch are computed once; under an
        execution ledger the repeats are accounted as cache hits, exactly as
        a sequence of single-frame calls would be (the shared semantics live
        in :func:`~repro.detection.base.resolve_detection_batch`).
        """
        indices = np.asarray(frame_indices, dtype=np.int64)
        execution_ledger = ledger if isinstance(ledger, ExecutionLedger) else None
        served = self._serve_uncharged(indices, execution_ledger)

        def compute_misses(miss_frames: list[int]) -> list[DetectionResult]:
            charged = [f for f in miss_frames if f not in served]
            if ledger is not None and charged:
                ledger.charge(self._scaled_cost(cost_scale), len(charged))
            computed = dict(zip(charged, self._compute_batch(charged), strict=True))
            if self.shared_cache is not None and computed:
                self.shared_cache.put_many(self.cache_key, computed)
            computed.update(served)
            return [computed[f] for f in miss_frames]

        return resolve_detection_batch(indices, execution_ledger, compute_misses)

    def _serve_uncharged(
        self, indices: np.ndarray, execution_ledger: ExecutionLedger | None
    ) -> dict[int, DetectionResult]:
        """Look frames up in the uncharged tiers: shared cache, then index.

        Each distinct frame not already in the execution cache is looked up
        once.  The index serves exact persisted detector output — decoded
        from its memory-mapped segment, or synthesized when the range sketch
        proves the range empty.  Under an execution ledger the hits are
        seeded into its cache (the resolver then counts them as cache hits)
        and nothing is returned; without one they are returned for
        :meth:`detect_batch` to serve directly.
        """
        if self.shared_cache is None and self.index_view is None:
            return {}
        unseen = [
            f
            for f in dict.fromkeys(int(i) for i in indices)
            if execution_ledger is None or execution_ledger.cached_detection(f) is None
        ]
        hits: dict[int, DetectionResult] = {}
        if self.shared_cache is not None and unseen:
            hits = self.shared_cache.get_many(self.cache_key, unseen)
            if execution_ledger is not None:
                for frame_index, result in hits.items():
                    execution_ledger.stash_detection(frame_index, result)
        if self.index_view is not None:
            for frame_index in (f for f in unseen if f not in hits):
                indexed = self.index_view.get(frame_index)
                if indexed is None:
                    continue
                result, skipped = indexed
                hits[frame_index] = result
                if execution_ledger is not None:
                    execution_ledger.stash_index_detection(frame_index, result, skipped)
        return {} if execution_ledger is not None else hits

    def _compute_batch(self, miss_frames: list[int]) -> list[DetectionResult]:
        """Produce the charged frames: prefetch, recording, or detector."""
        if not miss_frames:
            return []
        prefetched: dict[int, DetectionResult] = {}
        if self._prefetcher is not None:
            prefetched = self._prefetcher.take_many(miss_frames)
        remaining = [f for f in miss_frames if f not in prefetched]
        if remaining:
            if self.recorded is not None:
                computed = {f: self.recorded.result(f) for f in remaining}
            else:
                computed = dict(
                    zip(remaining, self.detector.detect_many(self.video, remaining), strict=True)
                )
            prefetched.update(computed)
        return [prefetched[f] for f in miss_frames]

    def _scaled_cost(self, cost_scale: float) -> OperatorCost:
        """The detector's per-call cost, reduced by a spatial-crop scale."""
        cost = self.detector.cost
        if cost_scale == 1.0:
            return cost
        return OperatorCost(
            name=cost.name, seconds_per_call=cost.seconds_per_call * cost_scale
        )

    def detect_counts_batch(
        self,
        frame_indices: np.ndarray,
        object_class: str,
        ledger: RuntimeLedger | None = None,
    ) -> np.ndarray:
        """Detected counts of one class over a batch, via :meth:`detect_batch`.

        With a persistent index attached, frames whose covering sketch range
        provably contains zero instances of ``object_class`` are answered
        ``0.0`` directly — no segment decode, no detector call (invariant I7:
        the sketch is exact, so the skip cannot change the count).  Frames
        already in the execution cache keep their normal cache-hit accounting
        by routing through :meth:`detect_batch`.
        """
        indices = np.asarray(frame_indices, dtype=np.int64)
        execution_ledger = ledger if isinstance(ledger, ExecutionLedger) else None
        proven_zero = np.zeros(indices.shape[0], dtype=bool)
        if self.index_view is not None:
            for row, frame_index in enumerate(indices.tolist()):
                proven_zero[row] = (
                    execution_ledger is None
                    or execution_ledger.cached_detection(frame_index) is None
                ) and self.index_view.class_count_zero(frame_index, object_class)
            if execution_ledger is not None and proven_zero.any():
                execution_ledger.record_index_skip(int(proven_zero.sum()))
        counts = np.zeros(indices.shape[0], dtype=np.float64)
        needed = np.flatnonzero(~proven_zero)
        results = self.detect_batch(indices[needed], ledger)
        counts[needed] = [result.count(object_class) for result in results]
        return counts

    # -- cheap features ---------------------------------------------------------------

    def test_features(self, frame_indices: np.ndarray | None = None) -> np.ndarray:
        """Cheap per-frame features of the test day.

        The full-feature matrix is cached because several plans (specialized
        rewriting, control variates, scrubbing) all need it.  Feature
        extraction cost is folded into the specialized-NN inference cost, so
        no separate charge is made here.
        """
        if frame_indices is not None:
            return self.video.frame_features(np.asarray(frame_indices, dtype=np.int64))
        if self._features_cache is None:
            self._features_cache = self.video.frame_features(
                np.arange(self.video.num_frames)
            )
        return self._features_cache

    # -- labeled-set conveniences ---------------------------------------------------------

    def require_labeled_set(self) -> LabeledSet:
        """The labeled set, raising a clear error when it was never built."""
        if self.labeled_set is None:
            raise RuntimeError(
                "this query plan needs a labeled set; call "
                "BlazeIt.build_labeled_set() (or register the video with "
                "train/heldout splits) first"
            )
        return self.labeled_set
