"""Physical plan for cardinality-limited scrubbing queries (Section 7).

The plan composes :class:`~repro.optimizer.operators.ImportanceOrderedScan`
(a multi-head count-specialized NN ranking every unseen frame by the sum of
per-class ``P(count >= N)`` confidences) with
:class:`~repro.optimizer.operators.DetectorVerifier` (full-detector
verification down the ranking until the requested number of verified frames
is found).  When there are no instances of the event in the training set the
plan defaults to an exhaustive sequential scan, as the paper prescribes; the
cost-based optimizer can also force that strategy outright via ``strategy``.

The ``indexed`` flag reproduces the "BlazeIt (indexed)" variant of Figure 6:
the specialized NN is assumed to have been trained and evaluated ahead of time
(for example by a previous aggregate query), so neither its training nor its
inference cost is charged to this query.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

from repro.api.hints import QueryHints, require_hints
from repro.core.context import ExecutionContext
from repro.core.events import (
    Completed,
    ExecutionControl,
    ExecutionEvent,
    Progress,
)
from repro.core.results import OperatorNode, ScrubbingQueryResult
from repro.errors import PlanningError
from repro.frameql.analyzer import ScrubbingQuerySpec
from repro.metrics.runtime import ExecutionLedger
from repro.optimizer.base import CostEstimate, PhysicalPlan
from repro.optimizer.operators import DetectorVerifier, ImportanceOrderedScan
from repro.scrubbing.importance import ScrubbingResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.statistics import VideoStatistics
    from repro.core.labeled_set import LabeledSet

#: Multiplier on ``limit / event_rate`` when bounding verification work: the
#: ranking concentrates positives near the front, so random-order cost is
#: already generous; the slack covers ranking noise and gap rejections.
_VERIFY_SLACK = 3.0

#: Floor on the ranked-verification estimate, in multiples of the limit.
_VERIFY_FLOOR = 8


class ScrubbingQueryPlan(PhysicalPlan):
    """Importance-ranked scrubbing with detector verification."""

    def __init__(
        self,
        spec: ScrubbingQuerySpec,
        indexed: bool | None = None,
        hints: QueryHints | None = None,
        strategy: str | None = None,
    ) -> None:
        if not spec.min_counts:
            raise PlanningError("scrubbing queries need at least one count predicate")
        if spec.limit < 1:
            raise PlanningError(f"LIMIT must be >= 1, got {spec.limit}")
        if strategy not in (None, "importance", "exhaustive"):
            raise PlanningError(
                f"unknown scrubbing strategy {strategy!r}; "
                "expected 'importance' or 'exhaustive'"
            )
        self.spec = spec
        self.hints = require_hints(hints) or QueryHints()
        # The explicit ``indexed`` argument (historical API, still the second
        # positional parameter) wins over hints.
        self.indexed = self.hints.scrubbing_indexed if indexed is None else indexed
        #: Forced strategy; ``None`` ranks when the training day has
        #: instances of the event and falls back to the exhaustive scan
        #: otherwise (the paper's rule).
        self.strategy = strategy
        self._ranking = ImportanceOrderedScan(spec.min_counts, indexed=self.indexed)
        self._verifier = DetectorVerifier(spec.min_counts, gap=spec.gap)

    def describe(self) -> str:
        predicate = " AND ".join(
            f"{cls}>={count}" for cls, count in sorted(self.spec.min_counts.items())
        )
        suffix = " (indexed)" if self.indexed else ""
        if self.strategy is not None:
            suffix += f" (strategy={self.strategy})"
        return f"ScrubbingQueryPlan({predicate}, limit={self.spec.limit}){suffix}"

    def uses_importance_ranking(self, labeled_set: LabeledSet | None) -> bool:
        """Whether execution will take the importance-ranked path.

        Mirrors the decision :meth:`_stream` makes: a forced strategy wins
        outright, otherwise the ranking runs exactly when the training day
        contains instances of the event (the paper's rule).
        """
        if self.strategy is not None:
            return self.strategy == "importance"
        return (
            labeled_set is not None
            and labeled_set.training_instances(self.spec.min_counts) > 0
        )

    def parallel_profitable(self, context: ExecutionContext) -> bool:
        """Statistics-free gate: decline routed parallelism.

        With catalog statistics :func:`~repro.optimizer.cost.route_parallelism`
        prices this per query and reaches the same conclusion on the merits:
        scrubbing verifies a handful of frames and stops at its ``LIMIT``, so
        the speculative prefetch is almost pure waste — measured as a 0.44x
        *regression* at 4 workers before the cost model existed.  Without
        statistics there is nothing to price, so the router takes this
        conservative decline as its verdict.  An explicit per-call
        ``parallelism=`` still shards (results stay bit-identical, only
        wall-clock differs).
        """
        return False

    def operator_tree(
        self,
        num_frames: int | None = None,
        stats: VideoStatistics | None = None,
    ) -> OperatorNode:
        predicate = " AND ".join(
            f"{cls}>={count}" for cls, count in sorted(self.spec.min_counts.items())
        )
        calls: int | None = None
        verify_seconds: float | None = None
        ranking_calls: int | None = None
        ranking_seconds: float | None = None
        if num_frames is not None and stats is not None:
            calls = self.estimate_detector_calls(num_frames, stats)
            verify_seconds = stats.detector_seconds(calls)
            ranking_calls = 0
            if not self.indexed:
                ranking_seconds = (
                    stats.specialized_training_seconds()
                    + stats.specialized_inference_seconds(num_frames)
                )
        verifier_node = OperatorNode(
            "DetectorVerifier",
            detail=(
                "sequential scan"
                if self.strategy == "exhaustive"
                else "down the ranking"
            ),
            estimated_detector_calls=calls,
            estimated_seconds=verify_seconds,
        )
        if self.strategy == "exhaustive":
            children: tuple[OperatorNode, ...] = (verifier_node,)
        else:
            children = (
                OperatorNode(
                    "ImportanceOrderedScan",
                    detail="pre-indexed" if self.indexed else "trained per query",
                    estimated_detector_calls=ranking_calls,
                    estimated_seconds=ranking_seconds,
                ),
                verifier_node,
            )
        return OperatorNode(
            "ScrubbingQueryPlan",
            detail=f"{predicate}, limit={self.spec.limit}, gap={self.spec.gap}",
            children=children,
        )

    def estimate_detector_calls(
        self, num_frames: int, stats: VideoStatistics | None = None
    ) -> int:
        if stats is None:
            # Without statistics the only certain bound is the full video
            # (ranked verification plus the exhaustive fallback sweep never
            # re-charge a frame, so together they touch each frame once).
            return num_frames
        rate = stats.event_rate(self.spec.min_counts)
        if self.strategy != "exhaustive" and stats.training_event_count(
            self.spec.min_counts
        ) <= 0:
            # The plan will fall back to the exhaustive sequential scan.
            return num_frames
        if rate <= 0.0:
            return num_frames
        # Frames examined before the limit-th event at held-out rate ``rate``,
        # with slack; the ranked scan concentrates positives near the front,
        # so the same figure bounds it comfortably.  A GAP constraint forces
        # every hit into a different stretch of the video — (limit-1)*gap
        # frames must be crossed regardless of the event rate, and on bursty
        # videos the empty stretches between bursts are charged — so the gap
        # budget is added on top.
        expected = math.ceil(self.spec.limit / rate * _VERIFY_SLACK)
        bound = max(self.spec.limit * _VERIFY_FLOOR, expected)
        bound += (self.spec.limit - 1) * self.spec.gap
        return min(num_frames, bound)

    def estimate_cost(
        self, num_frames: int, stats: VideoStatistics | None = None
    ) -> CostEstimate:
        base = super().estimate_cost(num_frames, stats)
        if stats is None or self.strategy == "exhaustive" or self.indexed:
            return base
        if stats.training_event_count(self.spec.min_counts) <= 0:
            # No training instances: the ranking never trains at runtime.
            return base
        return CostEstimate(
            detector_calls=base.detector_calls,
            detector_seconds=base.detector_seconds,
            training_seconds=stats.specialized_training_seconds(),
            inference_seconds=stats.specialized_inference_seconds(num_frames),
        )

    # -- execution ----------------------------------------------------------------

    def _stream(
        self, context: ExecutionContext, control: ExecutionControl
    ) -> Iterator[ExecutionEvent]:
        ledger = ExecutionLedger()
        limit = control.effective_limit(self.spec.limit)
        labeled = context.labeled_set
        use_importance = self.uses_importance_ranking(labeled)
        result = ScrubbingResult()
        if not use_importance:
            method = "exhaustive"
            description = (
                "no training instances of the event: sequential detection scan"
                if self.strategy is None
                else "forced exhaustive sequential detection scan"
            )
            yield Progress(
                phase="detection_scan", total_frames=context.video.num_frames
            )
            # Shard-aware entry: the exhaustive walk visits frames in
            # ascending order, so shard workers prefetch their ranges while
            # the verifier consumes front-to-back (bounded speculation keeps
            # overshoot small when the LIMIT fires early).
            context.announce_access_plan(np.arange(context.video.num_frames))
            with self._verifier.traced(context, ledger):
                yield from self._verifier.stream(
                    context, control, ledger,
                    np.arange(context.video.num_frames), limit, result,
                )
        else:
            method = "importance_indexed" if self.indexed else "importance"
            description = (
                "specialized NN ranks frames by conjunction confidence; "
                "detector verifies down the ranking"
            )
            yield Progress(
                phase="importance_ranking", total_frames=context.video.num_frames
            )
            with self._ranking.traced(context, ledger):
                order = self._ranking.order(context, ledger)
            # Shard-aware entry: each shard worker verifies its frames in
            # ranking-restricted order — exactly the subsequence the global
            # gap/limit walk will consume from it — so the hit set (and its
            # order) is identical to the sequential walk at any parallelism.
            context.announce_access_plan(order)
            with self._verifier.traced(context, ledger):
                yield from self._verifier.stream(
                    context, control, ledger, order, limit, result
                )
            if not result.satisfied and control.stop_reason is None:
                # Exhaustive fallback: sweep only frames the ranked scan
                # never examined — detections already computed during the
                # importance scan are reused via the ledger's seen-frame
                # set, never re-requested from the detector.  When the
                # ranked scan examined everything there is nothing to sweep.
                remaining = np.setdiff1d(
                    np.arange(context.video.num_frames),
                    np.fromiter(ledger.seen_frames, dtype=np.int64, count=-1),
                )
                if remaining.size:
                    yield Progress(
                        phase="exhaustive_fallback",
                        frames_scanned=ledger.frames_decoded,
                        detector_calls=ledger.detector_calls,
                        total_frames=context.video.num_frames,
                    )
                    with self._verifier.traced(context, ledger):
                        yield from self._verifier.stream(
                            context, control, ledger, remaining, limit, result
                        )
        if result.satisfied and limit < self.spec.limit:
            control.note_stop("limit")
        frames = sorted(result.frames)
        yield Completed(
            ScrubbingQueryResult(
                kind="scrubbing",
                method=method,
                ledger=ledger,
                detection_calls=ledger.detector_calls,
                plan_description=description,
                frames=frames,
                timestamps=[context.video.timestamp_of(f) for f in frames],
                limit=self.spec.limit,
                # ``satisfied`` keeps its blocking-API meaning — the query's
                # own LIMIT was reached — so a run truncated by a tighter
                # stop-condition limit reports satisfied=False.
                satisfied=result.satisfied and limit >= self.spec.limit,
            ),
            stop_reason=control.stop_reason,
        )
