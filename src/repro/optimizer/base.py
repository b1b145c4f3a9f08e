"""Physical plan interface: the pull-based streaming execution protocol.

Every plan executes as a generator of typed
:class:`~repro.core.events.ExecutionEvent` objects (``Progress``,
``EstimateUpdate``, ``ScrubbingHit``, ``SelectionWindow``, terminated by a
single ``Completed`` carrying the full result).  Two consumption styles are
built on the one abstract hook ``_stream``:

* :meth:`PhysicalPlan.run` — the raw event generator (used by
  ``session.stream()``);
* :meth:`PhysicalPlan.execute` — blocking execution, defined as draining the
  stream and returning the terminal result, so blocking and streamed results
  are identical by construction.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.context import ExecutionContext
from repro.core.events import (
    DEFAULT_BATCH_SIZE,
    Completed,
    ExecutionControl,
    ExecutionEvent,
    timed_stream,
)
from repro.core.results import OperatorNode, QueryResult
from repro.errors import ExecutionError
from repro.metrics.runtime import StandardCosts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.statistics import VideoStatistics


@dataclass(frozen=True)
class CostEstimate:
    """Estimated cost of one physical plan (or one operator), pre-execution.

    Detector invocations dominate every realistic query, so they are tracked
    both as a count (the unit the paper reasons in) and as simulated seconds;
    the remaining buckets separate specialization training, specialized-NN
    inference and simple-filter passes so explanations can show where the
    non-detector time goes.
    """

    detector_calls: int = 0
    detector_seconds: float = 0.0
    training_seconds: float = 0.0
    inference_seconds: float = 0.0
    filter_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total estimated simulated runtime."""
        return (
            self.detector_seconds
            + self.training_seconds
            + self.inference_seconds
            + self.filter_seconds
        )

    def describe(self) -> str:
        """Compact human-readable form used by plan explanations."""
        return f"~{self.detector_calls} detector calls, ~{self.total_seconds:.2f}s"


class PhysicalPlan(abc.ABC):
    """A runnable execution strategy for one query."""

    #: The cost estimate the optimizer priced this plan at when it chose it
    #: (``None`` for plans built outside the optimizer).  The parallelism
    #: model reads it so its "expected detector work" agrees with the very
    #: numbers the plan was selected on.
    planned_cost: CostEstimate | None = None

    @abc.abstractmethod
    def _stream(
        self, context: ExecutionContext, control: ExecutionControl
    ) -> Iterator[ExecutionEvent]:
        """Yield execution events, ending with exactly one ``Completed``.

        Implementations check ``control`` at every batch boundary (stop
        conditions, cooperative cancellation) and always finalise a
        well-formed — possibly partial — result.
        """

    def _default_control(self) -> ExecutionControl:
        """A fresh control honouring the plan's hints (chunk size only)."""
        hints = getattr(self, "hints", None)
        batch_size = getattr(hints, "batch_size", None)
        return ExecutionControl(
            batch_size=batch_size if batch_size is not None else DEFAULT_BATCH_SIZE
        )

    def run(
        self, context: ExecutionContext, control: ExecutionControl | None = None
    ) -> Iterator[ExecutionEvent]:
        """The plan's event stream, with per-execution ledger bookkeeping."""
        return timed_stream(
            self._stream(context, control or self._default_control())
        )

    def execute(
        self, context: ExecutionContext, control: ExecutionControl | None = None
    ) -> QueryResult:
        """Execute the plan to completion by draining its event stream."""
        result: QueryResult | None = None
        for event in self.run(context, control):
            if isinstance(event, Completed):
                result = event.result
        if result is None:
            raise ExecutionError(
                f"{type(self).__name__} finished without a Completed event"
            )
        return result

    def describe(self) -> str:
        """Human-readable description of the plan."""
        return type(self).__name__

    def parallel_profitable(self, context: ExecutionContext) -> bool:
        """Whether sharded prefetch can pay off, judged without statistics.

        :func:`~repro.optimizer.cost.route_parallelism` consults this gate
        only for *routed* parallelism (hints or engine configuration) on a
        video with no catalog statistics — with statistics the cost model
        prices the decision instead.  A plan that knows sharded prefetch
        cannot pay off (e.g. an importance-ordered scrubbing scan, whose
        ranked access order defeats contiguous-shard speculation) returns
        ``False`` and the router runs it sequentially; ``explain()`` shows
        that verdict as ``sequential [fallback]``.  An explicit per-call
        ``parallelism=`` is honoured as given and never reaches this gate.
        """
        return True

    def operator_tree(
        self,
        num_frames: int | None = None,
        stats: VideoStatistics | None = None,
    ) -> OperatorNode:
        """The plan's operator tree, for structured explanations.

        Plans that pick their strategy at execution time (e.g. Algorithm 1's
        accuracy gate) report the full decision pipeline rather than the
        branch that will eventually run.  When ``num_frames`` and ``stats``
        are given, nodes carry per-operator cost estimates (detector calls
        and simulated seconds) from the statistics catalog.
        """
        return OperatorNode(name=type(self).__name__)

    def estimate_detector_calls(
        self, num_frames: int, stats: VideoStatistics | None = None
    ) -> int:
        """Upper estimate of detector invocations over ``num_frames``.

        The contract (checked by the estimate-invariant tests) is that the
        estimate *bounds* the ``detector_calls`` the execution ledger will
        actually record under default statistics.  The conservative default
        is an exhaustive scan; plans tighten it when ``stats`` from the
        statistics catalog make a smaller bound defensible.
        """
        return num_frames

    def estimate_cost(
        self, num_frames: int, stats: VideoStatistics | None = None
    ) -> CostEstimate:
        """Full cost estimate: detector calls plus specialization overheads.

        The default prices the detector-call estimate at the catalog's
        per-call detector cost (falling back to the paper's Mask R-CNN rate);
        plans with training or filtering stages override to fill the other
        buckets.
        """
        calls = self.estimate_detector_calls(num_frames, stats)
        per_call = (
            stats.detector_seconds_per_call
            if stats is not None
            else StandardCosts.MASK_RCNN.seconds_per_call
        )
        return CostEstimate(detector_calls=calls, detector_seconds=calls * per_call)
