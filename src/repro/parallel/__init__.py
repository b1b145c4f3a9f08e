"""Parallel sharded execution engine with a shared cross-query detection cache.

Three cooperating pieces (see the README's "Parallel execution" section):

* :mod:`repro.parallel.shards` — :class:`VideoSharder` partitions a video's
  frame range into contiguous shards, annotated with per-shard event-rate
  estimates from the statistics catalog (dense shards scheduled first,
  provably-cold shards started lazily);
* :mod:`repro.parallel.executor` — :class:`ShardDriver`, the driver side
  of speculative prefetch: one worker per shard computes detections in the
  plan's announced access order while the driver charges only what it
  consumes.  :class:`DetectionPrefetcher` runs the workers as threads, each
  with its own execution context and RNG stream
  (:mod:`repro.parallel.process_executor` runs them as processes);
* :mod:`repro.parallel.cache` — :class:`SharedDetectionCache`, the
  process-wide thread-safe LRU that lets repeated queries over hot videos
  skip detector calls entirely (``BlazeItConfig.shared_cache_bytes``).

Entry point: :func:`repro.parallel.plan.parallel_events`, routed to by
``QuerySession.stream()`` whenever the query's parallelism decision
(:func:`repro.optimizer.cost.route_parallelism`) runs more than one worker.
The decision names the backend that will run: a context that cannot be
exported to worker processes is routed to threads there, with the refusal in
the decision's ``reason`` — the executor never degrades behind its back.
"""

from repro.parallel.cache import (
    DEFAULT_CACHE_BYTES,
    SharedCacheStats,
    SharedDetectionCache,
    get_process_cache,
    reset_process_cache,
)
from repro.parallel.executor import DetectionPrefetcher
from repro.parallel.plan import StreamMerger, parallel_events
from repro.parallel.shards import MAX_SHARDS, Shard, ShardPlan, VideoSharder

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "MAX_SHARDS",
    "DetectionPrefetcher",
    "Shard",
    "ShardPlan",
    "SharedCacheStats",
    "SharedDetectionCache",
    "StreamMerger",
    "VideoSharder",
    "get_process_cache",
    "parallel_events",
    "reset_process_cache",
]
