"""Where the traced run times each layer, and how it turns spans into metrics.

Every wrapper is installed at the attribute its caller looks the callable up
through (a module global such as ``repro.api.session.parse``, or a class
attribute for methods), so the program runs unchanged while the benchmark
records a span around each call.  The per-layer metric names follow the
modules under ``src/repro/``.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any

from harness import LayerTotals, SpanRecorder


def _one(*_args: Any, **_kwargs: Any) -> int:
    return 1


def _frames_arg(position: int, name: str):
    """Work count: the length of argument ``name``, passed at ``position``."""

    def count(*args: Any, **kwargs: Any) -> int:
        return len(args[position] if len(args) > position else kwargs[name])

    return count


def install_engine_wrappers(recorder: SpanRecorder) -> None:
    """Wrap the engine's layers: parse, prepare/execute, plan, detection tiers,
    detector and its latency model, tracker, features, specialized models,
    index reads, sharding."""
    import repro.api.session as session_mod
    import repro.core.context as context_mod
    import repro.detection.simulated as simulated_mod
    import repro.index.store as store_mod
    import repro.index.view as view_mod
    import repro.optimizer.cost as cost_mod
    import repro.optimizer.scrubbing as scrubbing_mod
    import repro.parallel.plan as parallel_plan_mod
    import repro.service.__main__ as service_main_mod
    import repro.tracking.iou_tracker as tracker_mod
    import repro.video.synthetic as synthetic_mod
    from repro.core.events import Completed
    from repro.specialization.binary_model import BinaryPresenceModel
    from repro.specialization.count_model import CountSpecializedModel
    from repro.specialization.multiclass import MultiClassCountModel

    wrap = recorder.wrap
    wrap(session_mod, "parse", "frameql.parse")
    wrap(session_mod.QuerySession, "execute", "api.execute")
    wrap(session_mod.QuerySession, "prepare", "api.prepare")
    wrap(cost_mod.CostBasedOptimizer, "plan", "optimizer.plan")
    wrap(context_mod.ExecutionContext, "detect_batch", "core.detect", _frames_arg(1, "frame_indices"))
    wrap(context_mod.ExecutionContext, "detect", "core.detect", _one, keep=False)
    wrap(simulated_mod.SimulatedDetector, "_detect_batch", "detection.detect", _frames_arg(2, "frame_indices"))
    wrap(simulated_mod.SimulatedDetector, "detect", "detection.detect", _one, keep=False)
    # The latency model sleeps, then calls the detector above: its self time
    # is the sleep.
    paced = service_main_mod.PacedSimulatedDetector
    wrap(paced, "_detect_batch", "detection.paced", _frames_arg(2, "frame_indices"))
    wrap(paced, "detect", "detection.paced", _one, keep=False)
    wrap(tracker_mod.IoUTracker, "resolve", "tracking.resolve", _frames_arg(1, "results"))
    wrap(synthetic_mod.SyntheticVideo, "frame_features", "video.features", _frames_arg(1, "frame_indices"))
    for model, fit, infers in (
        (CountSpecializedModel, "fit", ("predict_proba", "predict_counts")),
        (MultiClassCountModel, "fit", ("predict_counts",)),
        (BinaryPresenceModel, "fit", ("predict_proba_present", "predict_present")),
    ):
        wrap(model, fit, "specialization.train")
        for infer in infers:
            wrap(model, infer, "specialization.infer")
    wrap(view_mod.IndexView, "get", "index.get", _one, keep=False)
    wrap(store_mod, "decode_detection_results", "index.decode", keep=False)

    # The scrubbing plan announces its exhaustive sweep with a Progress event.
    progress = scrubbing_mod.Progress

    def counted_progress(*args: Any, **kwargs: Any) -> Any:
        if kwargs.get("phase") == "exhaustive_fallback":
            recorder.add("scrubbing.fallbacks")
        return progress(*args, **kwargs)

    recorder.replace(scrubbing_mod, "Progress", counted_progress)

    # Sharded executions: how many, and the detector calls they consumed
    # (against the frames their workers prefetched).
    parallel_events = parallel_plan_mod.parallel_events

    def counted_parallel_events(*args: Any, **kwargs: Any) -> Any:
        recorder.add("parallel.sharded_queries")
        inner = parallel_events(*args, **kwargs)
        try:
            for event in inner:
                if isinstance(event, Completed):
                    recorder.add(
                        "parallel.sharded_detector_calls",
                        event.result.execution_ledger.detector_calls,
                    )
                yield event
        finally:
            inner.close()

    recorder.replace(parallel_plan_mod, "parallel_events", counted_parallel_events)


def install_server_wrappers(recorder: SpanRecorder) -> None:
    """Wrap the service's drainer and wire encoding (server process)."""
    import repro.service.manager as manager_mod
    import repro.service.scheduler as scheduler_mod

    # The manager hands its bound ``_drain`` to the scheduler when it is
    # built, so the drainer thread's own entry point is wrapped instead.
    recorder.wrap(
        scheduler_mod.FairScheduler,
        "_drain",
        "service.drain",
        query_id=lambda _self, record, _demand: record.query_id,
    )
    recorder.wrap(manager_mod, "result_to_json", "service.encode")
    recorder.wrap(manager_mod, "event_to_json", "service.encode")


def install_client_wrappers(recorder: SpanRecorder) -> None:
    """Wrap the client's result decoding and collect each query's waits."""
    import repro.service.client as client_mod

    recorder.wrap(
        client_mod,
        "result_from_json",
        "service.decode",
        lambda payload: len(json.dumps(payload)),
    )
    submit = client_mod.ServiceClient.submit

    def recorded_submit(self: Any, *args: Any, **kwargs: Any) -> Any:
        status = submit(self, *args, **kwargs)
        for key in ("admission_wait_seconds", "slot_wait_seconds", "ttfe_seconds"):
            value = status.get(key)
            if value is not None:
                recorder.add(f"service.{key}", float(value))
                recorder.add(f"service.{key}.n")
        return status

    recorder.replace(client_mod.ServiceClient, "submit", recorded_submit)


# -- counts read from results ---------------------------------------------------------


@dataclass
class ResultStats:
    """Ledger and result counters summed over the queries of one phase."""

    queries: int = 0
    detector_calls: int = 0
    sim_s: float = 0.0
    cache_hits: int = 0
    index_hits: int = 0
    index_skips: int = 0
    aggregates: int = 0
    samples_used: int = 0
    error_ratio_sum: float = 0.0
    limits: int = 0
    limit_rows: int = 0
    limit_calls: int = 0
    frames_scanned: int = 0
    frames_after_filters: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def add(self, kind: str, result: Any, error_ratio: float | None) -> None:
        ledger = result.execution_ledger
        with self._lock:
            self.queries += 1
            self.detector_calls += ledger.detector_calls
            self.sim_s += result.runtime_seconds
            self.cache_hits += ledger.detection_cache_hits
            self.index_hits += ledger.index_hits
            self.index_skips += ledger.index_skips
            if kind == "aggregate":
                self.aggregates += 1
                self.samples_used += result.samples_used
                self.error_ratio_sum += error_ratio or 0.0
            elif kind == "limit":
                self.limits += 1
                self.limit_rows += len(result.frames)
                self.limit_calls += ledger.detector_calls
            elif kind == "selection":
                self.frames_scanned += result.frames_scanned
                self.frames_after_filters += result.frames_after_filters


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    totals: LayerTotals,
    counters: dict[str, float],
    stats: ResultStats,
    extra: dict[str, float],
) -> dict[str, float]:
    """Derive every per-layer metric (per query unless the name says otherwise).

    ``extra`` carries what no span records: ``index.build_s``,
    ``index.bytes_per_frame``, ``service.retained_queries``,
    ``frames_prefetched``, ``estimated_calls``, ``trace_overhead_ratio``,
    ``failed_ratio``, ``cpu_s_per_query`` and ``limit_tmean_s`` (the
    untraced half's).
    """
    q = stats.queries

    def per_query(value: float) -> float:
        return _ratio(value, q)

    self_s, work, calls = totals.self_s, totals.work, totals.calls
    index_reads = stats.index_hits + stats.index_skips
    prefetched = extra.get("frames_prefetched", 0.0)
    sharded_calls = counters.get("parallel.sharded_detector_calls", 0.0)
    executions = calls.get("api.execute", 0) or calls.get("service.drain", 0)

    def wait(key: str) -> float:
        return _ratio(counters.get(f"service.{key}", 0.0), counters.get(f"service.{key}.n", 0.0))

    return {
        "frameql.parses": per_query(calls.get("frameql.parse", 0)),
        "frameql.self_s": per_query(self_s.get("frameql.parse", 0.0)),
        "api.prepare_hit_ratio": _ratio(max(0, executions - calls.get("api.prepare", 0)), executions),
        "api.execute_self_s": per_query(self_s.get("api.execute", 0.0)),
        "optimizer.self_s": per_query(self_s.get("optimizer.plan", 0.0)),
        "optimizer.est_error_ratio": _ratio(
            abs(extra.get("estimated_calls", 0.0) - stats.detector_calls), stats.detector_calls
        ),
        "core.detect_batch_self_s": per_query(self_s.get("core.detect", 0.0)),
        "core.frames_requested": per_query(work.get("core.detect", 0)),
        "core.cache_hit_ratio": _ratio(stats.cache_hits, stats.cache_hits + stats.detector_calls),
        "detection.self_s": per_query(self_s.get("detection.detect", 0.0)),
        "detection.frames": per_query(work.get("detection.detect", 0)),
        "detection.us_per_frame": 1e6 * _ratio(self_s.get("detection.detect", 0.0), work.get("detection.detect", 0)),
        "detection.paced_self_s": per_query(self_s.get("detection.paced", 0.0)),
        "tracking.self_s": per_query(self_s.get("tracking.resolve", 0.0)),
        "tracking.us_per_frame": 1e6 * _ratio(self_s.get("tracking.resolve", 0.0), work.get("tracking.resolve", 0)),
        "video.features_self_s": per_query(self_s.get("video.features", 0.0)),
        "specialization.train_self_s": per_query(self_s.get("specialization.train", 0.0)),
        "specialization.infer_self_s": per_query(self_s.get("specialization.infer", 0.0)),
        "aqp.samples_per_aggregate": _ratio(stats.samples_used, stats.aggregates),
        "aqp.error_ratio": _ratio(stats.error_ratio_sum, stats.aggregates),
        "scrubbing.hit_ratio": _ratio(stats.limit_rows, stats.limit_calls),
        "scrubbing.fallback_share": _ratio(counters.get("scrubbing.fallbacks", 0.0), stats.limits),
        "scrubbing.limit_tmean_s": extra.get("limit_tmean_s", 0.0),
        "selection.filter_pass_ratio": _ratio(stats.frames_after_filters, stats.frames_scanned),
        "index.build_s": extra.get("index.build_s", 0.0),
        "index.bytes_per_frame": extra.get("index.bytes_per_frame", 0.0),
        "index.get_self_s": per_query(self_s.get("index.get", 0.0)),
        "index.decode_self_s": per_query(self_s.get("index.decode", 0.0)),
        "index.us_per_hit": 1e6 * _ratio(totals.total_s.get("index.get", 0.0), stats.index_hits),
        "index.skip_ratio": _ratio(stats.index_skips, index_reads),
        "parallel.sharded_share": per_query(counters.get("parallel.sharded_queries", 0.0)),
        "parallel.prefetch_waste_ratio": max(0.0, 1.0 - _ratio(sharded_calls, prefetched)) if prefetched else 0.0,
        "service.admission_wait_s": wait("admission_wait_seconds"),
        "service.slot_wait_s": wait("slot_wait_seconds"),
        "service.ttfe_s": wait("ttfe_seconds"),
        "service.encode_self_s": per_query(self_s.get("service.encode", 0.0)),
        "service.decode_self_s": per_query(self_s.get("service.decode", 0.0)),
        "service.bytes_per_result": _ratio(work.get("service.decode", 0), calls.get("service.decode", 0)),
        "service.retained_queries": extra.get("service.retained_queries", 0.0),
        "metrics.detector_calls_per_query": per_query(stats.detector_calls),
        "metrics.sim_s_per_query": per_query(stats.sim_s),
        "bench.failed_ratio": extra.get("failed_ratio", 0.0),
        "bench.cpu_s_per_query": extra.get("cpu_s_per_query", 0.0),
        "bench.trace_overhead_ratio": extra.get("trace_overhead_ratio", 0.0),
    }


#: Every per-layer metric: unit, and whether higher or lower is better.
PER_LAYER: dict[str, tuple[str, str]] = {
    "frameql.parses": ("count", "lower"),
    "frameql.self_s": ("s", "lower"),
    "api.prepare_hit_ratio": ("ratio", "higher"),
    "api.execute_self_s": ("s", "lower"),
    "optimizer.self_s": ("s", "lower"),
    "optimizer.est_error_ratio": ("ratio", "lower"),
    "core.detect_batch_self_s": ("s", "lower"),
    "core.frames_requested": ("count", "lower"),
    "core.cache_hit_ratio": ("ratio", "higher"),
    "detection.self_s": ("s", "lower"),
    "detection.frames": ("count", "lower"),
    "detection.us_per_frame": ("us", "lower"),
    "detection.paced_self_s": ("s", "lower"),
    "tracking.self_s": ("s", "lower"),
    "tracking.us_per_frame": ("us", "lower"),
    "video.features_self_s": ("s", "lower"),
    "specialization.train_self_s": ("s", "lower"),
    "specialization.infer_self_s": ("s", "lower"),
    "aqp.samples_per_aggregate": ("count", "lower"),
    "aqp.error_ratio": ("ratio", "lower"),
    "scrubbing.hit_ratio": ("ratio", "higher"),
    "scrubbing.fallback_share": ("ratio", "lower"),
    "scrubbing.limit_tmean_s": ("s", "lower"),
    "selection.filter_pass_ratio": ("ratio", "lower"),
    "index.build_s": ("s", "lower"),
    "index.bytes_per_frame": ("bytes", "lower"),
    "index.get_self_s": ("s", "lower"),
    "index.decode_self_s": ("s", "lower"),
    "index.us_per_hit": ("us", "lower"),
    "index.skip_ratio": ("ratio", "higher"),
    "parallel.sharded_share": ("ratio", "higher"),
    "parallel.prefetch_waste_ratio": ("ratio", "lower"),
    "service.admission_wait_s": ("s", "lower"),
    "service.slot_wait_s": ("s", "lower"),
    "service.ttfe_s": ("s", "lower"),
    "service.encode_self_s": ("s", "lower"),
    "service.decode_self_s": ("s", "lower"),
    "service.bytes_per_result": ("bytes", "lower"),
    "service.retained_queries": ("count", "lower"),
    "metrics.detector_calls_per_query": ("count", "lower"),
    "metrics.sim_s_per_query": ("s", "lower"),
    "bench.failed_ratio": ("ratio", "lower"),
    "bench.cpu_s_per_query": ("s", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
}
