"""Self-tests of the benchmark's statistics, span accounting and failure tally.

Run with ``python3 -m pytest perfbench -q``; they build no video.
"""

from __future__ import annotations

import json
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import (  # noqa: E402
    LayerTotals,
    SpanRecorder,
    Tally,
    percentile,
    samples_beyond,
    trimmed_mean,
)
from layers import PER_LAYER, ResultStats, per_layer_metrics  # noqa: E402
from workloads import END_TO_END, KINDS, Query, QueryMix, run_clients  # noqa: E402


# -- percentile rule ------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_p90_leaves_ten_samples_beyond_at_one_hundred():
    values = [float(v) for v in range(100)]
    assert samples_beyond(values, 90) == 10
    assert samples_beyond(values[:99], 90) == 9


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_trimmed_mean_drops_a_tenth_at_each_end():
    values = [float(v) for v in range(1, 11)] + [1000.0]
    # 11 samples: int(1.1) = 1 dropped at each end, so 2..10 remain.
    assert trimmed_mean(values) == pytest.approx(6.0)
    assert trimmed_mean([5.0, 1.0]) == pytest.approx(3.0)
    # Two modes in a fixed mix: moving one sample between them moves the
    # trimmed mean by a fraction of the gap, where the median jumps the gap.
    mix = [0.1] * 10 + [1.0] * 10
    shifted = [0.1] * 9 + [1.0] * 11
    assert abs(trimmed_mean(shifted) - trimmed_mean(mix)) < 0.1
    with pytest.raises(ValueError):
        trimmed_mean([])
    with pytest.raises(ValueError):
        trimmed_mean([1.0], 0.5)


# -- nested-span self time --------------------------------------------------------------


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_span_self_time():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def leaf(seconds: float) -> None:
        clock.now += seconds

    def middle() -> None:
        clock.now += 1.0
        recorder.call("leaf", leaf, (2.0,))
        recorder.call("leaf", leaf, (3.0,))
        clock.now += 0.5

    def root() -> str:
        recorder.call("middle", middle)
        clock.now += 4.0
        return "done"

    assert recorder.call("root", root, query_id="q1") == "done"
    spans = {span.name: span for span in recorder.spans}
    by_name = recorder.totals()
    assert by_name.self_s["leaf"] == pytest.approx(5.0)
    assert by_name.calls["leaf"] == 2
    assert spans["middle"].self_s == pytest.approx(1.5)
    assert spans["root"].self_s == pytest.approx(4.0)
    assert spans["root"].end - spans["root"].start == pytest.approx(10.5)
    # Children point at their parent and inherit its query id.
    assert spans["middle"].parent_id == spans["root"].span_id
    assert {span.query_id for span in recorder.spans} == {"q1"}


def test_folded_spans_still_count_against_their_parent():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def frame() -> None:
        clock.now += 0.25

    def scan() -> None:
        for _ in range(4):
            recorder.call("frame", frame, count=1, keep=False)

    recorder.call("scan", scan)
    assert [span.name for span in recorder.spans] == ["scan"]
    assert recorder.spans[0].self_s == pytest.approx(0.0)
    totals = recorder.totals()
    assert totals.calls["frame"] == 4
    assert totals.work["frame"] == 4
    assert totals.self_s["frame"] == pytest.approx(1.0)


def test_span_on_another_thread_is_a_root():
    recorder = SpanRecorder()

    def worker() -> None:
        recorder.call("worker", lambda: None)

    def root() -> None:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    recorder.call("root", root, query_id="q")
    worker_span = next(span for span in recorder.spans if span.name == "worker")
    assert worker_span.parent_id is None
    assert worker_span.query_id is None


def test_wrap_installs_at_the_lookup_attribute_and_uninstalls():
    module = types.SimpleNamespace(twice=lambda x: 2 * x)

    class Owner:
        def method(self, frames):
            return len(frames)

    original_function, original_method = module.twice, Owner.__dict__["method"]
    recorder = SpanRecorder()
    recorder.wrap(module, "twice", "layer.twice")
    recorder.wrap(Owner, "method", "layer.method", count=lambda _self, frames: len(frames))
    assert module.twice(4) == 8
    assert Owner().method([1, 2, 3]) == 3
    totals = recorder.totals()
    assert totals.calls["layer.twice"] == 1
    assert totals.work["layer.method"] == 3
    recorder.uninstall()
    assert module.twice is original_function
    assert Owner.__dict__["method"] is original_method


def test_dump_round_trips_totals(tmp_path):
    from harness import totals_from_dump

    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    recorder.call("kept", lambda: setattr(clock, "now", clock.now + 1.0))
    recorder.call("folded", lambda: setattr(clock, "now", clock.now + 2.0), keep=False)
    path = tmp_path / "spans.json"
    recorder.dump(str(path), {"workload": "test"})
    loaded = totals_from_dump(json.loads(path.read_text()))
    assert loaded.total_s == recorder.totals().total_s


# -- failure accounting -----------------------------------------------------------------


def test_tally_counts_every_non_ok_outcome_as_failed():
    tally = Tally()
    for outcome in ("ok", "ok", "raised", "refused", "timed_out", "check_failed"):
        tally.record(outcome)
    assert tally.attempted == 6
    assert tally.failed == 4
    with pytest.raises(ValueError):
        tally.record("lost")


class _Result:
    def __init__(self, text: str) -> None:
        self.text = text
        self.runtime_seconds = 1.0
        self.execution_ledger = types.SimpleNamespace(
            detector_calls=2, detection_cache_hits=1, index_hits=0, index_skips=0
        )
        self.samples_used = 5
        self.frames = [1]
        self.frames_scanned = 10
        self.frames_after_filters = 4


class _Truth:
    def check(self, query: Query, result: _Result):
        return ("wrong" if query.kind == "exact" else None), None


def test_run_clients_accounts_raised_refused_and_wrong_answers():
    sets = {kind: [Query(kind, f"{kind} text")] for kind in KINDS}

    def execute(text: str) -> _Result:
        if text.startswith("limit"):
            raise ConnectionRefusedError(text)
        if text.startswith("selection"):
            raise ValueError(text)
        return _Result(text)

    def classify(exc: Exception) -> str:
        return "refused" if isinstance(exc, ConnectionRefusedError) else "raised"

    phase = run_clients([execute], sets, _Truth(), seed=3, seconds=0.05, classify=classify)
    counts = phase.tally.counts
    assert counts["ok"] >= 1
    assert counts["refused"] >= 1 and counts["raised"] >= 1 and counts["check_failed"] >= 1
    assert phase.tally.failed == phase.tally.attempted - counts["ok"]
    # Only answers that passed their check carry a latency.
    assert phase.completed == counts["ok"] == phase.stats.queries
    assert set(phase.latencies) == {"aggregate"}


def test_query_mix_is_seeded_and_holds_every_class_once_per_rotation():
    sets = {kind: [Query(kind, f"{kind} {i}") for i in range(5)] for kind in KINDS}
    a, b, c = QueryMix(sets, 7, 0), QueryMix(sets, 7, 0), QueryMix(sets, 8, 0)
    drawn_a = [a.next() for _ in range(40)]
    assert [q.text for q in drawn_a] == [b.next().text for _ in range(40)]
    assert [q.text for q in drawn_a] != [c.next().text for _ in range(40)]
    for start in range(0, 40, 4):
        assert sorted(q.kind for q in drawn_a[start : start + 4]) == sorted(KINDS)


def test_per_layer_metrics_without_queries_are_zero_not_errors():
    values = per_layer_metrics(LayerTotals(), {}, ResultStats(), {})
    assert set(values) == set(PER_LAYER)
    assert all(value == 0.0 for value in values.values())


# -- the declared metric set ------------------------------------------------------------


def test_benchmark_json_declares_exactly_the_reported_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == PER_LAYER
    setup_bound = next(m["bound"] for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in declared["end_to_end"])
