"""Scalar/batched equivalence tests for the vectorized execution pipeline.

The vectorized paths (columnar ``frame_features``, ``detect_many`` /
``detect_batch``, chunked plan execution) must be bit-for-bit identical to
the scalar references they replace, with the same per-frame ledger
accounting — these tests pin that contract, parametrized over batch sizes,
detection tiers and ledger kinds.  The scalar feature reference lives in
``oracles.py``; the scalar detection reference is a ``detect`` loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.hints import QueryHints
from repro.core.config import BlazeItConfig
from repro.core.context import ExecutionContext
from repro.core.engine import BlazeIt
from repro.errors import ConfigurationError
from repro.metrics.runtime import ExecutionLedger, RuntimeLedger
from repro.parallel.cache import SharedDetectionCache
from repro.scrubbing.importance import _respects_gap
from repro.specialization.trainer import TrainingConfig
from repro.video.frame_batch import FrameBatch
from repro.video.synthetic import SyntheticVideo

from conftest import make_video_spec
from oracles import ReferenceFeatureVideo


def assert_results_identical(left, right):
    """Field-for-field equality of two DetectionResult lists."""
    assert len(left) == len(right)
    for a, b in zip(left, right, strict=True):
        assert a.frame_index == b.frame_index
        assert a.timestamp == b.timestamp
        assert len(a.detections) == len(b.detections)
        for x, y in zip(a.detections, b.detections, strict=True):
            assert x.object_class == y.object_class
            assert x.confidence == y.confidence
            assert x.box.as_tuple() == y.box.as_tuple()
            assert x.color == y.color
            assert x.color_name == y.color_name
            if x.features is None:
                assert y.features is None
            else:
                assert np.array_equal(x.features, y.features)


# -- columnar features --------------------------------------------------------


class TestFrameFeaturesEquivalence:
    @pytest.fixture(scope="class")
    def dense_video(self) -> SyntheticVideo:
        return SyntheticVideo.generate(
            make_video_spec(name="dense", num_frames=500, seed=11, car_rate=0.08)
        )

    def test_full_video_bitwise_equal(self, dense_video):
        reference_video = ReferenceFeatureVideo.of(dense_video)
        vectorized = dense_video.frame_features(np.arange(500))
        reference = reference_video.frame_features(np.arange(500))
        assert np.array_equal(vectorized, reference)

    @pytest.mark.parametrize(
        "indices",
        [
            [0],
            [499],
            [3, 1, 4, 1, 5, 9, 2, 6],  # out of order, with repeats
            list(range(0, 500, 7)),
        ],
    )
    def test_subsets_bitwise_equal(self, dense_video, indices):
        vectorized = dense_video.frame_features(indices)
        reference = ReferenceFeatureVideo.of(dense_video).frame_features(indices)
        assert np.array_equal(vectorized, reference)

    def test_memo_consistent_across_calls(self, dense_video):
        first = dense_video.frame_features([10, 20])
        second = dense_video.frame_features([20, 10])
        assert np.array_equal(first[0], second[1])
        assert np.array_equal(first[1], second[0])

    def test_returned_rows_are_copies(self, dense_video):
        row = dense_video.frame_features([42])
        row[:] = 0.0
        assert not np.array_equal(dense_video.frame_features([42]), row)

    def test_out_of_range_raises_like_reference(self, dense_video):
        for video in (dense_video, ReferenceFeatureVideo.of(dense_video)):
            with pytest.raises(IndexError):
                video.frame_features([3, 500])
            with pytest.raises(IndexError):
                video.frame_features([-1])

    def test_empty_request(self, dense_video):
        assert dense_video.frame_features([]).shape[0] == 0


class TestFrameObjectTable:
    def test_matches_objects_at(self):
        video = SyntheticVideo.generate(
            make_video_spec(name="table", num_frames=200, seed=13, car_rate=0.06)
        )
        frames = np.array([0, 17, 42, 17, 199])
        table = video.frame_object_table(frames)
        for row, frame_index in enumerate(frames):
            objects = video.objects_at(int(frame_index))
            lo, hi = table.offsets[row], table.offsets[row + 1]
            assert hi - lo == len(objects)
            for k, obj in zip(range(lo, hi), objects, strict=True):
                assert table.track_ids[k] == obj.track_id
                assert table.class_names[table.class_codes[k]] == obj.object_class
                assert table.color_names[table.color_codes[k]] == obj.color_name
                assert (
                    table.x_min[k], table.y_min[k], table.x_max[k], table.y_max[k]
                ) == obj.box.as_tuple()
                assert tuple(table.colors[k]) == obj.color


# -- batched detection --------------------------------------------------------


class TestDetectManyEquivalence:
    def test_simulated_detectors_bitwise_equal(self, tiny_video, detector):
        frames = list(range(0, 200))
        sequential = [detector.detect(tiny_video, i) for i in frames]
        batched = detector.detect_many(tiny_video, np.asarray(frames))
        assert_results_identical(sequential, batched)

    def test_fgfa_configuration(self, tiny_video):
        from repro.detection.simulated import SimulatedDetector

        fgfa = SimulatedDetector.fgfa()
        frames = list(range(0, 60))
        assert_results_identical(
            [fgfa.detect(tiny_video, i) for i in frames],
            fgfa.detect_many(tiny_video, frames),
        )

    def test_repeats_computed_once(self, tiny_video, detector):
        calls = []
        original = type(detector)._detect_batch

        def spying(self, video, frame_indices, ledger=None):
            calls.append(list(frame_indices))
            return original(self, video, frame_indices, ledger)

        type(detector)._detect_batch = spying
        try:
            results = detector.detect_many(tiny_video, [5, 5, 9, 5, 9])
        finally:
            type(detector)._detect_batch = original
        assert calls == [[5, 9]]
        assert_results_identical(
            [results[0], results[2]], [results[1], results[4]]
        )

    def test_plain_ledger_charges_unique_frames(self, tiny_video, detector):
        ledger = RuntimeLedger()
        detector.detect_many(tiny_video, [1, 1, 2], ledger)
        assert ledger.call_count(detector.cost.name) == 2

    def test_execution_ledger_cache_accounting(self, tiny_video, detector):
        ledger = ExecutionLedger()
        detector.detect_many(tiny_video, [3, 4], ledger)
        detector.detect_many(tiny_video, [4, 5, 4], ledger)
        assert ledger.detector_calls == 3
        assert ledger.frames_decoded == 3
        assert ledger.detection_cache_hits == 2
        assert ledger.call_count(detector.cost.name) == 3


class TestContextDetectBatchEquivalence:
    @pytest.fixture()
    def context(self, tiny_engine):
        return tiny_engine.execution_context("tiny")

    def test_results_and_accounting_match_sequential(self, context):
        frames = [7, 3, 7, 11, 3, 12]
        sequential_ledger = ExecutionLedger()
        sequential = [
            context.detect(i, sequential_ledger) for i in frames
        ]
        batched_ledger = ExecutionLedger()
        batched = context.detect_batch(frames, batched_ledger)
        assert_results_identical(sequential, batched)
        assert batched_ledger.detector_calls == sequential_ledger.detector_calls
        assert batched_ledger.frames_decoded == sequential_ledger.frames_decoded
        assert (
            batched_ledger.detection_cache_hits
            == sequential_ledger.detection_cache_hits
        )
        assert batched_ledger.calls == sequential_ledger.calls
        assert batched_ledger.total_seconds == pytest.approx(
            sequential_ledger.total_seconds
        )

    def test_cache_hits_across_batches(self, context):
        ledger = ExecutionLedger()
        context.detect_batch([1, 2, 3], ledger)
        context.detect_batch([2, 3, 4], ledger)
        assert ledger.detector_calls == 4
        assert ledger.detection_cache_hits == 2

    def test_cost_scale_applied_once_per_miss(self, context):
        ledger = ExecutionLedger()
        context.detect_batch([1, 2], ledger, cost_scale=0.5)
        expected = context.detector.cost.seconds_per_call * 0.5 * 2
        assert ledger.seconds_for(context.detector.cost.name) == pytest.approx(
            expected
        )

    def test_detect_counts_batch_matches_detections(self, context):
        frames = np.array([0, 5, 5, 9, 300])
        detected = [r.count("car") for r in context.detect_batch(frames, ExecutionLedger())]
        batched = context.detect_counts_batch(frames, "car", ExecutionLedger())
        assert np.array_equal(detected, batched)


# -- tier identity: a detect loop is one batch, on every tier -----------------

#: Frames with repeats, spanning several index sketch ranges (frames
#: 192-239 of the tiny video lie in provably empty ranges).
TIER_FRAMES = [7, 3, 7, 11, 3, 12, 64, 65, 64, 200, 210, 230, 210, 301, 399, 12]
#: Frames already in the shared cache when a "shared" configuration starts.
WARM_FRAMES = [3, 12, 200]
EXECUTION_COUNTERS = (
    "detector_calls",
    "frames_decoded",
    "detection_cache_hits",
    "shared_cache_hits",
    "index_hits",
    "index_skips",
)


@pytest.fixture(scope="module")
def indexed_context(tmp_path_factory, tiny_video, detector, engine_config):
    """A context over the tiny video with a committed index attached."""
    engine = BlazeIt(
        detector=detector,
        config=engine_config,
        index_dir=tmp_path_factory.mktemp("tier-index"),
    )
    engine.register_video("tiny", test_video=tiny_video)
    engine.build_index("tiny", range_size=16, segment_frames=128)
    context = engine.execution_context("tiny")
    assert context.index_view is not None
    return context


@pytest.fixture()
def tier_context(indexed_context, tiny_recorded):
    """Builds a fresh context (and a freshly warmed shared cache) per tier set."""

    def build(tiers: str) -> ExecutionContext:
        base = indexed_context
        shared = None
        if "shared" in tiers:
            shared = SharedDetectionCache(capacity_bytes=16 << 20)
            warm = base.detector.detect_many(base.video, WARM_FRAMES)
            shared.put_many(base.cache_key, dict(zip(WARM_FRAMES, warm, strict=True)))
        return ExecutionContext(
            video=base.video,
            detector=base.detector,
            udf_registry=base.udf_registry,
            config=base.config,
            recorded=tiny_recorded if tiers == "recorded" else None,
            shared_cache=shared,
            cache_key=base.cache_key,
            index_view=base.index_view if "index" in tiers else None,
        )

    return build


class TestTierIdentityMatrix:
    @pytest.mark.parametrize(
        "tiers", ["plain", "recorded", "shared", "index", "index+shared"]
    )
    @pytest.mark.parametrize("ledger_kind", [ExecutionLedger, RuntimeLedger, None])
    def test_detect_loop_matches_one_batch(self, tier_context, tiers, ledger_kind):
        """``detect`` per frame and one ``detect_batch`` resolve identically.

        Without an execution ledger there is no per-execution cache, so a
        loop re-detects (and re-charges) repeated frames that a batch
        computes once; the loop then runs over the distinct frames only.
        """
        loop_ledger = ledger_kind() if ledger_kind else None
        batch_ledger = ledger_kind() if ledger_kind else None
        loop_frames = (
            TIER_FRAMES
            if isinstance(loop_ledger, ExecutionLedger)
            else list(dict.fromkeys(TIER_FRAMES))
        )
        loop_context = tier_context(tiers)
        looped = {f: loop_context.detect(f, loop_ledger) for f in loop_frames}
        batched = tier_context(tiers).detect_batch(TIER_FRAMES, batch_ledger)
        assert_results_identical([looped[f] for f in TIER_FRAMES], batched)
        if ledger_kind is None:
            return
        assert batch_ledger.calls == loop_ledger.calls
        assert batch_ledger.charges == pytest.approx(loop_ledger.charges)
        if ledger_kind is ExecutionLedger:
            for counter in EXECUTION_COUNTERS:
                assert getattr(batch_ledger, counter) == getattr(loop_ledger, counter), counter
        self.assert_tier_accounting(tiers, batch_ledger)

    @staticmethod
    def assert_tier_accounting(tiers, ledger):
        """Only frames no free tier holds are charged, each once.

        The index covers every frame of the video, so with it attached the
        detector is never charged.
        """
        distinct = set(TIER_FRAMES)
        shared_hits = len(WARM_FRAMES) if "shared" in tiers else 0
        index_served = len(distinct) - shared_hits if "index" in tiers else 0
        charged = len(distinct) - shared_hits - index_served
        assert sum(ledger.calls.values()) == charged
        if isinstance(ledger, ExecutionLedger):
            assert ledger.detector_calls == ledger.frames_decoded == charged
            assert ledger.shared_cache_hits == shared_hits
            assert ledger.index_hits + ledger.index_skips == index_served
            assert ledger.detection_cache_hits == len(TIER_FRAMES) - charged
            if "index" in tiers:
                assert ledger.index_hits > 0 and ledger.index_skips > 0


# -- gap checking -------------------------------------------------------------


class TestRespectsGap:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            accepted = sorted(rng.choice(100, size=6, replace=False).tolist())
            frame = int(rng.integers(0, 100))
            gap = int(rng.integers(0, 12))
            brute = all(abs(frame - other) >= gap for other in accepted)
            assert _respects_gap(frame, accepted, gap) == brute

    def test_zero_gap_always_passes(self):
        assert _respects_gap(5, [5, 6], 0)

    def test_empty_accepted(self):
        assert _respects_gap(5, [], 3)


# -- end-to-end: all four query classes, batch sizes, scalar reference --------


QUERIES = {
    "aggregate": (
        "SELECT FCOUNT(*) FROM batchy WHERE class = 'car' "
        "ERROR WITHIN 0.1 AT CONFIDENCE 95%"
    ),
    "scrubbing": (
        "SELECT timestamp FROM batchy GROUP BY timestamp "
        "HAVING COUNT(class = 'car') >= 1 LIMIT 5 GAP 10"
    ),
    "selection": "SELECT * FROM batchy WHERE class = 'car'",
    "exact": "SELECT * FROM batchy",
}


def result_fingerprint(kind: str, result) -> tuple:
    """The observable output of a query result, for cross-mode comparison."""
    if kind == "aggregate":
        return (result.value, result.samples_used, result.method)
    if kind == "scrubbing":
        return (tuple(result.frames), result.satisfied, result.method)
    if kind == "selection":
        return (
            tuple(result.matched_frames),
            tuple(
                (r.frame_index, r.object_class, r.trackid) for r in result.records
            ),
            result.method,
        )
    return (
        tuple((r.frame_index, r.object_class, r.trackid) for r in result.records),
        result.method,
    )


class TestQueryClassEquivalence:
    @pytest.fixture(scope="class")
    def engines(self):
        """A batched and a scalar-reference engine over identical data.

        The reference engine computes features with the scalar oracle; its
        sessions run with ``batch_size=1``, one frame per detector call.
        """
        training = TrainingConfig(epochs=3, batch_size=32, min_examples=16)

        def build(batched: bool) -> BlazeIt:
            config = BlazeItConfig(
                training=training,
                min_training_positives=20,
                seed=3,
            )
            test = SyntheticVideo.generate(
                make_video_spec(name="batchy", num_frames=400, seed=21)
            )
            train = SyntheticVideo.generate(
                make_video_spec(name="batchy-train", num_frames=400, seed=22)
            )
            heldout = SyntheticVideo.generate(
                make_video_spec(name="batchy-heldout", num_frames=400, seed=23)
            )
            if not batched:
                test, train, heldout = (
                    ReferenceFeatureVideo.of(v) for v in (test, train, heldout)
                )
            engine = BlazeIt(config=config)
            engine.register_video(
                "batchy", test_video=test, train_video=train, heldout_video=heldout
            )
            engine.record_test_day("batchy")
            return engine

        return build(True), build(False)

    @pytest.mark.parametrize("kind", sorted(QUERIES))
    def test_identical_across_batch_sizes(self, engines, kind):
        batched_engine, _ = engines
        fingerprints = []
        for batch_size in (1, 7, 64):
            session = batched_engine.session(
                hints=QueryHints(batch_size=batch_size)
            )
            result = session.execute(QUERIES[kind], rng=np.random.default_rng(42))
            fingerprints.append(result_fingerprint(kind, result))
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    @pytest.mark.parametrize("kind", sorted(QUERIES))
    def test_batched_identical_to_scalar_reference(self, engines, kind):
        batched_engine, scalar_engine = engines
        batched = batched_engine.session().execute(
            QUERIES[kind], rng=np.random.default_rng(7)
        )
        scalar = scalar_engine.session(hints=QueryHints(batch_size=1)).execute(
            QUERIES[kind], rng=np.random.default_rng(7)
        )
        assert result_fingerprint(kind, batched) == result_fingerprint(kind, scalar)


# -- FrameBatch ---------------------------------------------------------------


class TestFrameBatch:
    def test_lazy_features_shared_by_select(self, tiny_video):
        batch = FrameBatch(tiny_video, [1, 2, 3, 4])
        assert not batch.features_loaded
        features = batch.features
        narrowed = batch.select(np.array([True, False, True, False]))
        assert narrowed.features_loaded
        assert np.array_equal(narrowed.features, features[[0, 2]])
        assert np.array_equal(narrowed.indices, [1, 3])

    def test_restrict_to(self, tiny_video):
        batch = FrameBatch(tiny_video, np.arange(6))
        narrowed = batch.restrict_to(np.array([5, 1]))
        assert np.array_equal(narrowed.indices, [1, 5])

    def test_default_covers_whole_video(self, tiny_video):
        assert len(FrameBatch(tiny_video)) == tiny_video.num_frames

    def test_mismatched_features_rejected(self, tiny_video):
        with pytest.raises(ValueError):
            FrameBatch(tiny_video, [1, 2, 3], features=np.zeros((2, 4)))


class TestBatchSizeHint:
    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryHints(batch_size=0)
        with pytest.raises(ConfigurationError):
            QueryHints(batch_size=-3)

    def test_describe_mentions_batch_size(self):
        assert "batch_size=128" in QueryHints(batch_size=128).describe()

    def test_hint_reaches_execution_control(self, tiny_engine):
        session = tiny_engine.session(hints=QueryHints(batch_size=17))
        stream = session.stream("SELECT * FROM tiny WHERE class = 'car'")
        assert stream.control.batch_size == 17
        stream.close()
