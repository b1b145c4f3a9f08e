"""Perf-regression harness: scalar reference vs the vectorized batch pipeline.

Times the hot paths of the reproduction — cheap feature extraction, batched
detection, and end-to-end execution of the four query classes — once through
the scalar per-frame reference and once through the vectorized/batched
pipeline, on fixed-seed synthetic videos.  The scalar side computes features
with the test suite's oracle (``tests/oracles.py``) and runs its queries with
``QueryHints(batch_size=1)``, so every detector call covers one frame.  Both
sides must produce bit-for-bit identical results; the wall-clock ratio is the
recorded speedup.  Results are written to ``BENCH_perf.json`` at the repo
root.

Run standalone (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_perf_suite.py [--quick] [--frames N]

Exits non-zero when any suite entry shows the batched path slower than the
scalar reference, or a result mismatch — which is what the CI perf smoke job
gates on.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

import numpy as np

from repro.api.hints import QueryHints
from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.detection.simulated import SimulatedDetector
from repro.persist import atomic_write_text
from repro.specialization.trainer import TrainingConfig
from repro.video.scenarios import generate_scenario

from oracles import ReferenceFeatureVideo
from reporting import print_table

#: The scenario timed by every entry: the densest of the six streams, so the
#: per-frame scalar loops carry a representative object load.
SCENARIO = "rialto"

#: Queries exercising the four query classes (``{cls}`` is the scenario's
#: primary object class).
QUERIES = {
    "aggregate": (
        "SELECT FCOUNT(*) FROM v WHERE class = '{cls}' "
        "ERROR WITHIN 0.1 AT CONFIDENCE 95%"
    ),
    "scrubbing": (
        "SELECT timestamp FROM v GROUP BY timestamp "
        "HAVING COUNT(class = '{cls}') >= 2 LIMIT 10 GAP 30"
    ),
    "selection": "SELECT * FROM v WHERE class = '{cls}'",
    "exact": "SELECT * FROM v",
}


def fingerprint(kind: str, result) -> tuple:
    """The observable output of a query result, for scalar/batched comparison."""
    if kind == "aggregate":
        return (result.value, result.samples_used, result.method)
    if kind == "scrubbing":
        return (tuple(result.frames), result.satisfied, result.method)
    records = tuple(
        (r.frame_index, r.object_class, r.trackid, r.confidence)
        for r in result.records
    )
    if kind == "selection":
        return (tuple(result.matched_frames), records, result.method)
    return (records, result.method)


def build_engine(num_frames: int, batched: bool) -> BlazeIt:
    """A fully registered engine over fresh fixed-seed videos of ``SCENARIO``.

    ``batched`` selects the videos' feature path: the columnar kernel, or
    the scalar oracle on every split (the caller pairs the latter with
    ``batch_size=1`` sessions).  Videos are regenerated per engine so each
    mode starts with cold feature caches.
    """
    config = BlazeItConfig(
        training=TrainingConfig(epochs=3, batch_size=16, min_examples=32),
        min_training_positives=50,
        specialized_model_type="mlp",
        seed=0,
    )
    splits = {
        split: generate_scenario(SCENARIO, split, num_frames)
        for split in ("train", "heldout", "test")
    }
    if not batched:
        splits = {split: ReferenceFeatureVideo.of(v) for split, v in splits.items()}
    engine = BlazeIt(detector=SimulatedDetector.mask_rcnn(), config=config)
    engine.register_video(
        "v",
        test_video=splits["test"],
        train_video=splits["train"],
        heldout_video=splits["heldout"],
    )
    return engine


def time_feature_extraction(num_frames: int) -> dict:
    """Cold full-video feature extraction, scalar loop vs columnar kernel."""
    indices = np.arange(num_frames)
    scalar_video = ReferenceFeatureVideo.of(generate_scenario(SCENARIO, "test", num_frames))
    started = time.perf_counter()
    scalar = scalar_video.frame_features(indices)
    scalar_seconds = time.perf_counter() - started
    batched_video = generate_scenario(SCENARIO, "test", num_frames)
    started = time.perf_counter()
    batched = batched_video.frame_features(indices)
    batched_seconds = time.perf_counter() - started
    return {
        "name": "feature_extraction",
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
        "identical": bool(np.array_equal(scalar, batched)),
    }


def time_query_class(kind: str, num_frames: int) -> dict:
    """End-to-end wall-clock of one query class, scalar vs batched engine.

    Each mode runs against its own freshly built engine (cold feature and
    detection caches), with the same fixed RNG stream, and must produce
    bit-for-bit identical results.  The scalar mode verifies one frame per
    chunk (``batch_size=1``).
    """
    from repro.video.scenarios import get_scenario

    query = QUERIES[kind].format(cls=get_scenario(SCENARIO).primary_class)
    timings = {}
    outputs = {}
    for mode, batched in (("scalar", False), ("batched", True)):
        engine = build_engine(num_frames, batched)
        hints = None if batched else QueryHints(batch_size=1)
        session = engine.session(video="v", hints=hints)
        prepared = session.prepare(query)
        started = time.perf_counter()
        result = prepared.execute(rng=np.random.default_rng(0))
        timings[mode] = time.perf_counter() - started
        outputs[mode] = fingerprint(kind, result)
    return {
        "name": kind,
        "scalar_seconds": timings["scalar"],
        "batched_seconds": timings["batched"],
        "speedup": timings["scalar"] / timings["batched"],
        "identical": outputs["scalar"] == outputs["batched"],
    }


def run_suite(num_frames: int, quick: bool) -> dict:
    entries = [time_feature_extraction(num_frames)]
    for kind in ("aggregate", "scrubbing", "selection", "exact"):
        entries.append(time_query_class(kind, num_frames))
    return {
        "suite": "bench_perf_suite",
        "scenario": SCENARIO,
        "frames_per_split": num_frames,
        "quick": quick,
        "entries": entries,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer frames per split",
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=None,
        help="frames per split (default: 6000, or 1500 with --quick)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_perf.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    num_frames = args.frames or (1500 if args.quick else 6000)

    report = run_suite(num_frames, args.quick)
    atomic_write_text(args.output, json.dumps(report, indent=2) + "\n")

    rows = [
        [
            entry["name"],
            entry["scalar_seconds"],
            entry["batched_seconds"],
            f"{entry['speedup']:.1f}x",
            "yes" if entry["identical"] else "NO",
        ]
        for entry in report["entries"]
    ]
    print_table(
        f"Perf suite: scalar vs batched ({SCENARIO}, {num_frames} frames/split)",
        ["entry", "scalar s", "batched s", "speedup", "identical"],
        rows,
    )
    print(f"report written to {args.output}")

    failures = [
        entry["name"]
        for entry in report["entries"]
        if entry["speedup"] < 1.0 or not entry["identical"]
    ]
    if failures:
        print(
            "PERF REGRESSION: batched path slower or diverging on: "
            + ", ".join(failures),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
