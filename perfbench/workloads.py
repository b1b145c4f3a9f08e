"""The benchmark's workloads: seeded query mixes, ground truth, checks.

Both are closed loops: each client sends its next query only after the
previous one returned.  ``local_mix`` drives an in-process session from one
client; ``serve_paced`` drives a query service in its own process over HTTP
from ``min(2, nproc)`` clients.  Both run the detector latency model, so a
query's wall time follows its detector calls, as in the paper.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any

import numpy as np

from harness import (
    LayerTotals,
    SpanRecorder,
    Tally,
    percentile,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    samples_beyond,
    totals_from_dump,
    trimmed_mean,
)
from layers import (
    PER_LAYER,
    ResultStats,
    install_client_wrappers,
    install_engine_wrappers,
    per_layer_metrics,
)

HERE = Path(__file__).resolve().parent

#: The query classes.
KINDS = ("aggregate", "limit", "selection", "exact")
#: Literal sets the seed deals from; small, so texts repeat (prepared hits).
ERRORS = (0.03, 0.05, 0.1)
LIMITS = (2, 3, 4)
RATES = (None, 0.01, 0.05)
EXACT_TEXTS = (
    "SELECT * FROM {video}",
    "SELECT timestamp FROM {video}",
    "SELECT trackid FROM {video}",
)
#: Classes whose latency is an end-to-end metric.  A LIMIT query makes a few
#: dozen detector calls, so its latency is mostly the engine's CPU and swings
#: with a shared host's neighbours past any gate; it is a per-layer metric.
GATED_KINDS = ("aggregate", "selection", "exact")
#: Every end-to-end metric: unit, and whether higher or lower is better.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "aggregate_tmean_s": ("s", "lower"),
    "selection_tmean_s": ("s", "lower"),
    "exact_tmean_s": ("s", "lower"),
    "query_p90_s": ("s", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
#: Executor slots of the served engine; two clients at parallelism 2 fit.
SERVICE_SLOTS = 4
#: Frames per split and seconds the detector sleeps per frame (its latency
#: model).  On a shared 2-vCPU VM the neighbours swing CPU speed by up to 25%
#: over tens of seconds; at 1 ms a frame the engine's CPU moved class
#: latencies by 10-15% with them, at 2 ms it is a sixth of a class's latency.
#: 300 frames keep >= 100 queries in a run.
FRAMES = 300
DETECTOR_S_PER_FRAME = 0.002
#: Set-ups per untraced run, whose median is ``setup_s``.
SETUPS = 3


@dataclass(frozen=True)
class WorkloadConfig:
    """One workload: scenario, LIMIT GAP and how queries reach it.

    In process, the scenario is registered twice: a cold copy the detector
    answers, and a copy served from a persistent index built at set-up;
    every query is asked of both.
    """

    scenario: str
    #: The LIMIT queries' GAP, in frames.
    gap: int
    served: bool = False
    clients: int = 1
    parallelism: int = 1


def workloads() -> dict[str, WorkloadConfig]:
    """The benchmark's workloads; why each exists is in ``BENCHMARK.json``."""
    nproc = len(os.sched_getaffinity(0))
    return {
        # Dense car and sparse bus, cold and indexed; in 300 frames cars are
        # frequent enough for the LIMITs only at GAP 20.
        "local_mix": WorkloadConfig("taipei", gap=20),
        # Service path under concurrent clients; the detector's sleeps keep
        # the short LIMIT queries from being swamped by the other client's CPU.
        "serve_paced": WorkloadConfig(
            "rialto", gap=30, served=True, clients=min(2, nproc), parallelism=2
        ),
    }


def videos(config: WorkloadConfig) -> list[str]:
    """The names the workload's queries ask about, cold copy first."""
    if config.served:
        return ["v"]
    return [config.scenario, f"{config.scenario}_indexed"]


# -- queries and ground truth ---------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One FrameQL text plus the literals its output check needs."""

    kind: str
    text: str
    cls: str = ""
    error: float = 0.0
    min_count: int = 0
    limit: int = 0
    gap: int = 0
    rate: float | None = None


def _box(box: Any) -> tuple[float, float, float, float]:
    return (box.x_min, box.y_min, box.x_max, box.y_max)


class GroundTruth:
    """The detector's own output over the test day, and checks against it."""

    def __init__(self, results: list[Any], scenario: Any) -> None:
        self.num_frames = len(results)
        classes = sorted(scenario.classes, key=lambda c: c.occupancy)
        #: Aggregates and LIMITs ask about the paper's class for the video;
        #: selections ask about its sparsest class (as the red-bus query does).
        self.primary = scenario.primary_class
        self.sparsest = classes[0].name
        self.counts = {c.name: np.array([r.count(c.name) for r in results]) for c in classes}
        self.rows = [
            Counter((d.object_class, _box(d.box)) for d in r.detections) for r in results
        ]
        self.all_rows = Counter(
            (r.frame_index, d.object_class, _box(d.box))
            for r in results
            for d in r.detections
        )

    @classmethod
    def compute(cls, scenario: str, frames: int) -> GroundTruth:
        """Run the detector's public ``detect_many`` over the whole test day."""
        from repro.detection.simulated import SimulatedDetector
        from repro.video.scenarios import generate_scenario, get_scenario

        video = generate_scenario(scenario, "test", frames)
        results = SimulatedDetector.mask_rcnn().detect_many(video, list(range(frames)))
        return cls(results, get_scenario(scenario))

    def separated(self, cls: str, min_count: int, gap: int) -> int:
        """Most frames with ``>= min_count`` objects that are ``gap`` apart."""
        found, last = 0, None
        for frame in np.flatnonzero(self.counts[cls] >= min_count):
            if last is None or frame - last >= gap:
                found, last = found + 1, frame
        return found

    def rarest_count(self, cls: str, limit: int, gap: int) -> int | None:
        """The highest count with at least ``2 * limit - 1`` instances ``gap`` apart.

        Rare events that still have enough instances are the scrubbing
        queries the paper evaluates (its Table 6 thresholds).  An accepted
        frame rules out at most two instances of a ``gap``-separated set, so
        with ``2 * limit - 1`` of them a scan that accepts qualifying frames
        in any order still reaches the LIMIT.
        """
        top = int(self.counts[cls].max())
        valid = [
            k for k in range(1, top + 1) if self.separated(cls, k, gap) >= 2 * limit - 1
        ]
        return valid[-1] if valid else None

    def check(self, query: Query, result: Any) -> tuple[str | None, float | None]:
        """Return ``(failure, error_ratio)``; ``failure`` is ``None`` when it holds."""
        if query.kind == "aggregate":
            if not math.isfinite(result.value):
                return "non-finite estimate", None
            if result.half_width > query.error + 1e-12:
                return f"half_width {result.half_width} > {query.error}", None
            truth = float(self.counts[query.cls].mean())
            return None, abs(result.value - truth) / query.error
        if query.kind == "limit":
            frames = sorted(result.frames)
            if len(frames) != query.limit or not result.satisfied:
                return f"{len(frames)} of {query.limit} frames", None
            if any(self.counts[query.cls][f] < query.min_count for f in frames):
                return "frame fails HAVING", None
            if any(b - a < query.gap for a, b in zip(frames, frames[1:])):
                return "frames closer than GAP", None
            return None, None
        if query.kind == "selection":
            got: dict[int, Counter] = defaultdict(Counter)
            for record in result.records:
                if record.object_class != query.cls:
                    return f"record of class {record.object_class}", None
                got[record.frame_index][(record.object_class, _box(record.mask))] += 1
            for frame, rows in got.items():
                expected = Counter(
                    {key: n for key, n in self.rows[frame].items() if key[0] == query.cls}
                )
                if rows != expected:
                    return f"records of frame {frame} differ from the detector", None
            truth = np.flatnonzero(self.counts[query.cls])
            missed = sum(1 for f in truth if f not in got)
            if missed > (query.rate or 0.0) * len(truth) + 1e-9:
                return f"missed {missed} of {len(truth)} frames", None
            return None, None
        rows = Counter(
            (r.frame_index, r.object_class, _box(r.mask)) for r in result.records
        )
        if rows != self.all_rows:
            return "records differ from the detector", None
        return None, None


def literal_sets(video: str, truth: GroundTruth, gap: int) -> dict[str, list[Query]]:
    """The three texts a client may be dealt for each query class.

    Each class asks about one object class and varies one literal.  The
    texts are dealt in equal shares, so every run weighs them alike and a
    class's mean latency moves only when their costs do.
    """
    primary, sparsest = truth.primary, truth.sparsest
    k = truth.rarest_count(primary, max(LIMITS), gap)
    if k is None:
        raise ValueError(f"no count of {primary!r} has {2 * max(LIMITS) - 1} instances")
    return {
        "aggregate": [
            Query(
                "aggregate",
                f"SELECT FCOUNT(*) FROM {video} WHERE class = '{primary}' "
                f"ERROR WITHIN {error} AT CONFIDENCE 95%",
                cls=primary, error=error,
            )
            for error in ERRORS
        ],
        "limit": [
            Query(
                "limit",
                f"SELECT timestamp FROM {video} GROUP BY timestamp "
                f"HAVING SUM(class='{primary}') >= {k} LIMIT {limit} GAP {gap}",
                cls=primary, min_count=k, limit=limit, gap=gap,
            )
            for limit in LIMITS
        ],
        "selection": [
            Query(
                "selection",
                f"SELECT * FROM {video} WHERE class = '{sparsest}'"
                + (f" FNR WITHIN {rate} FPR WITHIN {rate}" if rate else ""),
                cls=sparsest, rate=rate,
            )
            for rate in RATES
        ],
        "exact": [Query("exact", text.format(video=video)) for text in EXACT_TEXTS],
    }


def query_sets(config: WorkloadConfig, truth: GroundTruth) -> dict[tuple[str, str], list[Query]]:
    """The texts of every ``(video, class)`` pair the workload asks about."""
    return {
        (name, kind): queries
        for name in videos(config)
        for kind, queries in literal_sets(name, truth, config.gap).items()
    }


class QueryMix:
    """One client's query source: rotations over the sets, dealt by seed.

    Every rotation holds each set (a query class, or a class asked of one
    video) once, in an order the seed shuffles, so two concurrent clients do
    not lock into one fixed overlap for a whole run.  Each set deals its
    texts from a shuffled deck, so every run holds each text in the same
    proportion and only the order depends on the seed.
    """

    def __init__(self, sets: dict[Hashable, list[Query]], seed: int, client: int) -> None:
        self._sets = sets
        self._rng = np.random.default_rng([seed, client])
        self._rotation: list[Hashable] = []
        self._decks: dict[Hashable, list[Query]] = {key: [] for key in sets}

    def _deal(self, deck: list, cards: list) -> Any:
        if not deck:
            deck.extend(cards[i] for i in self._rng.permutation(len(cards)))
        return deck.pop()

    def next(self) -> Query:
        key = self._deal(self._rotation, list(self._sets))
        return self._deal(self._decks[key], self._sets[key])


# -- the closed loop ------------------------------------------------------------------


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    sequences: list[list[float]] = field(default_factory=list)
    texts: Counter = field(default_factory=Counter)
    tally: Tally = field(default_factory=Tally)
    stats: ResultStats = field(default_factory=ResultStats)
    wall: float = 0.0
    cpu_s: float = 0.0
    #: CPU the clients spent checking answers (charged to no query).
    check_cpu_s: float = 0.0

    @property
    def completed(self) -> int:
        return sum(len(v) for v in self.latencies.values())


def run_clients(
    executors: list[Callable[[str], Any]],
    sets: dict[Hashable, list[Query]],
    truth: GroundTruth,
    seed: int,
    seconds: float,
    classify: Callable[[Exception], str],
    recorder: SpanRecorder | None = None,
) -> Phase:
    """Run one closed-loop client thread per executor for ``seconds``."""
    phase = Phase(sequences=[[] for _ in executors])
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        mix = QueryMix(sets, seed, index)
        execute = executors[index]
        n = 0
        while time.perf_counter() < deadline:
            query = mix.next()
            n += 1
            started = time.perf_counter()
            try:
                if recorder is None:
                    result = execute(query.text)
                else:
                    result = recorder.call(
                        "bench.query", execute, (query.text,), {}, query_id=f"c{index}.{n}"
                    )
            except Exception as exc:  # every failure is counted, none stops the loop
                phase.tally.record(classify(exc), f"{query.text}: {exc!r}")
                traceback.print_exc(file=sys.stderr)
                continue
            latency = time.perf_counter() - started
            check_started = time.thread_time()
            failure, error_ratio = truth.check(query, result)
            with lock:
                phase.check_cpu_s += time.thread_time() - check_started
            if failure is not None:
                phase.tally.record("check_failed", f"{query.text}: {failure}")
                continue
            phase.tally.record("ok")
            phase.stats.add(query.kind, result, error_ratio)
            with lock:
                phase.latencies[query.kind].append(latency)
                phase.sequences[index].append(latency)
                phase.texts[query.text] += 1

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(executors))]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.wall = time.perf_counter() - started
    return phase


# -- in-process workloads ---------------------------------------------------------------


class InProcessTarget:
    """An engine and session in this process (``local_mix``)."""

    def __init__(self, config: WorkloadConfig, out_dir: Path, tag: str) -> None:
        self.config = config
        self.index_dir = out_dir / f"index-{os.getpid()}-{tag}"
        self.build_s = 0.0
        self.index_bytes = 0

    def setup(self, sets: dict[Hashable, list[Query]], truth: GroundTruth) -> float:
        """Build the engine, register both copies, index one, warm up."""
        from repro import BlazeIt, BlazeItConfig
        from repro.service.__main__ import PacedSimulatedDetector

        shutil.rmtree(self.index_dir, ignore_errors=True)
        scenario = self.config.scenario
        started = time.perf_counter()
        self.engine = BlazeIt(
            detector=PacedSimulatedDetector(DETECTOR_S_PER_FRAME),
            config=BlazeItConfig(),
            index_dir=self.index_dir,
        )
        cold, indexed = videos(self.config)
        self.engine.register_scenario(scenario, name=cold, num_frames=FRAMES)
        self.engine.register_scenario(scenario, name=indexed, num_frames=FRAMES)
        build_started = time.perf_counter()
        self.engine.build_index(indexed)
        self.build_s = time.perf_counter() - build_started
        self.session = self.engine.session()
        _warm_up(self.session.execute, sets, truth)
        elapsed = time.perf_counter() - started
        self.index_bytes = sum(
            p.stat().st_size for p in self.index_dir.rglob("*") if p.is_file()
        )
        return elapsed

    def run(self, sets, truth, seed, seconds, recorder=None) -> Phase:
        cpu = proc_cpu_seconds()
        if recorder is not None:
            install_engine_wrappers(recorder)
        try:
            phase = run_clients(
                [self.session.execute], sets, truth, seed, seconds,
                lambda exc: "raised", recorder,
            )
        finally:
            if recorder is not None:
                recorder.uninstall()
        # The answer checks run in this process too; they are not query work.
        phase.cpu_s = proc_cpu_seconds() - cpu - phase.check_cpu_s
        return phase

    def estimated_calls(self, texts: Counter) -> float:
        """Optimizer estimate of detector calls, summed over executed texts."""
        return float(sum(
            n * self.session.explain(text).estimated_detector_calls
            for text, n in texts.items()
        ))

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb()

    def layer_extra(self) -> dict[str, float]:
        return {
            "index.build_s": self.build_s,
            "index.bytes_per_frame": self.index_bytes / FRAMES,
        }

    def close(self) -> None:
        self.engine = self.session = None
        shutil.rmtree(self.index_dir, ignore_errors=True)


def _warm_up(execute: Callable[[str], Any], sets, truth: GroundTruth) -> None:
    """First execution of each query set; a wrong answer aborts the run."""
    for queries in sets.values():
        query = queries[0]
        failure, _ = truth.check(query, execute(query.text))
        if failure is not None:
            raise RuntimeError(f"warm-up query {query.text!r} failed its check: {failure}")


# -- the served workload ---------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


class ServedTarget:
    """A query service in a subprocess, started by ``launcher.py``."""

    def __init__(self, config: WorkloadConfig, out_dir: Path, tag: str) -> None:
        self.config = config
        self.trace_path = out_dir / f"server-{os.getpid()}-{tag}.json"
        self.process: subprocess.Popen | None = None

    def setup(self, sets, truth: GroundTruth, traced: bool = False) -> float:
        """Boot the server, open one tenant and session per client, warm up."""
        from repro.service.client import ServiceClient

        port = _free_port()
        command = [sys.executable, str(HERE / "launcher.py")]
        if traced:
            command += ["--trace-out", str(self.trace_path)]
        command += [
            "--scenario", self.config.scenario,
            "--frames", str(FRAMES),
            "--port", str(port),
            "--slots", str(SERVICE_SLOTS),
            "--detector-latency", str(DETECTOR_S_PER_FRAME),
        ]
        started = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=sys.stderr.fileno())
        self.client = ServiceClient("127.0.0.1", port, timeout=60.0)
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"query service exited with {self.process.returncode}")
            try:
                self.client.healthz()
                break
            except OSError:
                if time.perf_counter() - started > 120:
                    raise
                time.sleep(0.05)
        self.sessions = []
        for i in range(self.config.clients):
            self.client.create_tenant(f"bench{i}")
            session = self.client.create_session(
                f"bench{i}", hints={"parallelism": self.config.parallelism}
            )
            self.sessions.append(session)
            _warm_up(self._executor(session), sets, truth)
        return time.perf_counter() - started

    def _executor(self, session: str) -> Callable[[str], Any]:
        from repro.service.client import ServiceClient

        client = ServiceClient(self.client.host, self.client.port, timeout=60.0)
        return lambda text: client.execute(session, query=text)

    def arm_tracing(self) -> None:
        """Ask the launcher to install its wrappers, and wait until it has."""
        armed = Path(f"{self.trace_path}.armed")
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 30
        while not armed.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("the launcher did not arm tracing")
            time.sleep(0.01)
        armed.unlink()

    def frames_prefetched(self) -> float:
        return sum(
            float(line.rsplit(" ", 1)[1])
            for line in self.client.metrics().splitlines()
            if line.startswith("repro_frames_prefetched_total")
        )

    def run(self, sets, truth, seed, seconds, recorder=None) -> Phase:
        from repro.service.client import ServiceClientError

        def classify(exc: Exception) -> str:
            if isinstance(exc, ServiceClientError) and exc.status in (429, 503):
                return "refused"
            if isinstance(exc, TimeoutError):
                return "timed_out"
            return "raised"

        pid = self.process.pid
        if recorder is not None:
            self.arm_tracing()
            install_client_wrappers(recorder)
            self.prefetched_before = self.frames_prefetched()
        cpu = proc_cpu_seconds(pid)
        try:
            phase = run_clients(
                [self._executor(s) for s in self.sessions], sets, truth, seed, seconds,
                classify, recorder,
            )
        finally:
            if recorder is not None:
                recorder.uninstall()
        phase.cpu_s = proc_cpu_seconds(pid) - cpu
        return phase

    def estimated_calls(self, texts: Counter) -> float:
        return 0.0  # the wire exposes no plan estimate

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.process.pid)

    def layer_extra(self) -> dict[str, float]:
        return {
            "service.retained_queries": float(self.client.healthz()["queries"]),
            "frames_prefetched": self.frames_prefetched() - self.prefetched_before,
        }

    def server_trace(self, keep_as: Path) -> tuple[LayerTotals, dict[str, float]]:
        """Spans and counters the launcher wrote at shutdown, kept as ``keep_as``."""
        import json

        with open(self.trace_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        self.trace_path.replace(keep_as)
        return totals_from_dump(payload), payload["counters"]

    def close(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


# -- one benchmark run -----------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    meta: dict[str, Any]


def _target(config: WorkloadConfig, out_dir: Path, tag: str):
    cls = ServedTarget if config.served else InProcessTarget
    return cls(config, out_dir, tag)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, out_dir: Path, setups: int | None = None
) -> RunResult:
    """Run one workload; end-to-end metrics untraced, per-layer ones traced.

    The seed shapes only the queries; the engine keeps its default seed.
    """
    config = workloads()[name]
    setups = SETUPS if setups is None else setups
    truth = GroundTruth.compute(config.scenario, FRAMES)
    sets = query_sets(config, truth)
    meta: dict[str, Any] = {
        "workload": name,
        "scenario": config.scenario,
        "frames_per_split": FRAMES,
        "detector_s_per_frame": DETECTOR_S_PER_FRAME,
        "clients": config.clients,
        "query_texts": {"/".join(key): len(v) for key, v in sets.items()},
    }
    if not trace:
        return _untraced(config, seed, seconds, out_dir, setups, sets, truth, meta)
    return _traced(config, seed, seconds, out_dir, sets, truth, meta)


def _untraced(config, seed, seconds, out_dir, setups, sets, truth, meta) -> RunResult:
    setup_times: list[float] = []
    target = None
    try:
        for i in range(setups):
            if target is not None:
                target.close()
            target = _target(config, out_dir, f"s{i}")
            setup_times.append(target.setup(sets, truth))
        phase = target.run(sets, truth, seed, seconds)
        rss = target.peak_rss_mb()
    finally:
        if target is not None:
            target.close()
    everything = [v for values in phase.latencies.values() for v in values]
    values = {
        "setup_s": median(setup_times),
        **{
            f"{kind}_tmean_s": trimmed_mean(phase.latencies[kind]) if phase.latencies[kind] else 0.0
            for kind in GATED_KINDS
        },
        "query_p90_s": percentile(everything, 90) if everything else 0.0,
        "queries_per_s": phase.completed / phase.wall,
        "peak_rss_mb": rss,
    }
    metrics = {name: (values[name], unit) for name, (unit, _better) in END_TO_END.items()}
    meta.update(
        setup_s=setup_times,
        samples={kind: len(phase.latencies[kind]) for kind in KINDS},
        medians_s={kind: median(v) for kind, v in phase.latencies.items()},
        cpu_s_per_query=phase.cpu_s / max(phase.completed, 1),
        samples_beyond_p90=samples_beyond(everything, 90) if everything else 0,
        wall_s=phase.wall,
        outcomes=phase.tally.counts,
        failures=phase.tally.notes,
    )
    tally = phase.tally
    return RunResult(tally.failed == 0, tally.attempted, tally.failed, metrics, meta)


def _traced(config, seed, seconds, out_dir, sets, truth, meta) -> RunResult:
    half = seconds / 2.0
    baseline = _target(config, out_dir, "untraced")
    try:
        baseline.setup(sets, truth)
        untraced = baseline.run(sets, truth, seed, half)
    finally:
        baseline.close()

    recorder = SpanRecorder()
    target = _target(config, out_dir, "traced")
    try:
        if config.served:
            target.setup(sets, truth, traced=True)
        else:
            target.setup(sets, truth)
        traced = target.run(sets, truth, seed, half, recorder)
        extra = target.layer_extra()
        extra["estimated_calls"] = target.estimated_calls(traced.texts)
    finally:
        target.close()

    stem = out_dir / f"{meta['workload']}-seed{seed}"
    totals = recorder.totals()
    counters = dict(recorder.counters)
    if config.served:
        server_totals, server_counters = target.server_trace(Path(f"{stem}-server-spans.json"))
        totals.merge(server_totals)
        for key, value in server_counters.items():
            counters[key] = counters.get(key, 0.0) + value

    matched_traced = matched_untraced = 0.0
    for run_t, run_u in zip(traced.sequences, untraced.sequences):
        m = min(len(run_t), len(run_u))
        matched_traced += sum(run_t[:m])
        matched_untraced += sum(run_u[:m])
    attempted = untraced.tally.attempted + traced.tally.attempted
    failed = untraced.tally.failed + traced.tally.failed
    extra["trace_overhead_ratio"] = (
        matched_traced / matched_untraced - 1.0 if matched_untraced else 0.0
    )
    extra["failed_ratio"] = failed / attempted if attempted else 0.0
    extra["cpu_s_per_query"] = untraced.cpu_s / max(untraced.completed, 1)
    limits = untraced.latencies["limit"]
    extra["limit_tmean_s"] = trimmed_mean(limits) if limits else 0.0
    values = per_layer_metrics(totals, counters, traced.stats, extra)
    spans_path = Path(f"{stem}-spans.json")
    recorder.dump(str(spans_path), {"workload": meta["workload"], "seed": seed})
    meta.update(
        spans_file=str(spans_path.relative_to(HERE.parent)),
        spans_recorded=len(recorder.spans),
        traced_queries=traced.completed,
        untraced_queries=untraced.completed,
        outcomes={
            k: untraced.tally.counts[k] + traced.tally.counts[k] for k in untraced.tally.counts
        },
        failures=untraced.tally.notes + traced.tally.notes,
    )
    metrics = {name: (values[name], unit) for name, (unit, _better) in PER_LAYER.items()}
    return RunResult(failed == 0, attempted, failed, metrics, meta)
