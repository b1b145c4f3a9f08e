"""Benchmark of the BlazeIt reproduction: two closed-loop query mixes.

Usage::

    python3 perfbench/run.py --workload local_mix --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke          # every workload briefly, both modes
    python3 -m pytest perfbench -q            # self-tests of the statistics

Every run builds the engine from ``src/`` beside this directory, draws its
queries from ``--seed`` and checks every answer against the detector's own
output over the test day.  ``--trace 0`` measures for ``--seconds`` with
nothing wrapped and reports the end-to-end metrics; ``--trace 1`` spends
half the time untraced and half with a span around every call into each
layer, and reports the per-layer metrics plus the tracing overhead.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the run's settings.  A wrong answer makes the exit code 1.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and (through the environment) in the
# server subprocess: BLAS threads double aggregate CPU and swing latencies.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def source_identity() -> dict[str, str | None]:
    """The commit when the tree is a git checkout, and a digest of ``src/``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def environment() -> dict[str, object]:
    import numpy

    return {
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **source_identity(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import run_workload

    result = run_workload(workload, seed, seconds, trace, OUT)
    print(json.dumps({"meta": {**result.meta, "seed": seed, "trace": trace, **environment()}}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


def smoke() -> int:
    """Every workload for two seconds, untraced and traced, one set-up each."""
    from workloads import run_workload, workloads

    status = 0
    for name in workloads():
        for trace in (False, True):
            result = run_workload(name, seed=1, seconds=2.0, trace=trace, out_dir=OUT, setups=1)
            ok = result.correct and result.attempted > 0
            status |= 0 if ok else 1
            print(
                f"{name} trace={int(trace)}: {'ok' if ok else 'FAILED'} "
                f"({result.attempted} attempted, {result.failed} failed)"
            )
            for note in result.meta.get("failures", []):
                print(f"  {note}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    from workloads import workloads

    if args.workload not in workloads():
        parser.error(f"--workload must be one of {', '.join(workloads())}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
