"""Start ``python -m repro.service`` for the benchmark, optionally traced.

Usage: ``python3 perfbench/launcher.py [--trace-out FILE] <service arguments>``

With ``--trace-out``, SIGUSR1 installs the same layer wrappers the in-process
workloads use, plus the service's drainer and wire encoder, and writes
``FILE.armed`` once they are in place.  On SIGINT the service shuts down and
the launcher writes every span and counter, with this process's peak RSS and
CPU seconds read from ``/proc``, to ``FILE``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import SpanRecorder, proc_cpu_seconds, proc_peak_rss_mb  # noqa: E402
from layers import install_engine_wrappers, install_server_wrappers  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", default=None)
    args, service_args = parser.parse_known_args()

    recorder: SpanRecorder | None = None
    if args.trace_out is not None:
        recorder = SpanRecorder()
        trace_out = args.trace_out

        def arm(_signum: int, _frame: object) -> None:
            install_engine_wrappers(recorder)
            install_server_wrappers(recorder)
            Path(f"{trace_out}.armed").write_text("armed\n", encoding="ascii")

        signal.signal(signal.SIGUSR1, arm)

    from repro.service.__main__ import main as service_main

    sys.argv = ["python -m repro.service", *service_args]
    try:
        return service_main()
    finally:
        if recorder is not None:
            recorder.uninstall()
            recorder.dump(
                args.trace_out,
                {"peak_rss_mb": proc_peak_rss_mb(), "cpu_s": proc_cpu_seconds()},
            )


if __name__ == "__main__":
    raise SystemExit(main())
