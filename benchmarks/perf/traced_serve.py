"""``repro serve`` with the benchmark's layer wrappers installed.

    PYTHONPATH=src python benchmarks/perf/traced_serve.py --spans FILE serve data.csv ...

Everything after ``--spans FILE`` is passed to ``repro.cli.main`` unchanged.
Requests whose ``X-Bench-Op`` header reads ``t:<op id>`` are traced.  SIGINT
or SIGTERM stops the server, and the recorded spans are then written to
FILE as JSON.
"""

from __future__ import annotations

import json
import signal
import sys

import perf_trace


def _stop(signum, frame):
    # asyncio.run turns SIGINT into a clean cancellation of the server.
    signal.raise_signal(signal.SIGINT)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans, arguments = argv[1], argv[2:]
    tracer = perf_trace.Tracer()
    perf_trace.install(tracer)
    # A background launch may inherit SIGINT as ignored; restore it first.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _stop)
    from repro.cli import main as repro_main

    try:
        return repro_main(arguments)
    finally:
        with open(spans, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
