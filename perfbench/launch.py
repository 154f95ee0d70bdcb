"""Run one qhesolve command line with the benchmark's tracing installed.

    PERFBENCH_T0=<parent's time.perf_counter() at spawn> \
    PERFBENCH_TRACE_OUT=<spans file> PYTHONPATH=src \
        python perfbench/launch.py solve --fixture eq7 ...

It stands in for `python -m qhesolve ...`: it imports qhesolve.cli, records
the span from spawn to that import as `cli.startup` (perf_counter reads the
system-wide monotonic clock, so the parent's stamp is comparable), installs
the wrappers, runs cli.main and writes the spans when main returns, also
after SIGINT ends `serve`.
"""
import os
import sys
import time

from qhesolve import cli

_IMPORTED = time.perf_counter()

import tracer  # noqa: E402  (after the timed import)


def main() -> int:
    spans = tracer.Tracer()
    spans.add_span("cli.startup", float(os.environ["PERFBENCH_T0"]), _IMPORTED)
    spans.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        spans.dump(os.environ["PERFBENCH_TRACE_OUT"])


if __name__ == "__main__":
    sys.exit(main())
