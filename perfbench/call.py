"""One degenma CLI invocation in a fresh interpreter, as a user makes it.

    PYTHONPATH=src python3 perfbench/call.py [--trace] <degenma arguments>

run.py starts one of these per timed call, so no state kept between calls in
one process (a module-level cache, say) reaches the next call. The last line
of standard output is one JSON object:

- `ready`: time.perf_counter() once degenma.cli is imported. On Linux it reads
  CLOCK_MONOTONIC, which every process shares, so the parent subtracts its own
  clock reading from before the spawn to get the set-up time.
- `start`, `wall_s`: time.perf_counter() when `degenma.cli.main(argv)` is
  called, and the wall clock around it, output writing included.
- `exit`: what main returned (None if it raised).
- `peak_rss_mb`: peak resident memory of this process.
- with --trace: `layers` (tracing.layer_metrics without the overhead ratio)
  and `shares` (the largest self times).
"""

import time

import degenma.cli as cli

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if Path(cli.__file__).resolve().parent != SRC / "degenma":
        print(f"perfbench: degenma imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    argv = sys.argv[1:]
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    tracer = tracing.Tracer()
    report = {"ready": READY, "exit": None}
    with contextlib.redirect_stdout(io.StringIO()):
        with tracing.instrument(tracer) if trace else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                report["exit"] = cli.main(argv)
            except SystemExit as exc:  # argparse reports usage errors by exiting
                report["exit"] = exc.code
            except Exception:  # a crashing call is a failed operation; the parent counts it
                traceback.print_exc()
            report["start"], report["wall_s"] = start, time.perf_counter() - start
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        report["layers"] = tracing.layer_metrics(tracer.spans)
        report["shares"] = tracing.self_time_shares(tracer.spans, report["wall_s"])[:12]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
