"""Run one fubini CLI command with the span tracer installed.

Usage: python3 perfbench/cli_child.py SPANS_JSON ARGS...

Behaves like ``python3 -m fubini ARGS...`` (same stdout, same exit code)
and, when the command ends, writes the spans and its own timestamps to
SPANS_JSON. Timestamps are CLOCK_MONOTONIC seconds, comparable with the
parent's spawn time.
"""

import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import sys  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import fubini  # noqa: F401

    t1 = time.perf_counter()
    import tracer

    trace = tracer.Tracer()
    tracer.install(trace)
    t2 = time.perf_counter()
    from fubini import cli

    t3 = time.perf_counter()
    cli_main = trace.wrap("cli.main", cli.main)
    code = 1
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        ended = time.clock_gettime(time.CLOCK_MONOTONIC)
        sys.stdout.flush()
        trace.dump(
            spans_path,
            started=STARTED,
            ended=ended,
            import_s=(t1 - t0) + (t3 - t2),
            install_s=t2 - t1,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
