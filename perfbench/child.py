"""Run one CLI operation in this fresh interpreter and report on it.

Usage: ``child.py MODE PREFIX [CLI ARGS...]`` with MODE one of

* ``setup``: import the CLI and stop;
* ``run``: call ``gradedmodels.cli.main(CLI ARGS)``;
* ``trace``: the same with the benchmark's tracer installed first.

The CLI's standard output is captured into ``PREFIX.out`` and a trace
into ``PREFIX.trace``.  The last line on standard output is a JSON
record: the monotonic time at which ``cli.main`` could be entered, the
time spent inside it, its return code, the speed samples and the peak
resident set size.

Speed samples: every SAMPLE_EVERY_S of ``cli.main``, a timer signal runs
a fixed pure-Python loop and records how long it took.  That measures the
machine's speed while the operation runs, at about 1.5 % of its time,
which is subtracted from the reported ``cli.main`` time.

Only ``sys`` and ``time`` are imported before the CLI, so the entry time
measures interpreter start and ``import gradedmodels`` alone.
"""

import sys
import time

SAMPLE_EVERY_S = 0.1


def _speed_unit() -> int:
    """Fixed work in the style of the library's inner loops: tuple keys, dict updates, min/max."""
    table: dict = {}
    total = 0
    for i in range(400):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + 1
        total += min(key) + max(i % 5, 2)
    return total + len(table)


def _start_sampler(samples: list) -> None:
    """Append the duration of a fixed loop to ``samples`` every SAMPLE_EVERY_S."""
    import gc
    import signal

    clock = time.perf_counter

    def sample(signum, frame):
        # No collection of the library's objects may run inside a sample,
        # or its time would be taken from ``cli.main`` time.
        gc.disable()
        start = clock()
        for _ in range(4):
            _speed_unit()
        samples.append(clock() - start)
        gc.enable()

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)


def _stop_sampler() -> None:
    import signal

    signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> None:
    mode, prefix, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from gradedmodels import cli

    entered = time.monotonic()
    import contextlib
    import io
    import json
    import resource

    record = {"entered": entered}
    if mode != "setup":
        run = cli.main
        tracer = None
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
            run = tracer.span(f"{tracing.CLI_SPAN}@cli.main", cli.main)
        captured = io.StringIO()
        samples: list = []
        _start_sampler(samples)
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            rc = run(argv)
        elapsed = time.perf_counter() - start
        _stop_sampler()
        record["main_s"] = elapsed - sum(samples)
        record["samples"] = samples
        record["rc"] = rc
        with open(prefix + ".out", "w", encoding="utf-8") as fh:
            fh.write(captured.getvalue())
        if tracer is not None:
            tracer.dump(prefix + ".trace")
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(record))


if __name__ == "__main__":
    main()
