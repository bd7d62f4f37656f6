"""Benchmark of the ``gradedmodels`` command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for the operations and why each exists):
``verify``, ``enumerate``, ``limit`` and ``inspect``.  Only ``inspect``
uses the seed; the others are exhaustive and ignore it.

The load is a closed loop with one client.  Operations run one after
another, each in a fresh interpreter that imports the checkout's
``src/gradedmodels`` and calls ``cli.main``, as a user's command would, so
no in-process cache carries over from one operation to the next.  A pass
is one run of the workload's operation list.  Everything a run spawns
counts against ``--seconds``: a warm-up child, the known-failure probe,
the import-only children and the passes.  Passes repeat while the next
one is expected to end within ``--seconds``, and at least one runs.

With ``--trace 0`` the result line carries the end-to-end metrics:

* ``wall_s``: the summed ``cli.main`` time of one pass, median over
  passes, rescaled to a reference machine speed;
* ``setup_s``: median time from spawning a child to entering ``cli.main``,
  over every child of the run (SETUP_SAMPLES import-only children plus
  one per operation);
* ``peak_rss_mb``: the largest peak resident set size of any child.

On a shared host the speed of a container drifts by 20-30 % over
minutes, and CPU time drifts with it.  While an operation runs,
``child.py`` times a fixed pure-Python loop ten times a second and
subtracts that time from the ``cli.main`` time; ``wall_s`` is multiplied
by REFERENCE_SAMPLE_S over the median of those samples in the run.  The
unscaled median is printed too, on a line of its own that starts with
``unscaled``.  ``setup_s`` is not rescaled: set-up children run no
samples, and rescaling them by the operations' samples widened its
spread.

With ``--trace 1`` one untraced pass is followed by one traced pass, and
the result line carries the per-layer metrics of ``tracer.layer_metrics``
for the traced pass, plus ``trace.overhead_ratio``, the traced pass's
``wall_s`` over the untraced one's.  Both passes run whatever
``--seconds`` says, since the ratio needs both: on ``limit`` a traced
run takes about 40 s.

Every operation's output is checked (``workloads.Op.check``).  The result
line counts operations attempted and failed; the share failed is
``failed / attempted``.  Before the timed passes, a known-failure probe
(``workloads.PROBE``) runs once, untimed, and its outcome is printed.

The last line of standard output is the JSON result.  Without
``src/gradedmodels`` under the working directory the benchmark prints no
result and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 10
DEADLINE_S = 170  # every child is killed by then, so a run ends within 180 s
# One speed sample of child.py takes about this long on a 2.1 GHz Xeon
# container at its typical speed.
REFERENCE_SAMPLE_S = 0.0015


class Runner:
    """Spawns children of ``child.py`` one at a time, with a run-wide deadline."""

    def __init__(self, root: str, work: str, deadline_s: float = DEADLINE_S):
        self.cwd = os.path.join(work, "ops")
        self.io = os.path.join(work, "io")
        os.makedirs(self.cwd)
        os.makedirs(self.io)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.deadline = time.monotonic() + deadline_s
        self.spawned = 0

    def spawn(self, mode: str, argv=()) -> tuple[dict | None, str, str]:
        """Run one child; returns (its record or None, captured CLI output, stderr)."""
        prefix = os.path.join(self.io, str(self.spawned))
        self.spawned += 1
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None, "", "benchmark deadline passed"
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), mode, prefix, *argv],
                                cwd=self.cwd, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "", "killed at the benchmark deadline"
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, "", err.strip() or f"child exited with code {proc.returncode}"
        record = json.loads(lines[-1])
        record["setup_s"] = record["entered"] - spawned
        record["prefix"] = prefix
        captured = ""
        if mode != "setup":
            with open(prefix + ".out", encoding="utf-8") as fh:
                captured = fh.read()
            os.remove(prefix + ".out")
        return record, captured, err


class Run:
    """What one invocation measured."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.maxrss_kb = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.speed_samples: list[float] = []

    def note(self, record: dict) -> None:
        self.setup_s.append(record["setup_s"])
        self.maxrss_kb = max(self.maxrss_kb, record["maxrss_kb"])
        self.speed_samples.extend(record.get("samples", ()))

    def scale(self) -> float:
        """Reference speed over the speed the samples of this run measured."""
        if not self.speed_samples:
            return 1.0
        return REFERENCE_SAMPLE_S / statistics.median(self.speed_samples)


def run_pass(runner: Runner, wl, registry: dict, run: Run, mode: str, on_record=None) -> float:
    """One pass over the operation list; returns its summed ``cli.main`` time."""
    for out in wl.outputs:
        shutil.rmtree(os.path.join(runner.cwd, out), ignore_errors=True)
    total = 0.0
    for op in wl.ops:
        run.attempted += 1
        record, captured, err = runner.spawn(mode, op.argv)
        if record is None:
            run.failures.append(f"{op.key}: crashed: {err.splitlines()[-1] if err else ''}")
            continue
        run.note(record)
        total += record["main_s"]
        problem = op.check(workloads.Result(record["rc"], captured, runner.cwd), registry)
        if problem is not None:
            run.failures.append(f"{op.key}: {problem}")
        if on_record is not None:
            on_record(record)
    return total


def probe(runner: Runner) -> str:
    record, captured, err = runner.spawn("run", workloads.PROBE)
    shutil.rmtree(os.path.join(runner.cwd, "probe"), ignore_errors=True)
    if record is None:
        return f"crashed: {err}"
    message = err.strip().splitlines()[-1] if err.strip() else captured.strip().replace("\n", "; ")
    return f"exit {record['rc']} in {record['main_s']:.3f} s: {message}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(args, root: str, work: str, expected: dict) -> dict:
    runner = Runner(root, work)
    wl = workloads.build(args.workload, runner.cwd, args.seed, expected["facts"])
    registry = expected["ops"]
    run = Run()
    print(f"workload {args.workload}: {len(wl.ops)} operations, seed "
          f"{args.seed if args.workload in workloads.SEEDED else 'unused'}")
    start = time.monotonic()
    runner.spawn("setup")  # warm-up: the checkout's first import may compile bytecode
    print(f"known-failure probe `{' '.join(workloads.PROBE)}`: {probe(runner)}")

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        import tracer

        untraced = run_pass(runner, wl, registry, run, "run")
        totals = tracer.Totals()

        def add_trace(record):
            totals.add_dump(record["prefix"] + ".trace")
            os.remove(record["prefix"] + ".trace")

        traced = run_pass(runner, wl, registry, run, "trace", on_record=add_trace)
        metrics.update(tracer.layer_metrics(totals))
        metrics["trace.overhead_ratio"] = (traced / untraced if untraced else 0.0, "ratio")
        print(f"untraced pass {untraced:.3f} s, traced pass {traced:.3f} s")
    else:
        for _ in range(SETUP_SAMPLES):
            record, _, err = runner.spawn("setup")
            if record is None:
                raise SystemExit(f"cannot start the CLI: {err}")
            run.note(record)
        sums: list[float] = []
        while True:
            began = time.monotonic()
            sums.append(run_pass(runner, wl, registry, run, "run"))
            took = time.monotonic() - began
            if time.monotonic() - start + took > args.seconds:
                break
        scale = run.scale()
        print(f"speed scale {scale:.4f} from {len(run.speed_samples)} samples")
        for name, values, factor in (("wall_s", sums, scale), ("setup_s", run.setup_s, 1.0)):
            q1, median, q3 = quartiles(values)
            print(f"{name}: median {median * factor:.4f}, quartiles "
                  f"{q1 * factor:.4f} / {q3 * factor:.4f}, samples {len(values)}")
            metrics[name] = (median * factor, "s")
        print("wall_s per pass, unscaled: " + " ".join(f"{v:.4f}" for v in sums))
        print("unscaled " + json.dumps({"wall_s": statistics.median(sums)}))
        metrics["peak_rss_mb"] = (run.maxrss_kb / 1024, "MB")

    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"operations attempted {run.attempted}, failed {len(run.failures)}, "
          f"ops_failed_share {len(run.failures) / run.attempted:.4f}")
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def remove_work(work: str) -> None:
    """Delete a run's scratch directory, and its parent once no run uses it."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(work))
    except OSError:
        pass  # another run still uses it


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark of the gradedmodels CLI")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gradedmodels", "cli.py")):
        print("no src/gradedmodels under the working directory; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        result = measure(args, root, work, expected)
    finally:
        remove_work(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
