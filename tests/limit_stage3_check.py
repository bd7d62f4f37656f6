"""Build the third stage of the k3 ``luk:4`` limit and check its digests.

Run from the root of a source checkout:

    python3 tests/limit_stage3_check.py

It runs ``limit build --class k3 --chain luk:4 --stages 3 --budget 2``
in this process through ``cli.main``, into a temporary directory, and
compares the sha256 of ``stage003.gs`` and ``transcript.json`` with the
recorded ones.  It prints the time spent in ``cli.main``, the CPU time
and the peak resident set size of the process, and exits with 1 when a
digest differs.

The file name does not start with ``test_``, so pytest does not collect
it.  ``test_cli.test_limit_build_k3_luk4_third_stage_digests`` pins the
same digests in the test suite; this script also reports the time and
the memory that the build takes.
"""

import hashlib
import os
import resource
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from gradedmodels import cli  # noqa: E402

# Recorded when tables became ``bytes``; every later change keeps them.
EXPECTED = {
    "stage003.gs": "18daafcf4d2b23f0d4a0ae6fd41daddfa583998a0eb69491a67358312419ad12",
    "transcript.json": "48604d65a4c322fff9b73fcf699a7eff079ecdb3f3ff342404f6aa6fdd4da28b",
}

ARGV = ["limit", "build", "--class", "k3", "--chain", "luk:4", "--stages", "3", "--budget", "2"]


def main() -> int:
    with tempfile.TemporaryDirectory() as folder:
        out = os.path.join(folder, "built")
        wall, cpu = time.perf_counter(), time.process_time()
        with open(os.devnull, "w") as sink:
            saved, sys.stdout = sys.stdout, sink
            try:
                rc = cli.main(ARGV + ["--out", out])
            finally:
                sys.stdout = saved
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        digests = {}
        for name in EXPECTED:
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{' '.join(ARGV)}: exit {rc}")
    print(f"cli.main: {wall:.1f} s wall, {cpu:.1f} s CPU; peak RSS {peak_mb:.0f} MB")
    ok = rc == 0
    for name, want in EXPECTED.items():
        same = digests[name] == want
        ok = ok and same
        print(f"{name}: {digests[name]} {'ok' if same else 'DIFFERS, expected ' + want}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
