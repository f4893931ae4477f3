"""Time `dpcst verify --no-exact` and trace its memory, from a given source tree.

    python tools/bench_verify.py src

imports dpcst from the directory given (a checkout's src), writes the eager
trace of generate_random_instance(n, 3n, 1) for n = 40, 80, 160 and 320 into
a temporary directory with `dpcst solve --trace`, and runs `dpcst verify
--no-exact` on it in-process through dpcst.cli.main.  It prints one JSON
object: per n, the trace's records, the median process-CPU seconds over REPS
verify runs, and the tracemalloc peak of one more verify run (traced apart
from the timed runs, since tracing slows every allocation), with the git SHA
of the checkout holding that directory and the Python version.  Point it at
two checkouts to compare them; both verify the same traces.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from bench_gw import git_sha

SIZES = (40, 80, 160, 320)
REPS = 5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", type=Path, help="directory that holds the dpcst package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from dpcst import cli
    from dpcst.instance import generate_random_instance, render_instance

    def dpcst(*argv: str):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"dpcst {' '.join(argv)}: exit {code}")

    records, medians, peaks = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            inst_path, trace_path = f"{tmp}/n{n}.pcst", f"{tmp}/n{n}.jsonl"
            Path(inst_path).write_text(render_instance(generate_random_instance(n, 3 * n, 1)))
            dpcst("solve", "--trace", trace_path, inst_path)
            with open(trace_path) as fh:
                records[str(n)] = sum(1 for _line in fh)
            verify = ("verify", inst_path, trace_path, "--no-exact")
            times = []
            for _ in range(REPS):
                start = time.process_time()
                dpcst(*verify)
                times.append(time.process_time() - start)
            medians[str(n)] = round(statistics.median(times), 4)
            tracemalloc.start()
            try:
                dpcst(*verify)
                peaks[str(n)] = round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
            finally:
                tracemalloc.stop()
    print(json.dumps({
        "metric": "dpcst verify --no-exact: process CPU, median; tracemalloc peak",
        "instances": "generate_random_instance(n, 3n, 1), eager trace",
        "reps": REPS,
        "records": records,
        "median_s": medians,
        "peak_mb": peaks,
        "git_sha": git_sha(args.src.resolve()),
        "python": platform.python_version(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
