"""Time the simulator, gw, the exact oracle, the trace writer and reader, solve and verify from a source tree.

    python tools/bench_layers.py src

imports dpcst from the directory given (a checkout's src) and prints one JSON
object.  Every timing is the median process-CPU seconds over REPS runs, on
generate_random_instance(n, 3n, 1) for n = 40, 80, 160 and 320 (for the exact
oracle, n = 8 to 16):

- ``sim``: ``sim.run`` with the eager schedule, per n, and the eight runs
  seeded 1..8 on generate_random_instance(60, 360, 1), timed together, once
  recorded and once unrecorded (``sink=None``, as ``dpcst solve`` runs
  without ``--trace``, or ``record=False`` in a checkout from before the
  record sink; left out for a checkout whose ``sim.run`` records every run);
  beside each median, the deliveries it made (every step but the root
  wakeup) and the microseconds per delivery;
- ``gw``: ``gw_solve``, per n;
- ``exact``: ``exact_pcst``, with its ``enumerated_count``, per n;
- ``write``: ``sim.write_trace`` of the eager run's records, per n;
- ``read``: draining ``sim.read_trace`` over the trace ``write`` wrote, per n;
- ``solve``: ``dpcst solve --trace``, run in-process through dpcst.cli.main
  with the eager schedule, per n, with the bytes of the trace it writes and
  the tracemalloc peak of one more solve run;
- ``verify``: ``dpcst verify --no-exact``, run in-process through
  dpcst.cli.main on the eager trace that ``dpcst solve --trace`` wrote, with
  the trace's records and the tracemalloc peak of one more verify run;

with the git SHA of the checkout holding that directory and the Python
version.  Each tracemalloc peak is taken apart from the timed runs, since
tracing slows every allocation.  Point it at two checkouts to compare them;
both run the same instances, so the medians differ only by the code.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import deque
from pathlib import Path

SIZES = (40, 80, 160, 320)
EXACT_SIZES = (8, 10, 12, 14, 16)
SEEDED = (60, 360, 1)  # generate_random_instance arguments of the seeded runs
SEEDS = range(1, 9)
REPS = 5


def git_sha(path: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(path), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def median_cpu_s(fn) -> float:
    times = []
    for _ in range(REPS):
        start = time.process_time()
        fn()
        times.append(time.process_time() - start)
    return round(statistics.median(times), 4)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", type=Path, help="directory that holds the dpcst package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from dpcst import cli, sim
    from dpcst.exact import exact_pcst
    from dpcst.gw import gw_solve
    from dpcst.instance import generate_random_instance, render_instance

    def dpcst(*argv: str):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"dpcst {' '.join(argv)}: exit {code}")

    insts = {n: generate_random_instance(n, 3 * n, 1) for n in SIZES}
    # row -> its (instance, seed) runs and sim.run's keyword arguments
    sim_runs = {str(n): ([(inst, None)], {}) for n, inst in insts.items()}
    seeded = [(generate_random_instance(*SEEDED), seed) for seed in SEEDS]
    sim_runs["seeded:1..8"] = (seeded, {})
    params = inspect.signature(sim.run).parameters
    if "sink" in params:
        sim_runs["seeded:1..8 unrecorded"] = (seeded, {"sink": None})
    elif "record" in params:
        sim_runs["seeded:1..8 unrecorded"] = (seeded, {"record": False})
    sim_s, deliveries = {}, {}
    for key, (runs, kwargs) in sim_runs.items():
        counts = []
        sim_s[key] = median_cpu_s(lambda: counts.append(sum(sim.run(i, k, **kwargs).step - 1 for i, k in runs)))
        deliveries[key] = counts[0]
    gw_s = {str(n): median_cpu_s(lambda: gw_solve(inst)) for n, inst in insts.items()}
    exact_s, subsets = {}, {}
    for n in EXACT_SIZES:
        inst = generate_random_instance(n, 3 * n, 1)
        exact_s[str(n)] = median_cpu_s(lambda: exact_pcst(inst))
        subsets[str(n)] = exact_pcst(inst).enumerated_count

    write_s, read_s, solve_s, trace_bytes, records, verify_s = {}, {}, {}, {}, {}, {}
    solve_peaks, verify_peaks = {}, {}

    def peak_mb(*argv: str) -> float:
        tracemalloc.start()
        try:
            dpcst(*argv)
            return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
        finally:
            tracemalloc.stop()

    with tempfile.TemporaryDirectory() as tmp:
        for n, inst in insts.items():
            inst_path, trace_path = f"{tmp}/n{n}.pcst", f"{tmp}/n{n}.jsonl"
            trace = sim.run(inst).trace
            write_s[str(n)] = median_cpu_s(lambda: sim.write_trace(trace, trace_path))
            read_s[str(n)] = median_cpu_s(lambda: deque(sim.read_trace(trace_path), maxlen=0))
            del trace
            Path(inst_path).write_text(render_instance(inst))
            solve = ("solve", "--trace", trace_path, inst_path)
            solve_s[str(n)] = median_cpu_s(lambda: dpcst(*solve))
            solve_peaks[str(n)] = peak_mb(*solve)
            trace_bytes[str(n)] = os.path.getsize(trace_path)
            with open(trace_path) as fh:
                records[str(n)] = sum(1 for _line in fh)
            verify = ("verify", inst_path, trace_path, "--no-exact")
            verify_s[str(n)] = median_cpu_s(lambda: dpcst(*verify))
            verify_peaks[str(n)] = peak_mb(*verify)
    print(json.dumps({
        "sim": {
            "metric": "sim.run process CPU, median; deliveries; microseconds per delivery",
            "unit": "s",
            "instances": "generate_random_instance(n, 3n, 1), eager; "
            "seeded:1..8 is the eight seeded runs on generate_random_instance(60, 360, 1), "
            "recorded, and seeded:1..8 unrecorded the same runs with sink=None (record=False before the sink)",
            "reps": REPS,
            "median_s": sim_s,
            "deliveries": deliveries,
            "us_per_delivery": {k: round(1e6 * sim_s[k] / deliveries[k], 2) for k in sim_s},
        },
        "gw": {
            "metric": "gw_solve process CPU, median",
            "unit": "s",
            "instances": "generate_random_instance(n, 3n, 1)",
            "reps": REPS,
            "median_s": gw_s,
        },
        "exact": {
            "metric": "exact_pcst process CPU, median; connected root-containing subsets",
            "unit": "s",
            "instances": "generate_random_instance(n, 3n, 1)",
            "reps": REPS,
            "median_s": exact_s,
            "enumerated_count": subsets,
        },
        "write": {
            "metric": "sim.write_trace process CPU, median",
            "unit": "s",
            "instances": "generate_random_instance(n, 3n, 1), eager trace",
            "reps": REPS,
            "median_s": write_s,
        },
        "read": {
            "metric": "sim.read_trace drained, process CPU, median",
            "unit": "s",
            "instances": "generate_random_instance(n, 3n, 1), eager trace",
            "reps": REPS,
            "median_s": read_s,
        },
        "solve": {
            "metric": "dpcst solve --trace: process CPU, median; bytes of the trace; tracemalloc peak",
            "instances": "generate_random_instance(n, 3n, 1), eager",
            "reps": REPS,
            "median_s": solve_s,
            "trace_bytes": trace_bytes,
            "peak_mb": solve_peaks,
        },
        "verify": {
            "metric": "dpcst verify --no-exact: process CPU, median; tracemalloc peak",
            "instances": "generate_random_instance(n, 3n, 1), eager trace",
            "reps": REPS,
            "records": records,
            "median_s": verify_s,
            "peak_mb": verify_peaks,
        },
        "git_sha": git_sha(args.src.resolve()),
        "python": platform.python_version(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
