"""Time the reference solver gw_solve from a given source tree.

    python tools/bench_gw.py src

imports dpcst from the directory given (a checkout's src), runs gw_solve on
generate_random_instance(n, 3n, 1) for n = 40, 80, 160 and 320, and prints
one JSON object: the median process-CPU seconds per n over REPS runs,
the git SHA of the checkout holding that directory, and the Python version.
Point it at two checkouts to compare them; every run solves the same
instances, so the medians differ only by the code.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIZES = (40, 80, 160, 320)
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", type=Path, help="directory that holds the dpcst package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from dpcst.gw import gw_solve
    from dpcst.instance import generate_random_instance

    medians = {}
    for n in SIZES:
        inst = generate_random_instance(n, 3 * n, 1)
        times = []
        for _ in range(REPS):
            start = time.process_time()
            gw_solve(inst)
            times.append(time.process_time() - start)
        medians[str(n)] = round(statistics.median(times), 4)
    print(json.dumps({
        "metric": "gw_solve process CPU, median",
        "unit": "s",
        "instances": "generate_random_instance(n, 3n, 1)",
        "reps": REPS,
        "median_s": medians,
        "git_sha": git_sha(args.src.resolve()),
        "python": platform.python_version(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
