"""End-to-end and per-layer benchmark of the dpcst command-line loops.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a closed loop with one caller: an operation is a
short sequence of ``dpcst`` commands run in-process through
``dpcst.cli.main``, and the next operation starts when the previous one has
returned.

Workloads (why each was chosen is in BENCHMARK.json):

- ``pipeline``: ``solve --alg dpcst --schedule eager --trace F``, then
  ``verify --no-exact``, then ``solve --alg gw``, on n = 40, 80, 160 with
  m = 3n.  A pass runs whole rounds of one instance per size.
- ``oracle``: ``solve --alg dpcst --schedule seeded:<k> --trace F``, then
  ``verify`` with the exact oracle, then ``solve --alg gw``, on small
  instances (n = 8, 10, 12; m from n-1 to 3n).
- ``schedules``: one instance (n = 60, m = 6n) solved under ``eager`` and
  by ``gw`` once, then under many ``seeded:<k>`` schedules, solution only;
  every seeded solution must equal the eager one.

Every output is checked: solutions against the instance, verify reports
against their exit code, objectives against (2 - 1/(n-1)) times the optimum
where it is known.  An operation fails when a command raises or exits 1 or
3, or when a check fails; exit code 2 (a certificate violation) is counted
in ``verify_violations`` instead.

``--trace 0`` runs the set-up (generating the instances and rendering their
files) several times, ``setup_s`` being the median, writes the files and runs
one untraced pass of at least ``--seconds``; its last output line holds the
end-to-end metrics.  ``--trace 1`` adds a traced pass over a fixed prefix of
the operations, which wraps each layer's public functions (see probes.py),
and its last line holds the per-layer metrics.  The lines before it give
every metric by name with its unit, the run metadata, the per-size layer
times and the dpcst/gw disagreements.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from time import process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 11


def load_program():
    """Import dpcst from the checkout's src/, and nothing else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import dpcst
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dpcst from {src}: {exc}")
    if not os.path.abspath(dpcst.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: dpcst imported from {dpcst.__file__}, not from {src}")


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def src_sha256() -> str:
    """Digest of the program's sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "dpcst")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()


@contextlib.contextmanager
def scratch_dir(tag: str):
    """A work directory inside the checkout, removed afterwards."""
    path = os.path.join(ROOT, ".perfbench_work", tag)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(path))


def measure(workload: str, seed: int, seconds: float, traced: bool, workdir: str) -> dict:
    """Set up, run the passes and return the full report."""
    import harness
    from corpus import TRACED_OPS, build_corpus

    # Set-up is timed without the file writes: on a shared 2-core VM with an
    # ext4 virtual disk, creating a file cost anywhere from 10 to 160 us of
    # CPU, drifting over tens of minutes, which swamps the generation work a
    # change could move into set-up.  The write time is reported apart.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = process_time()
        corpus = build_corpus(workload, seed, workdir)
        setup_times.append(process_time() - start)
    start = process_time()
    corpus.write_files()
    write_s = process_time() - start

    n_traced = min(TRACED_OPS[workload], len(corpus.ops))
    untraced = harness.run_pass(corpus, False, seconds=seconds, min_ops=n_traced if traced else 0)
    report = {
        "meta": {
            "workload": workload,
            "seed": seed,
            "derived_seeds": corpus.seeds,
            "seconds": seconds,
            "git_sha": git_sha(),
            "src_sha256": src_sha256(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "instance_files_write_s": round(write_s, 4),
            "untraced_ops": len(untraced.ops),
            "untraced_cpu_s": round(untraced.seconds, 3),
            "untraced_wall_s": round(untraced.wall, 3),
        },
        "end_to_end": harness.end_to_end(untraced, setup_times, harness.peak_rss_mb()),
        "failures": [f"{r.label}: {f}" for r in untraced.ops for f in r.failures],
        "attempted": len(untraced.ops),
        "failed": untraced.failed,
    }
    if traced:
        with open(os.path.join(HERE, "digests.json")) as fh:
            pinned = json.load(fh).get(workload, {})
        t = harness.run_pass(corpus, True, ops=n_traced)
        report["per_layer"], report["traced"] = harness.per_layer(t, untraced, pinned)
        report["meta"]["traced_ops"] = len(t.ops)
        report["failures"] += [f"traced {r.label}: {f}" for r in t.ops for f in r.failures]
        report["attempted"] += len(t.ops)
        report["failed"] += t.failed
    return report


def _format(name: str, m: dict) -> str:
    if "omitted" in m:
        return f"  {name:<28} omitted: {m['omitted']}"
    return f"  {name:<28} {m['value']:.6g} {m['unit']}"


def print_report(report: dict):
    print("perfbench " + json.dumps(report["meta"], sort_keys=True))
    sections = [("end_to_end", "end-to-end (untraced pass)"), ("per_layer", "per-layer (traced pass)")]
    for key, title in sections:
        if key in report:
            print(title + ":")
            for name, m in report[key].items():
                print(_format(name, m))
    if "traced" in report:
        for key, value in report["traced"].items():
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
    for line in report["failures"]:
        print("FAILED " + line)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    load_program()
    from corpus import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with scratch_dir(str(os.getpid())) as workdir:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    print_report(report)
    key = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: report[key][m["name"]] for m in spec[key]}
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
