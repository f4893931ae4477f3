"""Benchmark two commits in alternating pairs and write a BENCH_*.json.

    python tools/bench_pairs.py PARENT CHANGE --out BENCH_N.json \\
        [--workload W ...] [--pairs K] [--seconds S] [--layers R] [--claim TEXT]

exports each commit with ``git archive`` into a scratch directory and, per
workload W (default: every workload of the change's BENCHMARK.json), runs
``perfbench/run.py --workload W --seed k --seconds S`` from each side's tree
for k = 1..K, one run at a time, parent first for odd k and change first for
even k, and parses each run's last output line.  perfbench is a black box:
its arguments and its last JSON line are all this script knows of it.

For every end-to-end metric named in BENCHMARK.json it writes each side's
runs, their quartiles (``statistics.quantiles(n=4, method='inclusive')``),
the ratio of the change's median to the parent's, and the pairs of one seed
in which the change reads better, ties counting for neither.  It then adds R
rounds per side of this script's own ``tools/bench_layers.py`` pointed at
each side's ``src`` (parent first in odd rounds), and
``tools/code_lines.py src/dpcst`` on each side.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SIDES = ("parent", "change")


def export(repo: Path, rev: str, dest: Path) -> str:
    """Unpack the tree of rev in repo into dest; return rev's commit SHA."""
    sha = subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(repo), "archive", sha], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def last_json_line(argv: list[str], cwd: Path) -> dict:
    """The last output line of one command, parsed as JSON."""
    out = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {cwd}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1])


def order(k: int) -> tuple[str, str]:
    """The sides in the order the k-th pair or round runs them."""
    return SIDES if k % 2 else SIDES[::-1]


def run_workload(trees: dict[str, Path], workload: str, pairs: int, seconds: float) -> dict[str, list[dict]]:
    """side -> the last JSON line of each of its runs, seed 1 first."""
    runs = {side: [] for side in SIDES}
    for k in range(1, pairs + 1):
        for side in order(k):
            argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(k), "--seconds", str(seconds)]
            runs[side].append(last_json_line(argv, trees[side]))
            print(f"{workload} seed {k} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
    return runs


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's runs on both sides, with quartiles, the median ratio
    and the pairs the change won."""
    won = sum(c < p if better == "lower" else c > p for p, c in zip(parent, change))
    p_q, c_q = (statistics.quantiles(runs, n=4, method="inclusive") for runs in (parent, change))
    return {
        "better": better,
        "parent_runs": parent,
        "change_runs": change,
        "parent_q1_median_q3": [round(x, 6) for x in p_q],
        "change_q1_median_q3": [round(x, 6) for x in c_q],
        "median_ratio_change_over_parent": round(c_q[1] / p_q[1], 4),
        "change_better_pairs": won,
    }


def summarize(runs: dict[str, list[dict]], metrics: dict[str, str]) -> dict:
    """A workload's entry of BENCH_*.json from its runs; metrics maps each
    end-to-end metric to "higher" or "lower", whichever is better."""
    entry = {
        "seeds": list(range(1, len(runs["parent"]) + 1)),
        "pairs": len(runs["parent"]),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
    }
    for name, better in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        entry[name] = compare(values["parent"], values["change"], better)
    return entry


def code_lines(tree: Path) -> dict[str, int]:
    out = subprocess.run(
        [sys.executable, str(TOOLS / "code_lines.py"), "src/dpcst"],
        cwd=tree, capture_output=True, text=True, check=True,
    ).stdout
    return {name: int(count) for count, name in (row.split() for row in out.splitlines())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the parent commit")
    ap.add_argument("change", help="the commit to compare with it")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_*.json to write")
    ap.add_argument("--workload", action="append", help="a workload to run (default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--layers", type=int, default=2, help="bench_layers.py rounds per side")
    ap.add_argument("--claim", default="", help="the gain the change claims, recorded as given")
    args = ap.parse_args(argv)
    repo = Path.cwd()
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        shas = {side: export(repo, rev, trees[side]) for side, rev in zip(SIDES, (args.parent, args.change))}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        end_to_end = {w: summarize(run_workload(trees, w, args.pairs, args.seconds), metrics) for w in workloads}
        layers = {}
        for k in range(1, args.layers + 1):
            layers[f"round_{k}"] = {
                side: last_json_line([sys.executable, str(TOOLS / "bench_layers.py"), "src"], trees[side])
                for side in order(k)
            }
        lines = {side: code_lines(trees[side]) for side in SIDES}
    bench = {
        "bench": f"python3 perfbench/run.py --workload W --seed k --seconds {args.seconds:g}, "
        f"{args.pairs} alternating pairs per workload (seeds 1-{args.pairs}), workloads {', '.join(workloads)} "
        f"in that order; then {args.layers} rounds of python tools/bench_layers.py per side; "
        "python tools/code_lines.py src/dpcst on each side; written by tools/bench_pairs.py",
        "machine": f"{platform.machine()} {platform.system()}, Python {platform.python_version()}; "
        "parent and change run from git archive exports of their commits, one run at a time",
        "parent_git_sha": shas["parent"],
        "change_git_sha": shas["change"],
        "claim": args.claim,
        "code_lines": lines,
        "end_to_end": {
            "order": "seed k = 1..K; parent first for odd k, change first for even k",
            "quartiles": "statistics.quantiles(n=4, method='inclusive') over the K runs of a side",
            "change_better_pairs": "pairs of the same seed in which the change's run reads better, "
            "ties counting for neither",
            "workloads": end_to_end,
        },
        "layers": {
            "order": "parent first in odd rounds, change first in even rounds; both sides timed by "
            "the same tools/bench_layers.py, pointed at each side's src",
            **layers,
        },
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
