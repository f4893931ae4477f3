import importlib.util
import json
import pathlib
import subprocess

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# seed -> ops_per_s on each side: the change wins seeds 1, 2 and 5, ties
# seed 3 and loses seed 4
OPS = {"parent": [1.0, 2.0, 3.0, 4.0, 5.0], "change": [1.5, 2.5, 3.0, 3.0, 6.0]}

FAKE_RUN = '''import argparse, json
ap = argparse.ArgumentParser()
ap.add_argument("--workload"); ap.add_argument("--seed", type=int); ap.add_argument("--seconds")
args = ap.parse_args()
with open({log!r}, "a") as fh:
    fh.write(f"{side} {{args.workload}} {{args.seed}} {{args.seconds}}\\n")
ops = {ops}[args.seed - 1]
print("a line before the metrics")
print(json.dumps({{"attempted": 10, "failed": {failed}, "metrics": {{
    "ops_per_s": {{"value": ops, "unit": "1/s"}},
    "latency_p50_s": {{"value": 1 / ops, "unit": "s"}},
}}}}))
'''

BENCHMARK = {
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "ops_per_s", "better": "higher"},
        {"name": "latency_p50_s", "better": "lower"},
    ],
}


def _git(repo, *argv):
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *argv],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def _commit(repo, side, log):
    (repo / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(log=str(log), side=side, ops=OPS[side], failed=int(side == "change"))
    )
    (repo / "src" / "dpcst" / "m.py").write_text("x = 1\n" * (3 if side == "parent" else 2))
    _git(repo, "add", "-A")
    _git(repo, "commit", "-qm", side)
    return _git(repo, "rev-parse", "HEAD")


def test_pairs_alternate_and_pin_quartiles_ratios_and_wins(tmp_path, monkeypatch):
    repo, log = tmp_path / "repo", tmp_path / "order.log"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src" / "dpcst").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    _git(repo, "init", "-q")
    shas = [_commit(repo, side, log) for side in ("parent", "change")]
    out = tmp_path / "BENCH.json"
    monkeypatch.chdir(repo)
    argv = [shas[0], shas[1], "--out", str(out), "--workload", "w1", "--pairs", "5", "--seconds", "2", "--layers", "0"]
    assert bench_pairs.main(argv) == 0

    runs = log.read_text().split("\n")[:-1]
    assert runs == [
        f"{side} w1 {k} 2.0" for k in range(1, 6) for side in (("parent", "change") if k % 2 else ("change", "parent"))
    ]
    bench = json.loads(out.read_text())
    assert (bench["parent_git_sha"], bench["change_git_sha"]) == tuple(shas)
    assert bench["code_lines"] == {"parent": {"m": 3, "total": 3}, "change": {"m": 2, "total": 2}}
    w1 = bench["end_to_end"]["workloads"]["w1"]
    assert list(bench["end_to_end"]["workloads"]) == ["w1"]
    assert (w1["seeds"], w1["pairs"]) == ([1, 2, 3, 4, 5], 5)
    assert w1["failed"] == {"parent": 0, "change": 5}
    assert w1["attempted"] == {"parent": 50, "change": 50}
    ops = w1["ops_per_s"]
    assert (ops["parent_runs"], ops["change_runs"]) == (OPS["parent"], OPS["change"])
    assert ops["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
    assert ops["change_q1_median_q3"] == [2.5, 3.0, 3.0]
    assert ops["median_ratio_change_over_parent"] == 1.0
    assert ops["change_better_pairs"] == 3
    latency = w1["latency_p50_s"]
    assert latency["better"] == "lower"
    assert latency["parent_q1_median_q3"] == [0.25, 0.333333, 0.5]
    assert latency["change_q1_median_q3"] == [0.333333, 0.333333, 0.4]
    assert latency["median_ratio_change_over_parent"] == 1.0
    assert latency["change_better_pairs"] == 3
    assert bench["layers"]["order"].startswith("parent first in odd rounds")


def test_compare_counts_ties_for_neither_side():
    row = bench_pairs.compare([1.0, 2.0, 2.0, 4.0], [1.0, 3.0, 1.0, 8.0], "higher")
    assert row["change_better_pairs"] == 2
    assert row["parent_q1_median_q3"] == [1.75, 2.0, 2.5]
    assert row["change_q1_median_q3"] == [1.0, 2.0, 4.25]
    assert row["median_ratio_change_over_parent"] == 1.0
    assert bench_pairs.compare([1.0, 2.0, 2.0, 4.0], [1.0, 3.0, 1.0, 8.0], "lower")["change_better_pairs"] == 1
