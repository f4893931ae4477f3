"""Self-test of the benchmark, mostly at tiny scale.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()

import corpus  # noqa: E402
import harness  # noqa: E402
from probes import Probe  # noqa: E402

# every metric the benchmark promises, whether or not BENCHMARK.json bounds it
END_TO_END = (
    "setup_s", "ops_per_s", "latency_p50_s", "latency_p90_s", "deliveries_per_s", "peak_mem_mb",
    "failed_frac", "verify_violations", "objective_vs_gw", "objective_vs_opt",
)
PER_LAYER = (
    "sim.run_s", "sim.run_self_s", "sim.step_self_s", "node.transition_s", "node.transitions",
    "node.transition_us", "sim.write_trace_s", "sim.read_trace_s", "sim.trace_bytes",
    "sim.trace_records", "verify.replay_s", "verify.edge_packing_s", "verify.penalty_packing_s",
    "verify.ratio_s", "verify.bounds_s", "verify.moats", "verify.penalty_partial", "exact.solve_s",
    "exact.subsets", "gw.solve_s", "instance.parse_s", "cli.self_s", "sim.deliveries", "sim.rounds",
    "sim.max_round_msgs_over_cap", "sim.rounds_over_cap", "sim.prune_dup_receipts",
    "sim.trace_digests_checked", "sim.trace_digest_changes", "quality.gw_disagreements",
    "quality.objective_vs_gw",
    "verify_violations", "failed_frac", "trace.overhead_s", "trace.overhead_frac",
) + tuple(f"sim.msgs.{t}" for t in harness.MSG_TYPES)

TINY = {
    "PIPELINE_SIZES": (8, 10),
    "PIPELINE_ROUNDS": 2,
    "ORACLE_INSTANCES": 20,
    "SCHEDULES_N": 8,
    "SCHEDULES_M": 16,
    "SCHEDULES_SEEDED": 4,
    "TRACED_OPS": {"pipeline": 4, "oracle": 6, "schedules": 3},
}


@contextlib.contextmanager
def tiny_corpus():
    saved = {name: getattr(corpus, name) for name in TINY}
    for name, value in TINY.items():
        setattr(corpus, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(corpus, name, value)


def _with_unit(m: dict) -> bool:
    return isinstance(m.get("value"), (int, float)) and bool(m.get("unit"))


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_every_metric_printed_with_unit_or_omitted(workload):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with tiny_corpus(), run.scratch_dir(f"smoke-{os.getpid()}") as workdir:
        report = run.measure(workload, 3, 0.1, True, workdir)
    assert report["failed"] == 0, report["failures"]
    for section, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for name in names:
            m = report[section][name]
            assert _with_unit(m) or m.get("omitted"), (section, name, m)
        # what BENCHMARK.json lists is always measured, with the unit it declares
        for entry in spec[section]:
            m = report[section][entry["name"]]
            assert _with_unit(m) and m["unit"] == entry["unit"], (section, entry, m)
    assert set(report["meta"]) >= {"git_sha", "src_sha256", "python", "nproc", "seed", "derived_seeds"}


def _tamper(trace_path: str):
    """Change the last traced deficit so the replay disagrees with the trace."""
    with open(trace_path) as fh:
        records = [json.loads(line) for line in fh]
    last = max(i for i, r in enumerate(records) if r["kind"] == "state" and r["field"] == "d_v")
    records[last]["new"] = str(harness.Fraction(records[last]["new"]) + 1)
    with open(trace_path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


def test_tampered_trace_counts_as_failed():
    with tiny_corpus(), run.scratch_dir(f"smoke-{os.getpid()}") as workdir:
        c = corpus.build_corpus("pipeline", 3, workdir)
        c.write_files()
        op = c.ops[0]
        with Probe(False) as probe:
            good = harness.run_op(probe, op, 0, {})  # removes its trace when done
            probe.start_op(1)
            _rc, _out, _times, error = harness.run_command(probe, op.commands[0].argv)
            assert error is None, error
            _tamper(op.commands[0].trace_path)
            replay = corpus.Op(op.label, op.inst, op.commands[1:])  # verify, then gw
            bad = harness.run_op(probe, replay, 1, {})
    assert not good.failed, good.failures
    assert bad.failed and "exit 3" in bad.failures[0], bad.failures
    e2e = harness.end_to_end(harness.PassResult([good, bad]), [0.1], 1.0)
    assert e2e["failed_frac"]["value"] == 0.5


def test_anchors_reproduce_baseline_and_pinned_traces():
    """Eager delivery counts at n = 40 and 80 (n = 160 is in every traced
    pipeline report) and the pinned digests of the cheap anchors."""
    with open(os.path.join(run.HERE, "digests.json")) as fh:
        pinned = json.load(fh)
    with run.scratch_dir(f"smoke-{os.getpid()}") as workdir:
        for workload in ("pipeline", "oracle"):
            c = corpus.build_corpus(workload, 0, workdir)
            c.write_files()
            with Probe(False) as probe:
                for i, op in enumerate(c.ops):
                    if not op.anchor or op.inst.n > 80:
                        continue
                    probe.start_op(i)
                    cmd = op.commands[0]
                    rc, _out, _times, error = harness.run_command(probe, cmd.argv)
                    assert error is None, error
                    if workload == "pipeline":
                        deliveries = probe.captured["sim.run"][-1].step - 1
                        assert deliveries == harness.BASELINE_DELIVERIES[op.inst.n]
                    assert harness.file_digest(cmd.trace_path) == pinned[workload][op.label], op.label


def test_exits_nonzero_without_the_program():
    with run.scratch_dir(f"bare-{os.getpid()}") as bare:
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
