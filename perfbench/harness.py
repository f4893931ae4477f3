"""Passes over a workload's operations, output checks and metric aggregation.

Each command runs in-process through ``dpcst.cli.main`` with its output
captured, so the timed path is the user's command.  End-to-end time is the
process CPU time (user + system) spent inside commands: the program is
single-threaded and CPU-bound, so on an idle machine this equals wall time,
and on a shared one it leaves out the time other tenants hold the core.
Wall time is reported next to it.  The benchmark's own checks run between
commands and are not counted.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter, process_time

from dpcst import cli, sim
from dpcst.node import Message

from corpus import Command, Corpus, Op
from probes import Probe

MSG_TYPES = tuple(cls.__name__ for cls in Message.__args__)
# eager delivery counts of the ROADMAP baseline (instance seed 1, m = 3n)
BASELINE_DELIVERIES = {40: 4043, 80: 21364, 160: 52145}
LATENCY_P90_MIN_OPS = 100
REPORT_CHECKS = ("edge_packing", "penalty_packing", "ratio", "bounds")


class CheckError(Exception):
    """A command's output is wrong."""


@dataclass
class OpResult:
    index: int
    label: str
    n: int
    anchor: bool = False
    seconds: float = 0.0  # command CPU time
    wall: float = 0.0  # command wall time
    failures: list[str] = field(default_factory=list)
    deliveries: int = 0
    objectives: dict[str, Fraction] = field(default_factory=dict)  # "dpcst", "gw", "opt"
    solution: tuple | None = None
    gw: Fraction | None = None  # gw objective this op's dpcst objective is compared with
    vs_gw: Fraction | None = None
    violations: int = 0
    partial: int = 0
    moats: int = 0
    subsets: int = 0
    trace_bytes: int = 0
    trace_digest: str | None = None
    counts: dict | None = None  # sim.count_messages totals, traced pass only
    hot: dict | None = None  # summed per-delivery timings, traced pass only

    @property
    def failed(self) -> bool:
        return bool(self.failures)


@dataclass
class PassResult:
    ops: list[OpResult]
    spans: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.ops)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.ops)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.ops)


# ---------------------------------------------------------------------------
# Running commands and checking their output


def run_command(probe: Probe, argv: list[str]) -> tuple[int | None, str, tuple[float, float], str | None]:
    """(exit code, stdout, (CPU seconds, wall seconds), error); a raised
    exception gives code None."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start, cpu = perf_counter(), process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = probe.command(cli.main, argv)
    except (Exception, SystemExit):  # a crash fails the operation, not the run
        rc, error = None, traceback.format_exc(limit=-3)
    times = (process_time() - cpu, perf_counter() - start)
    if error is None and rc not in (0, 2):
        error = (err.getvalue() or out.getvalue()).strip()
    return rc, out.getvalue(), times, error


def check_solution(inst, data: dict) -> tuple[Fraction, tuple]:
    """Independent check of a printed solution; returns its objective and a
    canonical form (branch edges, steiner nodes) for comparisons."""
    branch = sorted(tuple(sorted(e)) for e in data["branch_edges"])
    steiner = set(data["steiner_nodes"])
    penalty = set(data["penalty_nodes"])
    nodes = set(inst.node_ids)
    if steiner | penalty != nodes or steiner & penalty:
        raise CheckError("steiner and penalty nodes do not partition the nodes")
    if inst.root not in steiner:
        raise CheckError("root not in the tree")
    if len(set(branch)) != len(branch) or len(branch) != len(steiner) - 1:
        raise CheckError("branch edges are not a tree on the steiner nodes")
    adj = {v: [] for v in steiner}
    for u, v in branch:
        if (u, v) not in inst.weights or u not in steiner or v not in steiner:
            raise CheckError(f"branch edge {(u, v)} is not an edge inside the tree")
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {inst.root}, [inst.root]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if seen != steiner:
        raise CheckError("branch edges do not connect the steiner nodes")
    value = sum((inst.weights[e] for e in branch), Fraction(0)) + sum(
        (inst.prizes[v] for v in penalty), Fraction(0)
    )
    if Fraction(data["objective"]) != value:
        raise CheckError(f"printed objective {data['objective']} != recomputed {value}")
    return value, (tuple(branch), tuple(sorted(steiner)))


def _check_solve(cmd: Command, op: Op, out: str, res: OpResult):
    data = json.loads(out)
    if data.get("algorithm") != cmd.kind:
        raise CheckError(f"solve printed algorithm {data.get('algorithm')!r}")
    value, canon = check_solution(op.inst, data)
    res.objectives[cmd.kind] = value
    if cmd.kind == "dpcst":
        res.solution = canon


def _check_verify(rc: int, out: str, res: OpResult):
    reports = [json.loads(line) for line in out.splitlines() if line.strip()]
    if sorted(r["check"] for r in reports) != sorted(REPORT_CHECKS):
        raise CheckError(f"verify printed checks {[r['check'] for r in reports]}")
    statuses = [r["status"] for r in reports]
    if any(s not in ("pass", "partial", "violation") for s in statuses):
        raise CheckError(f"verify printed statuses {statuses}")
    res.violations += statuses.count("violation")
    res.partial += statuses.count("partial")
    if (rc == 2) != (res.violations > 0):
        raise CheckError(f"verify exit code {rc} disagrees with its reports {statuses}")


def _ratio(a: Fraction, b: Fraction) -> Fraction | None:
    """a / b with 0/0 = 1; None when only b is 0."""
    if b == 0:
        return Fraction(1) if a == 0 else None
    return a / b


def _check_quality(op: Op, res: OpResult, reference: dict):
    factor = Fraction(2) - Fraction(1, op.inst.n - 1)
    if op.reference:
        reference["solution"] = res.solution
        reference["gw"] = res.objectives["gw"]
    elif "solution" in reference and res.solution != reference["solution"]:
        res.failures.append("seeded solution differs from the eager one")
    opt = res.objectives.get("opt")
    if opt is not None:
        for alg in ("dpcst", "gw"):
            if res.objectives[alg] > factor * opt:
                res.failures.append(f"{alg} objective {res.objectives[alg]} > {factor} * optimum {opt}")
    # schedules solve gw once per pass, in the reference operation
    res.gw = res.objectives.get("gw", reference.get("gw"))
    if res.gw is not None:
        res.vs_gw = _ratio(res.objectives["dpcst"], res.gw)
        if res.vs_gw is None:
            res.failures.append("dpcst objective positive where gw finds 0")


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_op(probe: Probe, op: Op, index: int, reference: dict) -> OpResult:
    """Run one operation's commands back to back and check every output."""
    gc.collect()  # start every operation from a collected heap, as a fresh process would
    probe.start_op(index)
    res = OpResult(index, op.label, op.inst.n, op.anchor)
    for cmd in op.commands:
        rc, out, (cpu, wall), error = run_command(probe, cmd.argv)
        res.seconds += cpu
        res.wall += wall
        if error is not None:
            res.failures.append(f"{' '.join(cmd.argv[:3])}: exit {rc}: {error}")
            break
        try:
            if cmd.kind == "verify":
                _check_verify(rc, out, res)
                if op.exact:
                    res.objectives["opt"] = probe.captured["exact.solve"][-1].opt_value
                    res.subsets = probe.captured["exact.solve"][-1].enumerated_count
                res.moats = len(probe.captured["verify.replay"][-1].moats)
            else:
                if rc != 0:
                    raise CheckError(f"solve exited {rc}")
                _check_solve(cmd, op, out, res)
                if cmd.kind == "dpcst":
                    s = probe.captured["sim.run"][-1]
                    res.deliveries = s.step - 1  # every step but the root wakeup
                    if probe.traced:
                        res.counts = _protocol_counts(s, op.inst)
                    if cmd.trace_path:
                        res.trace_bytes = os.path.getsize(cmd.trace_path)
                        if probe.traced:
                            res.trace_digest = file_digest(cmd.trace_path)
        except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            res.failures.append(f"{' '.join(cmd.argv[:3])}: {type(exc).__name__}: {exc}")
            break
    if not res.failures:
        _check_quality(op, res, reference)
    # a later lap writes a fresh file: truncating a used one makes ext4 flush it
    for cmd in op.commands:
        if cmd.trace_path and os.path.exists(cmd.trace_path):
            os.remove(cmd.trace_path)
    if probe.traced:
        res.hot = {name: tuple(v) for name, v in probe.hot.items()}
    return res


def _protocol_counts(s, inst) -> dict:
    c = sim.count_messages(s.trace)
    n, m = inst.n, inst.m
    return {
        "deliveries": c["total"],
        "rounds": c["rounds"],
        "by_type": c["by_type"],
        "records": len(s.trace),
        "max_round_msgs_over_cap": max(c["per_round"].values(), default=0) / sim.round_message_bound(n, m),
        "rounds_over_cap": c["rounds"] / (9 * n - 7),
        "prune_dup_receipts": sum(max(0, k - 1) for k in c["prune_receipts"].values()),
    }


# ---------------------------------------------------------------------------
# Passes


def run_pass(corpus: Corpus, traced: bool, seconds: float = 0.0, min_ops: int = 0, ops: int | None = None) -> PassResult:
    """Closed loop over the operation list.

    Untraced: runs until ``seconds`` of wall time and ``min_ops`` operations
    have passed, stopping only at the end of a round (one operation per size
    on ``pipeline``), so every pass has the same size mix.  Traced: runs
    exactly ``ops`` operations.
    """
    results: list[OpResult] = []
    reference: dict = {}
    start = perf_counter()
    with Probe(traced) as probe:
        i = 0
        while True:
            if ops is not None:
                if i >= ops:
                    break
            elif i % corpus.round_size == 0 and i >= min_ops and perf_counter() - start >= seconds:
                break
            results.append(run_op(probe, corpus.op(i), i, reference))
            i += 1
    return PassResult(results, probe.spans)


# ---------------------------------------------------------------------------
# Metrics


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _omitted(reason: str) -> dict:
    return {"omitted": reason}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(p: PassResult, setup_times: list[float], peak_mb: float) -> dict:
    lat = [r.seconds for r in p.ops]
    total = p.seconds
    ratios = [float(r.vs_gw) for r in p.ops if r.vs_gw is not None]
    opt_ratios = [
        float(_ratio(r.objectives["dpcst"], r.objectives["opt"]))
        for r in p.ops
        if "opt" in r.objectives and not r.failed
    ]
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "ops_per_s": _metric(len(lat) / total, "1/s"),
        "latency_p50_s": _metric(statistics.median(lat), "s"),
        "latency_p90_s": (
            _metric(statistics.quantiles(lat, n=10)[8], "s")
            if len(lat) >= LATENCY_P90_MIN_OPS
            else _omitted(f"{len(lat)} operations < {LATENCY_P90_MIN_OPS}")
        ),
        "deliveries_per_s": _metric(sum(r.deliveries for r in p.ops) / total, "1/s"),
        "peak_mem_mb": _metric(peak_mb, "MB"),
        "failed_frac": _metric(p.failed / len(p.ops), "ratio"),
        "verify_violations": _metric(sum(r.violations for r in p.ops), "count"),
        "objective_vs_gw": (
            _metric(statistics.fmean(ratios), "ratio") if ratios else _omitted("no gw objective")
        ),
        "objective_vs_opt": (
            _metric(max(opt_ratios), "ratio") if opt_ratios else _omitted("no exact optimum on this workload")
        ),
    }


# per-layer span totals: metric name -> span name
SPAN_METRICS = {
    "sim.run_s": "sim.run",
    "sim.write_trace_s": "sim.write_trace",
    "sim.read_trace_s": "sim.read_trace",
    "verify.replay_s": "verify.replay",
    "verify.edge_packing_s": "verify.edge_packing",
    "verify.penalty_packing_s": "verify.penalty_packing",
    "verify.ratio_s": "verify.ratio",
    "verify.bounds_s": "verify.bounds",
    "exact.solve_s": "exact.solve",
    "gw.solve_s": "gw.solve",
    "instance.parse_s": "instance.parse",
}


def _span_totals(spans, ops: set[int] | None = None) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s in spans:
        if ops is None or s.op in ops:
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start)
    return totals


def per_layer(t: PassResult, untraced: PassResult, pinned: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced pass, plus details for the report."""
    totals = _span_totals(t.spans)
    m = {name: _metric(totals.get(span, 0.0), "s") for name, span in SPAN_METRICS.items()}
    step_s = sum(r.hot["sim.step"][0] for r in t.ops)
    trans_s = sum(r.hot["node.transition"][0] for r in t.ops)
    transitions = sum(r.hot["node.transition"][1] for r in t.ops)
    cli_self = sum(s.self_s for s in t.spans if s.name == "cli")
    m["sim.run_self_s"] = _metric(totals.get("sim.run", 0.0) - step_s, "s")
    m["sim.step_self_s"] = _metric(step_s - trans_s, "s")
    m["node.transition_s"] = _metric(trans_s, "s")
    m["node.transitions"] = _metric(transitions, "count")
    m["node.transition_us"] = _metric(1e6 * trans_s / transitions if transitions else 0.0, "us")
    m["cli.self_s"] = _metric(cli_self, "s")
    m["sim.trace_bytes"] = _metric(sum(r.trace_bytes for r in t.ops), "bytes")

    counts = [r.counts for r in t.ops if r.counts]
    m["sim.trace_records"] = _metric(sum(c["records"] for c in counts), "count")
    m["sim.deliveries"] = _metric(sum(c["deliveries"] for c in counts), "count")
    m["sim.rounds"] = _metric(sum(c["rounds"] for c in counts), "count")
    for name in MSG_TYPES:
        m[f"sim.msgs.{name}"] = _metric(sum(c["by_type"].get(name, 0) for c in counts), "count")
    m["sim.max_round_msgs_over_cap"] = _metric(
        max((c["max_round_msgs_over_cap"] for c in counts), default=0.0), "ratio"
    )
    m["sim.rounds_over_cap"] = _metric(max((c["rounds_over_cap"] for c in counts), default=0.0), "ratio")
    m["sim.prune_dup_receipts"] = _metric(sum(c["prune_dup_receipts"] for c in counts), "count")

    m["verify.moats"] = _metric(sum(r.moats for r in t.ops), "count")
    m["verify.penalty_partial"] = _metric(sum(r.partial for r in t.ops), "count")
    m["verify_violations"] = _metric(sum(r.violations for r in t.ops), "count")
    m["exact.subsets"] = _metric(sum(r.subsets for r in t.ops), "count")
    m["failed_frac"] = _metric(t.failed / len(t.ops), "ratio")

    digests = [r.trace_digest for r in t.ops if r.trace_digest]
    anchors = [r for r in t.ops if r.anchor and r.trace_digest]
    checked = [r for r in anchors if r.label in pinned]
    changed = [r.label for r in checked if pinned[r.label] != r.trace_digest]
    m["sim.trace_digests_checked"] = _metric(len(checked), "count")
    m["sim.trace_digest_changes"] = _metric(len(changed), "count")

    disagreements = [
        {"op": r.label, "dpcst": str(r.objectives["dpcst"]), "gw": str(r.gw)}
        for r in t.ops
        if "gw" in r.objectives and r.vs_gw != 1
    ]
    m["quality.gw_disagreements"] = _metric(len(disagreements), "count")
    ratios = [float(r.vs_gw) for r in t.ops if r.vs_gw is not None]
    m["quality.objective_vs_gw"] = _metric(statistics.fmean(ratios) if ratios else 1.0, "ratio")

    # the traced pass repeats the first operations of the untraced one
    base = sum(r.seconds for r in untraced.ops[: len(t.ops)])
    m["trace.overhead_s"] = _metric(t.seconds - base, "s")
    m["trace.overhead_frac"] = _metric((t.seconds - base) / base, "ratio")

    by_n = {}
    for n in sorted({r.n for r in t.ops}):
        idx = {r.index for r in t.ops if r.n == n}
        nt = _span_totals(t.spans, idx)
        by_n[n] = {name: round(nt.get(span, 0.0), 4) for name, span in SPAN_METRICS.items()}
        by_n[n]["ops"] = len(idx)
        by_n[n]["sim.deliveries"] = sum(r.counts["deliveries"] for r in t.ops if r.n == n and r.counts)
    details = {
        "by_n": by_n,
        "disagreements": disagreements,
        "digest_changes": changed,
        "unpinned_anchors": [r.label for r in anchors if r.label not in pinned],
        "traces_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "anchor_deliveries": {
            r.label: {"deliveries": r.counts["deliveries"], "baseline": BASELINE_DELIVERIES.get(r.n)}
            for r in t.ops
            if r.anchor and r.n in BASELINE_DELIVERIES
        },
    }
    return m, details
