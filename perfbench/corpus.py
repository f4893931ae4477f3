"""Workload inputs: instances, instance files and the command sequence of each operation.

The operation lists of ``pipeline`` and ``oracle`` start with fixed anchors
that do not depend on the workload seed.  Their trace digests are pinned in
``digests.json`` (the determinism gate); on ``pipeline`` they are the ROADMAP
baseline (eager, m = 3n, instance seed 1).  Everything after the anchors is
drawn from the seed.

``pipeline`` runs only a handful of large instances per pass, so the seed
draws a random relabelling of the node ids of a fixed base instance rather
than a new random graph.  The relabelled instance is a different input
(different ids, tie-breaks and traces) but an isomorphic problem: at n = 80
eager delivery counts stay within 1% across relabellings, where fresh random
graphs of one size differ by 2x.  At n = 160 they still swing by 10%, which
moved ``ops_per_s`` by 6% between seeds on top of the host's own 5%, so the
n = 160 operation of every round is the baseline instance itself.  ``schedules`` keeps its one instance
fixed and draws the schedules from the seed; its input is the schedule set.
``oracle`` runs hundreds of small instances per pass, so it draws fresh
graphs and lets averaging steady the figures.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from dpcst.instance import PcstInstance, generate_random_instance, norm_edge, render_instance

WORKLOADS = ("pipeline", "oracle", "schedules")

PIPELINE_SIZES = (40, 80, 160)
# relabellings prepared per pass; later rounds reuse them cyclically
PIPELINE_ROUNDS = 8
ORACLE_SIZES = (8, 10, 12)
ORACLE_EDGE_STEPS = 5  # m from n-1 to 3n in this many even steps
ORACLE_INSTANCES = 600
ORACLE_ANCHORS = len(ORACLE_SIZES) * ORACLE_EDGE_STEPS
SCHEDULES_N = 60
SCHEDULES_M = 6 * SCHEDULES_N
SCHEDULES_SEEDED = 64  # seeded schedules prepared per pass, reused cyclically

# traced passes run a fixed prefix of the operation list, so per-layer totals
# compare across commits whatever their speed
TRACED_OPS = {"pipeline": 2 * len(PIPELINE_SIZES), "oracle": 150, "schedules": 10}


@dataclass
class Command:
    kind: str  # "dpcst", "gw" or "verify"
    argv: list[str]
    trace_path: str | None = None  # trace written (dpcst) or read (verify)


@dataclass
class Op:
    """One closed-loop operation: its commands run back to back."""

    label: str
    inst: PcstInstance
    commands: list[Command]
    anchor: bool = False
    exact: bool = False  # verify runs the exact oracle
    reference: bool = False  # schedules: this op's solution is the eager reference


@dataclass
class Corpus:
    ops: list[Op]
    files: dict[str, str]  # instance file path -> text
    seeds: dict = field(default_factory=dict)  # derived seeds, for the run metadata
    round_size: int = 1  # a pass stops only after a whole round of operations

    def op(self, i: int) -> Op:
        """The i-th operation of a pass; the list repeats when a pass outruns it."""
        return self.ops[i % len(self.ops)]

    def write_files(self):
        for path, text in self.files.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)


def relabel(inst: PcstInstance, rng: random.Random) -> PcstInstance:
    """Isomorphic copy with the non-root ids permuted; the root keeps its id."""
    others = [v for v in inst.node_ids if v != inst.root]
    image = others[:]
    rng.shuffle(image)
    perm = dict(zip(others, image))
    perm[inst.root] = inst.root
    return PcstInstance(
        [perm[v] for v in inst.node_ids],
        inst.root,
        {perm[v]: p for v, p in inst.prizes.items()},
        {norm_edge(perm[u], perm[v]): w for (u, v), w in inst.weights.items()},
    )


def _render(files: dict[str, str], workdir: str, name: str, inst: PcstInstance) -> str:
    path = os.path.join(workdir, name + ".pcst")
    files[path] = render_instance(inst)
    return path


def _solve(path: str, alg: str, schedule: str | None = None, trace: str | None = None) -> Command:
    argv = ["solve", "--alg", alg, "--json"]
    if schedule:
        argv += ["--schedule", schedule]
    if trace:
        argv += ["--trace", trace]
    return Command(alg, argv + [path], trace)


def _verify(path: str, trace: str, exact: bool) -> Command:
    argv = ["verify", path, trace] + ([] if exact else ["--no-exact"])
    return Command("verify", argv, trace)


def _pipeline(seed: int, workdir: str) -> Corpus:
    bases = {n: generate_random_instance(n, 3 * n, 1) for n in PIPELINE_SIZES}
    ops, files = [], {}
    for r in range(PIPELINE_ROUNDS):
        rng = random.Random(f"pipeline-{seed}-{r}")
        for n, base in bases.items():
            fixed = r == 0 or n == max(PIPELINE_SIZES)
            inst = base if fixed else relabel(base, rng)
            name = f"n{n}-r0" if fixed else f"n{n}-r{r}"
            path = _render(files, workdir, name, inst)
            trace = os.path.join(workdir, f"n{n}-r{r}.jsonl")
            cmds = [
                _solve(path, "dpcst", "eager", trace),
                _verify(path, trace, exact=False),
                _solve(path, "gw"),
            ]
            ops.append(Op(f"n{n}-r{r}", inst, cmds, anchor=r == 0))
    seeds = {"instance_seed": 1, "relabel": f"pipeline-{seed}-<round>"}
    return Corpus(ops, files, seeds, round_size=len(PIPELINE_SIZES))


def oracle_edges(n: int, step: int) -> int:
    lo, hi = n - 1, 3 * n
    return lo + (hi - lo) * step // (ORACLE_EDGE_STEPS - 1)


def _oracle(seed: int, workdir: str) -> Corpus:
    rng = random.Random(f"oracle-{seed}")
    ops, files = [], {}
    for i in range(ORACLE_INSTANCES):
        n = ORACLE_SIZES[i % len(ORACLE_SIZES)]
        m = oracle_edges(n, (i // len(ORACLE_SIZES)) % ORACLE_EDGE_STEPS)
        anchor = i < ORACLE_ANCHORS
        inst_seed = i if anchor else rng.randrange(1 << 30)
        k = i if anchor else rng.randrange(1 << 30)
        inst = generate_random_instance(n, m, inst_seed)
        name = f"n{n}-m{m}-i{i}"
        path = _render(files, workdir, name, inst)
        trace = os.path.join(workdir, name + ".jsonl")
        cmds = [
            _solve(path, "dpcst", f"seeded:{k}", trace),
            _verify(path, trace, exact=True),
            _solve(path, "gw"),
        ]
        ops.append(Op(f"{name}-seeded:{k}", inst, cmds, anchor=anchor, exact=True))
    return Corpus(ops, files, {"instances": f"oracle-{seed}", "anchors": ORACLE_ANCHORS})


def _schedules(seed: int, workdir: str) -> Corpus:
    inst = generate_random_instance(SCHEDULES_N, SCHEDULES_M, 1)
    files = {}
    path = _render(files, workdir, "schedules", inst)
    ops = [Op("eager+gw", inst, [_solve(path, "dpcst", "eager"), _solve(path, "gw")], reference=True)]
    rng = random.Random(f"schedules-{seed}")
    for _ in range(SCHEDULES_SEEDED):
        k = rng.randrange(1 << 30)
        ops.append(Op(f"seeded:{k}", inst, [_solve(path, "dpcst", f"seeded:{k}")]))
    return Corpus(ops, files, {"instance_seed": 1, "schedules": f"schedules-{seed}"})


_BUILDERS = {"pipeline": _pipeline, "oracle": _oracle, "schedules": _schedules}


def build_corpus(workload: str, seed: int, workdir: str) -> Corpus:
    """Generate the workload's instances and render their files; the files
    are written into workdir by ``Corpus.write_files``."""
    return _BUILDERS[workload](seed, workdir)
