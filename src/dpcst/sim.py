"""Deterministic discrete-event simulator for the node protocol.

Per-directed-link FIFO queues, two delivery policies, and a total-order trace
of everything that happens.  Messages carry a causal round tag: a handler's
sends inherit the tag of the delivery that triggered them, and starting a
round bumps the tag, so per-round message accounting is exact even while
floods from the previous action are still in flight.
"""

from __future__ import annotations

import json
import random
import typing
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from heapq import heappop, heappush

from . import node as nd
from .instance import (
    Edge,
    PcstInstance,
    Solution,
    format_rational,
    make_solution,
    norm_edge,
    parse_rational,
)

_MSG_TYPES = {cls.__name__: cls for cls in typing.get_args(nd.Message)}
# growth-phase wire types count against the per-round cap; Prune and
# BackwardPrune have their own totals
GROWTH_TYPES = tuple(name for name in _MSG_TYPES if name not in ("Prune", "BackwardPrune"))
# control traffic preempts everything else (see Simulation._pick)
_CONTROL = (nd.UpdateInfo, nd.Initiate)


class LivelockError(RuntimeError):
    """Step budget exceeded before quiescence."""


class TraceFormatError(ValueError):
    """A trace file line that does not decode to a record."""


# ---------------------------------------------------------------------------
# Trace records


@dataclass(frozen=True)
class Delivery:
    step: int
    link: tuple[int, int]  # (sender, receiver)
    message: nd.Message
    round_index: int


@dataclass(frozen=True)
class StateChange:
    step: int
    node: int
    field: str
    old: object
    new: object


@dataclass(frozen=True)
class EpsilonRecord:
    step: int
    leader: int
    eps1: Fraction | float
    eps2: Fraction | None
    chosen: str


@dataclass(frozen=True)
class RoundBoundary:
    step: int
    leader: int
    round_index: int


@dataclass(frozen=True)
class PhaseBoundary:
    step: int


Record = Delivery | StateChange | EpsilonRecord | RoundBoundary | PhaseBoundary


def message_bound(n: int, m: int) -> int:
    """Worst-case total message count for an (n, m) instance."""
    return (9 * n - 7) * (6 * n + 2 * m - 4) + 3 * (n - 1)


def round_message_bound(n: int, m: int) -> int:
    return 6 * n + 2 * m - 4


@dataclass
class Schedule:
    policy: str  # "eager" or "seeded"
    seed: int | None = None

    @staticmethod
    def eager() -> "Schedule":
        return Schedule("eager")

    @staticmethod
    def seeded(seed: int) -> "Schedule":
        return Schedule("seeded", seed)


_TRACKED_FIELDS = (
    "cs",
    "d_v",
    "comp_w",
    "d_h",
    "prize_flag",
    "labelled_flag",
    "root_flag",
    "lc",
)


def _plain(x):
    return x.value if isinstance(x, nd.CS) else x


class Simulation:
    """One protocol execution over an instance under a delivery schedule.

    The scheduler's view of the queues is kept up to date as messages are
    queued and delivered, so a delivery costs O(log m) bookkeeping plus a
    list insert or delete, never a scan of every link:

    - ``ready``: the non-empty links, sorted;
    - ``control_links``: the links holding at least one queued control
      message (UpdateInfo or Initiate) anywhere in their queue, sorted;
    - for eager runs, a heap of (head send_seq, link) whose entries are live
      only while that message is still at the head of its link.
    """

    def __init__(self, inst: PcstInstance, schedule: Schedule | None = None):
        inst.validate()
        self.inst = inst
        self.schedule = schedule or Schedule.eager()
        self.rng = random.Random(self.schedule.seed) if self.schedule.policy == "seeded" else None
        self.nodes: dict[int, nd.NodeState] = {}
        for v in inst.node_ids:
            weights = {norm_edge(v, u): inst.weights[norm_edge(v, u)] for u in inst.neighbors(v)}
            self.nodes[v] = nd.initialize(v, v == inst.root, inst.prizes[v], weights)
        # directed link -> queue of (message, send_seq, round_tag)
        self.queues: dict[tuple[int, int], deque] = {
            (u, v): deque()
            for (a, b) in sorted(inst.weights)
            for (u, v) in ((a, b), (b, a))
        }
        # one shared tuple per link, so Delivery records do not each hold a copy
        self.link_of = {link: link for link in self.queues}
        self.ready: list[tuple[int, int]] = []
        self.control_links: list[tuple[int, int]] = []
        self.control_count = dict.fromkeys(self.queues, 0)
        self.heads: list[tuple[int, tuple[int, int]]] | None = [] if self.rng is None else None
        self.queued = 0
        self.trace: list[Record] = []
        self.step = 0
        self.send_seq = 0
        self.round_index = 0
        self.pruning_started = False
        self.root_wakeup_pending = True
        self.budget = 10 * message_bound(inst.n, inst.m) + 10

    # -- plumbing

    def in_flight(self) -> int:
        return self.queued + (1 if self.root_wakeup_pending else 0)

    def _enqueue(self, sender: int, edge: Edge, msg: nd.Message, round_tag: int):
        receiver = edge[0] if edge[1] == sender else edge[1]
        link = self.link_of[(sender, receiver)]
        q = self.queues[link]
        if not q:
            insort(self.ready, link)
            if self.heads is not None:
                heappush(self.heads, (self.send_seq, link))
        q.append((msg, self.send_seq, round_tag))
        self.send_seq += 1
        self.queued += 1
        if isinstance(msg, _CONTROL):
            if not self.control_count[link]:
                insort(self.control_links, link)
            self.control_count[link] += 1
        if isinstance(msg, nd.Prune) and not self.pruning_started:
            self.pruning_started = True
            self.trace.append(PhaseBoundary(self.step))

    def _apply(self, node_id: int, event, round_tag: int):
        old = self.nodes[node_id]
        new, emissions = nd.transition(old, event)
        self.nodes[node_id] = new
        # Sends inherit the round tag current at their emission point; a round
        # started mid-handler re-tags only what follows it.
        current_tag = round_tag
        for em in emissions:
            if isinstance(em, tuple):
                edge, msg = em
                self._enqueue(node_id, edge, msg, current_tag)
            elif isinstance(em, nd.RoundStarted):
                self.round_index += 1
                current_tag = self.round_index
                self.trace.append(RoundBoundary(self.step, em.leader, self.round_index))
            elif isinstance(em, nd.EpsilonComputed):
                self.trace.append(
                    EpsilonRecord(self.step, em.leader, em.eps1, em.eps2, em.chosen)
                )
                if em.chosen == "prune" and not self.pruning_started:
                    self.pruning_started = True
                    self.trace.append(PhaseBoundary(self.step))
        for f in _TRACKED_FIELDS:
            a, b = getattr(old, f), getattr(new, f)
            if a is not b and a != b:
                self.trace.append(StateChange(self.step, node_id, f, _plain(a), _plain(b)))

    def _pick(self) -> tuple[int, int]:
        """The link to deliver from next.

        Component-update floods (UpdateInfo) and round starts (Initiate)
        preempt other traffic: members must see their component's new state
        before a concurrent probe over a shortcut edge can ask them for it.
        The pool is every link with such a message queued, at its head or
        behind other traffic, or every non-empty link if there is none.
        Seeded runs draw an index into the pool sorted by link; eager runs
        take the pool's smallest head send_seq.
        """
        if self.rng is not None:
            pool = self.control_links or self.ready
            return pool[self.rng.randrange(len(pool))]
        if self.control_links:
            return min(self.control_links, key=lambda l: self.queues[l][0][1])
        heads = self.heads
        while True:
            seq, link = heappop(heads)
            q = self.queues[link]
            if q and q[0][1] == seq:
                return link

    def step_once(self):
        """Deliver one message (or the root wakeup) per the schedule.

        Per-link FIFO is never violated.
        """
        if self.root_wakeup_pending:
            self.root_wakeup_pending = False
            self.step += 1
            self._apply(self.inst.root, nd.SpontaneousWakeup(), self.round_index)
            return
        if not self.ready:
            raise RuntimeError("step_once called at quiescence")
        link = self._pick()
        q = self.queues[link]
        msg, _seq, tag = q.popleft()
        self.queued -= 1
        if not q:
            del self.ready[bisect_left(self.ready, link)]
        elif self.heads is not None:
            heappush(self.heads, (q[0][1], link))
        if isinstance(msg, _CONTROL):
            self.control_count[link] -= 1
            if not self.control_count[link]:
                del self.control_links[bisect_left(self.control_links, link)]
        self.step += 1
        self.trace.append(Delivery(self.step, link, msg, tag))
        sender, receiver = link
        self._apply(receiver, nd.Deliver(norm_edge(sender, receiver), msg, self.step), tag)

    def run_to_quiescence(self) -> list[Record]:
        while self.in_flight():
            if self.step > self.budget:
                raise LivelockError(
                    f"no quiescence after {self.step} deliveries (budget {self.budget})"
                )
            self.step_once()
        return self.trace


def run(inst: PcstInstance, schedule: Schedule | None = None) -> Simulation:
    sim = Simulation(inst, schedule)
    sim.run_to_quiescence()
    return sim


# ---------------------------------------------------------------------------
# Post-run extraction and accounting


def extract_solution(sim: Simulation) -> Solution:
    """Read the distributed output: prize flags plus branch marks."""
    steiner = {v for v, st in sim.nodes.items() if not st.prize_flag}
    branch = []
    for e in sim.inst.weights:
        u, v = e
        mu = sim.nodes[u].se[e] == nd.SE.BRANCH
        mv = sim.nodes[v].se[e] == nd.SE.BRANCH
        if mu != mv:
            raise nd.ProtocolError(f"asymmetric branch marks on {e}")
        if mu:
            branch.append(e)
    return make_solution(sim.inst, branch, steiner)


def count_messages(trace: list[Record]) -> dict:
    """Totals by type, growth-phase counts per round, leader-level action
    counts, and prune receipts per node."""
    by_type: dict[str, int] = {}
    per_round: dict[int, int] = {}
    prune_receipts: dict[int, int] = {}
    actions: dict[str, int] = {}
    for rec in trace:
        if isinstance(rec, Delivery):
            name = type(rec.message).__name__
            by_type[name] = by_type.get(name, 0) + 1
            if name in GROWTH_TYPES:
                per_round[rec.round_index] = per_round.get(rec.round_index, 0) + 1
            if name == "Prune":
                prune_receipts[rec.link[1]] = prune_receipts.get(rec.link[1], 0) + 1
        elif isinstance(rec, EpsilonRecord):
            actions[rec.chosen] = actions.get(rec.chosen, 0) + 1
    rounds = max((r.round_index for r in trace if isinstance(r, RoundBoundary)), default=0)
    return {
        "by_type": by_type,
        "per_round": per_round,
        "rounds": rounds,
        "total": sum(by_type.values()),
        "actions": actions,
        "prune_receipts": prune_receipts,
    }


# ---------------------------------------------------------------------------
# JSON-lines trace serialization


def _to_jsonable(x):
    if isinstance(x, Fraction):
        return format_rational(x)
    if x == nd.INF and isinstance(x, float):
        return "inf"
    if isinstance(x, nd.CS) or isinstance(x, nd.SN):
        return x.value
    if isinstance(x, tuple):
        return list(x)
    return x


def _message_to_json(msg: nd.Message) -> dict:
    d = {"type": type(msg).__name__}
    for f in fields(msg):
        d[f.name] = _to_jsonable(getattr(msg, f.name))
    return d


def _int_from_json(x) -> int:
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def _bool_from_json(x) -> bool:
    if not isinstance(x, bool):
        raise ValueError(f"{x!r} is not a boolean")
    return x


def _rational_from_json(x) -> Fraction:
    if not isinstance(x, str):
        raise ValueError(f"{x!r} is not a rational string")
    return parse_rational(x)


def _epsilon_from_json(x) -> Fraction | float:
    return nd.INF if x == "inf" else _rational_from_json(x)


def _timestamp_from_json(x) -> int | float:
    return nd.INF if x == "inf" else _int_from_json(x)


# one decoder per field annotation used by node.Message
_FIELD_DECODERS = {
    int: _int_from_json,
    bool: _bool_from_json,
    Fraction: _rational_from_json,
    Fraction | float: _epsilon_from_json,
    int | float: _timestamp_from_json,
    nd.SN: nd.SN,
    nd.CS: nd.CS,
}


def _field_decoders(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, _FIELD_DECODERS[hints[f.name]]) for f in fields(cls))


# message type name -> (class, ((field name, decoder), ...) in constructor order)
_MSG_DECODERS = {name: (cls, _field_decoders(cls)) for name, cls in _MSG_TYPES.items()}


def _message_from_json(d: dict) -> nd.Message:
    name = d["type"]
    entry = _MSG_DECODERS.get(name)
    if entry is None:
        raise ValueError(f"unknown message type {name!r}")
    cls, decoders = entry
    return cls(*[decode(d[key]) for key, decode in decoders])


def record_to_json(rec: Record) -> dict:
    if isinstance(rec, Delivery):
        return {
            "kind": "delivery",
            "step": rec.step,
            "link": list(rec.link),
            "round": rec.round_index,
            "message": _message_to_json(rec.message),
        }
    if isinstance(rec, StateChange):
        return {
            "kind": "state",
            "step": rec.step,
            "node": rec.node,
            "field": rec.field,
            "old": _to_jsonable(rec.old),
            "new": _to_jsonable(rec.new),
        }
    if isinstance(rec, EpsilonRecord):
        return {
            "kind": "epsilon",
            "step": rec.step,
            "leader": rec.leader,
            "eps1": _to_jsonable(rec.eps1),
            "eps2": _to_jsonable(rec.eps2),
            "chosen": rec.chosen,
        }
    if isinstance(rec, RoundBoundary):
        return {"kind": "round", "step": rec.step, "leader": rec.leader, "round": rec.round_index}
    if isinstance(rec, PhaseBoundary):
        return {"kind": "phase", "step": rec.step}
    raise TypeError(f"unknown record {rec!r}")


def record_from_json(d: dict) -> Record:
    kind = d["kind"]
    if kind == "delivery":
        link = tuple(d["link"])
        if len(link) != 2:
            raise ValueError(f"link {d['link']!r} is not a (sender, receiver) pair")
        return Delivery(d["step"], link, _message_from_json(d["message"]), d["round"])
    if kind == "state":
        old, new = d["old"], d["new"]
        f = d["field"]
        if f in ("d_v", "comp_w", "d_h"):
            old, new = _rational_from_json(old), _rational_from_json(new)
        return StateChange(d["step"], d["node"], f, old, new)
    if kind == "epsilon":
        eps2 = d["eps2"]
        return EpsilonRecord(
            d["step"],
            d["leader"],
            _epsilon_from_json(d["eps1"]),
            None if eps2 is None else _rational_from_json(eps2),
            d["chosen"],
        )
    if kind == "round":
        return RoundBoundary(d["step"], d["leader"], d["round"])
    if kind == "phase":
        return PhaseBoundary(d["step"])
    raise ValueError(f"unknown record kind {kind!r}")


def write_trace(trace: list[Record], path: str):
    with open(path, "w") as fh:
        for rec in trace:
            fh.write(json.dumps(record_to_json(rec), sort_keys=False) + "\n")


def read_trace(path: str) -> list[Record]:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(record_from_json(json.loads(line)))
            except KeyError as exc:
                raise TraceFormatError(f"{path}:{lineno}: missing field {exc}") from exc
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
    return out
