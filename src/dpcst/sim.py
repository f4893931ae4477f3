"""Deterministic discrete-event simulator for the node protocol.

Per-directed-link FIFO queues, two delivery policies (eager, or drawn from a
seeded generator), and a record sink that receives the total-order trace of
everything that happens, each record as it is made; a run is a function of
the instance and the seed, and one without a sink makes the same deliveries
and ends in the same states without building a record.  Messages carry a
causal round tag: a handler's sends inherit the tag of the delivery that
triggered them, and starting a round bumps the tag, so per-round message
accounting is exact even while floods from the previous action are still in
flight.
"""

from __future__ import annotations

import json
import random
import re
import sys
import typing
from bisect import bisect_left, insort
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache, partial
from operator import attrgetter

from . import node as nd
from .instance import (
    Edge,
    PcstInstance,
    Solution,
    common_denominator,
    format_rational,
    make_solution,
    norm_edge,
    parse_rational,
)

_MSG_TYPES = {cls.__name__: cls for cls in typing.get_args(nd.Message)}
# growth-phase wire types count against the per-round cap; Prune and
# BackwardPrune have their own totals
GROWTH_TYPES = frozenset(name for name in _MSG_TYPES if name not in ("Prune", "BackwardPrune"))
# control traffic preempts everything else (see Simulation._pick)
_CONTROL = frozenset((nd.UpdateInfo, nd.Initiate))


class LivelockError(RuntimeError):
    """Step budget exceeded before quiescence."""


class TraceFormatError(ValueError):
    """A trace file line that does not decode to a record."""


# ---------------------------------------------------------------------------
# Trace records

# the NodeState fields whose changes are traced; a change's old value is the
# previous new value of that node and field, or the NodeState constructor's.
# The root flag is the prize flag negated, and a node takes a round's leader
# (lc) from the Initiate delivered to it or from the round record it leads,
# so neither is traced.
TrackedField = typing.Literal["cs", "d_v", "comp_w", "d_h", "prize_flag", "labelled_flag"]
_TRACKED_FIELDS = typing.get_args(TrackedField)
_tracked = attrgetter(*_TRACKED_FIELDS)


@dataclass(slots=True)
class Delivery:
    link: tuple[int, int]  # (sender, receiver)
    round: int
    message: nd.Message


@dataclass(slots=True)
class StateChange:
    field: TrackedField
    new: object  # typed by the NodeState field


# the round and decision records are the node's actions, written as emitted.
# No record names its step or node: each belongs to the transition of the
# last delivery before it (the root's wakeup before the first), whose step
# is one more than the deliveries so far and whose node is that delivery's
# receiver (the root).
# record class -> its kind: the one list of record types
_RECORD_KINDS = {Delivery: "delivery", StateChange: "state", nd.EpsilonRecord: "epsilon", nd.RoundBoundary: "round"}
Record = typing.Union[tuple(_RECORD_KINDS)]
# receives a run's records one by one, in emission order
Sink = Callable[[Record], object]
# the default sink: the run's own trace list
_OWN_TRACE = object()

# The automaton computes in integers, in units of 1/S for a scale S of the
# instance (see node.py); the trace holds each rational in the instance's
# units, as a Fraction.  Fields annotated with these types are rationals.
_RATIONAL = (Fraction, Fraction | float, Fraction | None)
_NODE_HINTS = typing.get_type_hints(nd.NodeState)
_RATIONAL_TRACKED = frozenset(f for f in _TRACKED_FIELDS if _NODE_HINTS[f] in _RATIONAL)


class _Rationals(dict):
    """One run's values in the automaton's units of 1/scale -> their
    Fractions in the instance's units, each built once and shared; INF and
    None stand for themselves."""

    def __init__(self, scale: int):
        super().__init__({nd.INF: nd.INF, None: None})
        self.scale = scale

    def __missing__(self, x: int) -> Fraction:
        value = self[x] = Fraction(x, self.scale)
        return value


def _rescaler(cls):
    """The function (x, rationals) -> x with each rational field looked up
    in rationals, or None if cls has no rational field; compiled like
    _compile, since it runs once per delivery."""
    hints = typing.get_type_hints(cls)
    args = ", ".join(f"q[x.{f.name}]" if hints[f.name] in _RATIONAL else f"x.{f.name}" for f in fields(cls))
    return eval(f"lambda x, q: cls({args})", {"cls": cls}) if "q[" in args else None


# message or action class -> its rescaler
_RESCALERS = {cls: _rescaler(cls) for cls in (*typing.get_args(nd.Message), *typing.get_args(nd.Action))}


def message_bound(n: int, m: int) -> int:
    """Worst-case total message count for an (n, m) instance."""
    return (9 * n - 7) * (6 * n + 2 * m - 4) + 3 * (n - 1)


def round_message_bound(n: int, m: int) -> int:
    return 6 * n + 2 * m - 4


class Simulation:
    """One protocol execution over an instance: eager when seed is None,
    otherwise drawn from a generator seeded with it.  ``sink`` receives
    each record as it is made; by default the run keeps them in ``trace``,
    and with sink None no delivery builds a record.  ``trace`` stays empty
    under any other sink.

    The scheduler's view of the queues is kept up to date as messages are
    queued and delivered, so a delivery costs O(log m) bookkeeping plus a
    list insert or delete, never a scan of every link:

    - ``ready``: the non-empty links, sorted;
    - ``control_links``: the links holding at least one queued control
      message (UpdateInfo or Initiate) anywhere in their queue, sorted;
    - for eager runs, ``sends``: every send's (send_seq, link) in send
      order, popped from the left; an entry is live while its message is
      still queued, and then it is at the head of its link.
    """

    def __init__(self, inst: PcstInstance, seed: int | None = None, sink: Sink | None = _OWN_TRACE):
        self.inst = inst
        self.rng = None if seed is None else random.Random(seed)
        # twice the common denominator, so every weight and prize is even
        # in the automaton's units of 1/scale, and its halvings are exact
        self.scale = scale = 2 * common_denominator(inst)
        self.rationals = _Rationals(scale)
        scaled = {e: int(w * scale) for e, w in inst.weights.items()}
        self.nodes: dict[int, nd.NodeState] = {}
        for v in inst.node_ids:
            weights = {norm_edge(v, u): scaled[norm_edge(v, u)] for u in inst.neighbors(v)}
            self.nodes[v] = nd.NodeState(v, v == inst.root, int(inst.prizes[v] * scale), weights)
        # directed link -> queue of (message, send_seq, round_tag); a
        # delivery finds its receiver, edge and queue in ``incoming``, a send
        # its link and queue in ``outgoing`` (by sender, then edge).  Each
        # link is one tuple, shared by every Delivery record over it.
        self.queues: dict[tuple[int, int], deque] = {}
        self.incoming: dict[tuple[int, int], tuple[int, Edge, deque]] = {}
        self.outgoing: dict[int, dict[Edge, tuple[tuple[int, int], deque]]] = {
            v: {} for v in inst.node_ids
        }
        for e in sorted(inst.weights):
            for link in (e, e[::-1]):
                q = self.queues[link] = deque()
                self.incoming[link] = (link[1], e, q)
                self.outgoing[link[0]][e] = (link, q)
        self.ready: list[tuple[int, int]] = []
        self.control_links: list[tuple[int, int]] = []
        self.control_count = dict.fromkeys(self.queues, 0)
        self.sends: deque[tuple[int, tuple[int, int]]] | None = deque() if self.rng is None else None
        self.trace: list[Record] = []
        self.sink: Sink | None = self.trace.append if sink is _OWN_TRACE else sink
        self.step = 0
        self.send_seq = 0
        self.round_index = 0
        self.root_wakeup_pending = True
        self.budget = 10 * message_bound(inst.n, inst.m) + 10

    # -- plumbing

    def in_flight(self) -> bool:
        return self.root_wakeup_pending or bool(self.ready)

    def _enqueue(self, sender: int, edge: Edge, msg: nd.Message, round_tag: int):
        link, q = self.outgoing[sender][edge]
        if not q:
            insort(self.ready, link)
        if self.sends is not None:
            self.sends.append((self.send_seq, link))
        q.append((msg, self.send_seq, round_tag))
        self.send_seq += 1
        if type(msg) in _CONTROL:
            if not self.control_count[link]:
                insort(self.control_links, link)
            self.control_count[link] += 1

    def _apply(self, node_id: int, edge: Edge | None, msg: nd.Message | None, round_tag: int):
        """Run node_id's transition on msg over edge (the root's wakeup if
        msg is None) and queue what it emits; a run with a sink also hands
        it the emitted actions and the changed tracked fields."""
        st = self.nodes[node_id]
        sink = self.sink
        if sink is not None:
            before = _tracked(st)
        emissions = nd.transition(st, edge, msg, self.step)
        # Sends inherit the round tag current at their emission point; a round
        # started mid-handler re-tags only what follows it.
        current_tag = round_tag
        for em in emissions:
            if type(em) is tuple:
                self._enqueue(node_id, em[0], em[1], current_tag)
            else:
                if sink is not None:
                    sink(self._recorded(em))
                if type(em) is nd.RoundBoundary:
                    self.round_index += 1
                    current_tag = self.round_index
        if sink is None:
            return
        # most transitions change no tracked field: one tuple comparison,
        # which like the loop takes identity before equality, rules them out
        after = _tracked(st)
        if before != after:
            for f, a, b in zip(_TRACKED_FIELDS, before, after):
                if a is not b and a != b:
                    sink(StateChange(f, self.rationals[b] if f in _RATIONAL_TRACKED else b))

    def _recorded(self, x: nd.Message | nd.Action) -> nd.Message | nd.Action:
        """x as the trace holds it: in the instance's units."""
        rescale = _RESCALERS[type(x)]
        return x if rescale is None else rescale(x, self.rationals)

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
            return self.rng.choice(pool)
        if self.control_links:
            return min(self.control_links, key=lambda l: self.queues[l][0][1])
        sends = self.sends
        while True:
            seq, link = sends.popleft()
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
            self._apply(self.inst.root, None, None, self.round_index)
            return
        if not self.ready:
            raise RuntimeError("step_once called at quiescence")
        link = self._pick()
        receiver, edge, q = self.incoming[link]
        msg, _seq, tag = q.popleft()
        if not q:
            del self.ready[bisect_left(self.ready, link)]
        if type(msg) in _CONTROL:
            self.control_count[link] -= 1
            if not self.control_count[link]:
                del self.control_links[bisect_left(self.control_links, link)]
        self.step += 1
        if self.sink is not None:
            self.sink(Delivery(link, tag, self._recorded(msg)))
        self._apply(receiver, edge, msg, tag)

    def run_to_quiescence(self) -> list[Record]:
        while self.in_flight():
            if self.step > self.budget:
                raise LivelockError(
                    f"no quiescence after {self.step} deliveries (budget {self.budget})"
                )
            self.step_once()
        return self.trace


def run(inst: PcstInstance, seed: int | None = None, sink: Sink | None = _OWN_TRACE) -> Simulation:
    """Run to quiescence: eager if seed is None, else seeded with it; each
    record goes to sink, by default the run's own trace."""
    sim = Simulation(inst, seed, sink)
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


class MessageCounter:
    """Totals by type, growth-phase counts per round, rounds, leader-level
    action counts, and prune receipts per node, kept up to date while the
    records pass through ``tally``."""

    def __init__(self):
        self.by_type: dict[str, int] = {}
        self.per_round: dict[int, int] = {}
        self.rounds = 0
        self.actions: dict[str, int] = {}
        self.prune_receipts: dict[int, int] = {}

    def tally(self, records: Iterable[Record]) -> Iterator[Record]:
        """Every record of ``records``, counted on its way through."""
        by_type, per_round, actions = self.by_type, self.per_round, self.actions
        receipts = self.prune_receipts
        for rec in records:
            if isinstance(rec, Delivery):
                name = type(rec.message).__name__
                by_type[name] = by_type.get(name, 0) + 1
                if name in GROWTH_TYPES:
                    per_round[rec.round] = per_round.get(rec.round, 0) + 1
                elif name == "Prune":
                    receipts[rec.link[1]] = receipts.get(rec.link[1], 0) + 1
            elif isinstance(rec, nd.EpsilonRecord):
                actions[rec.chosen] = actions.get(rec.chosen, 0) + 1
            elif isinstance(rec, nd.RoundBoundary):
                self.rounds += 1
            yield rec

    def counts(self) -> dict:
        """The counts of the records tallied so far."""
        return {
            "by_type": self.by_type,
            "per_round": self.per_round,
            "rounds": self.rounds,
            "total": sum(self.by_type.values()),
            "actions": self.actions,
            "prune_receipts": self.prune_receipts,
        }


def count_messages(records: Iterable[Record]) -> dict:
    """``MessageCounter.counts`` of every record."""
    counter = MessageCounter()
    for _rec in counter.tally(records):
        pass
    return counter.counts()


# ---------------------------------------------------------------------------
# JSON-lines trace serialization
#
# Each message class and record kind is read and written by one codec, a
# decoder and an encoder compiled together at import from the class's own
# fields in line order, each field by the codec of its annotation.  A value
# of the wrong JSON type, a missing key or a key the class does not declare
# is a TraceFormatError, never a traceback.


def _int_from_json(x) -> int:
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def _bool_from_json(x) -> bool:
    if not isinstance(x, bool):
        raise ValueError(f"{x!r} is not a boolean")
    return x


# A trace repeats few distinct rationals (299 distinct values among the 74k
# rational fields of the eager n = 160, m = 3n trace), so records share the
# parsed, immutable Fractions.
_shared_rational = lru_cache(maxsize=1024)(parse_rational)


def _rational_from_json(x) -> Fraction:
    # checked before the cache lookup, so an int or a list raises this error
    if not isinstance(x, str):
        raise ValueError(f"{x!r} is not a rational string")
    return _shared_rational(x)


def _inf_or(decode, x):
    return nd.INF if x == "inf" else decode(x)


def _optional_rational_from_json(x) -> Fraction | None:
    return None if x is None else _rational_from_json(x)


def _link_from_json(x) -> tuple[int, int]:
    if type(x) is not list or len(x) != 2 or type(x[0]) is not int or type(x[1]) is not int:
        raise ValueError(f"link {x!r} is not a (sender, receiver) pair of integers")
    return (x[0], x[1])


def _literal_from_json(values: tuple, x) -> str:
    if x not in values:
        raise ValueError(f"{x!r} is not one of {', '.join(values)}")
    return x


def _message_from_json(d: dict) -> nd.Message:
    name = d["type"]
    codec = _MESSAGE_CODECS.get(name)
    if codec is None:
        raise ValueError(f"unknown message type {name!r}")
    return codec[0](d)


def _quoted(x) -> str:
    return f'"{x}"'


def _rational_to_json(x: Fraction) -> str:
    return f'"{format_rational(x)}"'


def _text_or_inf(encode, x) -> str:
    return '"inf"' if x == nd.INF else encode(x)


def _optional_rational_to_json(x: Fraction | None) -> str:
    return "null" if x is None else _rational_to_json(x)


def _enum_to_json(x: nd.CS) -> str:
    return f'"{x.value}"'


def _link_to_json(x: tuple[int, int]) -> str:
    return f"[{x[0]}, {x[1]}]"


def _message_to_text(msg: nd.Message) -> str:
    return _MESSAGE_CODECS[type(msg).__name__][1](msg)


# field annotation -> (decoder from the parsed JSON value, encoder to JSON text)
_CODECS = {
    int: (_int_from_json, str),
    bool: (_bool_from_json, {True: "true", False: "false"}.__getitem__),
    Fraction: (_rational_from_json, _rational_to_json),
    Fraction | float: (partial(_inf_or, _rational_from_json), partial(_text_or_inf, _rational_to_json)),
    int | float: (partial(_inf_or, _int_from_json), partial(_text_or_inf, str)),
    Fraction | None: (_optional_rational_from_json, _optional_rational_to_json),
    nd.CS: (nd.CS, _enum_to_json),
    tuple[int, int]: (_link_from_json, _link_to_json),
    nd.Message: (_message_from_json, _message_to_text),
}


def _codec(hint) -> tuple:
    if typing.get_origin(hint) is typing.Literal:
        return partial(_literal_from_json, typing.get_args(hint)), _quoted
    return _CODECS[hint]


def _undeclared(head: str, keys: tuple, d: dict):
    """Raise the error of a JSON object whose keys are not exactly keys:
    a KeyError for the first one missing, else a ValueError naming the
    first key it holds beyond them."""
    for key in keys:
        d[key]
    extra = next(key for key in d if key not in keys)
    raise ValueError(f"undeclared key {extra!r} in {{{head}, ...}}")


def _compile(cls, tag: str, name: str, hints: dict, end: str = "") -> tuple:
    """(decoder, encoder) of cls, whose JSON object holds ``"tag": "name"``
    and then one key per field, in field order, each field coded by its
    annotation in hints.  The decoder builds a cls from that object and
    takes no other key; the encoder writes the object as text, followed by
    end.  Both are compiled, not loops over the fields, because they run
    once per record; the source is built only from the record and message
    classes' own field names."""
    head = f'"{tag}": "{name}"'
    env = {"cls": cls, "undeclared": _undeclared, "head": head}
    keys, args, parts = [tag], [], [head]
    for i, key in enumerate(f.name for f in fields(cls)):
        env[f"d{i}"], encode = _codec(hints[key])
        value = f"x.{key}"
        if encode is not str:  # an int is written by the f-string itself
            env[f"e{i}"] = encode
            value = f"e{i}({value})"
        keys.append(key)
        args.append(f'd{i}(d["{key}"])')
        parts.append(f'"{key}": {{{value}}}')
    env["keys"] = tuple(keys)
    decode = f"lambda d: cls({', '.join(args)}) if len(d) == {len(keys)} else undeclared(head, keys, d)"
    encode = "lambda x: f'{{" + ", ".join(parts) + "}}" + end + "'"
    return eval(decode, env), eval(encode, env)


# message type name -> its codec
_MESSAGE_CODECS = {
    name: _compile(cls, "type", name, typing.get_type_hints(cls)) for name, cls in _MSG_TYPES.items()
}
# record kind -> the codec of its lines; a state change's is its field's
_RECORD_CODECS = {
    kind: _compile(cls, "kind", kind, typing.get_type_hints(cls), "\\n")
    for cls, kind in _RECORD_KINDS.items()
    if cls is not StateChange
}
# tracked field -> the codec of its state changes' lines, whose new value
# has the type of that NodeState field
_STATE_CODECS = {
    f: _compile(StateChange, "kind", "state", {**typing.get_type_hints(StateChange), "new": t}, "\\n")
    for f, t in _NODE_HINTS.items()
    if f in _TRACKED_FIELDS
}


def record_to_line(rec: Record) -> str:
    """The trace-file line of one record, newline included."""
    if type(rec) is StateChange:
        return _STATE_CODECS[rec.field][1](rec)
    return _RECORD_CODECS[_RECORD_KINDS[type(rec)]][1](rec)


def record_from_json(d: dict) -> Record:
    kind = d["kind"]
    if kind == "state":
        return _STATE_CODECS[_literal_from_json(_TRACKED_FIELDS, d["field"])][0](d)
    codec = _RECORD_CODECS.get(kind)
    if codec is None:
        raise ValueError(f"unknown record kind {kind!r}")
    return codec[0](d)


def line_writer(fh: typing.TextIO) -> Sink:
    """A sink that writes each record's trace line to the open file fh."""
    write = fh.write
    return lambda rec: write(record_to_line(rec))


def write_trace(trace: list[Record], path: str):
    with open(path, "w") as fh:  # line by line: joining the lines first raises peak memory
        fh.writelines(map(record_to_line, trace))


_decode_json = json.JSONDecoder().decode

# A trace repeats itself: the eager n = 160, m = 3n trace holds 1,268
# distinct message texts among its 52,143 deliveries and 309 distinct lines
# among its 11,021 others.  So read_trace matches each canonical delivery
# line, the writer's own spelling, with one pattern, and decodes only the
# message texts and other lines it has not met before in that file; each
# memo keeps at most _MEMO_CAP keys of at most _MEMO_KEY_BYTES bytes each
# (a canonical line is a few hundred at most) and then stops growing.
_MEMO_CAP = 2**14
_MEMO_KEY_BYTES = 512
# a JSON integer of at most 100 digits, well under int()'s limit
_INT = rb"(-?(?:0|[1-9][0-9]{0,99}))"
# field annotation -> the pattern of its canonical text; a message is one
# flat JSON object, its text the pattern's last group
_FIELD_PATTERNS = {
    int: _INT,
    tuple[int, int]: rb"\[" + _INT + rb", " + _INT + rb"\]",
    nd.Message: rb"(\{[^{}]*\})",
}


def _line_pattern(cls) -> re.Pattern:
    """The pattern of the line record_to_line writes for a cls, built like
    _compile's encoder: the kind, then each field in field order."""
    hints = typing.get_type_hints(cls)
    parts = [re.escape(f'"kind": "{_RECORD_KINDS[cls]}"'.encode())]
    parts += [re.escape(f'"{f.name}": '.encode()) + _FIELD_PATTERNS[hints[f.name]] for f in fields(cls)]
    return re.compile(rb"\{" + b", ".join(parts) + rb"\}\n?")


_delivery_line = _line_pattern(Delivery).fullmatch


def _message_from_text(text: bytes) -> nd.Message | None:
    """The message a delivery line's message text decodes to, or None if
    it does not decode; read_trace then decodes the whole line, which
    raises that line's error."""
    try:
        return _message_from_json(_decode_json(text.decode()))
    # RecursionError: an array nested too deep inside the message
    except (KeyError, TypeError, ValueError, ArithmeticError, RecursionError):
        return None


def _record_from_line(path: str, lineno: int, line: bytes) -> Record:
    """The record of one stripped, non-empty trace line, any JSON spelling;
    the one place a line's TraceFormatError is raised."""
    try:
        obj = _decode_json(line.decode())
    # bad UTF-8, bad JSON, or an array nested too deep
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
    except ValueError:  # the decoder's one other error: int() refused the digits
        limit = sys.get_int_max_str_digits()
        raise TraceFormatError(f"{path}:{lineno}: a trace integer has at most {limit} digits")
    try:
        return record_from_json(obj)
    except KeyError as exc:
        raise TraceFormatError(f"{path}:{lineno}: missing field {exc}") from exc
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc


def read_trace(path: str) -> Iterator[Record]:
    """The records of a trace file, each yielded as soon as its line is
    decoded; a line that does not decode to a record, or a file without
    records, is a TraceFormatError naming the file.

    Any JSON spelling of a record reads, but only a delivery line spelled
    as the writer spells it skips the JSON parser: its message text is
    decoded once per file, within a bounded memo of short texts, and records
    with the same text share one message object.  Every other line is
    decoded once per distinct text, within a second such memo, so equal
    lines share one record."""
    records = 0
    messages: dict[bytes, nd.Message] = {}
    others: dict[bytes, Record] = {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            match = _delivery_line(line)
            if match is not None:
                u, v, r, text = match.groups()
                msg = messages.get(text)
                if msg is None:
                    msg = _message_from_text(text)
                    if msg is not None and len(messages) < _MEMO_CAP and len(text) <= _MEMO_KEY_BYTES:
                        messages[text] = msg
                if msg is not None:
                    records += 1
                    yield Delivery((int(u), int(v)), int(r), msg)
                    continue
            rec = others.get(line)
            if rec is None:
                stripped = line.strip()
                if not stripped:
                    continue
                rec = _record_from_line(path, lineno, stripped)
                if len(others) < _MEMO_CAP and len(line) <= _MEMO_KEY_BYTES:
                    others[line] = rec
            records += 1
            yield rec
    if not records:
        raise TraceFormatError(f"{path}: no records")
