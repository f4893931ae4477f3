import hashlib
import io
import json
import random
import sys
import tracemalloc
import typing
from dataclasses import fields
from fractions import Fraction

import pytest

from dpcst import node as nd
from dpcst import sim
from dpcst.cli import main
from dpcst.exact import exact_pcst
from dpcst.instance import (
    PcstInstance,
    format_rational,
    generate_random_instance,
    norm_edge,
    parse_instance,
    render_instance,
)
from dpcst.node import EpsilonRecord, RoundBoundary
from dpcst.sim import (
    Delivery,
    Simulation,
    StateChange,
    count_messages,
    extract_solution,
    line_writer,
    message_bound,
    read_trace,
    record_from_json,
    record_to_line,
    round_message_bound,
    run,
    write_trace,
)


def record_to_json(rec):
    return json.loads(record_to_line(rec))


TWO_MERGE = "nodes 1 2\nroot 1\nprize 2 5\nedge 1 2 2"
TWO_PENAL = "nodes 1 2\nroot 1\nprize 2 3\nedge 1 2 10"


def test_new_simulation_shape():
    s = Simulation(parse_instance(TWO_MERGE))
    assert set(s.queues) == {(1, 2), (2, 1)}
    assert all(not q for q in s.queues.values())
    assert s.in_flight() and not s.ready  # the root wakeup


def test_seeded_initial_state_deterministic():
    inst = parse_instance(TWO_MERGE)
    a = Simulation(inst, 7)
    b = Simulation(inst, 7)
    assert a.nodes == b.nodes


def test_single_node_quiesces_immediately():
    s = run(parse_instance("nodes 4\nroot 4"))
    sol = extract_solution(s)
    assert sol.steiner_nodes == {4}
    assert sol.objective == 0
    assert s.step <= 2
    assert count_messages(s.trace)["total"] == 0
    assert [r.chosen for r in s.trace if isinstance(r, EpsilonRecord)] == ["prune"]


def test_two_node_merge_quiesces_with_branch():
    s = run(parse_instance(TWO_MERGE))
    sol = extract_solution(s)
    assert sol.branch_edges == {(1, 2)}
    assert sol.objective == 2 == exact_pcst(parse_instance(TWO_MERGE)).opt_value


def test_two_node_penalize():
    s = run(parse_instance(TWO_PENAL))
    sol = extract_solution(s)
    assert sol.penalty_nodes == {2}
    assert sol.objective == 3


def test_trace_determinism_bit_identical():
    inst = generate_random_instance(7, 12, 5)
    t1 = run(inst, 3).trace
    t2 = run(inst, 3).trace
    assert [record_to_json(r) for r in t1] == [record_to_json(r) for r in t2]


def test_schedule_invariance_of_solution():
    for seed in (0, 4, 9):
        inst = generate_random_instance(6, 9, seed)
        base = extract_solution(run(inst))
        for s2 in range(10):
            assert extract_solution(run(inst, s2)) == base


def test_exactly_one_phase_boundary_and_increasing_rounds():
    # the phase boundary is the one prune decision, the last of them; rounds
    # alternate with decisions, and a round's number is its place among them
    inst = generate_random_instance(8, 14, 21)
    trace = run(inst).trace
    growth = [r for r in trace if isinstance(r, (RoundBoundary, EpsilonRecord))]
    assert [type(r) for r in growth] == [RoundBoundary, EpsilonRecord] * (len(growth) // 2)
    assert [r.chosen for r in growth[1::2]].index("prune") == len(growth) // 2 - 1
    tags = {r.round for r in trace if isinstance(r, Delivery)}
    assert tags <= set(range(1, len(growth) // 2 + 1))


def test_count_messages_caps():
    inst = generate_random_instance(4, 5, 2)
    trace = run(inst).trace
    counts = count_messages(trace)
    cap = round_message_bound(4, 5)
    assert cap == 30
    assert all(c <= cap for c in counts["per_round"].values())
    assert counts["total"] <= message_bound(4, 5)
    assert message_bound(4, 5) == 29 * 30 + 9


def test_budget_guard_exists():
    s = Simulation(parse_instance(TWO_MERGE))
    s.budget = 0
    with pytest.raises(sim.LivelockError):
        s.run_to_quiescence()


def test_trace_roundtrip_through_json(tmp_path, example11):
    s = run(example11)
    path = tmp_path / "t.jsonl"
    write_trace(s.trace, str(path))
    back = list(read_trace(str(path)))
    assert len(back) == len(s.trace)
    assert back == s.trace
    # the root's wakeup starts the first round
    assert json.loads(path.read_text().splitlines()[0]) == {"kind": "round"}


def test_record_json_stable_fields():
    rec = Delivery((1, 2), 4, nd.Proceed(Fraction(15)))
    d = record_to_json(rec)
    assert d == {
        "kind": "delivery",
        "link": [1, 2],
        "round": 4,
        "message": {"type": "Proceed", "d_h": "15"},
    }
    assert record_from_json(d) == rec


def test_back_record_carries_root_flag():
    rec = Delivery((5, 4), 3, nd.Back(root_flag=True))
    d = record_to_json(rec)
    assert d["message"] == {"type": "Back", "root_flag": True}
    assert record_from_json(d) == rec


def test_report_record_round_trips_infinite_epsilon_and_timestamp():
    rec = Delivery((2, 1), 1, nd.Report(nd.INF, Fraction(3), nd.INF))
    d = record_to_json(rec)
    assert d["message"]["best_epsilon"] == "inf" and d["message"]["ts"] == "inf"
    assert record_from_json(d) == rec


@pytest.mark.parametrize(
    "message",
    [
        {"type": "Back", "root_flag": "yes"},
        {"type": "Test", "leader": "1"},
        {"type": "Test", "leader": True},
        {"type": "Initiate", "leader": 1.0},
        {"type": "Status", "cs": "asleep", "deficit": "0"},
        {"type": "Proceed", "d_h": 1.5},
        {"type": "Proceed", "d_h": "inf"},
        {"type": "Report", "best_epsilon": "1", "tp": "0", "ts": "7"},
    ],
)
def test_bad_field_value_is_a_trace_format_error(tmp_path, message):
    path = tmp_path / "t.jsonl"
    rec = {"kind": "delivery", "link": [1, 2], "round": 0, "message": message}
    path.write_text('{"kind": "round"}\n' + json.dumps(rec) + "\n")
    with pytest.raises(sim.TraceFormatError, match="t.jsonl:2:"):
        list(read_trace(str(path)))


@pytest.mark.parametrize("value", [5, [1, 2], True, None], ids=["int", "list", "bool", "null"])
def test_non_string_rational_is_named_as_such(tmp_path, value):
    # the type is checked before parsed rationals are shared, so a value the
    # share could hash, or fail to hash, gets the same error as any other
    path = tmp_path / "t.jsonl"
    rec = {"kind": "delivery", "link": [1, 2], "round": 0, "message": {"type": "Proceed", "d_h": value}}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(sim.TraceFormatError, match=r"t.jsonl:1: .* is not a rational string"):
        list(read_trace(str(path)))


def test_extract_rejects_asymmetric_marks():
    s = run(parse_instance(TWO_MERGE))
    s.nodes[1].se[(1, 2)] = nd.SE.BASIC  # corrupt one side
    with pytest.raises(nd.ProtocolError):
        extract_solution(s)


# ---------------------------------------------------------------------------
# Scheduler equivalence against the scanning reference

_CONTROL = (nd.UpdateInfo, nd.Initiate)


class _ScanningSimulation(Simulation):
    """The scheduler as first written: every step rescans all links and every
    queued message.  Kept as the reference the incremental scheduler must
    match delivery for delivery."""

    def __init__(self, inst, seed=None):
        super().__init__(inst, seed)
        self.links = sorted(self.queues)

    def in_flight(self):
        return sum(len(q) for q in self.queues.values()) + (1 if self.root_wakeup_pending else 0)

    def _enqueue(self, sender, edge, msg, round_tag):
        receiver = edge[0] if edge[1] == sender else edge[1]
        self.queues[(sender, receiver)].append((msg, self.send_seq, round_tag))
        self.send_seq += 1

    def deliverable_links(self):
        return [l for l in self.links if self.queues[l]]

    def step_once(self):
        if self.root_wakeup_pending:
            self.root_wakeup_pending = False
            self.step += 1
            self._apply(self.inst.root, None, None, self.round_index)
            return
        candidates = self.deliverable_links()
        if not candidates:
            raise RuntimeError("step_once called at quiescence")
        control = [
            l for l in candidates if any(isinstance(m, _CONTROL) for (m, _s, _t) in self.queues[l])
        ]
        pool = control or candidates
        if self.rng is not None:
            link = pool[self.rng.randrange(len(pool))]
        else:
            link = min(pool, key=lambda l: self.queues[l][0][1])
        msg, _seq, tag = self.queues[link].popleft()
        self.step += 1
        self.trace.append(Delivery(link, tag, self._recorded(msg)))
        sender, receiver = link
        self._apply(receiver, norm_edge(sender, receiver), msg, tag)


def _assert_scheduler_state(s: Simulation) -> bool:
    """Assert that the incremental scheduler state equals what a rescan of the
    queues gives; return whether some control message sits behind a
    non-control head."""
    queued = {l: q for l, q in s.queues.items() if q}
    control = [l for l, q in queued.items() if any(isinstance(m, _CONTROL) for (m, _s, _t) in q)]
    assert s.in_flight() == bool(queued or s.root_wakeup_pending)
    assert s.ready == sorted(queued)
    assert s.control_links == sorted(control)
    if s.sends is None:
        assert s.rng is not None  # seeded runs keep no send order
    else:
        # in send order, holding every queued message's send
        assert list(s.sends) == sorted(s.sends)
        undelivered = {(seq, l) for l, q in queued.items() for (_m, seq, _t) in q}
        assert undelivered <= set(s.sends)
    return any(not isinstance(queued[l][0][0], _CONTROL) for l in control)


_EQUIVALENCE_CORPUS = [
    (6, 5, 1),
    (6, 12, 2),
    (10, 9, 3),
    (10, 30, 4),
    (16, 24, 5),
    (20, 60, 6),
    (30, 45, 7),
    (40, 120, 1),
]


@pytest.mark.parametrize(
    "seed",
    [None, *range(5)],
    ids=["eager"] + [f"seeded:{k}" for k in range(5)],
)
def test_incremental_scheduler_matches_scanning_reference(seed, example11):
    instances = [example11] + [generate_random_instance(*args) for args in _EQUIVALENCE_CORPUS]
    behind = 0
    for inst in instances:
        s = Simulation(inst, seed)
        _assert_scheduler_state(s)
        while s.in_flight():
            s.step_once()
            behind += _assert_scheduler_state(s)
        ref = _ScanningSimulation(inst, seed)
        ref.run_to_quiescence()
        assert s.trace == ref.trace
        # every delivery holds the link's one shared tuple, not a fresh copy
        assert all(
            r.link is s.outgoing[r.link[0]][norm_edge(*r.link)][0]
            for r in s.trace
            if isinstance(r, Delivery)
        )
    # the pool rule that differs from a head-only test is exercised
    assert behind > 0


@pytest.mark.parametrize("seed", [None, 0], ids=["eager", "seeded:0"])
def test_control_message_behind_other_traffic_selects_its_link(seed):
    inst = parse_instance("nodes 1 2 3\nroot 1\nprize 2 5\nprize 3 5\nedge 1 2 4\nedge 2 3 4")
    for sim_cls in (Simulation, _ScanningSimulation):
        s = sim_cls(inst, seed)
        s.root_wakeup_pending = False
        s._enqueue(3, (2, 3), nd.Test(3), 0)  # the oldest message
        s._enqueue(1, (1, 2), nd.Test(1), 0)
        s._enqueue(1, (1, 2), nd.UpdateInfo(0, True, False, 0, 0), 0)
        if sim_cls is Simulation:
            assert s.ready == [(1, 2), (3, 2)]
            assert s.control_links == [(1, 2)]
            _assert_scheduler_state(s)
        # (1, 2) is the only control link although its head is a Test, so it
        # is served before the older Test on (3, 2)
        for _ in range(2):
            s.step_once()
        delivered = [(r.link, type(r.message).__name__) for r in s.trace if isinstance(r, Delivery)]
        assert delivered == [((1, 2), "Test"), ((1, 2), "UpdateInfo")]


class _UniformSimulation(Simulation):
    """Seeded delivery from every non-empty link, per-link FIFO kept: the
    schedule without the control preemption of Simulation._pick."""

    def _pick(self):
        return self.rng.choice(self.ready)


@pytest.mark.parametrize("seed", range(3))
def test_a_test_reads_stale_state_without_the_control_preemption(seed):
    # the protocol needs the preemption: on a triangle, a node answers a
    # test of the root's round before the update that puts it in the root
    # component reaches it, and the root reads it as active
    inst = generate_random_instance(3, 3, 3)
    s = _UniformSimulation(inst, seed)
    with pytest.raises(nd.ProtocolError, match="^epsilon computed in state inactive against active$"):
        s.run_to_quiescence()
    if seed == 0:
        step, last = 1, []  # the records of steps 20 to 22
        for r in s.trace:
            step += isinstance(r, Delivery)
            if step >= 20:
                last.append(r)
        # at step 20 the root takes node 2's connect, which merges node 2's
        # component (2 and 3) into the root's, and starts a round
        assert last[:2] == [
            Delivery((2, 1), 3, nd.Connect(Fraction(2), Fraction(1), Fraction(1))),
            RoundBoundary(),
        ]
        # its test reaches node 3 before the root's Accept reaches node 2,
        # so before the root-flag update node 2 floods after it; node 3
        # answers that it is active, with its deficit 1
        deliveries = [r for r in last if isinstance(r, Delivery)]
        assert deliveries[1:] == [
            Delivery((1, 3), 4, nd.Test(1)),
            Delivery((3, 1), 4, nd.Status(nd.CS.ACTIVE, Fraction(1))),
        ]
        # queued in the automaton's units of 1/scale
        assert s.queues[(1, 2)][0][0] == nd.Accept(True, 6 * s.scale, 5 * s.scale)


def test_step_at_quiescence_raises(example11):
    s = run(example11)
    assert not s.in_flight() and s.ready == [] and s.control_links == []
    with pytest.raises(RuntimeError, match="quiescence"):
        s.step_once()


@pytest.mark.parametrize("seed", [None, 2], ids=["eager", "seeded:2"])
def test_livelock_budget_fires_mid_run(example11, seed):
    s = Simulation(example11, seed)
    s.budget = 5
    with pytest.raises(sim.LivelockError, match="budget 5"):
        s.run_to_quiescence()
    assert s.step == 6 and s.in_flight()


# ---------------------------------------------------------------------------
# Trace writer against the dict-building reference


def _to_jsonable(x):
    if isinstance(x, Fraction):
        return format_rational(x)
    if x == nd.INF and isinstance(x, float):
        return "inf"
    if isinstance(x, nd.CS):
        return x.value
    if isinstance(x, tuple):
        return list(x)
    return x


def _message_to_json(msg):
    d = {"type": type(msg).__name__}
    for f in fields(msg):
        d[f.name] = _to_jsonable(getattr(msg, f.name))
    return d


def _reference_record_dict(rec):
    """The trace writer as first written: a dict per record for json.dumps.
    Kept as the reference the compiled line encoders must match byte for byte."""
    if isinstance(rec, Delivery):
        return {
            "kind": "delivery",
            "link": list(rec.link),
            "round": rec.round,
            "message": _message_to_json(rec.message),
        }
    if isinstance(rec, StateChange):
        return {"kind": "state", "field": rec.field, "new": _to_jsonable(rec.new)}
    if isinstance(rec, EpsilonRecord):
        return {
            "kind": "epsilon",
            "eps1": _to_jsonable(rec.eps1),
            "eps2": _to_jsonable(rec.eps2),
            "chosen": rec.chosen,
        }
    if isinstance(rec, RoundBoundary):
        return {"kind": "round"}
    raise TypeError(f"unknown record {rec!r}")


def _reference_lines(trace):
    return "".join(json.dumps(_reference_record_dict(r)) + "\n" for r in trace)


F = Fraction
_EDGE_MESSAGES = [
    nd.Initiate(4),
    nd.Test(12),
    *(nd.Status(cs, F(-1, 6)) for cs in nd.CS),
    nd.Reject(),
    nd.Report(nd.INF, F(0), nd.INF),
    nd.Report(F(-1, 6), F(40), 17),
    nd.Merge(),
    nd.Connect(F(15, 2), F(-1, 6), F(3)),
    nd.Accept(False, F(22, 7), F(0)),
    nd.Accept(True, F(-3), F(1, 9)),
    nd.RefindEpsilon(),
    nd.UpdateInfo(F(-1, 6), True, False, F(9), F(7, 2)),
    nd.UpdateInfo(F(10), False, True, F(0), F(0)),
    nd.Proceed(F(15)),
    nd.Back(True),
    nd.Back(False),
    nd.Prune(),
    nd.BackwardPrune(),
]
_EDGE_STATE_VALUES = {
    "cs": list(nd.CS),
    "d_v": [F(-1, 6), F(3)],
    "comp_w": [F(15)],
    "d_h": [F(10)],
    "prize_flag": [True, False],
    "labelled_flag": [True, False],
}
_EDGE_RECORDS = [
    *(Delivery((i + 1, i + 2), i % 4, m) for i, m in enumerate(_EDGE_MESSAGES)),
    *(StateChange(f, new) for f, values in _EDGE_STATE_VALUES.items() for new in values),
    EpsilonRecord(nd.INF, None, "prune"),
    EpsilonRecord(nd.INF, None, "back"),
    EpsilonRecord(F(10), None, "proceed"),
    EpsilonRecord(F(-1, 6), F(7, 2), "merge"),
    EpsilonRecord(F(15, 2), F(3), "deactivate"),
    RoundBoundary(),
]


def test_line_encoder_matches_reference_on_every_kind_and_edge_value():
    assert {type(m) for m in _EDGE_MESSAGES} == set(typing.get_args(nd.Message))
    assert {type(r) for r in _EDGE_RECORDS} == set(typing.get_args(sim.Record))
    assert set(_EDGE_STATE_VALUES) == set(sim._TRACKED_FIELDS)
    assert {r.chosen for r in _EDGE_RECORDS if isinstance(r, EpsilonRecord)} == set(
        typing.get_args(nd.Choice)
    )
    for rec in _EDGE_RECORDS:
        expected = _reference_record_dict(rec)
        assert record_to_line(rec) == json.dumps(expected) + "\n"
        assert record_to_json(rec) == expected
        assert record_from_json(expected) == rec


def test_every_record_kind_and_message_type_takes_exactly_its_keys():
    # an undeclared key is a ValueError naming it, in a record or in its
    # message; a missing key is still a KeyError naming the field
    for rec in _EDGE_RECORDS:
        d = _reference_record_dict(rec)
        for obj in [d, d["message"]] if "message" in d else [d]:
            obj["extra"] = 0
            with pytest.raises(ValueError, match="undeclared key 'extra' in {\"(kind|type)\": "):
                record_from_json(d)
            del obj["extra"]
            for key, value in list(obj.items()):
                del obj[key]
                with pytest.raises(KeyError, match=key):
                    record_from_json(d)
                obj[key] = value
        assert record_from_json(d) == rec


def test_over_long_rational_is_named_with_its_line(tmp_path):
    path = tmp_path / "t.jsonl"
    rec = {"kind": "delivery", "link": [1, 2], "round": 0,
           "message": {"type": "Proceed", "d_h": "7" * 5000}}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(
        sim.TraceFormatError,
        match=r"t.jsonl:1: '7777777777...7777777777' \(5000 characters\) is not an integer or p/q",
    ):
        list(read_trace(str(path)))


def test_over_long_integer_is_named_with_its_line(tmp_path):
    # the JSON decoder refuses it before any field is decoded
    path = tmp_path / "t.jsonl"
    rec = '{"kind": "delivery", "link": [1, 2], "round": ' + "7" * 5000 + ', "message": {"type": "Prune"}}'
    path.write_text('{"kind": "round"}\n' + rec + "\n")
    limit = sys.get_int_max_str_digits()
    with pytest.raises(
        sim.TraceFormatError, match=f"t.jsonl:2: a trace integer has at most {limit} digits$"
    ):
        list(read_trace(str(path)))


def test_write_trace_matches_reference_writer(tmp_path, example11):
    runs = [run(example11).trace, run(example11, 1).trace]
    for n in range(6, 21):
        inst = generate_random_instance(n, 2 * n, n)
        runs.append(run(inst, n % 3).trace)
    path = tmp_path / "t.jsonl"
    for trace in runs:
        write_trace(trace, str(path))
        assert path.read_text() == _reference_lines(trace)
        assert list(read_trace(str(path))) == trace


def _old_format_records(lines, inst):
    """Every record of a trace, from its lines as written now, as the JSON
    object its line held before the format dropped the values that other
    fields of the same run restate.  It restores:

    - every record's step, that of the transition it belongs to: one more
      than the deliveries up to and including it;
    - a state change's node, and a round record's leader: the node of that
      transition, the receiver of that delivery (or the root, before the
      first);
    - a state change's old value, from the previous new value of that node
      and field, or the NodeState constructor's;
    - Initiate.sn, always "find";
    - Report.pf, from ts being finite;
    - Report.d_h and Merge.d_h, from the receiving node's latest d_h;
    - Connect.nid, from the sender of the link;
    - Merge.epsilon, from eps1 of the merge decision of the delivery's round;
    - Accept.leader_flag, from the acceptor (the sender) being in the root
      component or having the higher id of the link;
    - a root_flag change wherever the prize flag changes, to its negation;
    - an lc change wherever a node's round leader changes: to the node
      itself at a round record of its transition, or else to the leader of
      the Initiate delivered to it;
    - a round record's number, from its place among the round records;
    - a decision's leader, from the round record before it;
    - the phase record, right after the root's prune decision, at its step.

    A node's state changes are recorded together, last, at the step of its
    transition, root_flag and lc after the others.  Digests of what this
    yields match those pinned before the format changed, so the change lost
    nothing."""
    last = {}  # (node, field) -> JSON value of the latest change
    for v in inst.node_ids:
        root = v == inst.root
        last.update({
            (v, "cs"): "inactive" if root else "sleeping",
            (v, "d_v"): "0", (v, "comp_w"): "0", (v, "d_h"): "0",
            (v, "prize_flag"): not root, (v, "labelled_flag"): False,
            (v, "root_flag"): root, (v, "lc"): v,
        })
    merge_eps1 = {}  # round -> eps1 of its merge decision
    round_index = 0
    step, node = 1, inst.root  # the root's wakeup
    leader = round_leader = None
    flag_changed = False

    def change(field, new):
        old, last[(node, field)] = last[(node, field)], new
        return {"kind": "state", "step": step, "node": node, "field": field, "old": old, "new": new}

    def end_of_step():
        if flag_changed:
            yield change("root_flag", not last[(node, "prize_flag")])
        if leader is not None and leader != last[(node, "lc")]:
            yield change("lc", leader)

    for line in lines:
        rec = json.loads(line)
        if rec["kind"] == "delivery":
            yield from end_of_step()
            step, node, leader, flag_changed = step + 1, rec["link"][1], None, False
            rec = {"kind": "delivery", "step": step, **rec}
            msg = rec["message"]
            if msg["type"] == "Initiate":
                leader = msg["leader"]
                msg["sn"] = "find"
            elif msg["type"] == "Report":
                rec["message"] = {
                    "type": "Report", "best_epsilon": msg["best_epsilon"],
                    "d_h": last[(node, "d_h")], "tp": msg["tp"],
                    "pf": msg["ts"] != "inf", "ts": msg["ts"],
                }
            elif msg["type"] == "Merge":
                rec["message"] = {
                    "type": "Merge", "epsilon": merge_eps1[rec["round"]], "d_h": last[(node, "d_h")],
                }
            elif msg["type"] == "Connect":
                rec["message"] = {"type": "Connect", "nid": rec["link"][0], **msg}
            elif msg["type"] == "Accept":
                leads = msg["root_flag"] or rec["link"][0] > rec["link"][1]
                rec["message"] = {"type": "Accept", "leader_flag": leads, **msg}
        elif rec["kind"] == "round":
            round_index += 1
            rec = {"kind": "round", "step": step, "leader": node, "round": round_index}
            leader = round_leader = node
        elif rec["kind"] == "epsilon":
            rec = {"kind": "epsilon", "step": step, "leader": round_leader, **rec}
            if rec["chosen"] == "merge":
                merge_eps1[round_index] = rec["eps1"]
            elif rec["chosen"] == "prune":
                yield rec
                rec = {"kind": "phase", "step": step}
        elif rec["kind"] == "state":
            flag_changed |= rec["field"] == "prize_flag"
            rec = change(rec["field"], rec["new"])
        yield rec
    yield from end_of_step()


def _old_format_text(lines, inst) -> str:
    return "".join(json.dumps(rec) + "\n" for rec in _old_format_records(lines, inst))


@pytest.mark.parametrize(
    "n, seed, digest, old_digest",
    [
        (40, None, "8a59c0cb8358bf348715ba469445c91f20419db6fcde74bd479b19bb2c941d76",
         "a71d986be8940e1ee13a3a1bda714b1fec95e4deff1ed43204af6a83b55b184f"),
        (80, None, "556283dc4e74e7c7a1dae4dc4d1033d5630ece4611a21a7dee68a9396c779d04",
         "62389342a45f54b3081f01ad85c68255cf507d8adbf0a42aee73782cf1024cb1"),
        (40, 0, "2d932308873da489599d1caff306f50acf152813495ad39400b0661cbe3cfa22",
         "5e97b2d0638628a045af3209b943f1fd14c811c27e96edf75b5c5550050810ba"),
    ],
    ids=["n40-eager", "n80-eager", "n40-seeded:0"],
)
def test_pinned_trace_digests(tmp_path, capsys, n, seed, digest, old_digest):
    # eager and seeded traces of the m = 3n, instance-seed-1 corpus, as
    # written by the one-prune protocol, and as solve --trace streams them;
    # old_digest was pinned before the trace format dropped the values other
    # fields restate
    inst = generate_random_instance(n, 3 * n, 1)
    path = tmp_path / "t.jsonl"
    write_trace(run(inst, seed).trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    old = _old_format_text(path.read_text().splitlines(), inst)
    assert hashlib.sha256(old.encode()).hexdigest() == old_digest
    inst_path, streamed = tmp_path / "g.pcst", tmp_path / "streamed.jsonl"
    inst_path.write_text(render_instance(inst))
    schedule = "eager" if seed is None else f"seeded:{seed}"
    assert main(["solve", "--schedule", schedule, "--trace", str(streamed), str(inst_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(streamed.read_bytes()).hexdigest() == digest


def _refactor_corpus():
    """n = 3..12, m in {n-1, 2n, 3n} capped at C(n, 2), instance seeds 0..3,
    eager and seeded:0..2: 432 runs that reach every rule of the node
    automaton from each handler that uses it."""
    for n in range(3, 13):
        full = n * (n - 1) // 2
        for m in sorted({n - 1, min(2 * n, full), min(3 * n, full)}):
            for instance_seed in range(4):
                inst = generate_random_instance(n, m, instance_seed)
                for seed in [None, *range(3)]:
                    yield inst, seed


def test_refactor_corpus_trace_digest():
    # one SHA-256 over the line of every record of every corpus run; a
    # refactor of the protocol code must leave it unchanged.  The old
    # format's digest was pinned before the node automaton was rewritten to
    # state each rule once.
    h, old = hashlib.sha256(), hashlib.sha256()
    runs = 0
    for inst, seed in _refactor_corpus():
        lines = [record_to_line(rec) for rec in run(inst, seed).trace]
        for line in lines:
            h.update(line.encode())
        old.update(_old_format_text(lines, inst).encode())
        runs += 1
    assert runs == 432
    assert h.hexdigest() == "6c42120b9b54ead84967ff6604d1f976fb32690a2ab46493d63f21df7b7ff0f9"
    assert old.hexdigest() == "7866c9e6bf65b66af1ad89d34ef7bca3a5e826302426632dc40d3550bc09413d"


def test_unrecorded_run_matches_the_recorded_run():
    # a run without a trace makes the same deliveries, sends and rounds, and
    # ends in the same node states, as the recorded run of its schedule
    runs = 0
    for inst, seed in _refactor_corpus():
        recorded, bare = run(inst, seed), run(inst, seed, sink=None)
        assert extract_solution(bare) == extract_solution(recorded)
        assert (bare.step, bare.send_seq, bare.round_index) == (
            recorded.step,
            recorded.send_seq,
            recorded.round_index,
        )
        assert bare.nodes == recorded.nodes
        assert bare.trace == [] and recorded.trace
        runs += 1
    assert runs == 432


_DIVISORS = (1, 2, 3, 4, 7)


def _rational_corpus():
    """n = 2..14, m in {n-1, 2n, 3n} capped at C(n, 2), instance seed n, each
    weight and prize divided by a seeded choice of 1, 2, 3, 4 or 7, eager and
    seeded:0..1: 102 runs on instances whose values are not all integers."""
    for n in range(2, 15):
        full = n * (n - 1) // 2
        for m in sorted({n - 1, min(2 * n, full), min(3 * n, full)}):
            inst = generate_random_instance(n, m, n)
            rng = random.Random(f"{n} {m}")
            prizes = {v: inst.prizes[v] / rng.choice(_DIVISORS) for v in inst.node_ids}
            weights = {e: inst.weights[e] / rng.choice(_DIVISORS) for e in sorted(inst.weights)}
            inst = PcstInstance(inst.node_ids, inst.root, prizes, weights)
            for seed in (None, 0, 1):
                yield inst, seed


def test_rational_corpus_trace_digest():
    # one SHA-256 over the line of every record of every corpus run, pinned
    # while the automaton still computed in Fractions; the same again over
    # the lines the writer sink writes as the runs make their records
    h, streamed = hashlib.sha256(), hashlib.sha256()
    runs = 0
    for inst, seed in _rational_corpus():
        for rec in run(inst, seed).trace:
            h.update(record_to_line(rec).encode())
        fh = io.StringIO()
        assert run(inst, seed, line_writer(fh)).trace == []
        streamed.update(fh.getvalue().encode())
        runs += 1
    assert runs == 102
    pinned = "67490be05c2db9ce658443468f8c7c0ce468c6d95382636b6f4e829750c86086"
    assert h.hexdigest() == pinned
    assert streamed.hexdigest() == pinned


@pytest.mark.parametrize(
    "seed",
    [None, *range(3)],
    ids=["eager"] + [f"seeded:{k}" for k in range(3)],
)
def test_phase_boundary_follows_the_root_prune_decision(seed, example11):
    # the prune phase opens only through the root's decision, which comes
    # before its first Prune send: the one prune decision is the phase
    # boundary, the last round or decision record, in a round the root leads.
    # A round is led by the node of its transition: the receiver of the last
    # delivery before it, or the root.
    instances = [parse_instance("nodes 4\nroot 4"), parse_instance(TWO_MERGE), example11]
    instances += [generate_random_instance(n, 2 * n, n) for n in range(5, 31, 5)]
    for inst in instances:
        node, growth = inst.root, []  # (node of its transition, round or decision record)
        for r in run(inst, seed).trace:
            if isinstance(r, Delivery):
                node = r.link[1]
            elif isinstance(r, (RoundBoundary, EpsilonRecord)):
                growth.append((node, r))
        assert [r.chosen for _v, r in growth[1::2]].count("prune") == 1
        assert growth[-2:] == [
            (inst.root, RoundBoundary()),
            (inst.root, EpsilonRecord(nd.INF, None, "prune")),
        ]


# ---------------------------------------------------------------------------
# Trace reader against the JSON-only reference


def _reference_read_trace(path):
    """The trace reader as it was before canonical delivery lines skipped
    the JSON parser: every line through json and record_from_json, with the
    same errors.  Kept as the reference read_trace must match, record for
    record and error for error."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line.decode())
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise sim.TraceFormatError(f"{path}:{lineno}: {exc}") from exc
            except ValueError:
                limit = sys.get_int_max_str_digits()
                raise sim.TraceFormatError(f"{path}:{lineno}: a trace integer has at most {limit} digits")
            try:
                records.append(record_from_json(obj))
            except KeyError as exc:
                raise sim.TraceFormatError(f"{path}:{lineno}: missing field {exc}") from exc
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise sim.TraceFormatError(f"{path}:{lineno}: {exc}") from exc
    if not records:
        raise sim.TraceFormatError(f"{path}: no records")
    return records


def _read_both(path):
    """(read_trace's records, the reference's), or the error texts each raised."""
    out = []
    for read in (lambda p: list(read_trace(p)), _reference_read_trace):
        try:
            out.append(read(str(path)))
        except sim.TraceFormatError as exc:
            out.append(str(exc))
    return out


def test_reader_matches_reference_on_corpus_traces(tmp_path, example11):
    runs = [run(example11).trace]
    for n in (10, 20, 40, 80):
        for seed in (1, 2):
            inst = generate_random_instance(n, 3 * n, seed)
            runs += [run(inst).trace, run(inst, 0).trace]
    path = tmp_path / "t.jsonl"
    for trace in runs:
        write_trace(trace, str(path))
        ours, reference = _read_both(path)
        assert ours == reference == trace
        assert [type(r) for r in ours] == [type(r) for r in reference]


_CANONICAL = '{"kind": "delivery", "link": [1, 2], "round": 3, "message": {"type": "Proceed", "d_h": "15"}}'
_PROCEED = Delivery((1, 2), 3, nd.Proceed(Fraction(15)))


@pytest.mark.parametrize(
    "line, rec",
    [
        (_CANONICAL, _PROCEED),
        (_CANONICAL.replace(": ", ":").replace(", ", ","), _PROCEED),
        (" " + _CANONICAL.replace(": ", " :  ").replace("[1, 2]", "[ 1 ,2 ]") + " ", _PROCEED),
        ('{"round": 3, "message": {"d_h": "15", "type": "Proceed"}, "link": [1, 2], "kind": "delivery"}', _PROCEED),
        (_CANONICAL.replace('"round": 3', '"round": 4, "round": 3'), _PROCEED),
        (_CANONICAL.replace('"type"', '"type": "Prune", "type"'), _PROCEED),
        (_CANONICAL.replace("[1, 2], \"round\": 3", "[-0, 2], \"round\": -0"), Delivery((0, 2), 0, _PROCEED.message)),
        (_CANONICAL.replace('"round": 3', '"round": 1' + "0" * 150), Delivery((1, 2), 10**150, _PROCEED.message)),
        (_CANONICAL.replace("Proceed", "\\u0050roceed"), _PROCEED),
        (_CANONICAL.replace('"kind": "delivery"', '"kind": "\\u0064elivery"'), _PROCEED),
        (_CANONICAL.replace('{"type"', '{"type": "}", "type"'), _PROCEED),
        (_CANONICAL.replace('{"kind"', '{"kind": "{", "kind"'), _PROCEED),
        (_CANONICAL + "\r", _PROCEED),
    ],
    ids=[
        "canonical", "no-spaces", "extra-spaces", "reordered", "duplicate-key", "duplicate-message-key",
        "minus-zero", "past-digit-cap", "escaped-type", "escaped-kind", "close-brace-in-string",
        "open-brace-in-string", "carriage-return",
    ],
)
def test_any_json_spelling_of_a_delivery_reads_as_the_reference(tmp_path, line, rec):
    path = tmp_path / "t.jsonl"
    path.write_text(f'{{"kind": "round"}}\n{line}\n{line}')
    ours, reference = _read_both(path)
    assert ours == reference == [RoundBoundary(), rec, rec]


@pytest.mark.parametrize(
    "message",
    [
        b'{"type": "Pro\xffceed", "d_h": "15"}',
        b'{"type": "Proceed", "d_h": {"a": 1}}',
        b'{"type": "Proceed", "d_h": "15", "x": {}}',
        b'{"type": "Bogus"}',
        b'{"type": "Test", "leader": ' + b"7" * 5000 + b"}",
        b'{"type": "Proceed", "d_h": "15", "step": 3}',
        b'{"type": "Proceed"}',
        b'{"d_h": "15"}',
        b'{"type": ["Proceed"], "d_h": "15"}',
        b'{"type": "Proceed", "d_h": "1/0"}',
        b'{"type": "Proceed", "d_h": NaN}',
        b'{"type": "Proceed", "d_h": "15"',
        b'{"type": "Reject", "x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ],
    ids=[
        "non-utf8", "nested-object", "nested-empty-object", "unknown-type", "5000-digit-integer",
        "undeclared-key", "missing-key", "missing-type", "unhashable-type", "zero-denominator", "nan",
        "unclosed", "nested-array",
    ],
)
def test_a_bad_delivery_line_raises_the_reference_error(tmp_path, message):
    path = tmp_path / "t.jsonl"
    line = b'{"kind": "delivery", "link": [1, 2], "round": 3, "message": ' + message + b"}\n"
    path.write_bytes(_CANONICAL.encode() + b"\n" + line)
    ours, reference = _read_both(path)
    assert isinstance(ours, str) and ours.startswith(f"{path}:2: ")
    assert ours == reference


def test_a_bad_round_integer_raises_the_reference_error(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(_CANONICAL.replace('"round": 3', '"round": ' + "7" * 5000) + "\n")
    ours, reference = _read_both(path)
    assert ours == reference == f"{path}:1: a trace integer has at most {sys.get_int_max_str_digits()} digits"


def test_records_share_a_message_within_a_file_only(tmp_path, example11):
    trace = run(example11).trace
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trace(trace, str(first))
    write_trace(trace, str(second))
    a, b = list(read_trace(str(first))), list(read_trace(str(second)))
    messages = [r.message for r in a if isinstance(r, Delivery)]
    by_text = {}
    for msg in messages:
        assert by_text.setdefault(sim._message_to_text(msg), msg) is msg
    assert len(by_text) < len(messages)
    assert not set(map(id, by_text.values())) & {id(r.message) for r in b if isinstance(r, Delivery)}


def _distinct_records(fh):
    # 100k deliveries whose messages all differ, each after a state line
    # that differs too
    for k in range(100_000):
        fh.write(record_to_line(StateChange("comp_w", Fraction(k, 7))))
        fh.write(record_to_line(Delivery((1, 2), k, nd.Test(k))))


def _padded_lines(fh):
    # 2,500 round lines and 2,500 deliveries, each padded inside by 4,000
    # spaces split at a different place, so that no two lines or message
    # texts are equal
    for k in range(2_500):
        pad, rest = " " * k, " " * (4_000 - k)
        fh.write(f'{{"kind": {pad}"round"{rest}}}\n')
        fh.write(f'{{"kind": "delivery", "link": [1, 2], "round": 3, "message": {{"type": {pad}"Reject"{rest}}}}}\n')


@pytest.mark.parametrize(
    "write, count, bound",
    [(_distinct_records, 200_000, 12 * 2**20), (_padded_lines, 5_000, 2 * 2**20)],
    ids=["distinct-messages", "padded-lines"],
)
def test_reading_distinct_messages_holds_a_bounded_memo(tmp_path, write, count, bound):
    # the reader keeps at most 2**14 short keys of each memo, so its traced
    # peak stays far below what memos of every line would take: 20 MB of
    # keys for the padded lines
    path = tmp_path / "t.jsonl"
    with open(path, "w") as fh:
        write(fh)
    tracemalloc.start()
    try:
        count_read = sum(1 for _rec in read_trace(str(path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count_read == count
    assert peak < bound, peak
