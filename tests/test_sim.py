import json
from fractions import Fraction

import pytest

from dpcst import node as nd
from dpcst import sim
from dpcst.exact import exact_pcst
from dpcst.instance import generate_random_instance, parse_instance
from dpcst.sim import (
    Delivery,
    EpsilonRecord,
    PhaseBoundary,
    RoundBoundary,
    Schedule,
    Simulation,
    StateChange,
    count_messages,
    extract_solution,
    message_bound,
    read_trace,
    record_from_json,
    record_to_json,
    round_message_bound,
    run,
    write_trace,
)

TWO_MERGE = "nodes 1 2\nroot 1\nprize 2 5\nedge 1 2 2"
TWO_PENAL = "nodes 1 2\nroot 1\nprize 2 3\nedge 1 2 10"


def test_new_simulation_shape():
    s = Simulation(parse_instance(TWO_MERGE))
    assert set(s.queues) == {(1, 2), (2, 1)}
    assert all(not q for q in s.queues.values())
    assert s.in_flight() == 1  # the root wakeup


def test_seeded_initial_state_deterministic():
    inst = parse_instance(TWO_MERGE)
    a = Simulation(inst, Schedule.seeded(7))
    b = Simulation(inst, Schedule.seeded(7))
    assert a.nodes == b.nodes


def test_single_node_quiesces_immediately():
    s = run(parse_instance("nodes 4\nroot 4"))
    sol = extract_solution(s)
    assert sol.steiner_nodes == {4}
    assert sol.objective == 0
    assert s.step <= 2
    assert count_messages(s.trace)["total"] == 0
    assert sum(isinstance(r, PhaseBoundary) for r in s.trace) == 1


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
    t1 = run(inst, Schedule.seeded(3)).trace
    t2 = run(inst, Schedule.seeded(3)).trace
    assert [record_to_json(r) for r in t1] == [record_to_json(r) for r in t2]


def test_schedule_invariance_of_solution():
    for seed in (0, 4, 9):
        inst = generate_random_instance(6, 9, seed)
        base = extract_solution(run(inst, Schedule.eager()))
        for s2 in range(10):
            assert extract_solution(run(inst, Schedule.seeded(s2))) == base


def test_exactly_one_phase_boundary_and_increasing_rounds():
    inst = generate_random_instance(8, 14, 21)
    trace = run(inst).trace
    assert sum(isinstance(r, PhaseBoundary) for r in trace) == 1
    rounds = [r.round_index for r in trace if isinstance(r, RoundBoundary)]
    assert rounds == sorted(rounds) and len(set(rounds)) == len(rounds)


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
    back = read_trace(str(path))
    assert len(back) == len(s.trace)
    assert back == s.trace
    first = json.loads(path.read_text().splitlines()[0])
    assert "kind" in first and "step" in first


def test_record_json_stable_fields():
    rec = Delivery(3, (1, 2), nd.Proceed(Fraction(15)), 4)
    d = record_to_json(rec)
    assert d == {
        "kind": "delivery",
        "step": 3,
        "link": [1, 2],
        "round": 4,
        "message": {"type": "Proceed", "d_h": "15"},
    }
    assert record_from_json(d) == rec


def test_extract_rejects_asymmetric_marks():
    s = run(parse_instance(TWO_MERGE))
    s.nodes[1].se[(1, 2)] = nd.SE.BASIC  # corrupt one side
    with pytest.raises(nd.ProtocolError):
        extract_solution(s)
