import json
import pathlib
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest

from dpcst import cli
from dpcst.cli import main
from dpcst.instance import format_rational, generate_random_instance, render_instance
from dpcst.node import EpsilonRecord, ProtocolError
from dpcst.sim import read_trace, write_trace

TWO_PENAL = "nodes 1 2\nroot 1\nprize 2 3\nedge 1 2 10\n"
TWO_MERGE = "nodes 1 2\nroot 1\nprize 2 5\nedge 1 2 2\n"
DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def two_penal(tmp_path):
    p = tmp_path / "two.pcst"
    p.write_text(TWO_PENAL)
    return str(p)


def test_solve_exact(two_penal, capsys):
    assert main(["solve", "--alg", "exact", two_penal]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["objective"] == "3"
    assert out["penalty_nodes"] == [2]


def test_solve_dpcst_writes_trace(two_penal, tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    code = main(
        ["solve", "--alg", "dpcst", "--schedule", "seeded:7", "--trace", str(trace_path), two_penal]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["objective"] == "3"
    trace = read_trace(str(trace_path))
    assert any(isinstance(r, EpsilonRecord) for r in trace)


@pytest.mark.parametrize("schedule", ["eager", "seeded:3"])
def test_solve_records_only_a_traced_run(tmp_path, capsys, monkeypatch, schedule):
    # solve prints the same with or without --trace; a traced solve streams
    # its records to the file and keeps none, and the file holds what
    # write_trace writes of a recorded run of the same schedule
    inst = generate_random_instance(12, 30, 2)
    p = tmp_path / "g.pcst"
    p.write_text(render_instance(inst))
    runs = []
    real_run = cli.sim.run

    def run_captured(*args, **kwargs):
        runs.append(real_run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli.sim, "run", run_captured)
    solve = ["solve", "--schedule", schedule, str(p)]
    assert main(solve) == 0
    plain = capsys.readouterr().out
    trace_path = tmp_path / "t.jsonl"
    assert main([*solve, "--trace", str(trace_path)]) == 0
    assert capsys.readouterr().out == plain
    assert [(s.sink is None, s.trace) for s in runs] == [(True, []), (False, [])]
    recorded = tmp_path / "recorded.jsonl"
    write_trace(real_run(inst, cli._parse_schedule(schedule)).trace, str(recorded))
    assert trace_path.read_bytes() == recorded.read_bytes()


def test_failed_solve_leaves_no_trace(tmp_path, capsys, monkeypatch):
    # the run streams into the file it opened, and removes it when it raises
    p = tmp_path / "g.pcst"
    p.write_text(render_instance(generate_random_instance(12, 30, 2)))
    trace_path = tmp_path / "t.jsonl"
    real_transition = cli.sim.nd.transition

    def transition(st, e, msg, seq):
        if seq == 50:
            assert trace_path.exists()
            raise ProtocolError("injected at step 50")
        return real_transition(st, e, msg, seq)

    monkeypatch.setattr(cli.sim.nd, "transition", transition)
    with pytest.raises(ProtocolError, match="injected"):
        main(["solve", "--trace", str(trace_path), str(p)])
    assert not trace_path.exists()


def test_bad_schedule_leaves_the_trace_path_alone(two_penal, tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", "--schedule", "bogus", "--trace", str(trace_path), two_penal]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: unknown schedule 'bogus' (want eager or seeded:<n>)"]
    assert not trace_path.exists()


def test_unopenable_trace_exits_one_before_the_run(two_penal, tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli.sim, "run", lambda *args: runs.append(args))
    trace_path = tmp_path / "missing" / "t.jsonl"
    assert main(["solve", "--trace", str(trace_path), two_penal]) == 1
    cap = capsys.readouterr()
    assert cap.out == "" and runs == []
    assert cap.err.splitlines() == [cap.err.strip()]
    assert cap.err.startswith("error: ") and str(trace_path) in cap.err


def test_solve_gw_matches(two_penal, capsys):
    assert main(["solve", "--alg", "gw", two_penal]) == 0
    assert json.loads(capsys.readouterr().out)["objective"] == "3"


def test_solve_generated_instance(capsys, tmp_path):
    assert main(["gen", "--n", "5", "--m", "7", "--seed", "3"]) == 0
    p = tmp_path / "g.pcst"
    p.write_text(capsys.readouterr().out)
    assert main(["solve", "--alg", "exact", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "objective" in out


def test_identical_invocations_identical_output(capsys, tmp_path):
    p = tmp_path / "g.pcst"
    assert main(["gen", "--n", "6", "--m", "8", "--seed", "5"]) == 0
    text1 = capsys.readouterr().out
    assert main(["gen", "--n", "6", "--m", "8", "--seed", "5"]) == 0
    assert capsys.readouterr().out == text1
    p.write_text(text1)
    assert main(["solve", "--alg", "dpcst", "--json", str(p)]) == 0
    o1 = capsys.readouterr().out
    assert main(["solve", "--alg", "dpcst", "--json", str(p)]) == 0
    assert capsys.readouterr().out == o1


def test_options_do_not_leak_into_the_next_call(two_penal, tmp_path, capsys):
    # main reuses one parser, so each call must start from the defaults
    gen = ["gen", "--n", "5", "--m", "7", "--seed", "3"]
    assert main(gen) == 0
    plain_gen = capsys.readouterr().out
    trace_path = tmp_path / "t.jsonl"
    trace_path.write_text("untouched\n")
    assert main(["solve", "--alg", "gw", "--trace", str(trace_path), "--json", two_penal]) == 0
    assert json.loads(capsys.readouterr().out)["algorithm"] == "gw"
    assert main(["solve", two_penal]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["algorithm"] == "dpcst"
    assert "\n" in out.strip()  # indented, not --json
    assert trace_path.read_text() == "untouched\n"
    assert main([*gen, "--wmax", "3", "--pmax", "2"]) == 0
    assert capsys.readouterr().out != plain_gen
    assert main(gen) == 0
    assert capsys.readouterr().out == plain_gen


def test_verify_clean_run_exits_zero(two_penal, tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    main(["solve", "--alg", "dpcst", "--trace", str(trace_path), two_penal])
    capsys.readouterr()
    assert main(["verify", two_penal, str(trace_path)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert {l["check"] for l in lines} == {"edge_packing", "penalty_packing", "ratio", "bounds"}
    assert all(l["status"] == "pass" for l in lines)


def test_verify_corrupted_trace_exits_three(two_penal, tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    main(["solve", "--alg", "dpcst", "--trace", str(trace_path), two_penal])
    capsys.readouterr()
    doctored = []
    for line in trace_path.read_text().splitlines():
        rec = json.loads(line)
        if rec["kind"] == "epsilon" and rec["chosen"] == "deactivate":
            rec["eps2"] = "4"  # was 3
        doctored.append(json.dumps(rec))
    trace_path.write_text("\n".join(doctored) + "\n")
    assert main(["verify", two_penal, str(trace_path)]) == 3
    assert "divergence" in capsys.readouterr().out


@pytest.mark.parametrize(
    "chosen, key, value",
    [
        ("deactivate", "eps2", None), ("merge", "eps2", None), ("proceed", "eps2", "1"),
        ("back", "eps2", "0"), ("prune", "eps2", "1"),
        ("back", "eps1", "3"), ("prune", "eps1", "3"), ("proceed", "eps1", "inf"),
        ("merge", "eps1", "inf"),
    ],
    ids=[
        "deactivate-None", "merge-None", "proceed-1", "back-0", "prune-1",
        "back-eps1-3", "prune-eps1-3", "proceed-eps1-inf", "merge-eps1-inf",
    ],
)
def test_verify_decision_eps2_against_its_choice_exits_three(tmp_path, capsys, chosen, key, value):
    # a merge or deactivate decision holds its eps2 and the others none, and
    # a back or prune decision's eps1 is infinite and a proceed or merge
    # decision's finite, as the node emits them; the first decision of the
    # kind gets the other
    inst_path = tmp_path / "g.pcst"
    inst_path.write_text(render_instance(generate_random_instance(6, 12, 1)))
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", "--trace", str(trace_path), str(inst_path)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    at = next(i for i, r in enumerate(records) if r["kind"] == "epsilon" and r["chosen"] == chosen)
    records[at][key] = value
    trace_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["verify", str(inst_path), str(trace_path)]) == 3
    cap = capsys.readouterr()
    out = [json.loads(line) for line in cap.out.splitlines()]
    assert [(r["check"], r["status"]) for r in out] == [("replay", "divergence")]
    step = 1 + sum(r["kind"] == "delivery" for r in records[:at])
    assert f"step {step}: a {chosen} decision with {key} " in out[0]["witnesses"][0]
    assert "Traceback" not in cap.err


@pytest.mark.parametrize(
    "args, decisions", [((10, 20, 3), 10), ((10, 30, 3), 10), ((12, 24, 1), 12)], ids=str
)
def test_verify_merge_eps1_against_its_connect_exits_three(tmp_path, capsys, args, decisions):
    # a merge decision's eps1 is the epsilon of the connect that follows it:
    # half the slack of the edge to a sleeping node, all of it to an
    # inactive one; each merge decision in turn gets eps1 + 1
    inst_path = tmp_path / "g.pcst"
    inst_path.write_text(render_instance(generate_random_instance(*args)))
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", "--trace", str(trace_path), str(inst_path)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    merges = [i for i, r in enumerate(records) if r["kind"] == "epsilon" and r["chosen"] == "merge"]
    assert len(merges) == decisions
    for at in merges:
        rewritten = dict(records[at], eps1=format_rational(Fraction(records[at]["eps1"]) + 1))
        lines = [json.dumps(r) + "\n" for r in [*records[:at], rewritten, *records[at + 1 :]]]
        trace_path.write_text("".join(lines))
        assert main(["verify", str(inst_path), str(trace_path)]) == 3
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["check"], r["status"]) for r in out] == [("replay", "divergence")]
        assert f"its merge decision's eps1 {rewritten['eps1']}" in out[0]["witnesses"][0]


def test_verify_trace_missing_field_exits_one(two_penal, tmp_path, capsys):
    # a Back record as written before Back carried the sender's root flag
    trace_path = tmp_path / "t.jsonl"
    main(["solve", "--alg", "dpcst", "--trace", str(trace_path), two_penal])
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    backs = [i for i, l in enumerate(lines) if json.loads(l).get("message", {}).get("type") == "Back"]
    assert backs
    rec = json.loads(lines[backs[0]])
    del rec["message"]["root_flag"]
    lines[backs[0]] = json.dumps(rec)
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", two_penal, str(trace_path)]) == 1
    err = capsys.readouterr().err
    assert f"t.jsonl:{backs[0] + 1}:" in err
    assert "root_flag" in err


@pytest.mark.parametrize(
    "garbage",
    [
        "[1, 2]",
        "{not json",
        '{"kind": "delivery", "link": [1, 2, 3], "round": 0, "message": {"type": "Reject"}}',
        '{"kind": "delivery", "link": [1, 2], "round": 0, "message": {"type": "Nope"}}',
        # as lines were written when every record held its step
        '{"kind": "delivery", "step": 1, "link": [1, 2, 3], "round": 0, "message": {"type": "Reject"}}',
        '{"kind": "delivery", "step": 1, "link": [1, 2], "round": 0, "message": {"type": "Nope"}}',
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
        pytest.param('{"kind": "ro\udcffund"}', id="not-utf8"),  # written as the byte 0xff
    ],
)
def test_verify_trace_garbage_line_exits_one(two_penal, tmp_path, capsys, garbage):
    trace_path = tmp_path / "t.jsonl"
    main(["solve", "--alg", "dpcst", "--trace", str(trace_path), two_penal])
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    text = "\n".join(lines[:3] + [garbage] + lines[3:]) + "\n"
    trace_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(["verify", two_penal, str(trace_path)]) == 1
    assert "t.jsonl:4:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "record",
    [{"kind": "delivery", "link": [1, 99], "round": 0, "message": {"type": "Back", "root_flag": False}}],
)
def test_verify_trace_outside_instance_exits_three(two_penal, tmp_path, capsys, record):
    # a delivery's link holds the only node ids a trace names: every other
    # record belongs to the transition of the delivery before it, at that
    # link's receiver
    trace_path = tmp_path / "t.jsonl"
    trace_path.write_text(json.dumps(record) + "\n")
    assert main(["verify", two_penal, str(trace_path)]) == 3
    assert "outside the instance" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
def test_verify_trace_without_records_exits_one(two_penal, tmp_path, capsys, text):
    trace_path = tmp_path / "t.jsonl"
    trace_path.write_text(text)
    assert main(["verify", two_penal, str(trace_path)]) == 1
    assert "t.jsonl: no records" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, field, key, value",
    [
        ("delivery", None, "link", ["1", 2]),
        ("delivery", None, "link", [1.0, 2]),
        ("delivery", None, "round", None),
        # keys that lines no longer hold, so each is an undeclared key
        ("delivery", None, "step", "2"),
        ("round", None, "leader", [1]),
        ("epsilon", None, "chosen", "explode"),
        ("state", "cs", "new", 7),
        ("state", "prize_flag", "new", "false"),
        ("state", "d_v", "field", "sn"),
        # changes of fields that other records restate, as traces once held
        # them: the root flag is the prize flag negated, and a node's round
        # leader is named by its Initiate or its round record
        ("state", "labelled_flag", "field", "root_flag"),
        ("state", "cs", None, {"field": "lc", "old": 2, "new": 5}),
    ],
)
def test_verify_trace_bad_record_field_exits_one(tmp_path, capsys, kind, field, key, value):
    # one edited line of an honest n = 8 trace; a key of None sets every key
    # of value
    inst_path = tmp_path / "g.pcst"
    inst_path.write_text(render_instance(generate_random_instance(8, 14, 3)))
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", "--alg", "dpcst", "--trace", str(trace_path), str(inst_path)]) == 0
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    # the first record of that kind (and, for a state change, that field)
    at = next(i for i, r in enumerate(records) if r["kind"] == kind and r.get("field") == field)
    records[at].update(value if key is None else {key: value})
    lines[at] = json.dumps(records[at])
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(inst_path), str(trace_path)]) == 1
    err = capsys.readouterr().err
    assert f"t.jsonl:{at + 1}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "kind, message, key",
    [
        ("delivery", None, "sender"),
        ("state", None, "old"),  # as state changes once held their old value
        ("epsilon", None, "eps"),
        ("round", None, "sn"),
        ("round", None, "round"),  # as round records once held their number
        ("epsilon", None, "leader"),  # as decisions once named their round's leader
        # as every record once held its step, a state change its node and a
        # round record its leader
        ("delivery", None, "step"),
        ("state", None, "step"),
        ("epsilon", None, "step"),
        ("round", None, "step"),
        ("state", None, "node"),
        ("round", None, "leader"),
        ("delivery", "Report", "pf"),  # as reports once held ts != inf
        ("delivery", "Report", "d_h"),  # as reports once held the sender's d_h
        ("delivery", "Merge", "d_h"),
        ("delivery", "Accept", "leader_flag"),  # as accepts once said who leads
        ("delivery", "Reject", "leader"),
    ],
)
def test_verify_trace_undeclared_key_exits_one(tmp_path, capsys, kind, message, key):
    # one key added to the first record of that kind (or to the first
    # message of that type) of an honest n = 8 trace
    inst_path = tmp_path / "g.pcst"
    inst_path.write_text(render_instance(generate_random_instance(8, 14, 3)))
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", "--trace", str(trace_path), str(inst_path)]) == 0
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    at = next(
        i for i, r in enumerate(records)
        if r["kind"] == kind and (message is None or r["message"]["type"] == message)
    )
    (records[at] if message is None else records[at]["message"])[key] = 1
    lines[at] = json.dumps(records[at])
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(inst_path), str(trace_path)]) == 1
    err = capsys.readouterr().err
    assert f"t.jsonl:{at + 1}: undeclared key '{key}'" in err
    assert "Traceback" not in err


def test_verify_old_format_trace_exits_one(two_penal, tmp_path, capsys):
    # the eager trace of the two-node instance as written before state
    # changes dropped their old value: its first line, a round record, still
    # holds its step, its leader and the round's number
    trace_path = tmp_path / "t.jsonl"
    trace_path.write_text((DATA / "two_penal_old_format.jsonl").read_text())
    assert main(["verify", two_penal, str(trace_path)]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == 'error: ' + str(trace_path) + ":1: undeclared key 'step' in {\"kind\": \"round\", ...}\n"


def test_verify_bound_violation_exits_two(two_penal, tmp_path, capsys):
    # a second Prune to node 2 after the last record: the trace keeps its
    # round structure, and node 2's prune receipts exceed their cap of one
    trace_path = tmp_path / "t.jsonl"
    main(["solve", "--alg", "dpcst", "--trace", str(trace_path), two_penal])
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    last = json.loads(lines[-1])
    assert last["message"] == {"type": "Prune"}
    again = {"kind": "delivery", "link": [1, 2], "round": last["round"], "message": {"type": "Prune"}}
    trace_path.write_text("\n".join(lines + [json.dumps(again)]) + "\n")
    assert main(["verify", two_penal, str(trace_path)]) == 2
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    bounds = [r for r in out if r["status"] == "violation"]
    assert [r["check"] for r in bounds] == ["bounds"]
    assert bounds[0]["witnesses"] == [{"node": 2, "prune_receipts": 2, "cap": 1}]


def test_render_dot(two_penal, tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    main(["solve", "--alg", "exact", two_penal])
    sol_path.write_text(capsys.readouterr().out)
    assert main(["render", two_penal, str(sol_path)]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph pcst {")
    assert "doublecircle" in dot  # the root
    assert "style=dashed" in dot  # the penalized node


def test_render_dot_branch_edges(tmp_path, capsys):
    inst_path = tmp_path / "g.pcst"
    inst_path.write_text(render_instance(generate_random_instance(5, 7, 3)))
    assert main(["solve", "--alg", "exact", str(inst_path)]) == 0
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(capsys.readouterr().out)
    assert main(["render", str(inst_path), str(sol_path)]) == 0
    dot = capsys.readouterr().out.splitlines()
    assert dot[1] == '  1 [shape=doublecircle, style=filled, fillcolor=lightgray, label="1 (p=14)"];'
    assert dot[2] == '  2 [style=dashed, label="2 (p=10)"];'
    assert [line for line in dot if "style=bold" in line] == [
        '  1 -- 3 [label="8", style=bold];',
        '  3 -- 5 [label="5", style=bold];',
    ]
    assert dot[6] == '  1 -- 2 [label="17", style=dotted];'


def test_render_single_node(tmp_path, capsys):
    p = tmp_path / "one.pcst"
    p.write_text("nodes 1\nroot 1\n")
    main(["solve", "--alg", "exact", str(p)])
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(capsys.readouterr().out)
    assert main(["render", str(p), str(sol_path)]) == 0
    assert "doublecircle" in capsys.readouterr().out


def test_render_mismatch_is_usage_error(two_penal, tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({"objective": "99", "branch_edges": [], "penalty_nodes": [2]}))
    assert main(["render", two_penal, str(sol_path)]) == 1


def test_missing_file_exits_one(capsys):
    assert main(["solve", "--alg", "exact", "/nonexistent.pcst"]) == 1


def _transition_nodes(records: list[dict], root: int) -> list[int]:
    """The node of each record's transition: the receiver of the last
    delivery up to and including it, or the root before the first."""
    nodes = []
    for r in records:
        if r["kind"] == "delivery":
            root = r["link"][1]
        nodes.append(root)
    return nodes


@pytest.mark.parametrize("node", [7, 6, 4, 5])
def test_verify_prize_flags_not_a_tree_exits_three(tmp_path, capsys, node):
    # without the node's one prize_flag record the traced steiner set is not
    # connected by the merge forest: the trace disagrees with itself
    inst = generate_random_instance(10, 20, 3)
    inst_path = tmp_path / "g.pcst"
    inst_path.write_text(render_instance(inst))
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", "--trace", str(trace_path), str(inst_path)]) == 0
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    owners = _transition_nodes(records, inst.root)
    flags = [
        i for i, r in enumerate(records)
        if r["kind"] == "state" and r["field"] == "prize_flag" and owners[i] == node
    ]
    assert len(flags) == 1
    del lines[flags[0]]
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(inst_path), str(trace_path)]) == 3
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["check"], r["status"]) for r in out] == [("replay", "divergence")]
    assert "not a tree" in out[0]["witnesses"][0]


# a seed follows the instance format's integer rule, -?[0-9]+ in ASCII digits
@pytest.mark.parametrize(
    "schedule", ["seeded:x", "seeded:", "seeded:1.5", "seeded:1_0", "seeded: 7", "seeded:+3", "seeded:\u0663"]
)
def test_solve_bad_schedule_exits_one(two_penal, capsys, schedule):
    assert main(["solve", "--schedule", schedule, two_penal]) == 1
    err = capsys.readouterr().err
    assert f"unknown schedule {schedule!r}" in err and "Traceback" not in err


def test_solve_negative_seed_is_a_schedule(two_penal, capsys):
    assert main(["solve", "--schedule", "seeded:-3", two_penal]) == 0
    assert json.loads(capsys.readouterr().out)["objective"] == "3"


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda sol: {k: v for k, v in sol.items() if k != "branch_edges"},
         "solution has no branch_edges"),
        (lambda sol: {**sol, "branch_edges": [[1]]}, "branch_edges is not a list of node pairs"),
        (lambda sol: list(sol.values()), "a solution is a JSON object, not list"),
        (lambda sol: {**sol, "branch_edges": [[1, 99]]}, "branch edge (1, 99) not in instance"),
        (lambda sol: {**sol, "penalty_nodes": sol["penalty_nodes"] + [99, 99]},
         "penalty_nodes is not a list of distinct nodes"),
        (lambda sol: {**sol, "steiner_nodes": [1]},
         "penalty_nodes is not the complement of steiner_nodes"),
        (lambda sol: {**sol, "penalty_nodes": sol["penalty_nodes"] + sol["penalty_nodes"][:1]},
         "penalty_nodes is not a list of distinct nodes"),
        # a str edit is the file's text; \udcff is written as the byte 0xff
        (lambda sol: "[" * 100_000 + "]" * 100_000,
         "sol.json: not a JSON solution: maximum recursion depth exceeded"),
        (lambda sol: json.dumps(sol).replace("objective", "obj\udcffective"),
         "sol.json: not a JSON solution: 'utf-8' codec can't decode byte 0xff"),
        (lambda sol: json.dumps({**sol, "penalty_nodes": "N"}).replace('"N"', "[" + "2" * 5000 + "]"),
         f"sol.json: a solution integer has at most {sys.get_int_max_str_digits()} digits"),
    ],
    ids=[
        "missing-key", "short-edge", "array", "unknown-edge",
        "unknown-penalty-nodes", "steiner-root-only", "repeated-penalty-node",
        "nested-too-deep", "not-utf8", "long-integer",
    ],
)
def test_render_malformed_solution_exits_one(tmp_path, capsys, edit, problem):
    inst_path = tmp_path / "g.pcst"
    inst_path.write_text(render_instance(generate_random_instance(5, 7, 3)))
    assert main(["solve", str(inst_path)]) == 0
    sol = json.loads(capsys.readouterr().out)
    sol_path = tmp_path / "sol.json"
    body = edit(sol)
    text = body if isinstance(body, str) else json.dumps(body)
    sol_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(["render", str(inst_path), str(sol_path)]) == 1
    err = capsys.readouterr().err
    assert problem in err and "Traceback" not in err


@pytest.mark.parametrize("how", ["delete", "reverse", "reject"])
@pytest.mark.parametrize(
    "args, at", [((3, 3, 0), 6), ((7, 12, 3), 8), ((10, 20, 3), 8)], ids=["n3", "n7", "n10"]
)
def test_verify_node_never_woken_exits_three(tmp_path, capsys, args, at, how):
    # without the Proceed that wakes the first node, its connect or its
    # deactivation is the first the replay hears of it.  Deleted or
    # reversed, the Proceed leaves the woken node's round and decision
    # records in transitions of other nodes, and its first decision is out
    # of place; replaced by a Reject over the same link, it leaves them at
    # the node, asleep in the replay
    inst_path = tmp_path / "g.pcst"
    inst_path.write_text(render_instance(generate_random_instance(*args)))
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", "--trace", str(trace_path), str(inst_path)]) == 0
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    rec = json.loads(lines[at])
    assert rec["kind"] == "delivery" and rec["message"]["type"] == "Proceed"
    if how == "delete":
        del lines[at]
    else:
        if how == "reverse":
            rec["link"].reverse()
        else:
            rec["message"] = {"type": "Reject"}
        lines[at] = json.dumps(rec)
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(inst_path), str(trace_path)]) == 3
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["check"], r["status"]) for r in out] == [("replay", "divergence")]
    if how == "reject":
        assert re.search(f"node {rec['link'][1]} (connects|deactivates) before the trace wakes it",
                         out[0]["witnesses"][0])
    else:
        assert "out of place" in out[0]["witnesses"][0]


@pytest.mark.parametrize(
    "text, problem",
    [
        ("root 1\n", "instance has no nodes"),
        ("nodes 1 2 2\nroot 1\nedge 1 2 1\n", "duplicate node ids"),
        ("nodes 0 1\nroot 1\nedge 0 1 1\n", "node ids must be positive integers"),
        ("nodes 1 2\nedge 1 2 1\n", "no root line"),
        ("nodes 1 2\nroot 3\nedge 1 2 1\n", "root 3 is not a node"),
        ("nodes 1 2\nroot 1\nedge 1 3 1\nedge 1 2 1\n", "edge (1, 3) references unknown node"),
        ("nodes 1 2\nroot 1\nprize 3 1\nedge 1 2 1\n", "prize for unknown node 3"),
        ("nodes 1 2\nroot 1\nedge 1 1 1\nedge 1 2 1\n", "line 3: self-loop edge"),
        ("nodes 1 2\nroot 1\nedge 1 2 1\nedge 2 1 1\n", "line 4: edge (1, 2) repeated"),
        ("nodes 1 2\nroot 1\nedge 1 2 -1\n", "line 3: negative edge weight"),
        ("nodes 1 2\nroot 1\nprize 2 -1\nedge 1 2 1\n", "line 3: negative prize at node 2"),
        ("nodes 1 2 3\nroot 1\nedge 1 2 1\n", "graph is not connected"),
        ("nodes 1 2\nroot 1\nedge 1 2 1/0\n", "line 3: zero denominator"),
        ("nodes 1 2\nroot 1\nedge 1 2 1.5\n", "line 3: '1.5' is not an integer or p/q"),
        ("nodes 1 2\nroot 1\nedge 1 2 \u0661\n", "line 3: '\u0661' is not an integer or p/q"),
        ("nodes 1 2\nroot 1\nprize 2 +3\nedge 1 2 1\n", "line 3: '+3' is not an integer or p/q"),
        ("nodes 1 two\nroot 1\nedge 1 2 1\n", "line 1: 'two' is not an integer"),
        ("nodes 1 " + "2" * 5000 + "\nroot 1\n",
         "line 1: '2222222222...2222222222' (5000 characters) is not an integer of at most 4300 digits"),
        ("nodes 1 2\nroot 1\nedge 1 2 1/" + "3" * 5000 + "\n",
         "line 3: '1/33333333...3333333333' (5002 characters) is not an integer or p/q, each number "
         "of at most 4300 digits"),
        ("nodes 1 2\nroot 1 2\nedge 1 2 1\n", "line 2: root takes one node id"),
        ("nodes 1 2\nroot 1\nedge 1 2\n", "line 3: edge takes two node ids and a weight"),
        ("nodes 1 2\nroot 1\nprize 2\nedge 1 2 1\n", "line 3: prize takes a node id and a prize"),
        ("nodes 1 2\nroot 1\nprize 2 3\nprize 2 5\nedge 1 2 1\n", "line 4: prize for node 2 repeated"),
        # \udcff is written as the byte 0xff
        ("nodes 1 2\nroot 1\nedge 1 2 1\udcff\n", "bad.pcst: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=[
        "no-nodes", "repeated-id", "non-positive-id", "no-root", "root-not-a-node",
        "undeclared-endpoint", "undeclared-prize-node", "self-loop", "repeated-edge",
        "negative-weight", "negative-prize", "disconnected", "bad-rational",
        "decimal-weight", "non-ascii-digit", "plus-sign", "non-integer-id", "long-id", "long-weight",
        "root-arity", "edge-arity", "prize-arity", "repeated-prize", "not-utf8",
    ],
)
def test_solve_invalid_instance_exits_one(tmp_path, capsys, text, problem):
    path = tmp_path / "bad.pcst"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(["solve", str(path)]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.splitlines() == [cap.err.strip()]
    assert cap.err.startswith("error: ") and problem in cap.err
    assert "Traceback" not in cap.err


@pytest.mark.parametrize(
    "argv, problem",
    [
        (["verify"], "the following arguments are required: instance, trace"),
        (["nope"], "invalid choice: 'nope'"),
        (["solve", "g.pcst", "--alg", "nope"], "invalid choice: 'nope'"),
        (["gen", "--n", "1_0", "--m", "3"], "argument --n: '1_0' is not an integer"),
    ],
    ids=["verify-without-arguments", "unknown-command", "unknown-alg", "gen-underscored-n"],
)
def test_usage_error_exits_one(capsys, argv, problem):
    # not argparse's own exit 2, which is the code of a verification violation
    assert main(argv) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.splitlines() == [cap.err.strip()]
    assert cap.err.startswith("error: ") and problem in cap.err
    assert "Traceback" not in cap.err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dpcst")


@pytest.mark.parametrize("flag", ["--wmax", "--pmax"])
def test_gen_negative_bound_exits_one(capsys, flag):
    assert main(["gen", "--n", "4", "--m", "4", flag, "-1"]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.splitlines() == [cap.err.strip()]
    assert cap.err.startswith("error: ") and "must be >= 0" in cap.err


def test_solve_exact_too_large_exits_one(tmp_path, capsys):
    path = tmp_path / "big.pcst"
    path.write_text(render_instance(generate_random_instance(17, 20, 1)))
    assert main(["solve", "--alg", "exact", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: too many nodes to enumerate: n=17 > 16\n"


def _prune_decision_line(lines: list[str]) -> int:
    prunes = [i for i, line in enumerate(lines) if json.loads(line).get("chosen") == "prune"]
    assert len(prunes) == 1
    return prunes[0]


def test_verify_trace_cut_before_the_prune_decision_exits_three(tmp_path, capsys):
    inst_path = tmp_path / "g.pcst"
    inst_path.write_text(render_instance(generate_random_instance(10, 20, 3)))
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", "--trace", str(trace_path), str(inst_path)]) == 0
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    trace_path.write_text("\n".join(lines[: _prune_decision_line(lines)]) + "\n")
    assert main(["verify", str(inst_path), str(trace_path)]) == 3
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["check"], r["status"]) for r in out] == [("replay", "divergence")]
    assert "the trace ends where a decision record is due" in out[0]["witnesses"][0]


@pytest.mark.parametrize("kind", ["round", "epsilon"])
def test_verify_record_moved_past_the_next_delivery_exits_three(tmp_path, capsys, kind):
    # a round is led by the node of its transition and a decision is made
    # in its round leader's: the first round record (the root's wakeup) or
    # the first decision (the root's proceed), moved past the next
    # delivery, lands in the transition of another node
    inst_path = tmp_path / "g.pcst"
    inst_path.write_text(render_instance(generate_random_instance(10, 20, 3)))
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", "--trace", str(trace_path), str(inst_path)]) == 0
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    kinds = [json.loads(line)["kind"] for line in lines]
    at = kinds.index(kind)
    to = kinds.index("delivery", at)
    lines.insert(to, lines.pop(at))
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(inst_path), str(trace_path)]) == 3
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["check"], r["status"]) for r in out] == [("replay", "divergence")]
    assert "out of place" in out[0]["witnesses"][0]


def test_verify_trace_with_a_phase_record_exits_one(tmp_path, capsys):
    # the phase record that once followed the root's prune decision is no
    # longer a record kind
    inst_path = tmp_path / "g.pcst"
    inst_path.write_text(render_instance(generate_random_instance(10, 20, 3)))
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", "--trace", str(trace_path), str(inst_path)]) == 0
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    at = _prune_decision_line(lines) + 1
    lines.insert(at, json.dumps({"kind": "phase"}))
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(inst_path), str(trace_path)]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"error: {trace_path}:{at + 1}: unknown record kind 'phase'\n"


def _first_record_outside(lines: list[str]) -> list[str]:
    # the first record is the root's round record, and the second a delivery
    rec = json.loads(lines[1])
    rec["link"][1] = 99
    return lines[:1] + [json.dumps(rec)] + lines[2:]


@pytest.mark.parametrize(
    "edit, code, problem",
    [
        (lambda lines: lines[:-1] + ["{not json"], 1, "t.jsonl:{last}:"),
        (lambda lines: _first_record_outside(lines)[:-1] + ["{not json"], 3, "outside the instance"),
        (lambda lines: lines[: len(lines) // 2], 3, "the trace ends where a decision record is due"),
    ],
    ids=["malformed-last-line", "divergence-then-malformed-line", "cut-in-half"],
)
def test_verify_first_bad_record_decides_exit_code(
    tmp_path, capsys, monkeypatch, edit, code, problem
):
    # verify reads, replays and counts the records in one pass and stops at
    # the first bad one: a line that does not decode exits 1, a replay
    # divergence 3, whichever comes first in the file; a file without
    # records is test_verify_trace_without_records_exits_one.  The exact
    # oracle runs after the replay, so a bad trace never reaches it.
    inst_path = tmp_path / "g.pcst"
    inst_path.write_text(render_instance(generate_random_instance(8, 14, 3)))
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", "--trace", str(trace_path), str(inst_path)]) == 0
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    trace_path.write_text("\n".join(edit(lines)) + "\n")
    monkeypatch.setattr(cli, "exact_pcst", None)  # calling it raises
    assert main(["verify", str(inst_path), str(trace_path)]) == code
    cap = capsys.readouterr()
    assert problem.format(last=len(lines)) in (cap.err if code == 1 else cap.out)
    assert "Traceback" not in cap.err


def test_verify_holds_a_fraction_of_the_records(tmp_path, capsys):
    # verify streams the trace: its traced peak stays under a fifth of what
    # the trace's records take as a list (eager n = 80, m = 3n, seed 1)
    inst_path = tmp_path / "g.pcst"
    inst_path.write_text(render_instance(generate_random_instance(80, 240, 1)))
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", "--trace", str(trace_path), str(inst_path)]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        # verify first, so that the rationals the reader shares count in its peak
        start = tracemalloc.get_traced_memory()[0]
        assert main(["verify", str(inst_path), str(trace_path), "--no-exact"]) == 0
        verify_peak = tracemalloc.get_traced_memory()[1] - start
        start = tracemalloc.get_traced_memory()[0]
        records = list(read_trace(str(trace_path)))
        records_size = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(records) > 20000
    assert verify_peak < records_size / 5, (verify_peak, records_size)


def test_traced_solve_holds_a_fraction_of_its_trace(tmp_path, capsys):
    # solve --trace writes each record's line as the record is made: its
    # traced peak stays under half the bytes of the trace it writes (eager
    # n = 80, m = 3n, seed 1)
    inst_path = tmp_path / "g.pcst"
    inst_path.write_text(render_instance(generate_random_instance(80, 240, 1)))
    trace_path = tmp_path / "t.jsonl"
    tracemalloc.start()
    try:
        assert main(["solve", "--trace", str(trace_path), str(inst_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    size = trace_path.stat().st_size
    assert size > 2_000_000
    assert peak < size / 2, (peak, size)
