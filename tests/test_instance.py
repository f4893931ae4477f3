from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcst.instance import (
    InstanceError,
    ParseError,
    PcstInstance,
    generate_random_instance,
    make_solution,
    norm_edge,
    parse_instance,
    render_instance,
)


def test_parse_minimal_two_node():
    inst = parse_instance("nodes 1 2\nroot 1\nprize 2 3\nedge 1 2 10")
    assert inst.node_ids == [1, 2]
    assert inst.root == 1
    assert inst.prizes[2] == 3
    assert inst.prizes[1] == 0  # defaulted
    assert inst.weights[(1, 2)] == 10


def test_parse_rationals_and_comments():
    inst = parse_instance("# hdr\nnodes 1 2\nroot 2\nprize 1 7/2\nedge 1 2 23/2 # w\n")
    assert inst.prizes[1] == Fraction(7, 2)
    assert inst.weights[(1, 2)] == Fraction(23, 2)


def test_parse_negative_weight_names_line():
    with pytest.raises(ParseError, match="negative edge weight") as exc:
        parse_instance("nodes 1 2\nroot 1\nprize 2 3\nedge 1 2 -1")
    assert exc.value.line == 4


def test_parse_negative_prize():
    with pytest.raises(ParseError, match="negative prize at node 2"):
        parse_instance("nodes 1 2\nroot 1\nprize 2 -3\nedge 1 2 1")


def test_parse_duplicate_edge():
    with pytest.raises(ParseError, match=r"edge \(1, 2\) repeated") as exc:
        parse_instance("nodes 1 2\nroot 1\nedge 1 2 1\nedge 2 1 4")
    assert exc.value.line == 4


def test_parse_missing_root():
    with pytest.raises(InstanceError, match="no root line"):
        parse_instance("nodes 1 2\nedge 1 2 1")


def test_parse_disconnected():
    with pytest.raises(InstanceError, match="graph is not connected"):
        parse_instance("nodes 1 2 3\nroot 1\nedge 1 2 1")


def test_parse_malformed():
    with pytest.raises(ParseError, match="line 3: 'x' is not an integer or p/q"):
        parse_instance("nodes 1 2\nroot 1\nedge 1 2 x")
    with pytest.raises(ParseError, match="line 3: unknown directive 'frobnicate'"):
        parse_instance("nodes 1 2\nroot 1\nfrobnicate 1\nedge 1 2 1")


def test_parse_self_loop_rejected():
    with pytest.raises(ParseError, match="line 3: self-loop edge"):
        parse_instance("nodes 1 2\nroot 1\nedge 1 1 3\nedge 1 2 1")


def test_example11_parses(example11):
    assert example11.n == 11
    assert example11.root == 8
    assert example11.prizes[1] == 10
    assert example11.weights[(1, 2)] == 12


def test_generator_forced_topology():
    inst = generate_random_instance(2, 1, 0, 10, 10)
    assert inst.node_ids == [1, 2]
    assert set(inst.weights) == {(1, 2)}
    assert inst.root == 1


def test_generator_tree_case():
    inst = generate_random_instance(5, 4, 7)
    assert inst.m == 4 and inst.n == 5


def test_generator_deterministic():
    a = generate_random_instance(8, 12, 42)
    b = generate_random_instance(8, 12, 42)
    assert a == b
    assert a != generate_random_instance(8, 12, 43)


def test_generator_infeasible():
    with pytest.raises(InstanceError):
        generate_random_instance(4, 2, 0)
    with pytest.raises(InstanceError):
        generate_random_instance(4, 7, 0)


@given(
    n=st.integers(min_value=2, max_value=9),
    seed=st.integers(min_value=0, max_value=10**6),
    extra=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_parse_render(n, seed, extra):
    m = min(n - 1 + extra % n, n * (n - 1) // 2)
    inst = generate_random_instance(n, m, seed)
    assert parse_instance(render_instance(inst)) == inst


def test_objective_no_edges():
    inst = parse_instance("nodes 1 2 3\nroot 1\nprize 2 3\nprize 3 5\nedge 1 2 1\nedge 1 3 1")
    sol = make_solution(inst, [], [1])
    assert sol.objective == 8


def test_objective_no_penalties():
    inst = parse_instance("nodes 1 2 3\nroot 1\nedge 1 2 2\nedge 2 3 4")
    sol = make_solution(inst, [(1, 2), (2, 3)], [1, 2, 3])
    assert sol.objective == 6


def test_objective_rejects_non_tree():
    inst = parse_instance("nodes 1 2 3\nroot 1\nedge 1 2 2\nedge 2 3 4\nedge 1 3 1")
    with pytest.raises(InstanceError):
        make_solution(inst, [(1, 2), (2, 3), (1, 3)], [1, 2, 3])
    with pytest.raises(InstanceError):
        make_solution(inst, [(2, 3)], [2, 3])  # root excluded


def test_objective_relabel_invariance():
    inst = generate_random_instance(6, 8, 3)
    perm = {v: v + 100 for v in inst.node_ids}
    relabeled = PcstInstance(
        [perm[v] for v in inst.node_ids],
        perm[inst.root],
        {perm[v]: p for v, p in inst.prizes.items()},
        {norm_edge(perm[u], perm[v]): w for (u, v), w in inst.weights.items()},
    )
    sol = make_solution(inst, [], [inst.root])
    sol2 = make_solution(relabeled, [], [relabeled.root])
    assert sol.objective == sol2.objective


@pytest.mark.parametrize(
    "prizes, weights, problem",
    [
        ({}, {(2, 1): Fraction(1)}, r"edge \(2, 1\) is not a pair \(min, max\) of distinct nodes"),
        ({}, {(1, 1): Fraction(1), (1, 2): Fraction(1)}, r"edge \(1, 1\) is not a pair"),
        ({}, {(1, 2): Fraction(-1)}, r"negative weight on edge \(1, 2\)"),
        ({2: Fraction(-1)}, {(1, 2): Fraction(1)}, "negative prize at node 2"),
    ],
    ids=["unnormalized-edge", "self-loop", "negative-weight", "negative-prize"],
)
def test_constructor_rejects(prizes, weights, problem):
    # rules the parser reports by line number are the constructor's too
    with pytest.raises(InstanceError, match=problem):
        PcstInstance([1, 2], 1, prizes, weights)


def test_constructor_takes_the_instance_fields_only():
    assert [f.name for f in fields(PcstInstance)] == ["node_ids", "root", "prizes", "weights"]
    inst = PcstInstance([2, 1], 1, {}, {(1, 2): Fraction(3)})
    assert inst.node_ids == [1, 2] and inst.prizes == {1: 0, 2: 0}
    assert inst.neighbors(1) == [2] and inst.neighbors(2) == [1]
