import random
from fractions import Fraction

import pytest

from dpcst.exact import ExactResult, exact_pcst
from dpcst.instance import (
    Edge,
    PcstInstance,
    generate_random_instance,
    make_solution,
    norm_edge,
    parse_instance,
)


def test_single_node():
    res = exact_pcst(parse_instance("nodes 7\nroot 7\nprize 7 4"))
    assert res.opt_value == 0
    assert res.best.steiner_nodes == {7}
    assert res.enumerated_count == 1


def test_two_node_penalize():
    res = exact_pcst(parse_instance("nodes 1 2\nroot 1\nprize 2 3\nedge 1 2 10"))
    assert res.opt_value == 3
    assert res.best.penalty_nodes == {2}


def test_two_node_connect():
    res = exact_pcst(parse_instance("nodes 1 2\nroot 1\nprize 2 5\nedge 1 2 2"))
    assert res.opt_value == 2
    assert res.best.branch_edges == {(1, 2)}


def test_triangle_hand_enumerated():
    # subsets containing the root: {r}=2.5, {r,a}=1.5, {r,b}=3, {r,a,b}=2
    inst = parse_instance(
        "nodes 1 2 3\nroot 1\nprize 2 2\nprize 3 1/2\nedge 1 2 1\nedge 1 3 1\nedge 2 3 5"
    )
    res = exact_pcst(inst)
    assert res.opt_value == Fraction(3, 2)
    assert res.best.steiner_nodes == {1, 2}
    assert res.enumerated_count == 4


def test_guard_rejects_large():
    inst = generate_random_instance(17, 16, 0)
    with pytest.raises(ValueError):
        exact_pcst(inst)


def test_opt_lower_bounds_any_solution():
    for seed in range(8):
        inst = generate_random_instance(6, 9, seed)
        res = exact_pcst(inst)
        trivial = make_solution(inst, [], [inst.root])
        assert res.opt_value <= trivial.objective


def test_relabel_invariance():
    inst = generate_random_instance(6, 7, 11)
    perm = {v: 17 - v for v in inst.node_ids}
    relabeled = PcstInstance(
        [perm[v] for v in inst.node_ids],
        perm[inst.root],
        {perm[v]: p for v, p in inst.prizes.items()},
        {norm_edge(perm[u], perm[v]): w for (u, v), w in inst.weights.items()},
    )
    assert exact_pcst(inst).opt_value == exact_pcst(relabeled).opt_value


def _induced_mst(
    inst: PcstInstance, nodes: frozenset[int], order: list[Edge]
) -> tuple[Fraction, list[Edge]] | None:
    """Kruskal on the induced subgraph, given all edges in order by (weight,
    edge); None if the induced subgraph is disconnected."""
    parent = {v: v for v in nodes}

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    total = Fraction(0)
    chosen: list[Edge] = []
    for e in order:
        if e[0] not in nodes or e[1] not in nodes:
            continue
        ru, rv = find(e[0]), find(e[1])
        if ru != rv:
            parent[ru] = rv
            chosen.append(e)
            total += inst.weights[e]
    if len(chosen) != len(nodes) - 1:
        return None
    return total, chosen


def _reference_exact_pcst(inst: PcstInstance) -> ExactResult:
    """The oracle as first written: a frozenset, a dict union-find and
    Fraction sums per subset.  Kept as the reference the bitmask oracle must
    match result for result."""
    others = sorted(v for v in inst.node_ids if v != inst.root)
    order = sorted(inst.weights, key=lambda e: (inst.weights[e], e))
    total_prize = sum(inst.prizes.values(), Fraction(0))
    best_key = None
    best: tuple[frozenset[int], list[Edge], Fraction] | None = None
    count = 0
    for mask in range(1 << len(others)):
        nodes = frozenset([inst.root] + [others[i] for i in range(len(others)) if mask >> i & 1])
        mst = _induced_mst(inst, nodes, order)
        if mst is None:
            continue
        count += 1
        tree_w, tree_edges = mst
        value = tree_w + total_prize - sum((inst.prizes[v] for v in nodes), Fraction(0))
        # ties: smallest value, then lexicographically smallest vertex set,
        # then smallest edge set
        key = (value, tuple(sorted(nodes)), tuple(sorted(tree_edges)))
        if best_key is None or key < best_key:
            best_key = key
            best = (nodes, tree_edges, value)
    assert best is not None
    nodes, tree_edges, value = best
    return ExactResult(make_solution(inst, tree_edges, nodes), value, count)


# (weight_max, prize_max): wide values, heavy ties, zero weights, zero prizes
_RANGES = ((20, 20), (2, 2), (0, 3), (3, 0))


def _generated(n: int) -> list[PcstInstance]:
    """n's instances of the differential corpus: m in {n-1, 2n, 3n, complete},
    capped, instance seeds 0-3, every range of _RANGES."""
    cap = n * (n - 1) // 2
    return [
        generate_random_instance(n, m, seed, wmax, pmax)
        for m in sorted({min(m, cap) for m in (n - 1, 2 * n, 3 * n, cap)})
        for seed in range(4)
        for wmax, pmax in _RANGES
    ]


def _rational(k: int) -> PcstInstance:
    """A generated graph with weights and prizes of denominators 1-6."""
    rng = random.Random(k)
    n = 3 + k % 10
    base = generate_random_instance(n, min(2 * n, n * (n - 1) // 2), k)
    return PcstInstance(
        base.node_ids,
        base.root,
        {v: Fraction(rng.randint(0, 12), rng.randint(1, 6)) for v in base.node_ids},
        {e: Fraction(rng.randint(0, 12), rng.randint(1, 6)) for e in base.weights},
    )


def _relabelled(inst: PcstInstance, seed: int) -> PcstInstance:
    """inst with its node ids shuffled into 1..3n, so the root is rarely the
    smallest id."""
    ids = random.Random(seed).sample(range(1, 3 * inst.n + 1), inst.n)
    perm = dict(zip(inst.node_ids, ids))
    return PcstInstance(
        ids,
        perm[inst.root],
        {perm[v]: p for v, p in inst.prizes.items()},
        {norm_edge(perm[u], perm[v]): w for (u, v), w in inst.weights.items()},
    )


@pytest.mark.parametrize("n", range(2, 13))
def test_bitmask_oracle_matches_reference_on_generated_instances(n):
    for inst in _generated(n):
        assert exact_pcst(inst) == _reference_exact_pcst(inst)


def test_bitmask_oracle_matches_reference_on_rational_and_relabelled_instances():
    rational = [_rational(k) for k in range(60)]
    # ties galore: zero weights, zero prizes, small ranges, and rationals
    picked = [inst for n in (5, 8, 11) for inst in _generated(n)[::5]] + rational[::6]
    relabelled = [_relabelled(inst, seed) for seed, inst in enumerate(picked)]
    assert any(inst.root != min(inst.node_ids) for inst in relabelled)
    for inst in rational + relabelled:
        assert exact_pcst(inst) == _reference_exact_pcst(inst)
