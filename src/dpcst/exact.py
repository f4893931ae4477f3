"""Brute-force exact PCST for small instances.

Enumerates every root-containing vertex subset whose induced subgraph is
connected; the cheapest tree on such a subset is its induced MST, so the
optimum is min over subsets of MST(G[V']) + sum of prizes outside V'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instance import Edge, InstanceError, PcstInstance, Solution, make_solution

MAX_EXACT_NODES = 16


@dataclass(frozen=True)
class ExactResult:
    best: Solution
    opt_value: Fraction
    enumerated_count: int


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


def induced_mst(
    inst: PcstInstance, nodes: frozenset[int], order: list[Edge]
) -> tuple[Fraction, list[Edge]] | None:
    """Kruskal on the induced subgraph, given all edges in order by (weight,
    edge); None if the induced subgraph is disconnected."""
    uf = UnionFind(nodes)
    total = Fraction(0)
    chosen: list[Edge] = []
    for e in order:
        if e[0] in nodes and e[1] in nodes and uf.union(*e):
            chosen.append(e)
            total += inst.weights[e]
    if len(chosen) != len(nodes) - 1:
        return None
    return total, chosen


def exact_pcst(inst: PcstInstance) -> ExactResult:
    """Exhaustive optimum; guards at 16 nodes (2^(n-1) subsets)."""
    if inst.n > MAX_EXACT_NODES:
        raise InstanceError(f"too many nodes to enumerate: n={inst.n} > {MAX_EXACT_NODES}")
    others = sorted(v for v in inst.node_ids if v != inst.root)
    order = sorted(inst.weights, key=lambda e: (inst.weights[e], e))
    total_prize = sum(inst.prizes.values(), Fraction(0))
    best_key = None
    best: tuple[frozenset[int], list[Edge], Fraction] | None = None
    count = 0
    for mask in range(1 << len(others)):
        nodes = frozenset([inst.root] + [others[i] for i in range(len(others)) if mask >> i & 1])
        mst = induced_mst(inst, nodes, order)
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
    assert best is not None  # the singleton {root} subset is always connected
    nodes, tree_edges, value = best
    sol = make_solution(inst, tree_edges, nodes)
    assert sol.objective == value
    return ExactResult(sol, value, count)
