"""Brute-force exact PCST for small instances.

Enumerates every root-containing vertex subset whose induced subgraph is
connected; the cheapest tree on such a subset is its induced MST, so the
optimum is min over subsets of MST(G[V']) + sum of prizes outside V'.

One subset costs integer and bit operations only: every weight and prize is
scaled by the lcm of their denominators, the root is node index 0, and a
subset is a mask over the other nodes (bit b for node index b + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .instance import InstanceError, PcstInstance, Solution, common_denominator, make_solution

MAX_EXACT_NODES = 16


@dataclass(frozen=True)
class ExactResult:
    best: Solution
    opt_value: Fraction
    enumerated_count: int


def exact_pcst(inst: PcstInstance) -> ExactResult:
    """Exhaustive optimum; guards at 16 nodes (2^(n-1) subsets).  Ties go to
    the smallest value, then the smallest sorted node tuple, then the
    smallest sorted MST edge tuple."""
    if inst.n > MAX_EXACT_NODES:
        raise InstanceError(f"too many nodes to enumerate: n={inst.n} > {MAX_EXACT_NODES}")
    scale = common_denominator(inst)
    nodes = [inst.root] + [v for v in inst.node_ids if v != inst.root]
    index = {v: i for i, v in enumerate(nodes)}
    # Kruskal order, each edge as (mask of its non-root ends, ends, scaled weight, edge);
    # an edge lies inside a subset when its mask does
    edges = [
        ((1 << index[u] | 1 << index[v]) >> 1, index[u], index[v], int(inst.weights[u, v] * scale), (u, v))
        for u, v in sorted(inst.weights, key=lambda e: (inst.weights[e], e))
    ]
    inside = [0]  # inside[mask]: the scaled prize of mask's nodes; each node doubles the table
    for v in nodes[1:]:
        prize = int(inst.prizes[v] * scale)
        inside += [x + prize for x in inside]
    # the tie key (value, sorted nodes, sorted tree edges) of the best subset so
    # far, starting from {root}, which is always connected
    best = (inside[-1], (inst.root,), ())
    count = 1
    for mask in range(1, len(inside)):
        size = mask.bit_count()  # the edge count of the subset's tree
        parent = list(range(len(nodes)))
        tree = []
        weight = 0
        for need, i, j, w, e in edges:
            if need & mask == need:
                while i != parent[i]:  # n <= 16: no path compression needed
                    i = parent[i]
                while j != parent[j]:
                    j = parent[j]
                if i != j:
                    parent[i] = j
                    tree.append(e)
                    weight += w
                    if len(tree) == size:
                        break
        if len(tree) != size:
            continue
        count += 1
        value = weight + inside[-1] - inside[mask]
        if value <= best[0]:
            steiner = [inst.root, *(nodes[b + 1] for b in range(mask.bit_length()) if mask >> b & 1)]
            best = min(best, (value, tuple(sorted(steiner)), tuple(sorted(tree))))
    value, steiner, tree = best
    sol = make_solution(inst, tree, steiner)
    assert sol.objective == Fraction(value, scale)
    return ExactResult(sol, sol.objective, count)
