"""Centralized growth-and-prune reference solver.

Sequential moat growing: all active components grow simultaneously each
iteration by the largest epsilon that keeps every dual constraint satisfied,
then the tight constraint is resolved (merge on a tight edge, deactivate on a
tight penalty).  Moats, deficits and component weights live in the same
``verify.MoatLedger`` that the distributed solver's trace replay uses, so
both produce one kind of dual certificate and feed one checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .instance import Edge, PcstInstance, Solution, adjacency, make_solution, reachable
from .verify import DualCertificate, MoatLedger

INF = float("inf")


@dataclass
class GwState:
    """Growth-phase state beside the moat ledger; final state feeds the
    pruning step."""

    inst: PcstInstance
    ledger: MoatLedger = field(init=False)
    forest: set[Edge] = field(default_factory=set)
    active: dict[int, bool] = field(default_factory=dict)  # by component root
    iterations: int = 0

    def __post_init__(self):
        self.ledger = MoatLedger(self.inst.node_ids)
        self.active = {v: v != self.inst.root for v in self.inst.node_ids}

    def check_invariants(self):
        lg = self.ledger
        mismatch = lg.check_identities()
        assert mismatch is None, mismatch
        for (u, v), w in self.inst.weights.items():
            cut = sum((y for s, y in lg.y.items() if (u in s) != (v in s)), Fraction(0))
            assert cut <= w, f"edge {(u, v)} overgrown"
            if lg.find(u) != lg.find(v):
                # distinct components never shared a moat, so the cut sum is
                # exactly the deficit sum there
                assert cut == lg.d[u] + lg.d[v]
        assert not self.active[lg.find(self.inst.root)], "root component must stay inactive"


def gw_grow(inst: PcstInstance, check: bool = False) -> GwState:
    """Run the growth phase to completion (no active components left)."""
    inst.validate()
    g = GwState(inst)
    lg = g.ledger
    n = inst.n
    while True:
        roots = sorted(lg.members)
        if not any(g.active[r] for r in roots):
            break
        g.iterations += 1
        assert g.iterations <= 2 * n - 1, "growth exceeded its iteration cap"
        # candidate epsilons: cheapest inter-component edge and tightest penalty
        best_edge_eps: Fraction | float = INF
        best_edge = None
        for e in sorted(inst.weights):
            u, v = e
            ru, rv = lg.find(u), lg.find(v)
            if ru == rv:
                continue
            cs = int(g.active[ru]) + int(g.active[rv])
            if cs == 0:
                continue
            eps = (inst.weights[e] - lg.d[u] - lg.d[v]) / cs
            if eps < best_edge_eps:
                best_edge_eps = eps
                best_edge = e
        best_pen_eps: Fraction | float = INF
        best_pen = None
        for r in sorted((r for r in roots if g.active[r]), key=lambda r: max(lg.members[r])):
            eps = sum((inst.prizes[v] for v in lg.members[r]), Fraction(0)) - lg.w[r]
            if eps < best_pen_eps:
                best_pen_eps = eps
                best_pen = r
        eps = min(best_edge_eps, best_pen_eps)
        assert eps != INF, "active component with no growth bound"
        for r in roots:
            if g.active[r]:
                lg.grow(r, eps)
        if best_pen_eps <= best_edge_eps:
            g.active[best_pen] = False
            lg.deactivate(best_pen)
        else:
            u, v = best_edge
            g.forest.add(best_edge)
            lg.union(u, v)
            rv = lg.find(v)
            g.active[rv] = lg.find(inst.root) != rv
        if check:
            g.check_invariants()
    return g


def gw_prune(inst: PcstInstance, g: GwState) -> Solution:
    """Drop maximal deactivated components hanging off the root tree by one edge."""
    tree_nodes = reachable(adjacency(inst.node_ids, g.forest), inst.root)
    tree_edges = {e for e in g.forest if e[0] in tree_nodes and e[1] in tree_nodes}
    labels = list(g.ledger.deactivated)
    maximal = [
        s for s in labels if not any(s < t for t in labels)
    ]
    changed = True
    while changed:
        changed = False
        for s in maximal:
            if not (s <= tree_nodes):
                continue
            cut = [e for e in tree_edges if (e[0] in s) != (e[1] in s)]
            if len(cut) <= 1:
                tree_nodes -= s
                tree_edges = {e for e in tree_edges if e[0] in tree_nodes and e[1] in tree_nodes}
                changed = True
    return make_solution(inst, tree_edges, tree_nodes)


def gw_solve(inst: PcstInstance, check: bool = False) -> tuple[Solution, DualCertificate]:
    g = gw_grow(inst, check=check)
    sol = gw_prune(inst, g)
    return sol, g.ledger.certificate(sol)
