"""Centralized growth-and-prune reference solver.

Sequential moat growing: all active components grow simultaneously each
iteration by the largest epsilon that keeps every dual constraint satisfied,
then the tight constraint is resolved (merge on a tight edge, deactivate on a
tight penalty).  Moats, deficits, component weights and activity and the
merge forest live in the same ``verify.MoatLedger`` that the distributed
solver's trace replay uses, so both produce one kind of dual certificate and
feed one checker.
"""

from __future__ import annotations

from fractions import Fraction

from .instance import PcstInstance, Solution, adjacency, make_solution, reachable
from .verify import DualCertificate, MoatLedger

INF = float("inf")


def check_invariants(inst: PcstInstance, lg: MoatLedger):
    mismatch = lg.check_identities()
    assert mismatch is None, mismatch
    for (u, v), w in inst.weights.items():
        cut = sum((y for s, y in lg.y.items() if (u in s) != (v in s)), Fraction(0))
        assert cut <= w, f"edge {(u, v)} overgrown"
        if lg.find(u) != lg.find(v):
            # distinct components never shared a moat, so the cut sum is
            # exactly the deficit sum there
            assert cut == lg.d[u] + lg.d[v]
    assert not lg.active[lg.find(inst.root)], "root component must stay inactive"


def gw_grow(inst: PcstInstance, check: bool = False) -> MoatLedger:
    """Run the growth phase to completion (no active components left)."""
    lg = MoatLedger(inst.node_ids, inst.root)
    while True:
        active = sorted(r for r, a in lg.active.items() if a)
        if not active:
            break
        # every iteration ends in exactly one merge or one deactivation
        assert len(lg.forest) + len(lg.deactivated) < 2 * inst.n - 1, (
            "growth exceeded its iteration cap"
        )
        # candidate epsilons: cheapest inter-component edge and tightest penalty
        best_edge_eps: Fraction | float = INF
        best_edge = None
        for e in sorted(inst.weights):
            u, v = e
            ru, rv = lg.find(u), lg.find(v)
            if ru == rv:
                continue
            cs = lg.active[ru] + lg.active[rv]
            if cs == 0:
                continue
            eps = (inst.weights[e] - lg.d[u] - lg.d[v]) / cs
            if eps < best_edge_eps:
                best_edge_eps = eps
                best_edge = e
        best_pen_eps: Fraction | float = INF
        best_pen = None
        for r in sorted(active, key=lambda r: max(lg.members[r])):
            eps = sum((inst.prizes[v] for v in lg.members[r]), Fraction(0)) - lg.w[r]
            if eps < best_pen_eps:
                best_pen_eps = eps
                best_pen = r
        eps = min(best_edge_eps, best_pen_eps)
        assert eps != INF, "active component with no growth bound"
        for r in active:
            lg.grow(r, eps)
        if best_pen_eps <= best_edge_eps:
            lg.deactivate(best_pen)
        else:
            lg.union(*best_edge)
        if check:
            check_invariants(inst, lg)
    return lg


def gw_prune(inst: PcstInstance, lg: MoatLedger) -> Solution:
    """Drop maximal deactivated components hanging off the root tree by one edge."""
    tree_nodes = reachable(adjacency(inst.node_ids, lg.forest), inst.root)
    tree_edges = {e for e in lg.forest if e[0] in tree_nodes and e[1] in tree_nodes}
    labels = list(lg.deactivated)
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
    lg = gw_grow(inst, check=check)
    sol = gw_prune(inst, lg)
    return sol, lg.certificate(sol)
