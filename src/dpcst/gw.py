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

import heapq
import itertools
from fractions import Fraction

from .instance import Edge, PcstInstance, Solution, adjacency, make_solution, norm_edge, reachable
from .verify import DualCertificate, MoatLedger

INF = float("inf")


def gw_grow(inst: PcstInstance) -> MoatLedger:
    """Run the growth phase to completion (no active components left).

    Each epsilon comes from two heaps of event times, in the time t that
    sums the epsilons grown so far: (t at which the edge goes tight, edge,
    stamp) for every edge between two components of which at least one is
    active, and (t at which the penalty goes tight, max member, root, stamp)
    for every active component.  An edge's time holds until one of its
    sides flips activity, so only then are a component's outside edges timed
    again; a penalty's holds until its component merges or deactivates.  An
    entry counts while its stamp is the current one of its edge, resp.
    component, and its edge joins two components.  The heads break ties as a
    scan over every edge and component does: the smallest epsilon, then the
    smallest edge, resp. max member, and a penalty before an edge.
    """
    lg = MoatLedger(inst.node_ids, inst.root)
    root_of = lg.root_of
    prize = dict(inst.prizes)  # prize sum by component root
    stamps = itertools.count()
    edge_stamp: dict[Edge, int] = {}
    pen_stamp: dict[int, int] = {}  # by active component root
    edges: list[tuple[Fraction, Edge, int]] = []
    pens: list[tuple[Fraction, int, int, int]] = []
    t = Fraction(0)

    def time_edge(u: int, v: int):
        e = norm_edge(u, v)
        ru, rv = root_of[u], root_of[v]
        s = edge_stamp[e] = next(stamps)
        cs = lg.active[ru] + lg.active[rv]
        if ru != rv and cs:
            heapq.heappush(edges, (t + (inst.weights[e] - lg.d[u] - lg.d[v]) / cs, e, s))

    def time_penalty(r: int):
        s = pen_stamp[r] = next(stamps)
        heapq.heappush(pens, (t + prize[r] - lg.w[r], max(lg.members[r]), r, s))

    def flipped(nodes: frozenset[int]):  # these nodes changed activity
        for u in nodes:
            for v in inst.neighbors(u):
                time_edge(u, v)

    for e in inst.weights:
        time_edge(*e)
    for v in inst.node_ids:
        if lg.active[v]:
            time_penalty(v)
    while True:
        active = sorted(r for r, a in lg.active.items() if a)
        if not active:
            break
        # every iteration ends in exactly one merge or one deactivation
        assert len(lg.forest) + len(lg.deactivated) < 2 * inst.n - 1, (
            "growth exceeded its iteration cap"
        )
        while edges and (
            edge_stamp[edges[0][1]] != edges[0][2] or root_of[edges[0][1][0]] == root_of[edges[0][1][1]]
        ):
            heapq.heappop(edges)
        while pens and pen_stamp.get(pens[0][2]) != pens[0][3]:
            heapq.heappop(pens)
        edge_t = edges[0][0] if edges else INF
        pen_t = pens[0][0] if pens else INF
        assert min(edge_t, pen_t) != INF, "active component with no growth bound"
        eps = min(edge_t, pen_t) - t
        for r in active:
            lg.grow(r, eps)
        t += eps
        if pen_t <= edge_t:
            r = heapq.heappop(pens)[2]
            del pen_stamp[r]
            lg.deactivate(r)
            flipped(lg.members[r])
        else:
            u, v = heapq.heappop(edges)[1]
            ru, rv = root_of[u], root_of[v]
            sides = [(lg.members[ru], lg.active[ru]), (lg.members[rv], lg.active[rv])]
            lg.union(u, v)
            prize[rv] += prize.pop(ru)
            pen_stamp.pop(ru, None)
            pen_stamp.pop(rv, None)
            if lg.active[rv]:
                time_penalty(rv)
            for nodes, was_active in sides:
                if was_active != lg.active[rv]:
                    flipped(nodes)
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


def gw_solve(inst: PcstInstance) -> tuple[Solution, DualCertificate]:
    lg = gw_grow(inst)
    sol = gw_prune(inst, lg)
    return sol, lg.certificate(sol)
