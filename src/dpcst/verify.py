"""Dual-certificate reconstruction and verification.

The growth phase implicitly grows one dual variable per component snapshot.
Reconstruction replays the trace with an independent shadow of every node's
deficit and component weight, crediting moats exactly when the protocol rules
say they grow: a node woken with initial deficit d carries a moat of mass d
around itself, a merge grows the joining side(s) by the merge epsilon, and a
deactivation grows the component's moat to penalty tightness.  Negative
epsilons subtract with ordinary signed arithmetic.

The moats, deficits, component weights and activity and the merge forest
live in a ``MoatLedger``, which the centralized reference solver (``gw``)
shares.  The ledger grows a moat and its deficits and weight together, so
each deficit and weight is its moat sum by construction, and the replay
compares them with the trace only.  Divergence between the shadow and the
traced state changes, or between a merge decision's epsilon and the connect
it sends, means the system under test and the reconstruction disagree:
exit-code-3 territory.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from fractions import Fraction

from . import node as nd
from . import sim as sm
from .exact import ExactResult
from .instance import (
    Edge,
    InstanceError,
    PcstInstance,
    Solution,
    format_rational,
    make_solution,
    norm_edge,
)


class ReplayDivergence(RuntimeError):
    """Recomputed state disagrees with the traced state."""


@dataclass
class Moat:
    nodes: frozenset[int]
    y: Fraction


@dataclass
class DualCertificate:
    moats: list[Moat]
    solution: Solution
    deactivated: list[frozenset[int]] = field(default_factory=list)

    def total(self) -> Fraction:
        return sum((m.y for m in self.moats), Fraction(0))

    def cut_sum(self, e: Edge) -> Fraction:
        u, v = e
        total = Fraction(0)
        for m in self.moats:
            if (u in m.nodes) != (v in m.nodes):
                total += m.y
        return total

    def inside_sum(self, nodes: frozenset[int]) -> Fraction:
        total = Fraction(0)
        for m in self.moats:
            if m.nodes <= nodes:
                total += m.y
        return total


@dataclass
class Report:
    check: str
    status: str  # "pass" | "violation"
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status != "violation"

    def to_json_dict(self) -> dict:
        return {"check": self.check, "status": self.status, "witnesses": self.witnesses}


class MoatLedger:
    """Components that grow, merge and deactivate, and the moats credited
    to them.

    A moat is a component snapshot; components only merge, so the moats form
    a laminar family.  Deficits are kept per node; the root of each node's
    component in ``root_of``; member sets, component weights and activity
    per component root; moat masses in crediting order; and the forest of
    edges that components merged over.  A component is active unless it was
    deactivated or holds the root.  Both the reference solver and the trace
    replay keep their growth state here.

    ``grow`` is the only writer of moats, deficits and weights, and adds the
    same epsilon to all three.  So every node's deficit is the sum of the
    moats that hold it, and every component's weight the sum of the moats
    inside it: a moat is a member set that the component, or one merged
    into it, once had.
    """

    def __init__(self, node_ids, root: int):
        self.root = root
        self.root_of = {v: v for v in node_ids}
        self.members = {v: frozenset([v]) for v in node_ids}  # by component root
        self.d = {v: Fraction(0) for v in node_ids}
        self.w = {v: Fraction(0) for v in node_ids}  # by component root
        self.active = {v: v != root for v in node_ids}  # by component root
        self.forest: set[Edge] = set()  # the edges components merged over
        self.y: dict[frozenset[int], Fraction] = {}  # in the order first credited
        self.deactivated: list[frozenset[int]] = []

    def grow(self, v: int, eps: Fraction):
        """Grow the component of v by eps: its moat, member deficits and weight."""
        r = self.root_of[v]
        members = self.members[r]
        if eps != 0:
            self.y[members] = self.y.get(members, Fraction(0)) + eps
        for u in members:
            self.d[u] += eps
        self.w[r] += eps

    def union(self, u: int, v: int):
        """Merge u's component into v's over the edge (u, v); v's root stays
        the merged component's.  The merged component is active unless it
        holds the root."""
        ru, rv = self.root_of[u], self.root_of[v]
        moved = self.members.pop(ru)
        for x in moved:
            self.root_of[x] = rv
        merged = self.members[rv] = moved | self.members[rv]
        self.w[rv] += self.w.pop(ru)
        del self.active[ru]
        self.active[rv] = self.root not in merged
        self.forest.add(norm_edge(u, v))

    def deactivate(self, v: int):
        r = self.root_of[v]
        self.active[r] = False
        self.deactivated.append(self.members[r])

    def certificate(self, solution: Solution) -> DualCertificate:
        moats = [Moat(s, y) for s, y in self.y.items()]
        return DualCertificate(moats, solution, list(self.deactivated))


# ---------------------------------------------------------------------------
# Replay


# the decisions whose record holds the penalty epsilon eps2; the others hold none
_EPS2_CHOICES = ("merge", "deactivate")
# whether a decision's eps1 is infinite: a leader backs or prunes only without
# an outgoing option, and proceeds or merges over one; it deactivates either way
_EPS1_INFINITE = {"back": True, "prune": True, "proceed": False, "merge": False}


class _Replay:
    """Replay-only state beside the ledger: the transition the records
    belong to, the nodes the growth has not reached yet, the mirrors of the
    traced state, the round structure and the open merge decision's eps1."""

    def __init__(self, inst: PcstInstance):
        self.inst = inst
        self.ledger = MoatLedger(inst.node_ids, inst.root)
        # the step and node of the current transition: the root's wakeup,
        # then each delivery's, at its receiver
        self.step = 1
        self.node = inst.root
        # left only on wake
        self.asleep = set(inst.node_ids) - {inst.root}
        # mirror of the system under test, driven by StateChange records
        self.traced_d = {v: Fraction(0) for v in inst.node_ids}
        self.traced_w = {v: Fraction(0) for v in inst.node_ids}
        self.traced_prize = {v: v != inst.root for v in inst.node_ids}
        # the round structure: rounds started, the last one's leader and the
        # kind of record due next, round or decision (None: no more)
        self.rounds = 0
        self.leader: int | None = None
        self.due: str | None = "round"
        # the eps1 of the merge decision whose connect has not been delivered
        self.merge_eps1: Fraction | None = None

    def wake(self, v: int, d_k: Fraction):
        # a sleeping node is an untouched singleton (d = w = 0)
        self.asleep.remove(v)
        self.ledger.grow(v, d_k)

    def check_awake(self, v: int, act: str):
        if v in self.asleep:
            raise ReplayDivergence(f"node {v} {act} before the trace wakes it")

    def follow(self, rec: nd.RoundBoundary | nd.EpsilonRecord):
        """Take a round or decision record in its place: rounds and
        decisions alternate, a round first, a round is led by the node of
        its transition, and each decision is made in a transition of its
        round's leader; only a round the root leads may decide prune, and
        that decision ends the growth, so no round or decision follows it.
        A merge or deactivate decision holds its penalty epsilon eps2, the
        others none; a back or prune decision's eps1 is infinite, and a
        proceed or merge decision's finite."""
        if isinstance(rec, nd.RoundBoundary):
            ok, due = self.due == "round", "decision"
        else:
            ok = self.due == "decision" and self.node == self.leader
            ok = ok and (rec.chosen != "prune" or self.leader == self.inst.root)
            due = None if rec.chosen == "prune" else "round"
        if not ok:
            raise ReplayDivergence(
                f"step {self.step}: {rec} at node {self.node} out of place; "
                f"due: {self.due or 'nothing'} in round {self.rounds}, led by {self.leader}"
            )
        if due == "decision":
            self.rounds += 1
            self.leader = self.node
        elif (rec.eps2 is None) == (rec.chosen in _EPS2_CHOICES):
            raise ReplayDivergence(f"step {self.step}: a {rec.chosen} decision with eps2 {rec.eps2}")
        elif rec.chosen in _EPS1_INFINITE and _EPS1_INFINITE[rec.chosen] != (rec.eps1 == nd.INF):
            raise ReplayDivergence(f"step {self.step}: a {rec.chosen} decision with eps1 {rec.eps1}")
        self.due = due

    def merge(self, sender: int, receiver: int):
        lg = self.ledger
        if lg.root_of[sender] == lg.root_of[receiver]:
            raise ReplayDivergence(f"connect from {sender} to {receiver} within one component")
        self.check_awake(sender, "connects")
        lg.union(sender, receiver)


def reconstruct_duals(trace: Iterable[sm.Record], inst: PcstInstance) -> DualCertificate:
    """Replay a growth trace into an explicit dual certificate, in one pass
    over its records.

    Credits moats from delivery events and deactivate decisions into a
    ``MoatLedger``, whose deficits and component weights are their moat sums
    by construction, and cross-checks them against the traced StateChange
    stream: each round leader's deficit and component weight once its
    round's transition is over, and every deficit at the end.  A merge
    decision's eps1 must be the epsilon of the connect that follows it.
    The certified solution is the one the trace gives: the traced prize
    flags name the steiner part, and its tree is the merge forest
    restricted to it.
    """
    rp = _Replay(inst)
    lg = rp.ledger
    # whether the current transition started a round, whose checks run once
    # all of the transition's records are in; it leads all of its rounds
    round_started = False
    for rec in trace:
        if isinstance(rec, sm.Delivery):
            if round_started:
                _check_leader(rp)
                round_started = False
            _replay_delivery(rp, rec)
        elif isinstance(rec, sm.StateChange):
            if rec.field == "d_v":
                rp.traced_d[rp.node] = rec.new
            elif rec.field == "comp_w":
                rp.traced_w[rp.node] = rec.new
            elif rec.field == "prize_flag":
                rp.traced_prize[rp.node] = rec.new
        else:
            rp.follow(rec)
            if isinstance(rec, nd.RoundBoundary):
                round_started = True
            elif rec.chosen == "deactivate":
                rp.check_awake(rp.leader, "deactivates")
                lg.grow(rp.leader, rec.eps2)
                lg.deactivate(rp.leader)
            elif rec.chosen == "merge":
                rp.merge_eps1 = rec.eps1
    if round_started:
        _check_leader(rp)
    if rp.due is not None:
        raise ReplayDivergence(f"the trace ends where a {rp.due} record is due")
    for v in inst.node_ids:
        if lg.d[v] != rp.traced_d[v]:
            raise ReplayDivergence(
                f"final deficit of node {v}: traced {rp.traced_d[v]}, replayed {lg.d[v]}"
            )
    # deficit overshoot across an edge between two components that never met
    # is a certificate infeasibility, not a replay mismatch: the cut sum over
    # such an edge equals the deficit sum, so check_edge_packing reports it
    steiner = {v for v in inst.node_ids if not rp.traced_prize[v]}
    branch = [e for e in lg.forest if e[0] in steiner and e[1] in steiner]
    try:
        solution = make_solution(inst, branch, steiner)
    except InstanceError as exc:
        raise ReplayDivergence(f"traced prize flags: {exc}") from None
    return lg.certificate(solution)


def _check_leader(rp: _Replay):
    """The replicas of the current transition's node, the round leader, must
    match the trace exactly."""
    lg, leader, step = rp.ledger, rp.node, rp.step
    if rp.traced_d[leader] != lg.d[leader]:
        raise ReplayDivergence(
            f"step {step}: leader {leader} deficit traced {rp.traced_d[leader]} "
            f"!= replayed {lg.d[leader]}"
        )
    if leader not in rp.asleep and rp.traced_w[leader] != lg.w[lg.root_of[leader]]:
        raise ReplayDivergence(
            f"step {step}: leader {leader} component weight traced "
            f"{rp.traced_w[leader]} != replayed {lg.w[lg.root_of[leader]]}"
        )


def _replay_delivery(rp: _Replay, rec: sm.Delivery):
    """Move to the delivery's transition and replay its growth."""
    msg = rec.message
    sender, receiver = rec.link
    rp.step += 1
    w_e = rp.inst.weights.get(norm_edge(sender, receiver))
    if w_e is None:  # not from a run on this instance
        raise ReplayDivergence(f"step {rp.step}: {rec} is outside the instance")
    rp.node = receiver
    lg = rp.ledger
    if isinstance(msg, nd.Proceed):
        if receiver in rp.asleep:
            rp.wake(receiver, msg.d_h)
    elif isinstance(msg, nd.Connect):
        if msg.deficit != lg.d[sender]:
            raise ReplayDivergence(
                f"connect from {sender} carries deficit {msg.deficit}, replay has {lg.d[sender]}"
            )
        if receiver in rp.asleep:
            rp.wake(receiver, msg.d_h)
            eps1 = (w_e - lg.d[receiver] - msg.deficit) / 2
            eps2 = rp.inst.prizes[receiver] - lg.w[lg.root_of[receiver]]
            if eps1 < eps2:
                lg.grow(receiver, eps1)
                lg.grow(sender, eps1)
                rp.merge(sender, receiver)
            else:
                lg.grow(receiver, eps2)
                lg.deactivate(receiver)
        elif not lg.active[lg.root_of[receiver]]:
            eps1 = w_e - lg.d[receiver] - msg.deficit
            lg.grow(sender, eps1)
            rp.merge(sender, receiver)
        else:
            raise ReplayDivergence(f"connect delivered to active node {receiver}")
        # the connect a merge decision sends is over the edge its eps1 was computed for
        if rp.merge_eps1 not in (None, eps1):
            raise ReplayDivergence(
                f"step {rp.step}: connect from {sender} to {receiver} at epsilon {eps1}, "
                f"its merge decision's eps1 {rp.merge_eps1}"
            )
        rp.merge_eps1 = None


# ---------------------------------------------------------------------------
# Certificate checks


def check_edge_packing(cert: DualCertificate, inst: PcstInstance) -> Report:
    """Moat mass across any edge stays within its weight; branch edges tight."""
    witnesses = []
    cut = {e: cert.cut_sum(e) for e in sorted(inst.weights)}
    for e, s in cut.items():
        if s > inst.weights[e]:
            witnesses.append(
                {"edge": list(e), "sum": format_rational(s), "weight": format_rational(inst.weights[e])}
            )
    for e in sorted(cert.solution.branch_edges):
        s = cut[e]
        if s != inst.weights[e]:
            witnesses.append(
                {
                    "edge": list(e),
                    "sum": format_rational(s),
                    "weight": format_rational(inst.weights[e]),
                    "required": "equality",
                }
            )
    return Report("edge_packing", "violation" if witnesses else "pass", witnesses)


def check_penalty_packing(cert: DualCertificate, inst: PcstInstance) -> Report:
    """Moat mass inside any root-free node set stays within its prizes.

    The root-free moats must form a laminar family.  Over a laminar family
    with nonnegative prizes the largest excess of inner moat mass over prizes
    is reached at a disjoint union of moats, so testing each moat on its own
    is exact.  Deactivated components that ended up penalized must be exactly
    tight.
    """
    witnesses = []
    mass: dict[frozenset[int], Fraction] = {}
    for m in cert.moats:
        if inst.root in m.nodes:
            if m.y != 0:
                witnesses.append({"set": sorted(m.nodes), "reason": "root moat with mass"})
        else:
            mass[m.nodes] = mass.get(m.nodes, Fraction(0)) + m.y
    # Largest sets first: a set is laminar with the ones before it iff all of
    # its nodes share the smallest earlier set holding them (or none holds them).
    smallest: dict[int, frozenset[int]] = {}
    parent: dict[frozenset[int], frozenset[int] | None] = {}
    for s in sorted(mass, key=len, reverse=True):
        holders = {smallest.get(v) for v in s}
        if len(holders) > 1:
            crossing = next(t for t in holders if t is not None and not s <= t)
            witnesses.append({"set": sorted(s), "crosses": sorted(crossing), "reason": "not laminar"})
            break
        parent[s] = holders.pop() if holders else None
        for v in s:
            smallest[v] = s
    else:
        inside = dict(mass)
        for s in reversed(parent):  # children before their parents
            if parent[s] is not None:
                inside[parent[s]] += inside[s]
        for s in mass:
            cap = sum((inst.prizes[v] for v in s), Fraction(0))
            if inside[s] > cap:
                witnesses.append(
                    {"set": sorted(s), "sum": format_rational(inside[s]), "prizes": format_rational(cap)}
                )
    for comp in cert.deactivated:
        if comp <= cert.solution.penalty_nodes:
            inner = cert.inside_sum(comp)
            cap = sum((inst.prizes[v] for v in comp), Fraction(0))
            if inner != cap:
                witnesses.append(
                    {
                        "set": sorted(comp),
                        "sum": format_rational(inner),
                        "prizes": format_rational(cap),
                        "required": "equality (deactivated and pruned)",
                    }
                )
    return Report("penalty_packing", "violation" if witnesses else "pass", witnesses)


def check_ratio(cert: DualCertificate, inst: PcstInstance, exact: ExactResult | None = None) -> Report:
    """objective <= (2 - 1/(n-1)) * dual mass, and dual mass <= optimum."""
    n = inst.n
    if n < 2:
        return Report("ratio", "pass", [])
    factor = Fraction(2) - Fraction(1, n - 1)
    dual = cert.total()
    obj = cert.solution.objective
    witnesses = []
    if obj > factor * dual:
        witnesses.append(
            {
                "objective": format_rational(obj),
                "dual_total": format_rational(dual),
                "factor": format_rational(factor),
            }
        )
    if exact is not None:
        if dual > exact.opt_value:
            witnesses.append(
                {"dual_total": format_rational(dual), "optimum": format_rational(exact.opt_value)}
            )
        if obj > factor * exact.opt_value:
            witnesses.append(
                {
                    "objective": format_rational(obj),
                    "optimum": format_rational(exact.opt_value),
                    "factor": format_rational(factor),
                }
            )
    return Report("ratio", "violation" if witnesses else "pass", witnesses)


def check_bounds(counts: dict, inst: PcstInstance) -> Report:
    """Message and round counts (``sm.count_messages``) against their
    worst-case caps."""
    n, m = inst.n, inst.m
    witnesses = []
    cap = sm.round_message_bound(n, m)
    for rnd, c in sorted(counts["per_round"].items()):
        if c > cap:
            witnesses.append({"round": rnd, "messages": c, "cap": cap})
    if counts["rounds"] > 9 * n - 7:
        witnesses.append({"rounds": counts["rounds"], "cap": 9 * n - 7})
    # proceed/back caps are on leader decisions, not on per-hop routing
    acts = counts["actions"]
    for kind, cap_k in (("proceed", n - 1), ("back", n - 1)):
        if acts.get(kind, 0) > cap_k:
            witnesses.append({"action": kind, "count": acts[kind], "cap": cap_k})
    by = counts["by_type"]
    for kind, cap_k in (("Prune", 2 * n - 2), ("BackwardPrune", n - 1)):
        if by.get(kind, 0) > cap_k:
            witnesses.append({"type": kind, "count": by[kind], "cap": cap_k})
    if counts["total"] > sm.message_bound(n, m):
        witnesses.append({"total": counts["total"], "cap": sm.message_bound(n, m)})
    for v, c in sorted(counts["prune_receipts"].items()):
        if c > 1:
            witnesses.append({"node": v, "prune_receipts": c, "cap": 1})
    return Report("bounds", "violation" if witnesses else "pass", witnesses)


def verify_trace(
    trace: Iterable[sm.Record],
    inst: PcstInstance,
    oracle: Callable[[PcstInstance], ExactResult] | None = None,
) -> list[Report]:
    """All four checks on a trace and the solution it gives, the ratio
    also against the optimum ``oracle(inst)`` finds if an oracle is given.

    The records are read once, passing through the message counter on their
    way into the replay, so a file's records are never all held at once;
    read from a file by sim.read_trace, records of equal lines may share
    one object, and each distinct message text is decoded once, within a
    bounded memo.
    The oracle runs after the replay: a trace that does not read or replay
    costs no enumeration."""
    counter = sm.MessageCounter()
    cert = reconstruct_duals(counter.tally(trace), inst)
    exact = None if oracle is None else oracle(inst)
    return [
        check_edge_packing(cert, inst),
        check_penalty_packing(cert, inst),
        check_ratio(cert, inst, exact),
        check_bounds(counter.counts(), inst),
    ]
