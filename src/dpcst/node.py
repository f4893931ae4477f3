"""Per-node protocol automaton for the distributed primal-dual PCST solver.

Each node owns one mutable state, built from what it knows at the start (its
prize and the weights of its incident edges); the transition function updates
it in place as messages (and the root's wakeup) arrive and returns the node's
sends and actions.  All asynchrony lives in the simulator; the automaton never
shares state with other nodes.  Component-level quantities (component weight
W, highest deficit d_h, total prize TP) are replicated into member nodes and
kept consistent by the update flood that follows every merge or deactivation.

Two facts of the protocol keep the automaton and its wire small:

- Growth is one component at a time, so at most one non-root component is
  active.  The growth passes like a token, and the root's component holds
  it first.  An active holder keeps it through its merges: its connect
  wakes a sleeping node into it or merges it with an inactive component
  (with the root's, which then holds the growth), and its deactivation
  leaves it an inactive holder.  An inactive holder runs one round, which
  ends in one message: a proceed hands the growth to the node or component
  it reaches, a back hands it back to the component that woke the holder,
  and the root's prune ends the growth.  A component turns active only by
  a wake-up or by merging with the holder, so no two components are active
  at once, and compute_epsilon_edge has no active-active case.  Within the
  holder, a member answers a test of its own round with a reject, and not
  with an active status, only once it has joined that round and taken
  every update before it.  That needs the control preemption of
  Simulation._pick, which delivers every Initiate and UpdateInfo in flight
  before any test.
- From the start of a component's round until its decision is carried
  out, every member holds the same d_h, and no member's d_v exceeds it.
  d_h changes only when a node wakes alone, by a proceed or by refusing a
  connect, and at a merge or a deactivation, whose update reaches every
  member ahead of the next round's Initiate on each tree link (per-link
  FIFO).  No update arrives in between: a component runs a round only
  while it holds the growth, and an update reaches it only from its own
  merge or deactivation or from the holder's connect.  Each update leaves
  d_h at least the member's new d_v: a deactivation raises both by eps2;
  the joining side of a merge grows d_v by the epsilon of its best edge,
  which the acceptor computes again from the same weight and deficits, and
  takes the acceptor's d_h, which is at least the joining side's d_h plus
  that epsilon; an inactive acceptor's side keeps d_v and only raises d_h,
  and a sleeping acceptor sets both to one value.  So a report, sent up
  the tree, and a merge, sent down it, would carry the receiver's own d_h:
  neither does, and no node raises d_h to its own d_v or to a child's.

The automaton computes in integers.  A rational that a NodeState holds or a
message carries (a weight, prize, deficit, component weight, total prize or
epsilon) is an int in units of 1/S, where S is twice the lcm of the
denominators of every weight and prize of the instance.  The simulator
builds each NodeState in these units and records every value in the
instance's units, as a Fraction, so the field annotations name the types
of the trace, not the int held in flight.  No Fraction is built per
delivery, and no value is rounded: the automaton divides only in its two
halvings of w - d_v - d_h, compute_epsilon_edge's active-sleeping case
(d_v and d_h the tester's) and a sleeping node's connect (the connector's
deficit and d_h), and that value is always even:

- every weight and prize is even, by the factor 2 in S;
- every member of a component holds d_v = d_h (mod 2).  A node starts with
  both 0, and a sleeping node keeps them 0.  Growth adds one epsilon to
  both: a deactivation adds eps2 to every member's d_v and to the one d_h
  the members share, and the joining side of a merge grows d_v by the
  epsilon of its best edge and takes the acceptor's d_h, which is the
  joining side's own d_h plus that epsilon if the acceptor slept.  A wake
  sets them equal: a proceed sets both to the d_h it carries (no d_h is
  negative in the runs of the facts test, which asserts it, so that d_h is
  at least the sleeper's 0), and a sleeping node taking a connect sets
  both to the connector's d_h and then grows or settles both by one
  epsilon.  An inactive acceptor a of a connect from c keeps its side's
  d_v and sets its side's d_h to the larger of d_h_a and
  d_h_c + (w - d_v_c - d_v_a); both are d_v_a (mod 2), since
  d_h_c = d_v_c (mod 2) and w is even.  The joining side grows d_v by that
  same w - d_v_c - d_v_a, so it ends at d_v_a's parity in both d_v and d_h.

So the halved value, an even weight less two values of one parity, is even.
_half raises ProtocolError on an odd one rather than round it.

Infinity is represented by float("inf"), used only as a sentinel in epsilon
and timestamp fields: it is compared against ints but never enters
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Literal, Union

from .instance import Edge

INF = float("inf")


class CS(Enum):
    SLEEPING = "sleeping"
    ACTIVE = "active"
    INACTIVE = "inactive"


class SE(Enum):
    BASIC = "basic"
    BRANCH = "branch"
    REJECTED = "rejected"
    REFIND = "refind"


class ProtocolError(AssertionError):
    """A state the protocol proves unreachable; reaching it is an implementation bug."""


# ---------------------------------------------------------------------------
# Wire messages: a receiver knows the edge a message came over, so no message
# names its sender, and no report or merge restates the receiver's own d_h
# (see the module docstring).  The classes are not frozen, which would make
# each construction set every field through object.__setattr__; no handler
# changes a message it receives, since its queue, its trace record and its
# handler share one object.


@dataclass(slots=True)
class Initiate:
    leader: int


@dataclass(slots=True)
class Test:
    __test__ = False  # not a pytest class

    leader: int


@dataclass(slots=True)
class Status:
    cs: CS
    deficit: Fraction


@dataclass(slots=True)
class Reject:
    pass


@dataclass(slots=True)
class Report:
    best_epsilon: Fraction | float
    tp: Fraction
    ts: int | float


@dataclass(slots=True)
class Merge:
    pass


@dataclass(slots=True)
class Connect:
    comp_w: Fraction
    deficit: Fraction
    d_h: Fraction


@dataclass(slots=True)
class Accept:
    root_flag: bool
    total_w: Fraction
    d_h: Fraction


@dataclass(slots=True)
class RefindEpsilon:
    pass


@dataclass(slots=True)
class UpdateInfo:
    epsilon: Fraction
    root_flag: bool
    deactivate_flag: bool
    total_w: Fraction
    d_h: Fraction


@dataclass(slots=True)
class Proceed:
    d_h: Fraction


@dataclass(slots=True)
class Back:
    # The sender's root flag.  A back that crosses a wake edge from a rooted
    # node tells the waker that the tree flood will reach the woken side, so
    # the wake edge no longer has to carry a prune there.
    root_flag: bool


@dataclass(slots=True)
class Prune:
    pass


@dataclass(slots=True)
class BackwardPrune:
    pass


# ---------------------------------------------------------------------------
# Actions: a round's start and its leader's decision, emitted alongside the
# sends.  They are the trace's round and decision records as the simulator
# writes them.  Neither names its node or step: each is part of the
# transition it is emitted in, a round is led by that transition's node,
# and a decision is its round leader's.

# a leader's decision once it knows its round's epsilons
Choice = Literal["merge", "deactivate", "proceed", "back", "prune"]


@dataclass(slots=True)
class RoundBoundary:
    """A round's start, led by the node whose transition emits it."""


@dataclass(slots=True)
class EpsilonRecord:
    eps1: Fraction | float
    eps2: Fraction | None
    chosen: Choice


Action = RoundBoundary | EpsilonRecord


# ---------------------------------------------------------------------------
# Node state


@dataclass(slots=True)
class NodeState:
    """One node's whole state, from construction to quiescence; each
    rational is an int in units of 1/S (see the module docstring)."""

    id: int
    is_root: bool
    prize: Fraction
    weights: dict[Edge, Fraction]  # incident edges only; static

    cs: CS = field(init=False)
    se: dict[Edge, SE] = field(init=False)
    epm: dict[Edge, bool] = field(init=False)
    d_v: Fraction = 0
    comp_w: Fraction = 0  # W of own component, replicated
    d_h: Fraction = 0
    prize_flag: bool = field(init=False)
    labelled_flag: bool = False
    # the edge of the pending proceed, whose delivery step is received_ts;
    # both are unset (None, INF) together
    proceed_in_edge: Edge | None = None
    in_branch: Edge | None = None
    best_edge: Edge | None = None
    back_edge: Edge | None = None
    best_epsilon: Fraction | float = INF
    lc: int = field(init=False)  # leader id of the current round
    tp: Fraction = 0
    # the reports and test answers the current round still awaits; the node
    # reports when both reach 0
    find_count: int = 0
    test_count: int = 0
    prune_msg_count: int = 0
    received_ts: int | float = INF
    ts: int | float = INF  # received_ts of the earliest pending proceed in the subtree
    prune_seen: bool = False

    def __post_init__(self):
        self.se = dict.fromkeys(sorted(self.weights), SE.BASIC)  # in edge order
        self.epm = dict.fromkeys(self.weights, False)
        self.lc = self.id
        self.cs = CS.INACTIVE if self.is_root else CS.SLEEPING
        self.prize_flag = not self.is_root

    @property
    def root_flag(self) -> bool:
        """Whether the node is in the root component.  That is the node's
        steiner membership, which the prize flag stores: a node joins the
        root component and the steiner part together, and a prune takes it
        out of both."""
        return not self.prize_flag

    def branch_edges(self) -> list[Edge]:
        return [e for e, s in self.se.items() if s == SE.BRANCH]


def _half(x: int) -> int:
    """x / 2, for the two halvings of the automaton, where x is even (see
    the module docstring)."""
    if x & 1:
        raise ProtocolError(f"odd halving of {x}")
    return x >> 1


def compute_epsilon_edge(
    cs_local: CS, cs_remote: CS, se_local: SE, w_e: int, d_v: int, d_remote: int, d_h: int
) -> int | float:
    """Growth-rate headroom of one inter-component edge.

    A sleeping neighbor has no deficit of its own yet; the local component's
    highest deficit d_h stands in for it.  Two inactive components only see
    each other through a refind-marked edge.  Two active components never
    see each other, since growth is one component at a time (see the module
    docstring); the paper's halved residual for that case is never needed.
    """
    if cs_local == CS.ACTIVE:
        if cs_remote == CS.INACTIVE:
            return w_e - d_v - d_remote
        if cs_remote == CS.SLEEPING:
            return _half(w_e - d_v - d_h)
    elif cs_local == CS.INACTIVE:
        if cs_remote == CS.SLEEPING:
            return w_e - d_v - d_h
        if cs_remote == CS.INACTIVE:
            if se_local == SE.REFIND:
                return w_e - d_v - d_remote
            return INF
    raise ProtocolError(f"epsilon computed in state {cs_local.value} against {cs_remote.value}")


class _Ctx(list):
    """The node's sends and actions, appended in order while handlers update
    the state st at step seq."""

    __slots__ = ("st", "seq")


def transition(st: NodeState, e: Edge | None, msg: Message | None, seq: int) -> list[Emission]:
    """Apply the delivery of msg over the normalized edge e at step seq to
    st, in place, or the root's wakeup if msg is None; returns what the node
    emits."""
    ctx = _Ctx()
    ctx.st = st
    ctx.seq = seq
    if msg is None:
        if not st.is_root:
            raise ProtocolError("spontaneous wakeup at a non-root node")
        _start_round(ctx)
    elif e not in st.weights:
        raise ProtocolError(f"delivery on unknown edge {e} at node {st.id}")
    else:
        _HANDLERS[type(msg)](ctx, e, msg)
    return ctx


# ---------------------------------------------------------------------------
# Shared rules: each is written once and called by every handler that uses it


def _flood(ctx: _Ctx, exclude: Edge | None, msg: Message) -> int:
    """Send msg over every branch edge but exclude; returns the count."""
    out = [(e, msg) for e in ctx.st.branch_edges() if e != exclude]
    ctx.extend(out)
    return len(out)


def _start_round(ctx: _Ctx):
    ctx.append(RoundBoundary())
    _join_round(ctx, ctx.st.id, None)


def _join_round(ctx: _Ctx, leader: int, in_branch: Edge | None):
    """Reset the round state, pass the initiate on down the tree, then test
    and report; in_branch is the edge toward the leader (None at the leader)."""
    st = ctx.st
    st.best_epsilon = INF
    st.best_edge = None
    st.lc = leader
    st.tp = 0
    st.back_edge = None
    st.ts = INF
    st.in_branch = in_branch
    st.find_count = _flood(ctx, in_branch, Initiate(leader))
    _proc_test(ctx)
    _proc_report(ctx)


def _to_leader(ctx: _Ctx, msg: Message):
    """Pass msg up toward the round's leader, or restart the round here if
    this node led it."""
    if ctx.st.in_branch is not None:
        ctx.append((ctx.st.in_branch, msg))
    else:
        _start_round(ctx)


def _route_merge(ctx: _Ctx):
    """Follow the best edge: down the tree as a merge, or across it as a connect."""
    st = ctx.st
    if st.best_edge is None:
        raise ProtocolError(f"merge at node {st.id} without a best edge")
    if st.se[st.best_edge] == SE.BRANCH:
        ctx.append((st.best_edge, Merge()))
    else:
        ctx.append((st.best_edge, Connect(st.comp_w, st.d_v, st.d_h)))


def _route_proceed(ctx: _Ctx, d_h: int):
    """Follow the best edge with a proceed and mark it if it leaves the tree."""
    st = ctx.st
    e = st.best_edge
    if e is None:
        raise ProtocolError(f"proceed at node {st.id} without a best edge")
    ctx.append((e, Proceed(d_h)))
    # Every proceed sent off the tree leaves an EPM mark: the edge may be the
    # only path the prune flood has to whatever forms behind it.  A
    # refused-connect singleton in particular is reachable solely over its
    # refind edge, and anything it later wakes hangs behind that edge too.
    # The mark stays until the woken side answers with a rooted back (see
    # _on_back): from then on the tree flood reaches it, and a prune over the
    # wake edge would be a second copy.
    if st.se[e] == SE.REFIND:
        st.se[e] = SE.BASIC
    if st.se[e] == SE.BASIC:
        st.epm[e] = True


def _route_back(ctx: _Ctx):
    """Send the back toward the earliest pending proceed."""
    st = ctx.st
    if st.back_edge is not None:
        # one-shot pointer: a later back must not re-follow it
        ctx.append((st.back_edge, Back(st.root_flag)))
        st.back_edge = None
    elif st.proceed_in_edge is not None:
        ctx.append((st.proceed_in_edge, Back(st.root_flag)))
        _clear_pending(st, st.proceed_in_edge)
    else:
        raise ProtocolError(f"back at node {st.id} without a back edge or a pending proceed")


def _take_update(ctx: _Ctx, e: Edge | None, msg: UpdateInfo):
    """Adopt the component state msg carries and flood it on, away from e."""
    st = ctx.st
    if msg.root_flag and msg.deactivate_flag:
        raise ProtocolError("deactivation flood inside the root component")
    if msg.root_flag:
        st.cs = CS.INACTIVE
        st.prize_flag = False
    elif msg.deactivate_flag:
        st.cs = CS.INACTIVE
        st.labelled_flag = True
    else:
        st.cs = CS.ACTIVE
    st.d_h = msg.d_h
    st.d_v += msg.epsilon
    st.comp_w = msg.total_w
    _flood(ctx, e, msg)


def _send_prunes(ctx: _Ctx, exclude: Edge | None):
    """Prune over the tree edges and the live wake edges, except exclude.

    prune_msg_count counts the tree edges, whose backward prunes a labelled
    node awaits.  Only _on_backward_prune reads it, and backward prunes
    travel only over the root component's tree edges, so counting on a
    dormant node's forward is harmless.
    """
    st = ctx.st
    for e, s in st.se.items():
        if e == exclude:
            continue
        if s == SE.BRANCH:
            ctx.append((e, Prune()))
            st.prune_msg_count += 1
        elif st.epm[e] and s != SE.REJECTED:
            ctx.append((e, Prune()))


def _leave_tree(ctx: _Ctx, up: Edge):
    """Drop out of the steiner part: report up the tree and unmark the edge."""
    st = ctx.st
    st.prize_flag = True
    st.labelled_flag = False
    ctx.append((up, BackwardPrune()))
    st.se[up] = SE.BASIC


# ---------------------------------------------------------------------------
# Round machinery


def _on_initiate(ctx: _Ctx, e: Edge, msg: Initiate):
    if ctx.st.se[e] != SE.BRANCH:
        raise ProtocolError(f"initiate on non-branch edge {e} at node {ctx.st.id}")
    _join_round(ctx, msg.leader, e)


def _proc_test(ctx: _Ctx):
    st = ctx.st
    test = Test(st.lc)  # one message, sent over every tested edge
    out = [(e, test) for e, s in st.se.items() if s in (SE.BASIC, SE.REFIND)]
    ctx.extend(out)
    st.test_count = len(out)


def _on_test(ctx: _Ctx, e: Edge, msg: Test):
    st = ctx.st
    if st.lc == msg.leader:
        ctx.append((e, Reject()))
    else:
        ctx.append((e, Status(st.cs, st.d_v)))


def _fold_candidate(st: NodeState, eps, e: Edge):
    # smallest epsilon wins; equal epsilons resolve to the smallest incident
    # edge id, so the fold does not depend on delivery order
    if eps < st.best_epsilon or (
        eps == st.best_epsilon and st.best_edge is not None and e < st.best_edge
    ):
        st.best_epsilon = eps
        st.best_edge = e


def _on_status(ctx: _Ctx, e: Edge, msg: Status):
    st = ctx.st
    st.test_count -= 1
    eps = compute_epsilon_edge(
        st.cs, msg.cs, st.se[e], st.weights[e], st.d_v, msg.deficit, st.d_h
    )
    _fold_candidate(st, eps, e)
    _proc_report(ctx)


def _on_reject(ctx: _Ctx, e: Edge, msg: Reject):
    st = ctx.st
    st.test_count -= 1
    st.se[e] = SE.REJECTED
    _clear_pending(st, e)
    _proc_report(ctx)


def _clear_pending(st: NodeState, e: Edge):
    """Forget the pending proceed if it came in over e."""
    if st.proceed_in_edge == e:
        st.proceed_in_edge = None
        st.received_ts = INF


def _proc_report(ctx: _Ctx):
    st = ctx.st
    if st.find_count or st.test_count:
        return
    if st.cs == CS.ACTIVE:
        st.tp += st.prize
    # received_ts is INF unless a proceed is pending here
    if st.ts > st.received_ts:
        st.ts = st.received_ts
        st.back_edge = None
    if st.in_branch is not None:
        ctx.append((st.in_branch, Report(st.best_epsilon, st.tp, st.ts)))
    else:
        _decide(ctx)


def _on_report(ctx: _Ctx, e: Edge, msg: Report):
    st = ctx.st
    st.find_count -= 1
    if st.ts > msg.ts:
        st.ts = msg.ts
        st.back_edge = e
    if st.cs == CS.ACTIVE:
        st.tp += msg.tp
    _fold_candidate(st, msg.best_epsilon, e)
    _proc_report(ctx)


def _decide(ctx: _Ctx):
    """Leader action once every initiate and test has been answered."""
    st = ctx.st
    eps1 = st.best_epsilon
    if not st.root_flag and st.cs == CS.ACTIVE:
        eps2 = st.tp - st.comp_w
        if eps1 < eps2:
            ctx.append(EpsilonRecord(eps1, eps2, "merge"))
            _route_merge(ctx)
        else:
            ctx.append(EpsilonRecord(eps1, eps2, "deactivate"))
            # the leader takes its deactivation as the update it floods
            _take_update(ctx, None, UpdateInfo(eps2, False, True, st.comp_w + eps2, st.d_h + eps2))
            _start_round(ctx)
    elif st.cs == CS.INACTIVE:
        if eps1 != INF:
            ctx.append(EpsilonRecord(eps1, None, "proceed"))
            _route_proceed(ctx, st.d_h)
        elif st.ts != INF:
            ctx.append(EpsilonRecord(eps1, None, "back"))
            _route_back(ctx)
        elif st.is_root:
            ctx.append(EpsilonRecord(eps1, None, "prune"))
            _send_prunes(ctx, None)
        else:
            raise ProtocolError(
                f"non-root leader {st.id} has no outgoing option and no pending proceed"
            )
    else:
        raise ProtocolError(f"decide reached in state {st.cs} root_flag={st.root_flag}")


# ---------------------------------------------------------------------------
# Merging


def _on_merge(ctx: _Ctx, e: Edge, msg: Merge):
    _route_merge(ctx)


def _on_connect(ctx: _Ctx, e: Edge, msg: Connect):
    st = ctx.st
    if st.cs == CS.SLEEPING:
        st.cs = CS.ACTIVE
        st.d_h = msg.d_h
        st.d_v = msg.d_h
        st.comp_w = msg.d_h
        eps1 = _half(st.weights[e] - st.d_v - msg.deficit)
        eps2 = st.prize - st.comp_w
        if eps1 < eps2:
            st.d_h += eps1
            st.d_v += eps1
            st.comp_w += msg.comp_w + 2 * eps1
            st.se[e] = SE.BRANCH
            ctx.append((e, Accept(st.root_flag, st.comp_w, st.d_h)))
            if st.id == max(e):  # the higher-id endpoint leads
                _start_round(ctx)
        else:
            st.cs = CS.INACTIVE
            st.comp_w += eps2
            st.d_v += eps2
            st.d_h = msg.d_h + eps2
            st.labelled_flag = True
            ctx.append((e, RefindEpsilon()))
    elif st.cs == CS.INACTIVE:
        leads = st.root_flag or st.id == max(e)
        if not st.root_flag:
            st.cs = CS.ACTIVE
        eps1 = st.weights[e] - st.d_v - msg.deficit
        st.comp_w += msg.comp_w + eps1
        d_t = msg.d_h + eps1
        if st.d_h < d_t:
            st.d_h = d_t
        _flood(ctx, e, UpdateInfo(0, st.root_flag, False, st.comp_w, st.d_h))
        st.se[e] = SE.BRANCH
        _clear_pending(st, e)
        ctx.append((e, Accept(st.root_flag, st.comp_w, st.d_h)))
        # In the root component only the root itself restarts the round; it
        # does so on receiving the update flood.  Elsewhere the higher-id
        # endpoint leads.
        if leads and (not st.root_flag or st.is_root):
            _start_round(ctx)
    else:
        raise ProtocolError(f"connect received while active at node {st.id}")


def _on_accept(ctx: _Ctx, e: Edge, msg: Accept):
    st = ctx.st
    if e != st.best_edge:
        raise ProtocolError(f"accept on unexpected edge {e} at node {st.id}")
    st.se[e] = SE.BRANCH
    _clear_pending(st, e)
    # the joining side grows by its merge epsilon and floods that on
    _take_update(ctx, e, UpdateInfo(st.best_epsilon, msg.root_flag, False, msg.total_w, msg.d_h))
    # the acceptor's side restarts the round if the acceptor is in the root
    # component (a sleeping acceptor never is) or has the higher id
    if not msg.root_flag and st.id == max(e):
        _start_round(ctx)


def _on_update_info(ctx: _Ctx, e: Edge, msg: UpdateInfo):
    _take_update(ctx, e, msg)
    if ctx.st.is_root:
        _start_round(ctx)


def _on_refind(ctx: _Ctx, e: Edge, msg: RefindEpsilon):
    st = ctx.st
    if st.se[e] == SE.BASIC:
        st.se[e] = SE.REFIND
    _to_leader(ctx, RefindEpsilon())


# ---------------------------------------------------------------------------
# Proceed / back


def _on_proceed(ctx: _Ctx, e: Edge, msg: Proceed):
    st = ctx.st
    if st.se[e] == SE.BRANCH and st.in_branch == e:
        # Routed down from the leader toward the frontier of the round.
        _route_proceed(ctx, msg.d_h)
    elif st.se[e] == SE.BASIC:
        st.proceed_in_edge = e
        st.received_ts = ctx.seq
        if st.cs == CS.SLEEPING:
            _wakeup(ctx, msg.d_h)
        elif st.cs == CS.INACTIVE:
            _to_leader(ctx, Proceed(msg.d_h))
        else:
            raise ProtocolError("proceed delivered to an active component")
    elif st.se[e] == SE.BRANCH:
        _to_leader(ctx, Proceed(msg.d_h))
    else:
        raise ProtocolError(f"proceed on {st.se[e].value} edge {e}")


def _wakeup(ctx: _Ctx, d_k: int):
    st = ctx.st
    st.cs = CS.ACTIVE
    st.d_v = d_k
    st.comp_w = d_k
    if d_k > st.d_h:
        st.d_h = d_k
    _start_round(ctx)


def _on_back(ctx: _Ctx, e: Edge, msg: Back):
    st = ctx.st
    if st.se[e] == SE.BRANCH and st.in_branch == e:
        # Routed down from the leader toward the earliest pending proceed.
        _route_back(ctx)
    else:
        # Either the answer to a proceed this component sent out over e, or a
        # child relaying such an answer: the leader must recompute, because
        # other options (sleeping neighbors, refind edges) may remain.
        if msg.root_flag and st.se[e] != SE.BRANCH:
            # the node behind this wake edge has joined the root component
            # elsewhere; the tree flood resets it and everything it woke
            st.epm[e] = False
        _to_leader(ctx, Back(st.root_flag))


# ---------------------------------------------------------------------------
# Pruning


def _prunable(st: NodeState, via: Edge) -> bool:
    return (
        st.labelled_flag
        and st.se[via] == SE.BRANCH
        and len(st.branch_edges()) == 1
    )


def _on_prune(ctx: _Ctx, e: Edge, msg: Prune):
    st = ctx.st
    # In the root component the tree flood reaches every member over its
    # branch edge; a copy arriving sideways (over a wake edge from a dormant
    # component) must not consume that duty, or the real flood stalls on
    # deduplication and a prunable leaf survives.  A waker drops its EPM
    # mark once the woken side answers with a rooted back (see _on_back), so
    # such copies are rare; this guard keeps the flood right if one arrives.
    if st.prune_seen or (st.root_flag and st.se[e] != SE.BRANCH):
        return
    # the one forward over this node's tree and EPM edges; a prunable leaf
    # has no tree edge but e, so it forwards over its EPM edges alone
    st.prune_seen = True
    _send_prunes(ctx, e)
    if not st.root_flag:
        # a dormant component dissolves
        for e2 in st.se:
            st.se[e2] = SE.BASIC
    elif _prunable(st, e):
        _leave_tree(ctx, e)


def _on_backward_prune(ctx: _Ctx, e: Edge, msg: BackwardPrune):
    st = ctx.st
    st.prune_msg_count -= 1
    st.se[e] = SE.BASIC
    if st.labelled_flag and st.prune_msg_count == 0 and st.in_branch is not None:
        # A nonzero prune_msg_count means _on_prune already forwarded the
        # prune, over the EPM edges too; only the tree edge is left.
        _leave_tree(ctx, st.in_branch)


# wire type -> its handler: the one list of wire types, in trace and report order
_HANDLERS = {
    Initiate: _on_initiate,
    Test: _on_test,
    Status: _on_status,
    Reject: _on_reject,
    Report: _on_report,
    Merge: _on_merge,
    Connect: _on_connect,
    Accept: _on_accept,
    RefindEpsilon: _on_refind,
    UpdateInfo: _on_update_info,
    Proceed: _on_proceed,
    Back: _on_back,
    Prune: _on_prune,
    BackwardPrune: _on_backward_prune,
}
Message = Union[tuple(_HANDLERS)]
Send = tuple[Edge, Message]
Emission = Send | Action  # in true emission order; round tags depend on it
