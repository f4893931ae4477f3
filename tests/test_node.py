import copy

import pytest

from dpcst import node as nd
from dpcst.instance import generate_random_instance, norm_edge
from dpcst.node import (
    CS,
    INF,
    SE,
    Accept,
    Connect,
    EpsilonRecord,
    Initiate,
    Merge,
    NodeState,
    ProtocolError,
    Reject,
    Report,
    RoundBoundary,
    Status,
    Test,
    compute_epsilon_edge,
    transition,
)
from dpcst.sim import Simulation, run

def mk(node_id, is_root, prize, weights):
    # the automaton computes in integers, in units of 1/S (see node.py)
    return NodeState(node_id, is_root, prize, dict(weights))


def sends(emits):
    return [em for em in emits if isinstance(em, tuple)]


def acts(emits):
    return [em for em in emits if not isinstance(em, tuple)]


def test_node_state_root():
    st = mk(1, True, 5, {(1, 2): 3})
    assert st.cs == CS.INACTIVE
    assert st.root_flag and not st.prize_flag
    assert st.se[(1, 2)] == SE.BASIC and st.epm[(1, 2)] is False
    assert st.d_v == 0 and st.comp_w == 0 and st.d_h == 0
    assert st.lc == 1


def test_node_state_non_root():
    st = mk(2, False, 5, {(2, 4): 6, (1, 2): 3, (2, 3): 1})
    assert st.cs == CS.SLEEPING
    assert st.prize_flag and not st.root_flag
    assert all(se == SE.BASIC for se in st.se.values())
    assert st.received_ts == INF
    assert st.lc == 2
    assert tuple(st.se) == ((1, 2), (2, 3), (2, 4))
    st.se[(2, 3)] = SE.BRANCH
    assert st.branch_edges() == [(2, 3)]


def test_node_state_has_no_field_beyond_its_declared_ones():
    # slotted: a write to a removed or misspelt field raises, and the root
    # flag is read from the prize flag, never written
    st = mk(2, False, 5, {(1, 2): 3})
    with pytest.raises(AttributeError):
        st.sn = "find"
    with pytest.raises(AttributeError):
        st.root_flag = True
    st.prize_flag = False
    assert st.root_flag


def test_epsilon_five_cases():
    # active/inactive takes the residual whole
    assert compute_epsilon_edge(CS.ACTIVE, CS.INACTIVE, SE.BASIC, 10, 2, 3, 2) == 5
    # active/sleeping halves it, with the own component's highest deficit
    # standing in for the sleeper's (a sleeping node's status carries 0)
    assert compute_epsilon_edge(CS.ACTIVE, CS.SLEEPING, SE.BASIC, 12, 7, 0, 7) == -1
    # inactive/sleeping
    assert compute_epsilon_edge(CS.INACTIVE, CS.SLEEPING, SE.BASIC, 21, 2, 0, 7) == 12
    # inactive/inactive: invisible unless the edge is marked refind
    assert compute_epsilon_edge(CS.INACTIVE, CS.INACTIVE, SE.BASIC, 5, 1, 1, 1) == INF
    assert compute_epsilon_edge(CS.INACTIVE, CS.INACTIVE, SE.REFIND, 5, 1, 1, 1) == 3


def test_epsilon_rejects_impossible_observations():
    # growth is one component at a time, so no active component ever sees
    # another; an inactive one sees none at all, and a sleeping node tests no one
    for cs_local in (CS.ACTIVE, CS.INACTIVE, CS.SLEEPING):
        with pytest.raises(ProtocolError, match=f"in state {cs_local.value} against active"):
            compute_epsilon_edge(cs_local, CS.ACTIVE, SE.BASIC, 10, 0, 0, 0)


def test_root_wakeup_starts_round_and_tests():
    st = mk(1, True, 5, {(1, 2): 3, (1, 3): 4})
    emits = transition(st, None, None, 1)
    assert any(isinstance(a, RoundBoundary) for a in acts(emits))
    out = sends(emits)
    assert [(e, type(m).__name__) for e, m in out] == [((1, 2), "Test"), ((1, 3), "Test")]
    assert st.test_count == 2


@pytest.mark.parametrize(
    "is_root, event",
    [
        (True, (None, None, 1)),
        (False, ((1, 2), Connect(14, 7, 7), 3)),
        (False, ((2, 3), nd.Proceed(2), 5)),
    ],
    ids=["root-wakeup", "connect", "proceed"],
)
def test_transition_is_deterministic(is_root, event):
    a = mk(2, is_root, 10, {(1, 2): 12, (2, 3): 4})
    b = mk(2, is_root, 10, {(1, 2): 12, (2, 3): 4})
    assert a == b
    emits_a, emits_b = transition(a, *event), transition(b, *event)
    assert emits_a and emits_a == emits_b
    assert a == b and a != mk(2, is_root, 10, {(1, 2): 12, (2, 3): 4})


def test_initiate_forwards_and_counts():
    st = mk(2, False, 4, {(1, 2): 3, (2, 3): 5, (2, 4): 6})
    st.cs = CS.INACTIVE
    st.se[(1, 2)] = SE.BRANCH
    st.se[(2, 3)] = SE.BRANCH
    emits = transition(st, (1, 2), Initiate(9), 1)
    out = sends(emits)
    assert ((2, 3), Initiate(9)) in out
    assert st.find_count == 1 and st.in_branch == (1, 2) and st.lc == 9
    assert ((2, 4), Test(9)) in out
    assert st.test_count == 1


def test_initiate_on_non_branch_edge_asserts():
    st = mk(2, False, 4, {(1, 2): 3})
    with pytest.raises(ProtocolError):
        transition(st, (1, 2), Initiate(9), 1)


def test_leaf_with_all_edges_rejected_reports_immediately():
    st = mk(2, False, 4, {(1, 2): 3, (2, 3): 5})
    st.cs = CS.INACTIVE
    st.se[(1, 2)] = SE.BRANCH
    st.se[(2, 3)] = SE.REJECTED
    emits = transition(st, (1, 2), Initiate(9), 1)
    assert st.test_count == 0
    reports = [m for _, m in sends(emits) if isinstance(m, Report)]
    assert len(reports) == 1 and reports[0].best_epsilon == INF


def test_test_same_component_rejects():
    st = mk(2, False, 4, {(1, 2): 3})
    st.lc = 9
    emits = transition(st, (1, 2), Test(9), 1)
    assert sends(emits) == [((1, 2), Reject())]


def test_test_other_component_reports_status():
    st = mk(2, False, 4, {(1, 2): 3})
    st.cs = CS.INACTIVE
    st.d_v = 7
    emits = transition(st, (1, 2), Test(9), 1)
    assert sends(emits) == [((1, 2), Status(CS.INACTIVE, 7))]


def test_status_fold_strict_less_keeps_smaller_edge_on_tie():
    st = mk(2, False, 4, {(1, 2): 8, (2, 3): 8, (2, 4): 8})
    st.cs = CS.ACTIVE
    st.lc = 2
    st.test_count = 3
    transition(st, (2, 4), Status(CS.INACTIVE, 5), 1)
    assert st.best_epsilon == 3 and st.best_edge == (2, 4)
    transition(st, (2, 3), Status(CS.INACTIVE, 5), 2)
    assert st.best_edge == (2, 3)  # same epsilon, smaller edge wins
    transition(st, (1, 2), Status(CS.INACTIVE, 6), 3)
    assert st.best_epsilon == 2 and st.best_edge == (1, 2)


def test_reject_marks_edge_and_clears_pending():
    st = mk(2, False, 4, {(1, 2): 3, (2, 3): 5})
    st.cs = CS.INACTIVE
    st.test_count = 2
    st.proceed_in_edge = (1, 2)
    st.received_ts = 5
    emits = transition(st, (1, 2), Reject(), 9)
    assert st.se[(1, 2)] == SE.REJECTED
    assert st.proceed_in_edge is None
    assert st.received_ts == INF
    assert sends(emits) == []  # one test still outstanding


def test_report_aggregates_min_epsilon_and_prize():
    st = mk(2, False, 4, {(1, 2): 3, (2, 3): 5})
    st.cs = CS.ACTIVE
    st.se[(2, 3)] = SE.BRANCH
    st.in_branch = (1, 2)
    st.se[(1, 2)] = SE.BRANCH
    st.find_count = 1
    st.best_epsilon = 3
    st.best_edge = (1, 2)
    emits = transition(st, (2, 3), Report(5, 4, INF), 7)
    # own candidate smaller than the child's; the child's prize plus its own
    assert st.best_epsilon == 3 and st.best_edge == (1, 2)
    assert sends(emits) == [((1, 2), Report(3, 4 + st.prize, INF))]


def test_connect_wakes_sleeping_and_accepts_worked_example():
    # payload from the worked merge: Connect(14, 7, 7) from node 2 on a
    # weight-12 edge
    st = mk(1, False, 10, {(1, 2): 12})
    emits = transition(st, (1, 2), Connect(14, 7, 7), 3)
    accepts = [m for _, m in sends(emits) if isinstance(m, Accept)]
    assert accepts == [Accept(False, 19, 6)]
    assert not acts(emits)  # 1 < 2, the connect sender leads
    assert st.d_v == 6 and st.comp_w == 19 and st.cs == CS.ACTIVE
    assert st.se[(1, 2)] == SE.BRANCH


def test_connect_refused_by_cheap_sleeping_node():
    st = mk(1, False, 2, {(1, 2): 12})  # prize 2 < any growth headroom
    emits = transition(st, (1, 2), Connect(14, 7, 7), 3)
    assert [type(m).__name__ for _, m in sends(emits)] == ["RefindEpsilon"]
    assert st.cs == CS.INACTIVE and st.labelled_flag
    assert st.d_v == 2  # deficit settles at the prize
    assert st.d_h == 2


def test_connect_while_active_asserts():
    st = mk(1, False, 10, {(1, 2): 12})
    st.cs = CS.ACTIVE
    with pytest.raises(ProtocolError):
        transition(st, (1, 2), Connect(14, 7, 7), 3)


def test_merge_routed_by_frontier_emits_connect():
    st = mk(2, False, 12, {(1, 2): 12, (2, 5): 14})
    st.cs = CS.ACTIVE
    st.se[(2, 5)] = SE.BRANCH
    st.comp_w = 14
    st.d_v = 7
    st.best_edge = (1, 2)
    st.best_epsilon = -1
    st.d_h = 7
    emits = transition(st, (2, 5), Merge(), 4)
    assert sends(emits) == [((1, 2), Connect(14, 7, 7))]


def test_accept_on_unexpected_edge_asserts():
    st = mk(2, False, 12, {(1, 2): 12, (2, 5): 14})
    st.best_edge = (2, 5)
    with pytest.raises(ProtocolError):
        transition(st, (1, 2), Accept(False, 1, 1), 4)


@pytest.mark.parametrize(
    "node_id, root_flag, starts",
    [(1, False, False), (3, False, True), (3, True, False)],
    ids=["acceptor-higher-id", "connector-higher-id", "rooted-acceptor"],
)
def test_accept_starts_a_round_unless_the_acceptor_leads(node_id, root_flag, starts):
    # node_id connected to node 2 over its best edge; the acceptor leads when
    # it is in the root component or has the higher id
    e = norm_edge(node_id, 2)
    st = mk(node_id, False, 10, {e: 12})
    st.cs = CS.ACTIVE
    st.best_edge = e
    st.best_epsilon = 1
    emits = transition(st, e, Accept(root_flag, 20, 8), 4)
    assert st.se[e] == SE.BRANCH and st.d_v == 1 and st.d_h == 8 and st.root_flag is root_flag
    assert any(isinstance(a, RoundBoundary) for a in acts(emits)) is starts


def test_update_info_deactivation_flood():
    st = mk(2, False, 12, {(1, 2): 12, (2, 5): 14})
    st.cs = CS.ACTIVE
    st.se[(2, 5)] = SE.BRANCH
    st.se[(1, 2)] = SE.BRANCH
    st.d_v = 7
    msg = nd.UpdateInfo(3, False, True, 30, 10)
    emits = transition(st, (2, 5), msg, 4)
    assert st.cs == CS.INACTIVE and st.labelled_flag
    assert st.d_v == 10 and st.comp_w == 30 and st.d_h == 10
    assert ((1, 2), msg) in sends(emits)


def test_update_info_root_flood_sets_steiner_membership():
    st = mk(2, False, 12, {(1, 2): 12})
    st.cs = CS.ACTIVE
    msg = nd.UpdateInfo(3, True, False, 30, 10)
    transition(st, (1, 2), msg, 4)
    assert st.cs == CS.INACTIVE and not st.prize_flag and st.root_flag


def test_refind_marks_and_relays():
    st = mk(2, False, 12, {(1, 2): 12, (2, 5): 14})
    st.se[(2, 5)] = SE.BRANCH
    st.in_branch = (2, 5)
    emits = transition(st, (1, 2), nd.RefindEpsilon(), 4)
    assert st.se[(1, 2)] == SE.REFIND
    assert sends(emits) == [((2, 5), nd.RefindEpsilon())]


def test_refind_at_leader_restarts_round():
    st = mk(2, False, 12, {(1, 2): 12})
    st.cs = CS.ACTIVE
    st.in_branch = None
    emits = transition(st, (1, 2), nd.RefindEpsilon(), 4)
    assert any(isinstance(a, RoundBoundary) for a in acts(emits))


def test_proceed_wakes_sleeping_node():
    st = mk(4, False, 26, {(3, 4): 40})
    emits = transition(st, (3, 4), nd.Proceed(15), 11)
    assert st.cs == CS.ACTIVE
    assert st.d_v == 15 and st.comp_w == 15 and st.d_h == 15
    assert st.proceed_in_edge == (3, 4)
    assert st.received_ts == 11
    assert any(isinstance(a, RoundBoundary) for a in acts(emits))


def test_proceed_pokes_inactive_leader():
    st = mk(3, False, 15, {(3, 9): 21, (3, 4): 40})
    st.cs = CS.INACTIVE
    st.in_branch = None
    emits = transition(st, (3, 9), nd.Proceed(7), 11)
    assert st.proceed_in_edge == (3, 9) and st.received_ts == 11
    assert any(isinstance(a, RoundBoundary) for a in acts(emits))


def test_outside_back_at_leader_restarts_round():
    st = mk(1, True, 5, {(1, 2): 3})
    st.cs = CS.INACTIVE
    emits = transition(st, (1, 2), nd.Back(False), 4)
    assert any(isinstance(a, RoundBoundary) for a in acts(emits))


def test_outside_back_ignores_stale_pointer_and_recomputes():
    # an answer to a proceed sent over (1, 2) must reach the leader even if a
    # round-stale back_edge pointer is still set
    st = mk(2, False, 5, {(1, 2): 3, (2, 3): 3})
    st.cs = CS.INACTIVE
    st.se[(2, 3)] = SE.BRANCH
    st.back_edge = (2, 3)
    st.in_branch = None  # this node led the last round
    emits = transition(st, (1, 2), nd.Back(False), 4)
    assert any(isinstance(a, RoundBoundary) for a in acts(emits))


def test_outside_back_relays_toward_leader():
    st = mk(2, False, 5, {(1, 2): 3, (2, 3): 3})
    st.cs = CS.INACTIVE
    st.se[(2, 3)] = SE.BRANCH
    st.in_branch = (2, 3)
    emits = transition(st, (1, 2), nd.Back(False), 4)
    assert sends(emits) == [((2, 3), nd.Back(False))]


def test_routed_back_follows_pointer_once():
    st = mk(2, False, 5, {(1, 2): 3, (2, 3): 3})
    st.cs = CS.INACTIVE
    st.se[(1, 2)] = SE.BRANCH
    st.se[(2, 3)] = SE.BRANCH
    st.in_branch = (1, 2)
    st.back_edge = (2, 3)
    emits = transition(st, (1, 2), nd.Back(False), 4)
    assert sends(emits) == [((2, 3), nd.Back(False))]
    assert st.back_edge is None


def test_routed_back_exits_at_the_pending_holder():
    st = mk(2, False, 5, {(1, 2): 3, (2, 3): 3})
    st.cs = CS.INACTIVE
    st.se[(2, 3)] = SE.BRANCH
    st.in_branch = (2, 3)
    st.proceed_in_edge = (1, 2)
    st.received_ts = 9
    emits = transition(st, (2, 3), nd.Back(False), 4)
    assert sends(emits) == [((1, 2), nd.Back(False))]
    assert st.proceed_in_edge is None and st.received_ts == INF


def test_prune_unlabelled_leaf_stays_silent():
    st = mk(2, False, 5, {(1, 2): 3})
    st.prize_flag = False  # in the root component
    st.se[(1, 2)] = SE.BRANCH
    st.in_branch = (1, 2)
    emits = transition(st, (1, 2), nd.Prune(), 4)
    assert sends(emits) == []
    assert st.se[(1, 2)] == SE.BRANCH
    assert st.prize_flag is False  # stays in the steiner part


def test_prune_labelled_leaf_prunes_itself():
    st = mk(11, False, 3, {(7, 11): 4})
    st.prize_flag = False  # in the root component
    st.labelled_flag = True
    st.se[(7, 11)] = SE.BRANCH
    st.in_branch = (7, 11)
    emits = transition(st, (7, 11), nd.Prune(), 4)
    assert st.prize_flag is True and st.root_flag is False
    assert sends(emits) == [((7, 11), nd.BackwardPrune())]
    assert st.se[(7, 11)] == SE.BASIC


def test_prune_resets_non_root_component_edges():
    st = mk(2, False, 5, {(1, 2): 3, (2, 3): 3, (2, 4): 9})
    st.cs = CS.INACTIVE
    st.se[(2, 3)] = SE.BRANCH
    st.se[(2, 4)] = SE.REJECTED
    emits = transition(st, (1, 2), nd.Prune(), 4)
    assert ((2, 3), nd.Prune()) in sends(emits)
    assert all(se == SE.BASIC for se in st.se.values())


def test_backward_prune_cascades_when_children_done():
    st = mk(7, False, 4, {(7, 11): 4, (7, 9): 12})
    st.prize_flag = False  # in the root component
    st.labelled_flag = True
    st.se[(7, 11)] = SE.BRANCH
    st.se[(7, 9)] = SE.BRANCH
    st.in_branch = (7, 9)
    st.prune_msg_count = 1
    emits = transition(st, (7, 11), nd.BackwardPrune(), 4)
    assert st.prize_flag is True
    assert ((7, 9), nd.BackwardPrune()) in sends(emits)
    assert st.se[(7, 9)] == SE.BASIC and st.se[(7, 11)] == SE.BASIC


def test_backward_prune_cascade_sends_no_prune_over_epm_edges():
    # _on_prune already forwarded over the EPM edge (7, 12) when it counted
    # the child; the cascade only reports up the tree
    st = mk(7, False, 4, {(7, 11): 4, (7, 9): 12, (7, 12): 5})
    st.prize_flag = False  # in the root component
    st.labelled_flag = True
    st.se[(7, 11)] = SE.BRANCH
    st.se[(7, 9)] = SE.BRANCH
    st.epm[(7, 12)] = True
    st.epm[(7, 11)] = True  # a wake edge that later became the child's branch
    st.in_branch = (7, 9)
    st.prune_msg_count = 1
    emits = transition(st, (7, 11), nd.BackwardPrune(), 4)
    assert sends(emits) == [((7, 9), nd.BackwardPrune())]
    assert st.prize_flag is True


@pytest.mark.parametrize("rooted", [True, False])
def test_back_over_wake_edge_clears_epm_only_when_rooted(rooted):
    # 4 woke 5 over (4, 5); 5 answers with a back carrying its root flag
    st = mk(4, False, 6, {(3, 4): 8, (4, 5): 17})
    st.cs = CS.INACTIVE
    st.se[(3, 4)] = SE.BRANCH
    st.in_branch = (3, 4)
    st.epm[(4, 5)] = True
    emits = transition(st, (4, 5), nd.Back(root_flag=rooted), 4)
    assert st.epm[(4, 5)] is not rooted
    assert sends(emits) == [((3, 4), nd.Back(root_flag=False))]


def test_rooted_back_over_branch_edge_keeps_epm():
    st = mk(2, False, 5, {(1, 2): 3, (2, 3): 3})
    st.cs = CS.INACTIVE
    st.prize_flag = False  # in the root component
    st.se[(1, 2)] = SE.BRANCH
    st.se[(2, 3)] = SE.BRANCH
    st.in_branch = (1, 2)
    st.epm[(2, 3)] = True
    emits = transition(st, (2, 3), nd.Back(root_flag=True), 4)
    assert st.epm[(2, 3)] is True
    assert sends(emits) == [((1, 2), nd.Back(root_flag=True))]


# ---------------------------------------------------------------------------
# Routing with nothing to route along: each rule has one error path, reached
# both from the leader's decision and from a routed message


def _leader_awaiting_last_report(cs, best_epsilon, ts):
    # node 2 leads its round and waits for one report over (2, 3); its best
    # edge was never set
    st = mk(2, False, 5, {(1, 2): 3, (2, 3): 3})
    st.cs = cs
    st.se[(2, 3)] = SE.BRANCH
    st.find_count = 1
    st.best_epsilon = best_epsilon
    st.ts = ts
    return st


def _routed_to():
    # node 2 hangs below (1, 2) and holds no best edge, back edge or pending
    # proceed
    st = mk(2, False, 5, {(1, 2): 3, (2, 3): 3})
    st.cs = CS.INACTIVE
    st.se[(1, 2)] = SE.BRANCH
    st.in_branch = (1, 2)
    return st


_LAST_REPORT = ((2, 3), Report(INF, 0, INF), 4)


def test_decided_merge_without_best_edge_names_the_node():
    st = _leader_awaiting_last_report(CS.ACTIVE, 1, INF)  # 1 < eps2 = 5
    with pytest.raises(ProtocolError, match="merge at node 2 without a best edge"):
        transition(st, *_LAST_REPORT)


def test_routed_merge_without_best_edge_names_the_node():
    with pytest.raises(ProtocolError, match="merge at node 2 without a best edge"):
        transition(_routed_to(), (1, 2), Merge(), 4)


def test_decided_back_without_pending_proceed_names_the_node():
    st = _leader_awaiting_last_report(CS.INACTIVE, INF, 7)
    with pytest.raises(ProtocolError, match="back at node 2 without a back edge or a pending"):
        transition(st, *_LAST_REPORT)


def test_routed_back_without_pending_proceed_names_the_node():
    with pytest.raises(ProtocolError, match="back at node 2 without a back edge or a pending"):
        transition(_routed_to(), (1, 2), nd.Back(False), 4)


def test_decided_proceed_without_best_edge_names_the_node():
    st = _leader_awaiting_last_report(CS.INACTIVE, 2, INF)
    with pytest.raises(ProtocolError, match="proceed at node 2 without a best edge"):
        transition(st, *_LAST_REPORT)


def test_routed_proceed_without_best_edge_names_the_node():
    with pytest.raises(ProtocolError, match="proceed at node 2 without a best edge"):
        transition(_routed_to(), (1, 2), nd.Proceed(0), 4)


# ---------------------------------------------------------------------------
# The other states the protocol never reaches: each raise, from the smallest
# node 2 that reaches it


@pytest.mark.parametrize(
    "fields, event, match",
    [
        ({}, (None, None, 1), "spontaneous wakeup at a non-root node"),
        ({}, ((2, 3), Reject(), 4), r"delivery on unknown edge \(2, 3\) at node 2"),
        (
            {},
            ((1, 2), nd.UpdateInfo(0, True, True, 0, 0), 4),
            "deactivation flood inside the root component",
        ),
        (
            {"cs": CS.INACTIVE, "se": {(1, 2): SE.BRANCH}, "find_count": 1},
            ((1, 2), Report(INF, 0, INF), 4),
            "non-root leader 2 has no outgoing option and no pending proceed",
        ),
        (
            {"cs": CS.ACTIVE, "prize_flag": False, "se": {(1, 2): SE.BRANCH}, "find_count": 1},
            ((1, 2), Report(INF, 0, INF), 4),
            "decide reached in state CS.ACTIVE root_flag=True",
        ),
        (
            {"cs": CS.ACTIVE},
            ((1, 2), nd.Proceed(0), 4),
            "proceed delivered to an active component",
        ),
        (
            {"se": {(1, 2): SE.REJECTED}},
            ((1, 2), nd.Proceed(0), 4),
            r"proceed on rejected edge \(1, 2\)",
        ),
        (
            {},
            ((1, 2), Connect(0, 0, 0), 4),
            "odd halving of 3",
        ),
    ],
    ids=[
        "wakeup-at-non-root", "unknown-edge", "root-deactivation", "leader-without-option",
        "decide-in-root-active", "proceed-to-active", "proceed-on-rejected", "odd-halving",
    ],
)
def test_unreachable_state_raises(fields, event, match):
    st = mk(2, False, 5, {(1, 2): 3})
    for name, value in fields.items():
        setattr(st, name, value)
    with pytest.raises(ProtocolError, match=match):
        transition(st, *event)


# ---------------------------------------------------------------------------
# Facts the node state and the simulator rely on to store each value once


def _fact_corpus():
    """n = 2..20, m in {n-1, 2n, 3n} capped at C(n, 2), instance seed n,
    eager and seeded:0..1."""
    for n in range(2, 21):
        full = n * (n - 1) // 2
        for m in sorted({n - 1, min(2 * n, full), min(3 * n, full)}):
            inst = generate_random_instance(n, m, n)
            for seed in (None, 0, 1):
                yield inst, seed


def test_derived_state_facts_hold_on_every_transition(monkeypatch):
    # a pending proceed is its in-edge and its timestamp at once; a status
    # or reject arrives only while the receiver awaits a test answer, and a
    # report only while it awaits a report, so neither count goes below 0
    # and a node reports once per round; a back edge leads towards a
    # pending proceed, so it is set only with a finite timestamp; no node's
    # deficit exceeds its component's highest deficit as the node holds it;
    # the root decides prune once, and that decision opens the one prune
    # phase.  No transition changes a field of the message it receives: one
    # message object sits in its queue, its trace record and its handler,
    # and the message classes are not frozen.  The simulator calls
    # nd.transition and Simulation.step_once through their attributes once
    # per step, the root wakeup included, so wrappers patched there (as
    # perfbench's probes are) see every step.
    real = nd.transition
    real_step = Simulation.step_once
    checked = stepped = 0
    actions = []  # (node, round or decision record) of the current run

    def transition_checked(st, e, msg, seq):
        nonlocal checked
        assert st.d_h >= st.d_v
        if isinstance(msg, (Status, Reject)):
            assert st.test_count > 0
        elif isinstance(msg, Report):
            assert st.find_count > 0
        received = copy.copy(msg)
        emits = real(st, e, msg, seq)
        assert msg == received
        actions.extend((st.id, em) for em in emits if type(em) is not tuple)
        assert st.find_count >= 0 and st.test_count >= 0
        assert st.d_h >= st.d_v
        assert (st.proceed_in_edge is None) == (st.received_ts == INF)
        assert st.back_edge is None or st.ts != INF
        # integers in units of 1/S, the parity that makes each halving exact,
        # and the sign of d_h that a wake relies on (see node.py)
        assert all(type(x) is int for x in (st.d_v, st.d_h, st.comp_w, st.tp))
        assert type(st.best_epsilon) is int or st.best_epsilon == INF
        assert st.cs == CS.SLEEPING or (st.d_v - st.d_h) % 2 == 0
        assert st.d_h >= 0
        checked += 1
        return emits

    def step_counted(self):
        nonlocal stepped
        stepped += 1
        real_step(self)

    monkeypatch.setattr(nd, "transition", transition_checked)
    monkeypatch.setattr(Simulation, "step_once", step_counted)
    runs = steps = 0
    for inst, seed in _fact_corpus():
        actions.clear()
        s = run(inst, seed)
        steps += s.step
        # one prune decision, made by the root in a round it started
        prunes = [
            i for i, (_v, r) in enumerate(actions) if isinstance(r, EpsilonRecord) and r.chosen == "prune"
        ]
        assert [(actions[i - 1], actions[i][0]) for i in prunes] == [
            ((inst.root, RoundBoundary()), inst.root)
        ]
        runs += 1
    assert runs == 156 and checked > 80_000
    assert checked == stepped == steps
