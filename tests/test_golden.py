"""Golden-trace checks on the 11-node worked example.

The fixture reproduces the narrative values of the worked run: the (-1, 6)
merge round with its connect payload, the (15/2, 3) deactivation, the
proceed carrying highest deficit 15 out of a round whose epsilon was 10, and
the final penalty set.
"""

from fractions import Fraction

from dpcst import node as nd
from dpcst.node import EpsilonRecord
from dpcst.sim import Delivery, StateChange, run, extract_solution

F = Fraction


def _eps_records(trace):
    return [r for r in trace if isinstance(r, EpsilonRecord)]


def _action_after(trace, idx):
    """First protocol message delivered after trace[idx] (same run)."""
    for rec in trace[idx + 1 :]:
        if isinstance(rec, Delivery):
            return rec
    return None


def test_merge_round_minus_one_six(example11):
    trace = run(example11).trace
    hits = [
        (i, r)
        for i, r in enumerate(trace)
        if isinstance(r, EpsilonRecord) and r.eps1 == F(-1) and r.eps2 == F(6)
    ]
    assert len(hits) == 1
    idx, rec = hits[0]
    assert rec.chosen == "merge"


def test_merge_connect_payload(example11):
    # the sender is the link's first node
    trace = run(example11).trace
    connects = [
        (r.link[0], r.message)
        for r in trace
        if isinstance(r, Delivery) and isinstance(r.message, nd.Connect)
    ]
    assert (2, nd.Connect(F(14), F(7), F(7))) in connects


def test_deactivation_round_seven_halves_three(example11):
    trace = run(example11).trace
    hits = [
        r
        for r in trace
        if isinstance(r, EpsilonRecord) and r.eps1 == F(15, 2) and r.eps2 == F(3)
    ]
    assert len(hits) == 1
    assert hits[0].chosen == "deactivate"


def test_proceed_fifteen_with_epsilon_ten(example11):
    trace = run(example11).trace
    hits = [
        (i, r)
        for i, r in enumerate(trace)
        if isinstance(r, EpsilonRecord)
        and r.eps1 == F(10)
        and r.eps2 is None
        and r.chosen == "proceed"
    ]
    assert hits
    idx, rec = hits[0]
    nxt = _action_after(trace, idx)
    assert isinstance(nxt.message, nd.Proceed)
    assert nxt.message.d_h == 15


def test_wakeup_initializes_to_fifteen(example11):
    sim_ = run(example11)
    deliveries = [
        r
        for r in sim_.trace
        if isinstance(r, Delivery)
        and isinstance(r.message, nd.Proceed)
        and r.message.d_h == 15
    ]
    assert deliveries
    # the woken node settles at deficit and component weight 15: the state
    # changes up to the next delivery are its own
    changes = {}
    for r in sim_.trace[sim_.trace.index(deliveries[0]) + 1 :]:
        if isinstance(r, Delivery):
            break
        if isinstance(r, StateChange):
            changes[r.field] = r.new
    assert changes.get("d_v") == 15
    assert changes.get("comp_w") == 15


def test_final_penalty_set(example11):
    sol = extract_solution(run(example11))
    assert sol.penalty_nodes == {1, 2, 5, 7, 11}
    assert sol.steiner_nodes == {3, 4, 6, 8, 9, 10}
