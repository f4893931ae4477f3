"""Pruning reachability edge cases.

Small topologies pin down how prune forwarding over proceed-marked (EPM)
edges reaches every node exactly once:

* a component that explored, gave up, and went dormant is reachable only
  through the edge that woke it, so that edge must carry a prune even though
  a back already traveled over it;
* a woken node that ends up merging into the root component through a
  different edge answers its waker with a rooted back; the waker drops its
  EPM mark, so the wake edge carries no second prune to the woken node;
* a node whose child prunes itself back has already forwarded the prune over
  its EPM edges, so its own backward prune sends nothing over them again.
"""

from collections import Counter
from functools import cache

import pytest

from dpcst import node as nd
from dpcst.exact import exact_pcst
from dpcst.instance import generate_random_instance, parse_instance
from dpcst.sim import Delivery, count_messages, extract_solution, run
from dpcst.verify import check_bounds, check_edge_packing, check_penalty_packing, reconstruct_duals

# root proceeds to 2; {2,3} forms, deactivates, hands control back; only the
# EPM edge (1,2) can still deliver the reset to the dormant pair
DORMANT_PAIR = """
nodes 1 2 3
root 1
prize 2 5
prize 3 4
edge 1 2 10
edge 2 3 2
"""

# chain of dormant singletons 3 and 4; node 5 is woken by 4 but merges into
# the root component through the cheap edge (1,5); its rooted back clears
# 4's wake-edge mark, so the prune reaches 5 only over the tree
DOUBLE_DELIVERY = """
nodes 1 2 3 4 5
root 1
prize 1 17
prize 2 18
prize 4 6
prize 5 18
edge 1 2 0
edge 1 3 9
edge 1 4 10
edge 1 5 2
edge 2 3 1
edge 2 4 6
edge 2 5 19
edge 3 4 8
edge 4 5 17
"""

# 3 wakes 5 over (3,5); the two later merge over that edge and join the root
# component as a labelled branch, which the prune removes.  3 forwards the
# prune to 5 once; when 5 prunes itself back, 3 must not resend it over the
# wake edge (a reduction of acceptance corpus instance 34)
BACKWARD_PRUNE_CASCADE = """
nodes 1 2 3 4 5
root 1
prize 4 2
edge 1 2 1
edge 2 3 0
edge 2 4 0
edge 3 5 0
"""


def prune_links(trace) -> Counter:
    return Counter(
        r.link for r in trace if isinstance(r, Delivery) and isinstance(r.message, nd.Prune)
    )


def test_dormant_pair_gets_reset_through_wake_edge():
    inst = parse_instance(DORMANT_PAIR)
    s = run(inst)
    sol = extract_solution(s)
    assert sol.steiner_nodes == {1}
    assert sol.penalty_nodes == {2, 3}
    # both sides of the internal branch edge were reset by the prune
    assert s.nodes[2].se[(2, 3)] == nd.SE.BASIC
    assert s.nodes[3].se[(2, 3)] == nd.SE.BASIC
    counts = count_messages(s.trace)
    assert counts["by_type"].get("Prune", 0) >= 2  # wake edge plus the pair's own
    assert all(c == 1 for c in counts["prune_receipts"].values())
    assert sol.objective == exact_pcst(inst).opt_value


def test_double_delivery_is_ignored_and_output_stays_valid():
    inst = parse_instance(DOUBLE_DELIVERY)
    s = run(inst)
    sol = extract_solution(s)  # validates tree structure and the partition
    counts = count_messages(s.trace)
    n = inst.n
    assert counts["by_type"]["Prune"] <= 2 * n - 2
    # the node that merged into the root component away from its wake edge
    # hears the prune once, over the tree, like everyone else
    receipts = counts["prune_receipts"]
    assert receipts == {v: 1 for v in inst.node_ids if v != inst.root}
    assert not s.nodes[4].epm[(4, 5)]
    assert prune_links(s.trace)[(4, 5)] == 0
    cert = reconstruct_duals(s.trace, inst)
    assert check_edge_packing(cert, inst).ok
    assert check_penalty_packing(cert, inst).ok
    res = exact_pcst(inst)
    assert cert.total() <= res.opt_value


def test_backward_prune_cascade_sends_each_prune_once():
    inst = parse_instance(BACKWARD_PRUNE_CASCADE)
    s = run(inst)
    sol = extract_solution(s)
    assert sol.steiner_nodes == {1, 2, 4}
    assert sol.penalty_nodes == {3, 5}
    links = prune_links(s.trace)
    assert links[(3, 5)] == 1
    assert all(c == 1 for c in links.values())
    counts = count_messages(s.trace)
    assert counts["prune_receipts"] == {v: 1 for v in inst.node_ids if v != inst.root}
    assert counts["by_type"]["BackwardPrune"] == 2  # 5, then 3
    assert sol.objective == exact_pcst(inst).opt_value


# Eager runs (generate_random_instance arguments) in which a node still
# receives its Prune twice, with those nodes: the fault that remains after
# Back carried the sender's root flag.  Once the protocol is mended the strict
# xfail below passes, which fails the suite until the pins are updated.
DUPLICATE_PRUNE_RUNS = {
    (23, 46, 6): [11],
    (23, 69, 1): [5, 19],
    (30, 90, 4): [25],
    (32, 96, 3): [31],
    (120, 240, 1): [19],
}


@cache
def _bounds_report(args):
    inst = generate_random_instance(*args)
    return check_bounds(count_messages(run(inst).trace), inst)


@pytest.mark.parametrize("args", DUPLICATE_PRUNE_RUNS, ids=lambda a: "-".join(map(str, a)))
def test_duplicate_prune_runs_break_only_the_prune_receipt_cap(args):
    witnesses = _bounds_report(args).witnesses
    assert witnesses == [
        {"node": v, "prune_receipts": 2, "cap": 1} for v in DUPLICATE_PRUNE_RUNS[args]
    ]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a node receives one Prune twice")
@pytest.mark.parametrize("args", DUPLICATE_PRUNE_RUNS, ids=lambda a: "-".join(map(str, a)))
def test_every_node_receives_one_prune_on_duplicate_prune_runs(args):
    assert _bounds_report(args).ok
