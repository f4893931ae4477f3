"""Exploration completeness when a back answers a proceed.

The component that sent a proceed may still have live options (sleeping
neighbors, refind edges) when the answer comes back, so the receiving
leader must recompute its epsilon rather than blindly unwinding its own
pending.  On this instance the gateway node 3 separates the root from
nodes 2 and 5; after its first probe toward node 4 is answered, node 3
must go on to wake node 5, or the zero-weight spanning solution is never
found and the approximation bound itself breaks.
"""

from fractions import Fraction

from dpcst.exact import exact_pcst
from dpcst.instance import parse_instance
from dpcst.sim import extract_solution, run

GATEWAY = """
nodes 1 2 3 4 5
root 1
prize 1 1
prize 5 1
edge 1 3 0
edge 1 4 1
edge 2 3 1
edge 2 5 0
edge 3 4 0
edge 3 5 0
"""


def test_gateway_component_resumes_exploration_after_back():
    inst = parse_instance(GATEWAY)
    res = exact_pcst(inst)
    assert res.opt_value == 0
    sol = extract_solution(run(inst))
    factor = Fraction(2) - Fraction(1, inst.n - 1)
    assert sol.objective <= factor * res.opt_value
    assert sol.objective == 0
    # every node is reached: prize 5's node joins the tree, the rest cost 0
    assert 5 in sol.steiner_nodes
    for seed in range(10):
        assert extract_solution(run(inst, seed)) == sol
