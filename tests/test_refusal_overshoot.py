"""A pinned execution where a refusal overgrows a moat past a dead edge.

A sleeping node that refuses a connect prices only the connecting edge
before settling its moat at its full prize.  Its other incident edges are
never priced again (both endpoints end inactive, and inactive components do
not see each other), so when such a node also neighbors an earlier
deactivated component the edge between the two corpses can end up
overpacked.  The verifier reports it; the edge is never part of any
solution, and the optimum-side guarantees are unaffected.
"""

import random
from fractions import Fraction

from dpcst import verify
from dpcst.exact import exact_pcst
from dpcst.instance import generate_random_instance
from dpcst.sim import extract_solution, run
from dpcst.verify import reconstruct_duals

SEED = 3858


def _instance():
    n = 2 + SEED % 9
    rng = random.Random(f"scan-{SEED}")
    m = rng.randint(n - 1, n * (n - 1) // 2)
    wmax = rng.choice([1, 2, 3, 5, 8, 20])
    pmax = rng.choice([2, 5, 8, 12, 20])
    return generate_random_instance(n, m, SEED, wmax, pmax)


def test_refusal_can_overpack_an_edge_between_dead_components():
    inst = _instance()
    s = run(inst)
    sol = extract_solution(s)
    cert = reconstruct_duals(s.trace, inst)  # replay itself is consistent
    rep = verify.check_edge_packing(cert, inst)
    assert not rep.ok
    violated = {tuple(w["edge"]) for w in rep.witnesses}
    assert violated == {(5, 8)}
    assert not violated & sol.branch_edges  # never a solution edge
    # the certificate stays a valid optimum witness and the solution is fine
    res = exact_pcst(inst)
    factor = Fraction(2) - Fraction(1, inst.n - 1)
    assert cert.total() <= res.opt_value
    assert sol.objective <= factor * res.opt_value
    assert verify.check_penalty_packing(cert, inst).ok
