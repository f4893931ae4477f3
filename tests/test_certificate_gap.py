"""A pinned execution where the dual certificate under-witnesses the tree.

The protocol initializes woken nodes to the waking component's highest
deficit, and that credit is real moat mass.  On this instance the
exploration order builds an all-tight tree whose average moat cut-degree
exceeds the approximation factor, so objective <= factor * (total dual) fails
even though the bound against the true optimum and every feasibility /
tightness property still hold.  The certificate is a valid lower-bound
witness, just not a tight one here.
"""

import random
from fractions import Fraction

from dpcst import verify
from dpcst.exact import exact_pcst
from dpcst.instance import generate_random_instance
from dpcst.sim import extract_solution, run
from dpcst.verify import reconstruct_duals

SEED = 103


def _instance():
    n = 2 + SEED % 9
    m = random.Random(SEED * 31).randint(n - 1, n * (n - 1) // 2)
    return generate_random_instance(n, m, SEED)


def test_certificate_can_underwitness_while_true_bound_holds():
    inst = _instance()
    s = run(inst)
    sol = extract_solution(s)
    cert = reconstruct_duals(s.trace, inst)
    res = exact_pcst(inst)
    factor = Fraction(2) - Fraction(1, inst.n - 1)

    assert sol.objective == 53
    assert cert.total() == Fraction(57, 2)
    assert res.opt_value == 35
    # the certificate-side inequality fails on this execution...
    assert sol.objective > factor * cert.total()
    # ...while everything the certificate is for still holds exactly
    assert cert.total() <= res.opt_value
    assert sol.objective <= factor * res.opt_value
    assert verify.check_edge_packing(cert, inst).ok
    rep = verify.check_penalty_packing(cert, inst)
    assert rep.ok and rep.status == "pass"
