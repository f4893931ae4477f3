"""Property tests tying the three solvers and the verifier together on
arbitrary generated instances."""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcst import verify
from dpcst.exact import exact_pcst
from dpcst.instance import generate_random_instance
from dpcst.gw import gw_solve
from dpcst.sim import extract_solution, run
from dpcst.verify import reconstruct_duals


@given(
    n=st.integers(min_value=2, max_value=9),
    seed=st.integers(min_value=0, max_value=10**9),
    density=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_protocol_only_loses_the_proven_factor(n, seed, density):
    lo, hi = n - 1, n * (n - 1) // 2
    m = lo + int(density * (hi - lo))
    inst = generate_random_instance(n, m, seed)
    factor = Fraction(2) - Fraction(1, n - 1)
    opt = exact_pcst(inst).opt_value
    sol = extract_solution(run(inst))
    gsol, _ = gw_solve(inst)
    assert opt <= sol.objective <= factor * opt
    assert opt <= gsol.objective <= factor * opt


@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10**9),
    schedule_seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=25, deadline=None, derandomize=True)
# known executions that break the certificate: an edge overpacked past its
# weight (see test_refusal_overshoot.py), and a dual total above the optimum
# from negative moats (see test_dual_above_optimum.py)
@example(n=8, seed=84, schedule_seed=0).xfail(
    raises=AssertionError, reason="edge (4, 5) packed to 8 against a weight of 3"
)
@example(n=8, seed=123650408, schedule_seed=221553).xfail(
    raises=AssertionError, reason="edge (1, 8) packed to 2 against a weight of 1"
)
@example(n=7, seed=244167651, schedule_seed=319557).xfail(
    raises=AssertionError, reason="dual total 49/2 above the optimum 20"
)
@example(n=8, seed=311567334, schedule_seed=875958).xfail(
    raises=AssertionError, reason="dual total 31/2 above the optimum 15"
)
def test_certificate_reconstructs_from_any_schedule(n, seed, schedule_seed):
    m = random.Random(seed).randint(n - 1, n * (n - 1) // 2)
    inst = generate_random_instance(n, m, seed)
    s = run(inst, schedule_seed)
    sol = extract_solution(s)
    cert = reconstruct_duals(s.trace, inst)  # raises on any identity break
    assert verify.check_edge_packing(cert, inst).ok
    assert verify.check_penalty_packing(cert, inst).ok
    assert cert.total() <= exact_pcst(inst).opt_value
