"""Property tests tying the three solvers and the verifier together on
arbitrary generated instances."""

import random
from fractions import Fraction

from hypothesis import given, settings
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
@settings(max_examples=40, deadline=None)
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
@settings(max_examples=25, deadline=None)
def test_certificate_reconstructs_from_any_schedule(n, seed, schedule_seed):
    m = random.Random(seed).randint(n - 1, n * (n - 1) // 2)
    inst = generate_random_instance(n, m, seed)
    s = run(inst, schedule_seed)
    sol = extract_solution(s)
    cert = reconstruct_duals(s.trace, inst)  # raises on any identity break
    assert verify.check_edge_packing(cert, inst).ok
    assert verify.check_penalty_packing(cert, inst).ok
    assert cert.total() <= exact_pcst(inst).opt_value
