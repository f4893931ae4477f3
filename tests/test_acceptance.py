"""Acceptance suite: one test per exit criterion, exact arithmetic, zero
tolerance.  Each test prints one PASS/FAIL line.

Shared corpus: 200 generated instances, n cycling over [2, 10], edge count
drawn uniformly in [n-1, n(n-1)/2] from a per-instance seed, integer weights
and prizes in [0, 20].  Everything derived from an instance (protocol run,
solution, exact optimum, reference solution, dual certificate) is computed
once and shared across criteria.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from conftest import check_identities, checking_ledger
from dpcst import gw, sim, verify
from dpcst import node as nd
from dpcst.exact import ExactResult, exact_pcst
from dpcst.instance import PcstInstance, Solution, generate_random_instance
from dpcst.node import EpsilonRecord
from dpcst.sim import Delivery, count_messages, extract_solution
from dpcst.verify import DualCertificate

N_INSTANCES = 200
N_RANDOM_SCHEDULES = 10


def corpus_instance(k: int) -> PcstInstance:
    n = 2 + k % 9
    m = random.Random(f"acceptance-{k}").randint(n - 1, n * (n - 1) // 2)
    return generate_random_instance(n, m, k, 20, 20)


@dataclass
class Case:
    k: int
    inst: PcstInstance
    solution: Solution
    trace: list
    exact: ExactResult
    gw_solution: Solution
    gw_cert: DualCertificate
    cert: DualCertificate | None
    replay_error: str | None

    @property
    def factor(self) -> Fraction:
        return Fraction(2) - Fraction(1, self.inst.n - 1)


@pytest.fixture(scope="module")
def corpus():
    """Every replay keeps its ledger through check_identities (criterion
    3); a failed identity is a replay error, like a divergence."""
    cases = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "MoatLedger", checking_ledger(check_identities))
        for k in range(N_INSTANCES):
            inst = corpus_instance(k)
            s = sim.run(inst)
            sol = extract_solution(s)
            res = exact_pcst(inst)
            gsol, gcert = gw.gw_solve(inst)
            cert, err = None, None
            try:
                cert = verify.reconstruct_duals(s.trace, inst)
            except (verify.ReplayDivergence, AssertionError) as exc:
                err = str(exc)
            cases.append(Case(k, inst, sol, s.trace, res, gsol, gcert, cert, err))
    return cases


def report(name: str, failures: list):
    status = "PASS" if not failures else f"FAIL ({len(failures)} instances)"
    print(f"\nACCEPTANCE {name}: {status}")
    for f in failures[:10]:
        print(f"  - {f}")
    assert not failures, f"{name}: {failures[:10]}"


def test_criterion_1_approximation_bound(corpus):
    """objective <= (2 - 1/(n-1)) * optimum, distributed and reference."""
    failures = []
    for c in corpus:
        cap = c.factor * c.exact.opt_value
        if c.solution.objective > cap:
            failures.append(f"k={c.k}: dpcst {c.solution.objective} > {cap}")
        if c.gw_solution.objective > cap:
            failures.append(f"k={c.k}: gw {c.gw_solution.objective} > {cap}")
    report("1 approximation bound", failures)


def test_criterion_2_dual_certificate_validity(corpus):
    """Both packing families feasible, branch edges and penalized deactivated
    components exactly tight, and total dual mass below the optimum."""
    failures = []
    for c in corpus:
        if c.cert is None:
            failures.append(f"k={c.k}: replay failed: {c.replay_error}")
            continue
        edge = verify.check_edge_packing(c.cert, c.inst)
        if not edge.ok:
            failures.append(f"k={c.k}: edge packing {edge.witnesses[:1]}")
        pen = verify.check_penalty_packing(c.cert, c.inst)
        if pen.status != "pass":  # the laminar check is exact at every n
            failures.append(f"k={c.k}: penalty packing {pen.status} {pen.witnesses[:1]}")
        if c.cert.total() > c.exact.opt_value:
            failures.append(
                f"k={c.k}: dual total {c.cert.total()} > optimum {c.exact.opt_value}"
            )
    report("2 dual certificate validity", failures)


def test_criterion_3_bookkeeping_identities(corpus):
    """Replayed deficits and component weights equal their moat sums, every
    moat summed again after every merge and deactivation, and the replay
    matches the traced state; reconstruction raises on any mismatch."""
    failures = [
        f"k={c.k}: {c.replay_error}" for c in corpus if c.replay_error is not None
    ]
    report("3 bookkeeping identities", failures)


def test_criterion_4_complexity_bounds(corpus):
    """Per-round and total message caps, round cap, proceed/back action caps,
    prune send caps, and single prune receipt per node."""
    failures = []
    for c in corpus:
        rep = verify.check_bounds(count_messages(c.trace), c.inst)
        if not rep.ok:
            failures.append(f"k={c.k}: {rep.witnesses[:2]}")
    report("4 complexity bounds", failures)


def test_criterion_5_termination_and_schedule_invariance(corpus):
    """Quiescence within budget under every schedule; identical output."""
    failures = []
    for c in corpus:
        try:
            for s2 in range(N_RANDOM_SCHEDULES):
                got = extract_solution(sim.run(c.inst, s2, sink=None))
                if got != c.solution:
                    failures.append(f"k={c.k}: seed {s2} solution differs")
                    break
        except sim.LivelockError as exc:
            failures.append(f"k={c.k}: {exc}")
        except nd.ProtocolError as exc:
            failures.append(f"k={c.k}: protocol error: {exc}")
    report("5 termination and schedule invariance", failures)


def test_criterion_6_golden_trace(example11):
    """The reconstructed worked example reproduces the narrative values."""
    failures = []
    s = sim.run(example11)
    trace = s.trace
    eps = [r for r in trace if isinstance(r, EpsilonRecord)]

    def has(eps1, eps2, chosen):
        return any(r.eps1 == eps1 and r.eps2 == eps2 and r.chosen == chosen for r in eps)

    if not has(Fraction(-1), Fraction(6), "merge"):
        failures.append("no (-1, 6) merge round")
    if not has(Fraction(15, 2), Fraction(3), "deactivate"):
        failures.append("no (15/2, 3) deactivation round")
    if not has(Fraction(10), None, "proceed"):
        failures.append("no (10, inf) proceed round")
    proceeds = [
        r.message
        for r in trace
        if isinstance(r, Delivery) and isinstance(r.message, nd.Proceed)
    ]
    if not any(p.d_h == 15 for p in proceeds):
        failures.append("no proceed carrying highest deficit 15")
    connects = [
        (r.link[0], r.message)
        for r in trace
        if isinstance(r, Delivery) and isinstance(r.message, nd.Connect)
    ]
    if (2, nd.Connect(Fraction(14), Fraction(7), Fraction(7))) not in connects:
        failures.append("connect payload (14, 7, 7) from node 2 missing")
    sol = extract_solution(s)
    if sol.penalty_nodes != {1, 2, 5, 7, 11}:
        failures.append(f"penalty set {sorted(sol.penalty_nodes)}")
    report("6 golden trace", failures)


def test_criterion_7_oracle_coherence(corpus):
    """The exact optimum lower-bounds both solvers; ties are forced at n=2."""
    failures = []
    for c in corpus:
        if c.exact.opt_value > c.solution.objective:
            failures.append(f"k={c.k}: optimum above dpcst objective")
        if c.exact.opt_value > c.gw_solution.objective:
            failures.append(f"k={c.k}: optimum above gw objective")
        if c.inst.n == 2 and c.solution.objective != c.exact.opt_value:
            failures.append(
                f"k={c.k}: n=2 factor is 1 but dpcst {c.solution.objective} != "
                f"optimum {c.exact.opt_value}"
            )
    report("7 oracle coherence", failures)
