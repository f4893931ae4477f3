import hashlib
import json
import random
from fractions import Fraction

import pytest

from conftest import check_identities, checking_ledger
from dpcst import sim, verify
from dpcst.exact import exact_pcst
from dpcst.gw import gw_solve
from dpcst.instance import format_rational, generate_random_instance, make_solution, parse_instance
from dpcst.node import EpsilonRecord, RoundBoundary
from dpcst.sim import count_messages, extract_solution, run
from dpcst.verify import (
    DualCertificate,
    Moat,
    ReplayDivergence,
    check_bounds,
    check_edge_packing,
    check_penalty_packing,
    check_ratio,
    reconstruct_duals,
    verify_trace,
)

F = Fraction


def y_of(cert: DualCertificate, nodes: frozenset[int]) -> Fraction:
    for m in cert.moats:
        if m.nodes == nodes:
            return m.y
    return Fraction(0)


def _run_and_reconstruct(text_or_inst):
    inst = parse_instance(text_or_inst) if isinstance(text_or_inst, str) else text_or_inst
    s = run(inst)
    sol = extract_solution(s)
    return inst, s, sol, reconstruct_duals(s.trace, inst)


def test_single_node_empty_certificate():
    inst, s, sol, cert = _run_and_reconstruct("nodes 1\nroot 1")
    assert cert.moats == []
    assert check_edge_packing(cert, inst).ok
    assert check_penalty_packing(cert, inst).ok


def test_two_node_merge_edge_tight():
    inst, s, sol, cert = _run_and_reconstruct("nodes 1 2\nroot 1\nprize 2 5\nedge 1 2 2")
    assert cert.cut_sum((1, 2)) == 2
    assert cert.total() == 2
    assert check_edge_packing(cert, inst).ok


def test_deactivated_singleton_penalty_tight():
    inst, s, sol, cert = _run_and_reconstruct("nodes 1 2\nroot 1\nprize 2 3\nedge 1 2 10")
    assert y_of(cert, frozenset({2})) == 3
    assert cert.deactivated == [frozenset({2})]
    rep = check_penalty_packing(cert, inst)
    assert rep.ok and rep.status == "pass"


def test_replayed_solution_equals_extracted_solution():
    # the certified solution comes from the trace alone (prize flags and the
    # merge forest); on honest runs it is the one the nodes' branch marks give
    runs = 0
    for n in range(2, 21):
        full = n * (n - 1) // 2
        for m in sorted({n - 1, min(2 * n, full), min(3 * n, full)}):
            inst = generate_random_instance(n, m, n)
            for seed in (None, n):
                s = run(inst, seed)
                assert reconstruct_duals(s.trace, inst).solution == extract_solution(s)
                runs += 1
    assert runs == 104


def _gw_and_replay_outputs_digest(feed) -> str:
    # one SHA-256 over every gw solution and certificate (moats in crediting
    # order with their masses, deactivated components in order) and every
    # verify_trace report of an eager corpus run, its records handed over as
    # feed(trace)
    h = hashlib.sha256()
    runs = 0
    for n in range(3, 13):
        full = n * (n - 1) // 2
        for m in sorted({n - 1, min(2 * n, full), min(3 * n, full)}):
            for seed in range(6):
                inst = generate_random_instance(n, m, seed)
                sol, cert = gw_solve(inst)
                h.update(json.dumps(sol.to_json_dict()).encode())
                moats = [[sorted(m.nodes), format_rational(m.y)] for m in cert.moats]
                h.update(json.dumps(moats).encode())
                h.update(json.dumps([sorted(s) for s in cert.deactivated]).encode())
                for rep in verify_trace(feed(run(inst).trace), inst):
                    h.update(json.dumps(rep.to_json_dict()).encode())
                runs += 1
    assert runs == 162
    return h.hexdigest()


# pinned before activity and the merge forest moved into MoatLedger; a
# rewrite of gw or the replay must leave it unchanged
GW_AND_REPLAY_DIGEST = "f74f333f4f6105b8630837809156dd15c0e863e193b6a04c3e8ba792fd710a44"


def test_gw_and_replay_outputs_digest():
    assert _gw_and_replay_outputs_digest(list) == GW_AND_REPLAY_DIGEST


def test_gw_and_replay_outputs_digest_from_one_shot_iterator():
    # verify_trace reads its records once, so an iterator does as a list does
    assert _gw_and_replay_outputs_digest(iter) == GW_AND_REPLAY_DIGEST


def test_replay_divergence_on_edited_epsilon(tmp_path):
    inst = parse_instance("nodes 1 2\nroot 1\nprize 2 3\nedge 1 2 10")
    s = run(inst)
    doctored = []
    for rec in s.trace:
        if isinstance(rec, EpsilonRecord) and rec.chosen == "deactivate":
            rec = EpsilonRecord(rec.eps1, rec.eps2 + 1, rec.chosen)
        doctored.append(rec)
    with pytest.raises(ReplayDivergence):
        reconstruct_duals(doctored, inst)


def test_replay_divergence_on_edited_connect_payload():
    from dpcst.node import Connect

    inst = parse_instance("nodes 1 2\nroot 1\nprize 2 5\nedge 1 2 2")
    s = run(inst)
    doctored = []
    for rec in s.trace:
        if isinstance(rec, sim.Delivery) and isinstance(rec.message, Connect):
            msg = rec.message
            rec = sim.Delivery(rec.link, rec.round, Connect(msg.comp_w, msg.deficit + 1, msg.d_h))
        doctored.append(rec)
    with pytest.raises(ReplayDivergence):
        reconstruct_duals(doctored, inst)


def test_replay_divergence_on_repeated_connect():
    from dpcst.node import Connect

    inst = parse_instance("nodes 1 2\nroot 1\nprize 2 5\nedge 1 2 2")
    s = run(inst)
    doctored = []
    for rec in s.trace:
        doctored.append(rec)
        if isinstance(rec, sim.Delivery) and isinstance(rec.message, Connect):
            # the same connect again, carrying the sender's deficit after the merge
            msg = rec.message
            again = Connect(msg.comp_w, inst.weights[(1, 2)], msg.d_h)
            doctored.append(sim.Delivery(rec.link, rec.round, again))
    with pytest.raises(ReplayDivergence):
        reconstruct_duals(doctored, inst)


def test_replay_requires_every_round_decision_and_phase_record():
    # an honest eager trace with any one round or decision record deleted,
    # or cut just before the root's prune decision, which ends the growth
    # phase
    inst = generate_random_instance(10, 20, 3)
    trace = run(inst).trace
    at = [i for i, r in enumerate(trace) if isinstance(r, (RoundBoundary, EpsilonRecord))]
    assert len(trace) == 535 and len(at) == 30
    reconstruct_duals(trace, inst)
    for i in at:
        with pytest.raises(ReplayDivergence, match="out of place|the trace ends where"):
            reconstruct_duals(trace[:i] + trace[i + 1 :], inst)
    prune = at[-1]
    assert trace[prune].chosen == "prune"
    with pytest.raises(ReplayDivergence, match="the trace ends where a decision record is due"):
        reconstruct_duals(trace[:prune], inst)


def _edit(trace, cls, k, edit):
    """trace with its k-th record of class cls replaced by the records edit returns."""
    i = [i for i, r in enumerate(trace) if isinstance(r, cls)][k]
    return trace[:i] + edit(trace[i]) + trace[i + 1 :]


@pytest.mark.parametrize(
    "doctor, culprit",
    [
        (lambda t: _edit(t, EpsilonRecord, 0, lambda r: [r, r]),
         "step 7: EpsilonRecord(eps1=Fraction(2, 1), eps2=None, chosen='proceed') at node 1 "
         "out of place; due: round in round 1, led by 1"),
        (lambda t: _edit(t, EpsilonRecord, 1, lambda r: [
            EpsilonRecord(r.eps1, r.eps2, "prune")]),
         "step 20: EpsilonRecord(eps1=Fraction(2, 1), eps2=Fraction(3, 1), chosen='prune') at node 7 "
         "out of place; due: decision in round 2, led by 7"),
        (lambda t: _move_past_next_delivery(t, EpsilonRecord, 0),
         "step 8: EpsilonRecord(eps1=Fraction(2, 1), eps2=None, chosen='proceed') at node 7 "
         "out of place; due: decision in round 1, led by 1"),
        (lambda t: t + [RoundBoundary()],
         "step 372: RoundBoundary() at node 5 out of place; due: nothing in round 15, led by 1"),
    ],
    ids=["two-decisions", "non-root-prune", "decision-of-another-node", "round-after-prune"],
)
def test_replay_rejects_misplaced_round_records(doctor, culprit):
    # the eager trace of test_replay_requires_every_round_decision_and_phase_record:
    # round 1 is the root's (node 1) proceed at step 7, round 2 node 7's
    # merge at step 20, round 15 the root's prune at step 362, and the last
    # delivery, step 372, is node 5's
    inst = generate_random_instance(10, 20, 3)
    with pytest.raises(ReplayDivergence) as exc:
        reconstruct_duals(doctor(run(inst).trace), inst)
    assert str(exc.value) == culprit


def _move_past_next_delivery(trace, cls, k):
    """trace with its k-th record of class cls moved to just after the first
    delivery that follows it, into that delivery's transition."""
    i = [i for i, r in enumerate(trace) if isinstance(r, cls)][k]
    j = next(j for j in range(i + 1, len(trace)) if isinstance(trace[j], sim.Delivery))
    return trace[:i] + trace[i + 1 : j + 1] + [trace[i]] + trace[j + 1 :]


@pytest.mark.parametrize("args, moved", [((10, 20, 3), 30), ((10, 30, 3), 34), ((12, 24, 1), 32)])
def test_replay_rejects_a_round_or_decision_moved_past_the_next_delivery(args, moved):
    # a round is led by the node of its transition and a decision is made
    # in its round leader's, so neither may move into the next delivery's
    # transition: every round and decision record of an eager trace, each
    # moved on its own (every one has a delivery after it)
    inst = generate_random_instance(*args)
    trace = run(inst).trace
    rejected = 0
    for cls in (RoundBoundary, EpsilonRecord):
        for k in range(sum(isinstance(r, cls) for r in trace)):
            with pytest.raises(ReplayDivergence):
                reconstruct_duals(_move_past_next_delivery(trace, cls, k), inst)
            rejected += 1
    assert rejected == moved


def test_edge_packing_flags_violation():
    inst = parse_instance("nodes 1 2\nroot 1\nprize 2 5\nedge 1 2 2")
    sol = make_solution(inst, [(1, 2)], [1, 2])
    cert = DualCertificate([Moat(frozenset({2}), F(3))], sol)
    rep = check_edge_packing(cert, inst)
    assert not rep.ok and rep.witnesses


def test_edge_packing_requires_branch_equality():
    inst = parse_instance("nodes 1 2\nroot 1\nprize 2 5\nedge 1 2 2")
    sol = make_solution(inst, [(1, 2)], [1, 2])
    cert = DualCertificate([Moat(frozenset({2}), F(1))], sol)  # slack on a branch edge
    rep = check_edge_packing(cert, inst)
    assert not rep.ok


def test_penalty_packing_exhaustive_flags_violation():
    inst = parse_instance("nodes 1 2 3\nroot 1\nprize 2 1\nprize 3 1\nedge 1 2 9\nedge 2 3 9\n")
    sol = make_solution(inst, [], [1])
    cert = DualCertificate([Moat(frozenset({2, 3}), F(3))], sol)
    rep = check_penalty_packing(cert, inst)
    assert not rep.ok
    assert any(w.get("set") == [2, 3] for w in rep.witnesses)


def test_penalty_packing_exact_beyond_twelve_nodes():
    inst = generate_random_instance(13, 14, 1)
    sol = make_solution(inst, [], [inst.root])
    assert check_penalty_packing(DualCertificate([], sol), inst).status == "pass"
    inst, s, sol, cert = _run_and_reconstruct(inst)
    assert check_penalty_packing(cert, inst).status == "pass"


def test_penalty_packing_flags_crossing_moats():
    inst = parse_instance(
        "nodes 1 2 3 4\nroot 1\nprize 2 5\nprize 3 5\nprize 4 5\nedge 1 2 9\nedge 2 3 9\nedge 3 4 9\n"
    )
    sol = make_solution(inst, [], [1])
    cert = DualCertificate([Moat(frozenset({2, 3}), F(1)), Moat(frozenset({3, 4}), F(1))], sol)
    rep = check_penalty_packing(cert, inst)
    assert rep.status == "violation"
    assert rep.witnesses == [{"set": [3, 4], "crosses": [2, 3], "reason": "not laminar"}]


def _exhaustive_penalty_witnesses(cert, inst):
    """Reference oracle: every root-free node subset, plus the root-moat and
    deactivated-tightness clauses of the checker."""
    witnesses = []
    others = sorted(v for v in inst.node_ids if v != inst.root)
    idx = {v: i for i, v in enumerate(others)}
    moat_masks = []
    for m in cert.moats:
        if inst.root in m.nodes:
            if m.y != 0:
                witnesses.append(sorted(m.nodes))
            continue
        mask = 0
        for v in m.nodes:
            mask |= 1 << idx[v]
        moat_masks.append((mask, m.y))
    for u_mask in range(1, 1 << len(others)):
        inner = sum((y for mask, y in moat_masks if mask & ~u_mask == 0), F(0))
        cap = sum((inst.prizes[v] for i, v in enumerate(others) if u_mask >> i & 1), F(0))
        if inner > cap:
            witnesses.append(u_mask)
    for comp in cert.deactivated:
        if comp <= cert.solution.penalty_nodes:
            if cert.inside_sum(comp) != sum((inst.prizes[v] for v in comp), F(0)):
                witnesses.append(sorted(comp))
    return witnesses


def test_penalty_packing_agrees_with_exhaustive_oracle():
    rng = random.Random(5)
    certs = []
    for seed in range(40):
        n = 3 + seed % 8
        inst = generate_random_instance(n, rng.randint(n - 1, n * (n - 1) // 2), seed + 300)
        certs.append((inst, _run_and_reconstruct(inst)[3]))
        certs.append((inst, gw_solve(inst)[1]))
    perturbed = []
    for inst, cert in certs:
        for _ in range(3):
            # signed masses on the same laminar sets; without the deactivated
            # list only the packing itself decides
            moats = [Moat(m.nodes, m.y + F(rng.randint(-8, 8), rng.randint(1, 4))) for m in cert.moats]
            perturbed.append((inst, DualCertificate(moats, cert.solution)))
    violating = 0
    for inst, cert in certs + perturbed:
        expected = not _exhaustive_penalty_witnesses(cert, inst)
        assert check_penalty_packing(cert, inst).ok == expected
        violating += not expected
    assert violating >= 100
    assert violating <= len(certs + perturbed) - 100


def test_ratio_factor_one_at_two_nodes():
    inst, s, sol, cert = _run_and_reconstruct("nodes 1 2\nroot 1\nprize 2 3\nedge 1 2 10")
    res = exact_pcst(inst)
    rep = check_ratio(cert, inst, res)
    assert rep.ok
    assert sol.objective == cert.total() == res.opt_value == 3


def test_bounds_pass_on_clean_run():
    inst = generate_random_instance(6, 9, 23)
    s = run(inst)
    assert check_bounds(count_messages(s.trace), inst).ok


def test_bounds_flag_round_overflow():
    inst = generate_random_instance(4, 4, 3)
    s = run(inst)
    doctored = list(s.trace) + [
        RoundBoundary() for i in range(100)
    ]
    rep = check_bounds(count_messages(doctored), inst)
    assert not rep.ok
    assert any("rounds" in w for w in rep.witnesses)


def test_verify_trace_end_to_end(example11):
    reports = verify_trace(run(example11).trace, example11, exact_pcst)
    assert all(r.ok for r in reports)


def test_identities_hold_at_round_boundaries_randomized(monkeypatch):
    # the replay's ledger keeps its deficits and weights equal to their moat
    # sums through every merge and deactivation
    monkeypatch.setattr(verify, "MoatLedger", checking_ledger(check_identities))
    for seed in range(25):
        n = 3 + seed % 7
        inst = generate_random_instance(n, min(n + 2, n * (n - 1) // 2), seed)
        s = run(inst)
        reconstruct_duals(s.trace, inst)

