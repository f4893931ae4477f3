import hashlib
import json
from fractions import Fraction

from dpcst.exact import exact_pcst
from dpcst.gw import INF, gw_grow, gw_prune, gw_solve
from dpcst.instance import format_rational, generate_random_instance, parse_instance
from dpcst.verify import MoatLedger, check_edge_packing, check_penalty_packing, check_ratio


def _scanning_gw_grow(inst):
    """The growth loop gw_grow replaced, kept as the reference: every
    iteration re-sorts and re-scans all edges for the cheapest one between
    two components and re-sums the prizes of every active component."""
    lg = MoatLedger(inst.node_ids, inst.root)
    while True:
        active = sorted(r for r, a in lg.active.items() if a)
        if not active:
            break
        assert len(lg.forest) + len(lg.deactivated) < 2 * inst.n - 1
        best_edge_eps = INF
        best_edge = None
        for e in sorted(inst.weights):
            u, v = e
            ru, rv = lg.root_of[u], lg.root_of[v]
            if ru == rv:
                continue
            cs = lg.active[ru] + lg.active[rv]
            if cs == 0:
                continue
            eps = (inst.weights[e] - lg.d[u] - lg.d[v]) / cs
            if eps < best_edge_eps:
                best_edge_eps = eps
                best_edge = e
        best_pen_eps = INF
        best_pen = None
        for r in sorted(active, key=lambda r: max(lg.members[r])):
            eps = sum((inst.prizes[v] for v in lg.members[r]), Fraction(0)) - lg.w[r]
            if eps < best_pen_eps:
                best_pen_eps = eps
                best_pen = r
        eps = min(best_edge_eps, best_pen_eps)
        assert eps != INF
        for r in active:
            lg.grow(r, eps)
        if best_pen_eps <= best_edge_eps:
            lg.deactivate(best_pen)
        else:
            lg.union(*best_edge)
    return lg


def test_two_node_deactivate(checked_gw_grow):
    # first iteration: edge headroom 10, penalty headroom 3 -> deactivate
    inst = parse_instance("nodes 1 2\nroot 1\nprize 2 3\nedge 1 2 10")
    lg = checked_gw_grow(inst)
    assert lg.forest == set()
    assert lg.deactivated == [frozenset({2})]
    assert lg.y[frozenset({2})] == 3
    sol, cert = gw_solve(inst)
    assert sol.objective == 3


def test_two_node_merge(checked_gw_grow):
    inst = parse_instance("nodes 1 2\nroot 1\nprize 2 5\nedge 1 2 2")
    lg = checked_gw_grow(inst)
    assert lg.forest == {(1, 2)}
    sol, cert = gw_solve(inst)
    assert sol.objective == 2
    assert cert.cut_sum((1, 2)) == 2  # merged edge is tight


def test_single_node(checked_gw_grow):
    inst = parse_instance("nodes 3\nroot 3")
    lg = checked_gw_grow(inst)
    assert len(lg.forest) + len(lg.deactivated) == 0  # no iteration
    assert not lg.y
    sol, _ = gw_solve(inst)
    assert sol.steiner_nodes == {3}


def test_prune_keeps_unmarked_spanning_tree():
    # all prizes huge: nothing deactivates, nothing prunable
    inst = parse_instance(
        "nodes 1 2 3\nroot 1\nprize 2 100\nprize 3 100\nedge 1 2 2\nedge 2 3 2\nedge 1 3 9"
    )
    sol, _ = gw_solve(inst)
    assert sol.steiner_nodes == {1, 2, 3}
    assert len(sol.branch_edges) == 2


def test_prune_drops_hanging_deactivated_component():
    sol, _ = gw_solve(parse_instance("nodes 1 2\nroot 1\nprize 2 3\nedge 1 2 10"))
    assert sol.steiner_nodes == {1}
    assert sol.penalty_nodes == {2}


def test_iteration_cap_and_dual_identities(checked_gw_grow):
    for seed in range(12):
        inst = generate_random_instance(7, 10, seed)
        lg = checked_gw_grow(inst)  # re-checks invariants every iteration
        assert len(lg.forest) + len(lg.deactivated) <= 2 * inst.n - 1


def test_certificates_pass_shared_checker():
    for seed in range(15):
        inst = generate_random_instance(6, 8, seed + 50)
        sol, cert = gw_solve(inst)
        res = exact_pcst(inst)
        assert check_edge_packing(cert, inst).ok
        assert check_penalty_packing(cert, inst).ok
        assert check_ratio(cert, inst, res).ok


def test_branch_edges_tight_and_deactivated_tight():
    for seed in range(10):
        inst = generate_random_instance(7, 12, seed + 90)
        lg = gw_grow(inst)
        sol = gw_prune(inst, lg)
        for e in sol.branch_edges:
            cut = sum(
                (y for s, y in lg.y.items() if (e[0] in s) != (e[1] in s)), Fraction(0)
            )
            assert cut == inst.weights[e]
        for comp in lg.deactivated:
            inner = sum((y for s, y in lg.y.items() if s <= comp), Fraction(0))
            assert inner == sum((inst.prizes[v] for v in comp), Fraction(0))


def test_fixture_solution(example11, checked_gw_grow):
    lg = checked_gw_grow(example11)  # re-checks invariants every iteration
    sol = gw_prune(example11, lg)
    assert check_edge_packing(lg.certificate(sol), example11).status == "pass"
    assert sol.penalty_nodes == {1, 2, 5, 7, 11}


def test_event_queue_matches_scanning_reference(checked_gw_grow):
    # tie-heavy corpus: small weight and prize ranges make equal epsilons,
    # equal edge and penalty times and zero-width iterations common; the
    # ledgers must agree on moats in crediting order, deficits, weights, the
    # merge forest and the deactivations in order
    runs = 0
    for wmax, pmax in [(0, 0), (1, 1), (2, 2), (1, 4), (4, 1)]:
        for n in range(2, 41):
            full = n * (n - 1) // 2
            for m in sorted({n - 1, min(2 * n, full), min(3 * n, full)}):
                for seed in range(3 if n <= 20 else 1):
                    inst = generate_random_instance(n, m, seed, wmax, pmax)
                    got = (checked_gw_grow if n <= 12 else gw_grow)(inst)
                    ref = _scanning_gw_grow(inst)
                    assert list(got.y.items()) == list(ref.y.items()), (n, m, seed, wmax, pmax)
                    assert got.d == ref.d and got.w == ref.w
                    assert got.forest == ref.forest
                    assert got.deactivated == ref.deactivated
                    runs += 1
    assert runs == 1080


def test_gw_large_n_digest():
    # one SHA-256 over gw_solve's solution and certificate (moats in
    # crediting order with their masses, deactivated components in order)
    # at n = 40 to 320, m = 3n, and on the n = 60, m = 6n instance, pinned
    # while gw still scanned every edge each iteration
    h = hashlib.sha256()
    for args in [(40, 120, 1), (80, 240, 1), (160, 480, 1), (320, 960, 1), (60, 360, 1)]:
        sol, cert = gw_solve(generate_random_instance(*args))
        h.update(json.dumps(sol.to_json_dict()).encode())
        moats = [[sorted(m.nodes), format_rational(m.y)] for m in cert.moats]
        h.update(json.dumps(moats).encode())
        h.update(json.dumps([sorted(s) for s in cert.deactivated]).encode())
    assert h.hexdigest() == "5731a738b7296acec14c754546cb6279624dde612d8af07cc387b1dffecbec84"
