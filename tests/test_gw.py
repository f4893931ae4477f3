from fractions import Fraction

from dpcst.exact import exact_pcst
from dpcst.gw import gw_grow, gw_prune, gw_solve
from dpcst.instance import generate_random_instance, parse_instance
from dpcst.verify import check_edge_packing, check_penalty_packing, check_ratio


def test_two_node_deactivate():
    # first iteration: edge headroom 10, penalty headroom 3 -> deactivate
    inst = parse_instance("nodes 1 2\nroot 1\nprize 2 3\nedge 1 2 10")
    lg = gw_grow(inst, check=True)
    assert lg.forest == set()
    assert lg.deactivated == [frozenset({2})]
    assert lg.y[frozenset({2})] == 3
    sol, cert = gw_solve(inst)
    assert sol.objective == 3


def test_two_node_merge():
    inst = parse_instance("nodes 1 2\nroot 1\nprize 2 5\nedge 1 2 2")
    lg = gw_grow(inst, check=True)
    assert lg.forest == {(1, 2)}
    sol, cert = gw_solve(inst)
    assert sol.objective == 2
    assert cert.cut_sum((1, 2)) == 2  # merged edge is tight


def test_single_node():
    inst = parse_instance("nodes 3\nroot 3")
    lg = gw_grow(inst, check=True)
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


def test_iteration_cap_and_dual_identities():
    for seed in range(12):
        inst = generate_random_instance(7, 10, seed)
        lg = gw_grow(inst, check=True)  # re-checks invariants every iteration
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


def test_fixture_solution(example11):
    sol, cert = gw_solve(example11, check=True)
    assert sol.penalty_nodes == {1, 2, 5, 7, 11}
