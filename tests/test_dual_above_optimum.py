"""Pinned executions whose dual total exceeds the optimum.

Weak duality, dual total <= optimum, holds for a dual of the
Goemans-Williamson LP, whose every moat has y >= 0.  A connect whose epsilon
is negative leaves a negative moat in the replayed certificate (ROADMAP item
19), and with enough of them the total rises above the optimum.  The
solution itself stays within the proven factor of the optimum; `verify`
reports the ratio check's violation and exits 2.
"""

import json
from fractions import Fraction

import pytest

from dpcst.cli import main
from dpcst.exact import exact_pcst
from dpcst.instance import format_rational, generate_random_instance, render_instance
from dpcst.sim import extract_solution, run
from dpcst.verify import reconstruct_duals

# (n, m, seed) -> objective, optimum, dual total and the negative moats
PINS = {
    (7, 14, 244167651): (36, 20, Fraction(49, 2), {(5, 7): Fraction(-9, 2), (2, 5, 7): Fraction(-7, 2)}),
    (8, 16, 311567334): (17, 15, Fraction(31, 2), {(7, 8): Fraction(-1), (4, 7, 8): Fraction(-1, 2)}),
}


@pytest.mark.parametrize("schedule", [None, 0, 1, 319557])
@pytest.mark.parametrize("args", list(PINS))
def test_negative_moats_lift_the_dual_total_above_the_optimum(args, schedule):
    objective, optimum, total, negative = PINS[args]
    inst = generate_random_instance(*args)
    s = run(inst, schedule)
    cert = reconstruct_duals(s.trace, inst)  # replay itself is consistent
    assert {tuple(sorted(m.nodes)): m.y for m in cert.moats if m.y < 0} == negative
    assert cert.total() == total > optimum == exact_pcst(inst).opt_value
    sol = extract_solution(s)
    assert sol.objective == objective <= (Fraction(2) - Fraction(1, inst.n - 1)) * optimum


@pytest.mark.parametrize("args", list(PINS))
def test_verify_exits_two_on_the_ratio(args, tmp_path, capsys):
    _, optimum, total, _ = PINS[args]
    inst_path, trace_path = tmp_path / "g.pcst", tmp_path / "t.jsonl"
    inst_path.write_text(render_instance(generate_random_instance(*args)))
    assert main(["solve", "--trace", str(trace_path), str(inst_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(inst_path), str(trace_path)]) == 2
    reports = {r["check"]: r for r in map(json.loads, capsys.readouterr().out.splitlines())}
    assert [c for c, r in reports.items() if r["status"] != "pass"] == ["ratio"]
    witness = {"dual_total": format_rational(total), "optimum": str(optimum)}
    assert reports["ratio"]["witnesses"] == [witness]
