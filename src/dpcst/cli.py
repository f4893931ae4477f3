"""Batch front end: generate, solve, verify, and render instances.

Exit codes: 0 ok, 1 usage or I/O error, 2 verification violation, 3 internal
divergence (replay disagrees with the trace).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import gw, sim, verify
from .exact import MAX_EXACT_NODES, exact_pcst
from .instance import (
    InstanceError,
    PcstInstance,
    Solution,
    format_rational,
    generate_random_instance,
    make_solution,
    parse_instance,
    parse_int,
    render_instance,
)


def _read_instance(path: str) -> PcstInstance:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_instance(text)


def _parse_schedule(text: str) -> int | None:
    """The seed a --schedule value names: None for eager, n for seeded:<n>."""
    if text == "eager":
        return None
    if text.startswith("seeded:"):
        try:
            return parse_int(text[len("seeded:"):])
        except ValueError:
            pass
    raise InstanceError(f"unknown schedule {text!r} (want eager or seeded:<n>)")


def _int_option(text: str) -> int:
    """parse_int for an option, whose error argparse reports as given."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _solve_dpcst(inst: PcstInstance, seed: int | None, trace: str | None) -> Solution:
    """The protocol's solution.  Given a trace path, the run writes each
    record's line there as soon as the record is made, and a run that
    raises leaves no file there."""
    if not trace:
        return sim.extract_solution(sim.run(inst, seed, None))
    fh = open(trace, "w")
    try:
        with fh:
            return sim.extract_solution(sim.run(inst, seed, sim.line_writer(fh)))
    except BaseException:
        if os.path.isfile(trace) and not os.path.islink(trace):  # never a device or its link
            os.remove(trace)
        raise


def _node_list(x) -> bool:
    return isinstance(x, list) and all(type(v) is int for v in x)


def _read_solution(inst: PcstInstance, path: str) -> Solution:
    """The solution a solve wrote to path, checked against inst."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    # bad UTF-8, bad JSON, or nested too deep
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InstanceError(f"{path}: not a JSON solution: {exc}") from None
    except ValueError:  # the decoder's one other error: int() refused the digits
        limit = sys.get_int_max_str_digits()
        raise InstanceError(f"{path}: a solution integer has at most {limit} digits") from None
    if not isinstance(data, dict):
        raise InstanceError(f"{path}: a solution is a JSON object, not {type(data).__name__}")
    keys = ("objective", "branch_edges", "steiner_nodes", "penalty_nodes")
    missing = [k for k in keys if k not in data]
    if missing:
        raise InstanceError(f"{path}: solution has no {', '.join(missing)}")
    branch, steiner, penalty = data["branch_edges"], data["steiner_nodes"], data["penalty_nodes"]
    if not (isinstance(branch, list) and all(_node_list(e) and len(e) == 2 for e in branch)):
        raise InstanceError(f"{path}: branch_edges is not a list of node pairs")
    for key, nodes in (("steiner_nodes", steiner), ("penalty_nodes", penalty)):
        if not _node_list(nodes) or len(set(nodes)) != len(nodes):
            raise InstanceError(f"{path}: {key} is not a list of distinct nodes")
    if set(penalty) != set(inst.node_ids) - set(steiner):
        raise InstanceError(f"{path}: penalty_nodes is not the complement of steiner_nodes")
    sol = make_solution(inst, [tuple(e) for e in branch], steiner)
    if format_rational(sol.objective) != data["objective"]:
        raise InstanceError("solution file objective does not match the instance")
    return sol


def cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    if args.alg == "exact":
        res = exact_pcst(inst)
        sol = res.best
    elif args.alg == "gw":
        sol, _cert = gw.gw_solve(inst)
    else:  # dpcst; argparse admits no other choice
        sol = _solve_dpcst(inst, _parse_schedule(args.schedule), args.trace)
    out = sol.to_json_dict()
    out["algorithm"] = args.alg
    print(json.dumps(out, indent=None if args.json else 2, sort_keys=False))
    return 0


def cmd_verify(args) -> int:
    inst = _read_instance(args.instance)
    trace = sim.read_trace(args.trace)
    oracle = exact_pcst if inst.n <= MAX_EXACT_NODES and not args.no_exact else None
    try:
        reports = verify.verify_trace(trace, inst, oracle)
    except verify.ReplayDivergence as exc:
        print(json.dumps({"check": "replay", "status": "divergence", "witnesses": [str(exc)]}))
        return 3
    for rep in reports:
        print(json.dumps(rep.to_json_dict()))
    return 0 if all(r.ok for r in reports) else 2


def cmd_render(args) -> int:
    inst = _read_instance(args.instance)
    print(render_dot(inst, _read_solution(inst, args.solution)))
    return 0


def cmd_gen(args) -> int:
    inst = generate_random_instance(args.n, args.m, args.seed, args.wmax, args.pmax)
    sys.stdout.write(render_instance(inst))
    return 0


def render_dot(inst: PcstInstance, sol: Solution) -> str:
    """DOT text: bold branch edges, dashed penalty nodes, double-circled root."""
    lines = ["graph pcst {"]
    for v in inst.node_ids:
        attrs = ["shape=doublecircle"] if v == inst.root else []
        attrs += ["style=filled", "fillcolor=lightgray"] if v in sol.steiner_nodes else ["style=dashed"]
        attrs.append(f'label="{v} (p={format_rational(inst.prizes[v])})"')
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for (u, v) in sorted(inst.weights):
        style = "bold" if (u, v) in sol.branch_edges else "dotted"
        lines.append(f'  {u} -- {v} [label="{format_rational(inst.weights[(u, v)])}", style={style}];')
    lines.append("}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors go to main's error path, not
    to argparse's own exit 2, the code of a verification violation."""

    def error(self, message):
        raise InstanceError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dpcst", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance")
    ps.add_argument("instance", help="instance file path")
    ps.add_argument("--alg", choices=["dpcst", "gw", "exact"], default="dpcst")
    ps.add_argument("--schedule", default="eager", help="eager or seeded:<n>")
    ps.add_argument("--trace", help="write the JSON-lines trace here (dpcst only)")
    ps.add_argument("--json", action="store_true", help="single-line JSON output")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", help="verify a trace against its instance")
    pv.add_argument("instance")
    pv.add_argument("trace")
    pv.add_argument("--no-exact", action="store_true", help="skip the exact-optimum bound")
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("render", help="render a solution as DOT")
    pr.add_argument("instance")
    pr.add_argument("solution", help="solution JSON written by solve")
    pr.set_defaults(func=cmd_render)

    pg = sub.add_parser("gen", help="emit a random instance in text form")
    pg.add_argument("--n", type=_int_option, required=True)
    pg.add_argument("--m", type=_int_option, required=True)
    pg.add_argument("--seed", type=_int_option, default=0)
    pg.add_argument("--wmax", type=_int_option, default=20)
    pg.add_argument("--pmax", type=_int_option, default=20)
    pg.set_defaults(func=cmd_gen)
    return p


_PARSER = build_parser()  # built once: parse_args keeps each call's options apart


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except (InstanceError, OSError, sim.TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
