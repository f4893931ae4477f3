"""Rooted PCST instances: text format, random generation, objective evaluation.

All weights and prizes are exact rationals (fractions.Fraction), because the
solvers decide "constraint became tight" by exact equality.  Edges are
identified by the unordered pair of endpoint ids, normalized to (min, max);
ties everywhere break lexicographically on that pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class InstanceError(ValueError):
    """Structural problem with an instance or a solution against it."""


class ParseError(InstanceError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedLine(ParseError):
    pass


class NegativeValue(ParseError):
    pass


class DuplicateEdge(ParseError):
    pass


class MissingRoot(ParseError):
    pass


class DisconnectedGraph(ParseError):
    pass


def parse_rational(text: str) -> Fraction:
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def adjacency(nodes, edges) -> dict[int, list[int]]:
    """Neighbor lists of the graph (nodes, edges); every edge joins two nodes."""
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def reachable(adj: dict[int, list[int]], start: int) -> set[int]:
    """The nodes reachable from start over the neighbor lists adj."""
    seen = {start}
    stack = [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


@dataclass
class PcstInstance:
    """Connected simple graph with nonnegative rational weights and prizes."""

    node_ids: list[int]
    root: int
    prizes: dict[int, Fraction]
    weights: dict[Edge, Fraction]
    _adj: dict[int, list[int]] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.node_ids = sorted(self.node_ids)
        self._adj = adjacency(self.node_ids, sorted(self.weights))
        for v in self.node_ids:
            self.prizes.setdefault(v, Fraction(0))

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def m(self) -> int:
        return len(self.weights)

    def neighbors(self, v: int) -> list[int]:
        return self._adj[v]

    def validate(self):
        if not self.node_ids:
            raise InstanceError("instance has no nodes")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise InstanceError("duplicate node ids")
        if any(v <= 0 for v in self.node_ids):
            raise InstanceError("node ids must be positive integers")
        if self.root not in set(self.node_ids):
            raise MissingRoot(f"root {self.root} is not a node")
        nodes = set(self.node_ids)
        for (u, v), w in self.weights.items():
            if u == v:
                raise InstanceError(f"self-loop at {u}")
            if (u, v) != norm_edge(u, v):
                raise InstanceError(f"edge {(u, v)} not normalized")
            if u not in nodes or v not in nodes:
                raise InstanceError(f"edge {(u, v)} references unknown node")
            if w < 0:
                raise NegativeValue(f"negative weight on edge {(u, v)}")
        for v, p in self.prizes.items():
            if p < 0:
                raise NegativeValue(f"negative prize at node {v}")
        if len(reachable(self._adj, self.root)) != len(self.node_ids):
            raise DisconnectedGraph("graph is not connected")


@dataclass(frozen=True)
class Solution:
    """A rooted tree plus the penalized remainder of the node set."""

    branch_edges: frozenset[Edge]
    steiner_nodes: frozenset[int]
    penalty_nodes: frozenset[int]
    objective: Fraction

    def to_json_dict(self) -> dict:
        return {
            "objective": format_rational(self.objective),
            "branch_edges": sorted([list(e) for e in self.branch_edges]),
            "steiner_nodes": sorted(self.steiner_nodes),
            "penalty_nodes": sorted(self.penalty_nodes),
        }


def make_solution(inst: PcstInstance, branch_edges, steiner_nodes) -> Solution:
    """Build a Solution, validating tree structure and computing the objective;
    the nodes outside the steiner part are the penalized ones."""
    branch = frozenset(norm_edge(u, v) for (u, v) in branch_edges)
    steiner = frozenset(steiner_nodes)
    nodes = frozenset(inst.node_ids)
    if inst.root not in steiner:
        raise InstanceError("root excluded from the steiner part")
    if not steiner <= nodes:
        raise InstanceError("steiner/penalty sets do not partition the nodes")
    for e in branch:
        if e not in inst.weights:
            raise InstanceError(f"branch edge {e} not in instance")
        if not (e[0] in steiner and e[1] in steiner):
            raise InstanceError(f"branch edge {e} leaves the steiner set")
    if len(branch) != len(steiner) - 1:
        raise InstanceError("branch set is not a tree on the steiner nodes")
    if reachable(adjacency(steiner, branch), inst.root) != steiner:
        raise InstanceError("branch edges do not span the steiner nodes")
    penalty = nodes - steiner
    objective = sum((inst.weights[e] for e in branch), Fraction(0))
    objective += sum((inst.prizes[v] for v in penalty), Fraction(0))
    return Solution(branch, steiner, penalty, objective)


def parse_instance(text: str) -> PcstInstance:
    """Parse the line-oriented instance format.

    nodes <id>...
    root <id>
    prize <id> <rational>     # omitted nodes default to prize 0
    edge <id> <id> <rational>

    '#' starts a comment; rationals are integers or p/q literals.
    """
    node_ids: list[int] = []
    root: int | None = None
    prizes: dict[int, Fraction] = {}
    weights: dict[Edge, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind == "nodes":
                node_ids.extend(int(a) for a in args)
            elif kind == "root":
                (a,) = args
                root = int(a)
            elif kind == "prize":
                v, p = args
                prizes[int(v)] = parse_rational(p)
            elif kind == "edge":
                u, v, w = args
                e = norm_edge(int(u), int(v))
                if e[0] == e[1]:
                    raise MalformedLine("self-loop edge", lineno)
                if e in weights:
                    raise DuplicateEdge(f"edge {e} repeated", lineno)
                weights[e] = parse_rational(w)
            else:
                raise MalformedLine(f"unknown directive {kind!r}", lineno)
        except ParseError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedLine(str(exc), lineno)
        if kind == "prize" and prizes[int(args[0])] < 0:
            raise NegativeValue(f"negative prize at node {args[0]}", lineno)
        if kind == "edge" and weights[norm_edge(int(args[0]), int(args[1]))] < 0:
            raise NegativeValue("negative edge weight", lineno)
    if root is None:
        raise MissingRoot("no root line")
    inst = PcstInstance(node_ids, root, prizes, weights)
    known = set(inst.node_ids)
    for v in prizes:
        if v not in known:
            raise MalformedLine(f"prize for unknown node {v}")
    for (u, v) in weights:
        if u not in known or v not in known:
            raise MalformedLine(f"edge ({u}, {v}) references unknown node")
    inst.validate()
    return inst


def render_instance(inst: PcstInstance) -> str:
    """Canonical text form: sorted nodes and edges, lowest-terms rationals."""
    lines = ["nodes " + " ".join(str(v) for v in inst.node_ids)]
    lines.append(f"root {inst.root}")
    for v in inst.node_ids:
        if inst.prizes[v] != 0:
            lines.append(f"prize {v} {format_rational(inst.prizes[v])}")
    for (u, v) in sorted(inst.weights):
        lines.append(f"edge {u} {v} {format_rational(inst.weights[(u, v)])}")
    return "\n".join(lines) + "\n"


def generate_random_instance(
    n: int, m: int, seed: int, weight_max: int = 20, prize_max: int = 20
) -> PcstInstance:
    """Connected simple graph: random spanning tree plus extra edges.

    Deterministic in the arguments; integer weights in [0, weight_max],
    integer prizes in [0, prize_max], root = smallest node id.
    """
    if n < 2:
        raise InstanceError("need n >= 2")
    if not (n - 1 <= m <= n * (n - 1) // 2):
        raise InstanceError(f"infeasible edge count m={m} for n={n}")
    rng = random.Random((n, m, seed, weight_max, prize_max).__repr__())
    node_ids = list(range(1, n + 1))
    edges: set[Edge] = set()
    order = node_ids[:]
    rng.shuffle(order)
    for i in range(1, n):
        edges.add(norm_edge(order[i], rng.choice(order[:i])))
    non_edges = [
        (u, v)
        for i, u in enumerate(node_ids)
        for v in node_ids[i + 1 :]
        if (u, v) not in edges
    ]
    rng.shuffle(non_edges)
    edges.update(non_edges[: m - (n - 1)])
    weights = {e: Fraction(rng.randint(0, weight_max)) for e in sorted(edges)}
    prizes = {v: Fraction(rng.randint(0, prize_max)) for v in node_ids}
    inst = PcstInstance(node_ids, min(node_ids), prizes, weights)
    inst.validate()
    return inst
