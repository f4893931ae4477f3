"""Rooted PCST instances: text format, random generation, objective evaluation.

All weights and prizes are exact rationals (fractions.Fraction), because the
solvers decide "constraint became tight" by exact equality.  Edges are
identified by the unordered pair of endpoint ids, normalized to (min, max);
ties everywhere break lexicographically on that pair.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class InstanceError(ValueError):
    """Structural problem with an instance or a solution against it."""


class ParseError(InstanceError):
    """An error in instance text, at a line."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


# ASCII digits only: int() would also take spaces, underscores, a plus sign
# and the digits of other scripts
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _shown(text: str) -> str:
    """text quoted, its middle cut out if it is long."""
    return repr(text) if len(text) <= 24 else f"{text[:10] + '...' + text[-10:]!r} ({len(text)} characters)"


def _int(text: str, digits: str, what: str) -> int:
    """int(digits), digits being text or a part of it; what says what text
    should hold."""
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{_shown(text)} is not {what} of at most {limit} digits") from None


def parse_int(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"{_shown(text)} is not an integer")
    return _int(text, text, "an integer")


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"{_shown(text)} is not an integer or p/q")
    num, _, den = text.partition("/")
    what = "an integer or p/q, each number"
    num, den = _int(text, num, what), _int(text, den or "1", what)
    if den == 0:
        raise ValueError("zero denominator")
    return Fraction(num, den)


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
    """Connected simple graph with nonnegative rational weights and prizes.

    The constructor is the one place that decides whether an instance is
    valid: it raises InstanceError on any broken rule, before it derives
    anything from the instance, so a PcstInstance that exists is valid.
    Prizes it is not given default to 0.
    """

    node_ids: list[int]
    root: int
    prizes: dict[int, Fraction]
    weights: dict[Edge, Fraction]

    def __post_init__(self):
        self.node_ids = sorted(self.node_ids)
        nodes = set(self.node_ids)
        if not nodes:
            raise InstanceError("instance has no nodes")
        if len(nodes) != len(self.node_ids):
            raise InstanceError("duplicate node ids")
        if self.node_ids[0] <= 0:
            raise InstanceError("node ids must be positive integers")
        if self.root not in nodes:
            raise InstanceError(f"root {self.root} is not a node")
        # a Fraction's sign is its numerator's, read far faster than a
        # Fraction comparison
        for (u, v), w in self.weights.items():
            if u >= v:
                raise InstanceError(f"edge {(u, v)} is not a pair (min, max) of distinct nodes")
            if u not in nodes or v not in nodes:
                raise InstanceError(f"edge {(u, v)} references unknown node")
            if w.numerator < 0:
                raise InstanceError(f"negative weight on edge {(u, v)}")
        for v, p in self.prizes.items():
            if v not in nodes:
                raise InstanceError(f"prize for unknown node {v}")
            if p.numerator < 0:
                raise InstanceError(f"negative prize at node {v}")
        self._adj = adjacency(self.node_ids, sorted(self.weights))
        if len(reachable(self._adj, self.root)) != len(nodes):
            raise InstanceError("graph is not connected")
        self.prizes.update((v, Fraction(0)) for v in self.node_ids if v not in self.prizes)

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def m(self) -> int:
        return len(self.weights)

    def neighbors(self, v: int) -> list[int]:
        return self._adj[v]


def common_denominator(inst: PcstInstance) -> int:
    """The lcm of the denominators of every weight and prize: each of them
    times it is an integer."""
    return lcm(*(x.denominator for x in (*inst.weights.values(), *inst.prizes.values())))


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

    '#' starts a comment; node ids are integers and rationals are integers
    or p/q literals, in ASCII digits.
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
                node_ids.extend(parse_int(a) for a in args)
            elif kind == "root":
                if len(args) != 1:
                    raise ValueError("root takes one node id")
                root = parse_int(args[0])
            elif kind == "prize":
                if len(args) != 2:
                    raise ValueError("prize takes a node id and a prize")
                v, p = parse_int(args[0]), parse_rational(args[1])
                if v in prizes:
                    raise ValueError(f"prize for node {v} repeated")
                if p < 0:
                    raise ValueError(f"negative prize at node {v}")
                prizes[v] = p
            elif kind == "edge":
                if len(args) != 3:
                    raise ValueError("edge takes two node ids and a weight")
                u, v, w = args
                e = norm_edge(parse_int(u), parse_int(v))
                if e[0] == e[1]:
                    raise ValueError("self-loop edge")
                if e in weights:
                    raise ValueError(f"edge {e} repeated")
                weights[e] = parse_rational(w)
                if weights[e] < 0:
                    raise ValueError("negative edge weight")
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    if root is None:
        raise InstanceError("no root line")
    return PcstInstance(node_ids, root, prizes, weights)


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
    if weight_max < 0 or prize_max < 0:
        raise InstanceError(f"weight_max={weight_max}, prize_max={prize_max}: both must be >= 0")
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
    return PcstInstance(node_ids, min(node_ids), prizes, weights)
