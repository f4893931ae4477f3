"""Instrumentation installed from the benchmark's side, by patching the module
attribute through which each layer is called.

``Probe(traced=False)`` only keeps the return values of ``sim.run``,
``cli.exact_pcst`` and ``verify.reconstruct_duals`` (one extra call per
command), which the harness needs to count deliveries and to check
objectives against the optimum.  ``Probe(traced=True)`` also times every
layer in process CPU time: coarse calls become spans with a parent, the
per-delivery calls (``Simulation.step_once`` and ``node.transition``) are
summed per operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import process_time

from dpcst import cli, gw, node, sim, verify

# (owner, attribute, span name); cli binds exact_pcst and parse_instance by
# name, so they are patched there rather than in their home modules
SPANS = (
    (sim, "run", "sim.run"),
    (sim, "write_trace", "sim.write_trace"),
    (sim, "read_trace", "sim.read_trace"),
    (verify, "reconstruct_duals", "verify.replay"),
    (verify, "check_edge_packing", "verify.edge_packing"),
    (verify, "check_penalty_packing", "verify.penalty_packing"),
    (verify, "check_ratio", "verify.ratio"),
    (verify, "check_bounds", "verify.bounds"),
    (gw, "gw_solve", "gw.solve"),
    (cli, "exact_pcst", "exact.solve"),
    (cli, "parse_instance", "instance.parse"),
)
HOT = ((sim.Simulation, "step_once", "sim.step"), (node, "transition", "node.transition"))
CAPTURED = {"sim.run", "exact.solve", "verify.replay"}


@dataclass
class Span:
    name: str
    op: int
    start: float
    end: float
    self_s: float  # duration minus the direct child spans
    parent: str | None


class Probe:
    """Patches the program for one pass and restores it on exit."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.op = -1
        self.spans: list[Span] = []
        self.hot: dict[str, list[float]] = {}  # name -> [seconds, calls] of the current op
        self.captured: dict[str, list] = {}  # span name -> return values of the current op
        self._stack: list[list] = []  # open spans: [name, start, child seconds]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Probe":
        for owner, attr, name in SPANS:
            if self.traced:
                self._patch(owner, attr, self._span(name, getattr(owner, attr)))
            elif name in CAPTURED:
                self._patch(owner, attr, self._capture(name, getattr(owner, attr)))
        if self.traced:
            for owner, attr, name in HOT:
                self._patch(owner, attr, self._sum(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def start_op(self, index: int):
        self.op = index
        self.hot = {name: [0.0, 0] for _o, _a, name in HOT}
        self.captured = {name: [] for name in CAPTURED}

    def command(self, fn, *args):
        """Run one front-end call as a ``cli`` span (a plain call when untraced)."""
        if not self.traced:
            return fn(*args)
        return self._span("cli", fn)(*args)

    def _capture(self, name: str, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.captured[name].append(result)
            return result

        return wrapper

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            frame = [name, process_time(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time()
                self._stack.pop()
                duration = end - frame[1]
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[2] += duration
                self.spans.append(
                    Span(name, self.op, frame[1], end, duration - frame[2], parent and parent[0])
                )
            if name in CAPTURED:
                self.captured[name].append(result)
            return result

        return wrapper

    def _sum(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                acc = self.hot[name]
                acc[0] += process_time() - start
                acc[1] += 1

        return wrapper
