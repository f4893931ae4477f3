"""Distributed primal-dual prize-collecting Steiner tree toolkit.

Modules: instance (graph model and text format), node (per-node protocol
automaton), sim (deterministic asynchronous-network simulator), gw
(centralized reference solver), exact (brute-force oracle), verify
(dual-certificate reconstruction and checks), cli (batch front end).
"""

from .exact import ExactResult, exact_pcst
from .gw import gw_solve
from .instance import (
    PcstInstance,
    Solution,
    generate_random_instance,
    parse_instance,
    render_instance,
)
from .sim import Simulation, extract_solution, run
from .verify import DualCertificate, reconstruct_duals

__all__ = [
    "ExactResult",
    "exact_pcst",
    "gw_solve",
    "PcstInstance",
    "Solution",
    "generate_random_instance",
    "parse_instance",
    "render_instance",
    "Simulation",
    "extract_solution",
    "run",
    "DualCertificate",
    "reconstruct_duals",
]
