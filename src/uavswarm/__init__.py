"""Deterministic simulator of QoS-driven UAV small-cell swarms.

UAV base stations self-organize over a field of ground users with
differentiated rate targets.  A potential-field controller balances
inter-UAV spacing, velocity consensus, and user coupling; a per-tick
orchestrator handles association, link rates, channel switching, and
failure injection.
"""

from .engine import run
from .kernels import bump, pair_potential, phi_sigmoid
from .metrics import steady_state
from .model import RadioParams, load_scenario
from .radio import link_budget, los_probability

__version__ = "0.1.0"

__all__ = [
    "RadioParams", "bump", "link_budget", "load_scenario", "los_probability",
    "pair_potential", "phi_sigmoid", "run", "steady_state",
]
