"""Discrete-event simulator of single-gateway LoRa networks.

Implements a p-persistent CSMA MAC (channel sensing by distance against each
transmitter's detect range, FIFO claiming, persistence-gated reclaiming)
next to a pure-ALOHA baseline, and reproduces packet-reception-ratio
experiments as parameter sweeps.
"""

from .config import RunConfig
from .metrics import compute_prr
from .simulation import Simulation, run_scenario

__all__ = ["RunConfig", "Simulation", "compute_prr", "run_scenario"]
