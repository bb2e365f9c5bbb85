"""Discrete-event simulator of single-gateway LoRa networks.

Implements a p-persistent CSMA MAC (channel sensing over a precomputed
vicinity matrix, FIFO claiming, persistence-gated reclaiming) next to a
pure-ALOHA baseline, and reproduces packet-reception-ratio experiments as
parameter sweeps.
"""

from .config import ConfigError, RunConfig, SweepGrid, load_config, load_grid, parse_config, parse_grid
from .gateway import GatewayPhy, Outcome, TxRecord
from .kernel import RngStream, RngStreams, Scheduler, us_from_s
from .mac import ChannelStateArray, PcsmaMac, shall_it_pass
from .metrics import Counters, compute_prr, write_csv, write_trace
from .phy import (
    LossParams,
    RadioParams,
    SensitivityTable,
    above_sensitivity,
    detect_range_m,
    path_loss_db,
    received_power_dbm,
    sensing_interval_s,
    time_on_air,
)
from .simulation import RunResult, Simulation, build_topology, run_scenario
from .sweep import aloha_validation, run_sweep
from .topology import (
    ClusterGeometry,
    DeviceSpec,
    GeometryError,
    assign_attributes,
    build_vicinity,
    load_device_file,
    place_clusters,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelStateArray",
    "ClusterGeometry",
    "ConfigError",
    "Counters",
    "DeviceSpec",
    "GatewayPhy",
    "GeometryError",
    "LossParams",
    "Outcome",
    "PcsmaMac",
    "RadioParams",
    "RngStream",
    "RngStreams",
    "RunConfig",
    "RunResult",
    "Scheduler",
    "SensitivityTable",
    "Simulation",
    "SweepGrid",
    "TxRecord",
    "above_sensitivity",
    "aloha_validation",
    "assign_attributes",
    "build_topology",
    "build_vicinity",
    "compute_prr",
    "detect_range_m",
    "load_config",
    "load_device_file",
    "load_grid",
    "parse_config",
    "parse_grid",
    "path_loss_db",
    "place_clusters",
    "received_power_dbm",
    "run_scenario",
    "run_sweep",
    "sensing_interval_s",
    "shall_it_pass",
    "time_on_air",
    "us_from_s",
    "write_csv",
    "write_trace",
]
