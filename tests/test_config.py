"""Scenario/grid document parsing and validation."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from lorapcsma import phy
from lorapcsma.config import _FIELDS, ConfigError, RunConfig, SweepGrid, parse_config, parse_grid

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lorapcsma"


def test_minimal_document_gets_defaults():
    cfg = parse_config("n_devices = 60\n")
    assert cfg.n_devices == 60
    assert cfg.sim_time_s == 3600.0
    assert cfg.mac == "pcsma"
    assert cfg.period_set_s == (100.0, 200.0, 300.0, 400.0, 500.0)
    assert cfg.sf_set == (8,)
    assert cfg.p == 1.0
    assert cfg.gateway_paths == 8
    assert cfg.offsets == "uniform"


def test_comments_blank_lines_and_lists():
    cfg = parse_config(
        """
        # mixed-SF hidden-areas scenario
        n_devices = 60
        sf_set = {8, 9, 10}   # mixed SFs
        period_set_s = {100,200,300,400,500}
        p = 0.25
        n_areas = 3
        mac = aloha
        crc = off
        explicit_header = no
        duty_cycle_enforce = yes
        """
    )
    assert cfg.sf_set == (8, 9, 10)
    assert cfg.p == 0.25
    assert cfg.mac == "aloha"
    assert (cfg.crc, cfg.explicit_header, cfg.duty_cycle_enforce) == (False, False, True)


def test_missing_n_devices_is_an_error():
    with pytest.raises(ConfigError, match="n_devices"):
        parse_config("p = 0.5\n")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config("n_devices = 10\nn_device = 20\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("n_devices = 10\nn_devices = 20\n")


@pytest.mark.parametrize(
    "doc,match",
    [
        ("n_devices = 10\np = 0\n", "p must be"),
        ("n_devices = 10\np = 1.5\n", "p must be"),
        ("n_devices = 10\nn_areas = 0\n", "n_areas"),
        ("n_devices = 10\nsf_set = {6}\n", "sf_set"),
        ("n_devices = 10\nsf_set = {8,8}\n", "duplicates"),
        ("n_devices = 10\nperiod_set_s = {0}\n", "period"),
        ("n_devices = 10\nmac = csma\n", "mac"),
        ("n_devices = 10\nseed = abc\n", "integer"),
        ("n_devices = 10\nsim_time_s = abc\n", "line 2: sim_time_s: 'abc' is not a number"),
        ("n_devices = 10\nsim_time_s = -1\n", "sim_time_s"),
        ("n_devices = 10\ntraffic = poisson\nsf_set = {8,9}\n", "single-SF"),
        ("n_devices = 10\ntraffic = poisson\noffered_load = 0\n", "offered_load"),
        ("n_devices = 10\ncapture_effect = true\n", "unknown key"),
        ("n_devices = 10\ngateway_paths = 0\n", "gateway_paths"),
        ("n_devices = 3\np = {0.5, 0.5}\n", "per-device"),
        # Durations that round to 0 us would livelock the event loop.
        ("n_devices = 10\nperiod_set_s = {1e-7}\n", "period_set_s"),
        ("n_devices = 10\nsensing_interval_s = 1e-7\n", "sensing_interval_s"),
        ("n_devices = 10\ntraffic = poisson\noffered_load = 1e9\n", "offered_load"),
        # Non-finite numbers would overflow, convert badly or run silently.
        ("n_devices = 10\nperiod_set_s = {nan}\n", "period_set_s"),
        ("n_devices = 10\nperiod_set_s = {100, inf}\n", "period_set_s"),
        ("n_devices = 10\nsim_time_s = nan\n", "sim_time_s"),
        ("n_devices = 10\nsim_time_s = inf\n", "sim_time_s"),
        ("n_devices = 10\ntraffic = poisson\noffered_load = nan\n", "offered_load"),
        ("n_devices = 10\nsensing_interval_s = inf\n", "sensing_interval_s"),
        ("n_devices = 10\ntx_power_dbm = nan\n", "tx_power_dbm"),
        ("n_devices = 10\ntx_power_dbm = inf\n", "tx_power_dbm must be finite"),
        ("n_devices = 10\ncluster_radius_m = nan\n", "cluster_radius_m"),
        ("n_devices = 10\nshadowing_sigma_db = nan\n", "shadowing_sigma_db"),
        ("n_devices = 10\nseed = -3\n", "seed must be >= 0"),
        ("n_devices = 10\ncrc = maybe\n", "line 2: crc: expected true/false, got 'maybe'"),
        # Built from Python, where no parser fixes the types: an int field
        # refuses a float or a bool, and a tuple field a (mutable) list.
        ({"n_devices": 2.5}, "n_devices must be of type int, got 2.5"),
        ({"n_devices": True}, "n_devices must be of type int, got True"),
        ({"n_devices": 2, "seed": 1.5}, "seed must be of type int, got 1.5"),
        ({"n_devices": 2, "p": [0.5, 0.5]}, r"p must be of type float \| tuple.*got \[0.5, 0.5\]"),
        ({"n_devices": 2, "period_set_s": [10.0]}, "period_set_s must be of type tuple"),
        ({"n_devices": 2, "sf_set": (8.0,)}, "sf_set must be of type tuple"),
        ({"n_devices": 1, "mac": "csma"}, "mac must be one of"),
        ({"n_devices": 1, "sf_set": ()}, "sf_set must be non-empty"),
        # Every type is checked before any value is: the float seed is named,
        # not the NaN run length of an earlier field.
        ({"n_devices": 1, "sim_time_s": float("nan"), "seed": 1.5}, "seed must be of type int, got 1.5"),
        # An empty path would be read only at run time, as a directory.
        ("n_devices = 1\ndevice_file =\n", "device_file must name a file, got ''"),
        # Finite numbers that overflow later, in microseconds or in a detect
        # range, are named too.
        ("n_devices = 1\nsim_time_s = 1e303\n", "sim_time_s"),
        ({"n_devices": 1, "period_set_s": (1e303,)}, "period_set_s"),
        ({"n_devices": 1, "sensing_interval_s": 1e303}, "sensing_interval_s"),
        ({"n_devices": 1, "traffic": "poisson", "offered_load": 1e-320}, "offered_load"),
        ({"n_devices": 1, "tx_power_dbm": 1e308}, "tx_power_dbm must be at most 1e\\+300"),
        ({"n_devices": 1, "tx_power_dbm": -1e308}, "tx_power_dbm must be at most 1e\\+300"),
        ({"n_devices": 1, "reference_loss_db": -1e308}, "reference_loss_db must be at most"),
        ({"n_devices": 1, "bandwidth_hz": 1e-310}, "bandwidth_hz 1e-310 makes the SF12 airtime"),
        # The radio, path-loss and sensitivity rules name their key.
        ("n_devices = 1\nbandwidth_hz = 0\n", "bandwidth_hz must be positive, got 0.0"),
        ("n_devices = 1\ncoding_rate = 5\n", r"coding_rate must be in 1\.\.4"),
        ({"n_devices": 1, "coding_rate": 0}, r"coding_rate must be in 1\.\.4"),
        ("n_devices = 1\npayload_bytes = 0\n", "payload_bytes must be >= 1, got 0"),
        ("n_devices = 1\npreamble_symbols = 0\n", "preamble_symbols must be >= 1, got 0"),
        ("n_devices = 1\npath_loss_exponent = 0\n", "path_loss_exponent must be positive"),
        ("n_devices = 1\nreference_distance_m = 0\n", "reference_distance_m must be positive"),
        (
            "n_devices = 1\ndevice_sensitivity_dbm = {-124,-127,-130,-133,-135}\n",
            r"device_sensitivity_dbm needs 6 values \(SF7\.\.SF12\), got 5",
        ),
        (
            "n_devices = 1\ngateway_sensitivity_dbm = {-130,-132.5,-135,-137.5,-140,-142.5,-145}\n",
            r"gateway_sensitivity_dbm needs 6 values \(SF7\.\.SF12\), got 7",
        ),
        (
            "n_devices = 1\ndevice_sensitivity_dbm = {-124,-124,-130,-133,-135,-137}\n",
            "device_sensitivity_dbm must strictly decrease with SF",
        ),
        (
            "n_devices = 1\ngateway_sensitivity_dbm = {-130,-135,-132.5,-137.5,-140,-142.5}\n",
            "gateway_sensitivity_dbm must strictly decrease with SF",
        ),
        (
            "n_devices = 1\ngateway_sensitivity_dbm = {-130,-132.5,-135,-137.5,-140,-136}\n",
            "gateway_sensitivity_dbm must strictly decrease with SF",
        ),
        (
            "n_devices = 1\ngateway_sensitivity_dbm = {-120,-121,-122,-123,-124,-125}\n",
            "gateway_sensitivity_dbm must be at most device_sensitivity_dbm at every SF",
        ),
    ],
)
def test_invalid_values_are_named_errors(doc, match):
    # A document goes through the parser; a dict is RunConfig's keywords.
    with pytest.raises(ConfigError, match=match):
        parse_config(doc) if isinstance(doc, str) else RunConfig(**doc)


def _built(cls, name, value):
    keys = {"n_devices": 1} if cls is RunConfig else {}
    return cls(**{**keys, name: value})


def _with_a_bool(value):
    """``value`` with its first innermost item replaced by a bool."""
    return (_with_a_bool(value[0]), *value[1:]) if isinstance(value, tuple) else True


def _fields(*words):
    """Each field of RunConfig and SweepGrid, or those whose annotation
    names one of ``words``."""
    return [
        pytest.param(cls, f, id=f.name)
        for cls in (RunConfig, SweepGrid)
        for f in fields(cls)
        if not words or any(word in f.type for word in words)
    ]


@pytest.mark.parametrize("cls,field", _fields())
def test_every_field_default_is_admitted(cls, field):
    _, _, admits = _FIELDS[cls][field.name]
    assert admits(field.default)


@pytest.mark.parametrize("cls,field", _fields("int", "float"))
def test_a_number_field_refuses_a_bool(cls, field):
    message = f"{field.name} must be of type {field.type}, got True"
    with pytest.raises(ConfigError, match=re.escape(message)):
        _built(cls, field.name, True)


@pytest.mark.parametrize("cls,field", _fields("tuple"))
def test_a_tuple_field_refuses_a_list_and_a_tuple_holding_a_bool(cls, field):
    # A type-valid tuple, as the document parser builds it.
    _, parse, _ = _FIELDS[cls][field.name]
    value = parse("{1, 2}", field.name, 1)
    for bad in (list(value), _with_a_bool(value)):
        message = f"{field.name} must be of type {field.type}, got {bad!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            _built(cls, field.name, bad)


def test_per_device_p_list():
    cfg = parse_config("n_devices = 3\np = {0.25, 0.5, 1.0}\n")
    assert cfg.p == (0.25, 0.5, 1.0)


def test_poisson_traffic_is_timed_in_airtimes_at_the_sf_sets_sf():
    cfg = RunConfig(n_devices=1, traffic="poisson", sf_set=(10,), offered_load=0.4)
    assert cfg.packet_time_s() == phy.time_on_air(10, cfg)
    assert cfg.poisson_mean_gap_s() == phy.time_on_air(10, cfg) / 0.4


def test_sensing_interval_auto_or_number():
    assert parse_config("n_devices = 1\nsensing_interval_s = auto\n").sensing_interval_s is None
    assert parse_config("n_devices = 1\nsensing_interval_s = 0.255\n").sensing_interval_s == 0.255
    with pytest.raises(ConfigError):
        parse_config("n_devices = 1\nsensing_interval_s = -1\n")


def test_sensitivity_override_is_validated():
    doc = "n_devices = 1\ngateway_sensitivity_dbm = {-100,-100,-100,-100,-100,-100}\n"
    with pytest.raises(ConfigError, match="sensitivit"):
        parse_config(doc)


def test_grid_parsing_with_ranges_and_sf_sets():
    grid = parse_grid(
        """
        device_counts = {20, 40, 60, 80}
        p_values = {0.25, 0.5, 0.75, 1.0}
        sf_sets = {8, 8+9+10}
        n_areas_values = {1, 2, 3}
        seeds = {1..10}
        """
    )
    assert grid.device_counts == (20, 40, 60, 80)
    assert grid.sf_sets == ((8,), (8, 9, 10))
    assert grid.seeds == tuple(range(1, 11))


def test_grid_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown grid key"):
        parse_grid("devices = {10}\n")


@pytest.mark.parametrize(
    "doc,match",
    [
        # An empty list would otherwise fall back to the base config unnoticed.
        *[
            (f"{key} = {{}}\n", f"{key} must be non-empty")
            for key in ("device_counts", "p_values", "sf_sets", "n_areas_values", "seeds")
        ],
        ("seeds = {1, -2}\n", "seeds must be >= 0"),
        ("seeds = {5..3}\n", "line 1: seeds: empty range '5..3'"),
        # A repeated value would run one cell or seed twice and count it twice.
        ("seeds = {1, 1}\n", "seeds must not contain duplicates"),
        ("p_values = {0.5, 0.5}\n", "p_values must not contain duplicates"),
    ],
)
def test_grid_invalid_dimension_is_a_named_error(doc, match):
    with pytest.raises(ConfigError, match=match):
        parse_grid(doc)


def test_malformed_line_reports_position():
    with pytest.raises(ConfigError, match="line 2.*key = value"):
        parse_config("n_devices = 5\njust some words\n")
    with pytest.raises(ConfigError, match="braced list"):
        parse_config("n_devices = 5\nsf_set = 8,9\n")


def test_readme_key_table_lists_every_run_config_field_in_order():
    # The RunConfig fields are the one declaration of the scenario keys.
    section = README.read_text().split("## Scenario configuration", 1)[1]
    first_cells = re.findall(r"^\| (`[^|]*`) \|", section, re.MULTILINE)
    keys = [key for cell in first_cells for key in re.findall(r"`(\w+)`", cell)]
    assert keys == [f.name for f in fields(RunConfig)]


def test_config_holds_every_config_rule_and_imports_no_placement():
    # Read from the source: importing lorapcsma.config loads the package,
    # and with it topology, so sys.modules cannot show this.
    tree = ast.parse((PACKAGE / "config.py").read_text())
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
    ]
    assert not [name for name in imported if "topology" in name]
    shared = {"ConfigError", "MAX_COORD_M", "MAX_LEVEL_DB"}
    homes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in shared.intersection(names):
                homes.setdefault(name, []).append(path.name)
    assert homes == {name: ["config.py"] for name in shared}
