"""The typed ServiceConfig surface: loaders, precedence, round-trip.

The contract under test: one frozen dataclass is the only way code
configures the daemon or a cluster, every bad value raises
``ConfigurationError`` at construction time, the three loaders layer
with fixed precedence (defaults < TOML < env < args), and ``to_toml``
round-trips through ``from_toml`` to an equal config.
"""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from repro.exceptions import ConfigurationError
from repro.service import ClusterConfig, ServiceConfig
from repro.service.brownout import BrownoutConfig
from repro.service.config import ENV_PREFIX


def args_namespace(**given) -> argparse.Namespace:
    """An argparse-like namespace where unset flags are None."""
    base = {
        name: None
        for name in (
            "host", "port", "gate_capacity", "point_weight",
            "batch_member_weight", "batch_window", "max_batch",
            "min_hold", "read_timeout", "write_timeout",
            "drain_timeout", "workers", "cache_dir",
        )
    }
    base.update(no_brownout=False)
    base.update(given)
    return argparse.Namespace(**base)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def test_defaults_are_valid_and_frozen():
    config = ServiceConfig()
    assert config.port == 8377
    assert config.cluster.workers == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.port = 1  # type: ignore[misc]


@pytest.mark.parametrize(
    "bad",
    [
        {"gate_capacity": 0},
        {"point_weight": 0},
        {"drain_timeout": -1.0},
    ],
)
def test_bad_service_values_raise_at_construction(bad):
    with pytest.raises(ConfigurationError):
        ServiceConfig(**bad)


@pytest.mark.parametrize(
    "bad",
    [
        {"workers": 0},
        {"health_interval": 0.0},
        {"max_respawns": -1},
        {"hash_replicas": 0},
        {"spawn_timeout": 0.0},
    ],
)
def test_bad_cluster_values_raise_at_construction(bad):
    with pytest.raises(ConfigurationError):
        ClusterConfig(**bad)


# ----------------------------------------------------------------------
# TOML round-trip
# ----------------------------------------------------------------------


def test_to_toml_round_trips_through_from_toml(tmp_path):
    config = ServiceConfig(
        host="0.0.0.0",
        port=9001,
        gate_capacity=17,
        batch_window=0.004,
        min_hold=0.02,
        read_timeout=None,
        brownout=BrownoutConfig(enabled=False),
        cluster=ClusterConfig(
            workers=3, cache_dir="/tmp/shared-cache",
            hash_replicas=32, max_respawns=0,
        ),
    )
    path = tmp_path / "service.toml"
    path.write_text(config.to_toml())
    assert ServiceConfig.from_toml(path) == config


def test_from_toml_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.toml"
    for text in (
        "[service]\nporte = 8377\n",
        # Keys removed in 3.0 are unknown keys like any other.
        "[service]\nkeepalive = false\n",
        "[service]\nhot_cache_fast_path = false\n",
        "[service]\nreuse_port = true\n",
        '[cluster]\nshard_strategy = "hash"\n',
        '[cluster]\nstart_method = "spawn"\n',
        "[cluster]\nrespawn = false\n",
        "[cluster]\nfailover = true\n",
    ):
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            ServiceConfig.from_toml(path)


def test_from_toml_rejects_invalid_toml(tmp_path):
    path = tmp_path / "broken.toml"
    path.write_text("[service\nport=")
    with pytest.raises(ConfigurationError):
        ServiceConfig.from_toml(path)


# ----------------------------------------------------------------------
# Environment loader
# ----------------------------------------------------------------------


def test_from_env_reads_typed_values():
    config = ServiceConfig.from_env({
        f"{ENV_PREFIX}PORT": "9100",
        f"{ENV_PREFIX}GATE_CAPACITY": "9",
        f"{ENV_PREFIX}MIN_HOLD": "0.25",
        f"{ENV_PREFIX}WORKERS": "4",
        f"{ENV_PREFIX}CACHE_DIR": "/tmp/fleet-cache",
        f"{ENV_PREFIX}BROWNOUT": "0",
        "UNRELATED": "ignored",
    })
    assert config.port == 9100
    assert config.gate_capacity == 9
    assert config.min_hold == pytest.approx(0.25)
    assert config.cluster.workers == 4
    assert config.cluster.cache_dir == "/tmp/fleet-cache"
    assert config.brownout.enabled is False


def test_from_env_rejects_unknown_variable():
    for name, raw in (
        ("PROT", "8377"),
        # Variables of the knobs removed in 3.0.
        ("KEEPALIVE", "false"),
        ("HOT_CACHE_FAST_PATH", "false"),
        ("REUSE_PORT", "true"),
        ("SHARD_STRATEGY", "hash"),
        ("START_METHOD", "spawn"),
        ("RESPAWN", "false"),
        ("FAILOVER", "true"),
    ):
        with pytest.raises(ConfigurationError):
            ServiceConfig.from_env({f"{ENV_PREFIX}{name}": raw})


def test_from_env_rejects_untyped_garbage():
    with pytest.raises(ConfigurationError):
        ServiceConfig.from_env({f"{ENV_PREFIX}PORT": "over 9000"})


# ----------------------------------------------------------------------
# Args loader and layered precedence
# ----------------------------------------------------------------------


def test_from_args_reads_service_and_cluster_flags():
    config = ServiceConfig.from_args(args_namespace(
        port=9200, workers=2,
        cache_dir="/tmp/cli-cache", no_brownout=True,
    ))
    assert config.port == 9200
    assert config.cluster.workers == 2
    assert config.cluster.cache_dir == "/tmp/cli-cache"
    assert config.brownout.enabled is False


@pytest.mark.parametrize(
    "flags",
    [
        ["--shard-strategy", "hash"],
        ["--start-method", "spawn"],
        ["--no-keepalive"],
    ],
)
def test_serve_rejects_the_flags_removed_in_3_0(flags, capsys):
    """argparse refuses them (usage error, exit 2) before any config
    is built."""
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["serve", "--port", "0", *flags])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_zero_timeout_flags_mean_disabled():
    config = ServiceConfig.from_args(
        args_namespace(read_timeout=0.0, write_timeout=0.0)
    )
    assert config.read_timeout is None
    assert config.write_timeout is None


def test_load_precedence_defaults_toml_env_args(tmp_path):
    path = tmp_path / "layer.toml"
    path.write_text(
        "[service]\nport = 9001\ngate_capacity = 11\nmin_hold = 0.5\n"
        "\n[cluster]\nworkers = 2\n"
    )
    config = ServiceConfig.load(
        toml_path=path,
        environ={
            f"{ENV_PREFIX}GATE_CAPACITY": "22",
            f"{ENV_PREFIX}WORKERS": "3",
        },
        args=args_namespace(workers=4),
    )
    assert config.min_hold == pytest.approx(0.5)  # TOML only
    assert config.port == 9001                    # TOML beats default
    assert config.gate_capacity == 22             # env beats TOML
    assert config.cluster.workers == 4            # args beat env
    assert config.batch_window == pytest.approx(0.0)  # untouched


def test_for_shard_builds_the_per_worker_view():
    config = ServiceConfig(
        host="0.0.0.0", port=8400,
        cluster=ClusterConfig(workers=3, worker_host="127.0.0.1"),
    )
    worker = config.for_shard(2, port=34567)
    assert worker.shard_index == 2
    assert worker.host == "127.0.0.1"
    assert worker.port == 34567
    assert worker.cluster.workers == 1  # no nested fleet
