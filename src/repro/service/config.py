"""The typed configuration surface of the solve-serving daemon.

Six PRs of growth left the service knobs scattered over CLI flags,
``SolveService`` kwargs and brownout defaults.  This module is the
single typed surface that replaces all of them:

* :class:`ServiceConfig` — every knob of one daemon (wire, admission,
  batching, timeouts, brownout) plus the :class:`ClusterConfig` block
  describing the multi-worker topology (:mod:`repro.service.cluster`);
* loaders — :meth:`ServiceConfig.from_toml`,
  :meth:`ServiceConfig.from_env` and :meth:`ServiceConfig.from_args`
  each build a config from one source, and :meth:`ServiceConfig.load`
  layers them with fixed precedence **defaults < TOML < environment <
  command line**;
* validation — every bad value raises
  :class:`~repro.exceptions.ConfigurationError` at construction time,
  never at serve time;
* round-trip — :meth:`ServiceConfig.to_toml` renders a file that
  :meth:`from_toml` parses back to an equal config, so a running
  fleet's exact configuration can be checked into version control.

The service is configured exclusively through this class.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping

from ..exceptions import ConfigurationError
from .brownout import BrownoutConfig

__all__ = ["ClusterConfig", "ServiceConfig", "ENV_PREFIX"]

#: Prefix of every environment variable :meth:`ServiceConfig.from_env`
#: reads (e.g. ``REPRO_SERVICE_PORT``, ``REPRO_SERVICE_WORKERS``).
ENV_PREFIX = "REPRO_SERVICE_"

@dataclass(frozen=True)
class ClusterConfig:
    """Topology of a multi-worker fleet (see :mod:`repro.service.cluster`).

    The default (``workers=1``) means "no cluster": ``serve`` runs the
    classic single-process daemon and none of the other fields matter.
    Above one worker, a router on the public port proxies each request
    to the worker owning its canonical cache key (consistent hashing),
    so single-flight coalescing and cache locality keep their contracts
    fleet-wide; a down shard's keys fail over to the next live shard.
    """

    #: Worker processes.  1 disables the cluster layer entirely.
    workers: int = 1
    #: Shared on-disk cache tier for all workers (each worker guards it
    #: with its own circuit breaker); None leaves workers memory-only
    #: unless ``REPRO_ENGINE_CACHE_DIR`` says otherwise.
    cache_dir: str | None = None
    #: Interface workers bind their per-shard ports on.
    worker_host: str = "127.0.0.1"
    #: Seconds between supervisor health sweeps (liveness + respawn).
    health_interval: float = 0.5
    #: Respawn a crashed worker on its shard slot at most this many
    #: times; 0 declares the first death final (a dead shard).
    max_respawns: int = 5
    #: Virtual nodes per shard on the consistent-hash ring.
    hash_replicas: int = 64
    #: Seconds to wait for a spawned worker to report ready.
    spawn_timeout: float = 30.0
    #: First respawn delay (seconds); doubles per consecutive respawn.
    respawn_backoff_base: float = 0.25
    #: Ceiling of the exponential respawn backoff (before jitter).
    respawn_backoff_cap: float = 5.0
    #: A worker death within this many seconds of becoming ready counts
    #: as a *flap* against the slot's crash-loop circuit breaker.
    flap_window: float = 5.0
    #: Consecutive flaps that trip the slot's breaker (respawns pause).
    flap_threshold: int = 3
    #: Seconds a tripped slot waits before one half-open probe respawn.
    flap_cooldown: float = 10.0
    #: Router-side budget (seconds) for one proxied worker roundtrip;
    #: a stalled worker yields a 503/failover instead of a hung client
    #: connection.  None or 0 disables the bound.
    proxy_timeout: float | None = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("cluster workers must be >= 1")
        if self.health_interval <= 0:
            raise ConfigurationError("health_interval must be > 0")
        if self.max_respawns < 0:
            raise ConfigurationError("max_respawns must be >= 0")
        if self.hash_replicas < 1:
            raise ConfigurationError("hash_replicas must be >= 1")
        if self.spawn_timeout <= 0:
            raise ConfigurationError("spawn_timeout must be > 0")
        if self.respawn_backoff_base <= 0:
            raise ConfigurationError("respawn_backoff_base must be > 0")
        if self.respawn_backoff_cap < self.respawn_backoff_base:
            raise ConfigurationError(
                "respawn_backoff_cap must be >= respawn_backoff_base"
            )
        if self.flap_window <= 0:
            raise ConfigurationError("flap_window must be > 0")
        if self.flap_threshold < 1:
            raise ConfigurationError("flap_threshold must be >= 1")
        if self.flap_cooldown < 0:
            raise ConfigurationError("flap_cooldown must be >= 0")
        if self.proxy_timeout is not None and self.proxy_timeout <= 0:
            raise ConfigurationError(
                "proxy_timeout must be > 0 (or None to disable)"
            )


@dataclass(frozen=True)
class ServiceConfig:
    """Every tunable of one :class:`~repro.service.server.SolveService`
    (and, through :attr:`cluster`, of a whole worker fleet)."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (tests read it back).
    port: int = 8377
    #: Admission tokens — the daemon's "number of ports".  Every
    #: admitted request holds its weight in tokens until it completes;
    #: a request that cannot get its tokens is cleared with a 503,
    #: never queued.
    gate_capacity: int = 64
    #: Tokens one ``/solve`` request holds.
    point_weight: int = 1
    #: Tokens per member of a ``/batch`` request (total clamped to the
    #: gate capacity, like ``a_r <= min(N1, N2)``).
    batch_member_weight: int = 1
    #: Seconds an idle micro-batcher holds its first pending request
    #: before flushing.  0 flushes on the next event-loop turn; under
    #: load batches grow while the previous flush computes.
    batch_window: float = 0.0
    #: Most requests one flush carries; an idle micro-batcher flushes
    #: at once when this many are pending.
    max_batch: int = 256
    #: Artificial per-request token-holding time (seconds) *after* the
    #: solve completes.  0 in production; load tests set it to emulate
    #: a call-holding time so the gate reproduces classical loss-system
    #: blocking (the cross-validation tests check it against Erlang B).
    min_hold: float = 0.0
    #: Floor of the 503 ``retry_after`` hint (seconds); the live hint
    #: tracks an EWMA of recent holding times above this floor.
    retry_after_floor: float = 0.05
    #: Wall-clock seconds a peer may take to deliver the request head
    #: (and, separately, the body) before the connection is closed with
    #: a 408 — the slow-loris bound.  None or 0 disables it.
    read_timeout: float | None = 10.0
    #: Seconds a peer may take to drain its reply before the transport
    #: is aborted.  None or 0 disables it.
    write_timeout: float | None = 10.0
    #: Default budget of :meth:`SolveService.drain`: seconds to wait
    #: for in-flight work before giving up and stopping anyway.
    drain_timeout: float = 10.0
    #: Shard slot of this process inside a cluster (stamped on replies
    #: as ``X-Shard`` and inside 503 envelopes); None outside one.
    shard_index: int | None = None
    #: Brownout ladder tunables; ``BrownoutConfig(enabled=False)``
    #: pins the daemon at full service.
    brownout: BrownoutConfig = field(default_factory=BrownoutConfig)
    #: Multi-worker topology; ``ClusterConfig()`` means single-process.
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    def __post_init__(self) -> None:
        if self.gate_capacity < 1:
            raise ConfigurationError("gate_capacity must be >= 1")
        if self.point_weight < 1 or self.batch_member_weight < 1:
            raise ConfigurationError("admission weights must be >= 1")
        if self.drain_timeout < 0:
            raise ConfigurationError("drain_timeout must be >= 0")
        if not isinstance(self.brownout, BrownoutConfig):
            raise ConfigurationError(
                "brownout must be a BrownoutConfig, got "
                f"{self.brownout!r}"
            )
        if not isinstance(self.cluster, ClusterConfig):
            raise ConfigurationError(
                f"cluster must be a ClusterConfig, got {self.cluster!r}"
            )

    # ------------------------------------------------------------------
    # Loaders
    # ------------------------------------------------------------------

    @classmethod
    def load(
        cls,
        toml_path: str | Path | None = None,
        environ: Mapping[str, str] | None = None,
        args: Any | None = None,
    ) -> "ServiceConfig":
        """Layer every source with fixed precedence.

        Defaults < TOML file < environment < command-line arguments;
        each later source only overrides the keys it actually sets.
        """
        overrides: dict = {}
        if toml_path is not None:
            overrides = _merge(overrides, _toml_overrides(toml_path))
        if environ is not None:
            overrides = _merge(overrides, _env_overrides(environ))
        if args is not None:
            overrides = _merge(overrides, _args_overrides(args))
        return _build(overrides)

    @classmethod
    def from_toml(cls, path: str | Path) -> "ServiceConfig":
        """Parse a ``[service]`` / ``[service.brownout]`` / ``[cluster]``
        TOML file (the format :meth:`to_toml` writes)."""
        return _build(_toml_overrides(path))

    @classmethod
    def from_env(
        cls, environ: Mapping[str, str] | None = None
    ) -> "ServiceConfig":
        """Build from ``REPRO_SERVICE_*`` variables (unset keys default)."""
        return _build(_env_overrides(
            os.environ if environ is None else environ
        ))

    @classmethod
    def from_args(cls, args: Any) -> "ServiceConfig":
        """Build from a ``crossbar-repro serve`` argparse namespace."""
        return _build(_args_overrides(args))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_toml(self) -> str:
        """Render this config as TOML; ``from_toml`` inverts it."""
        lines = ["[service]"]
        for name in _SERVICE_SCALARS:
            lines.extend(_toml_line(name, getattr(self, name)))
        lines.append("")
        lines.append("[service.brownout]")
        for f in fields(BrownoutConfig):
            lines.extend(_toml_line(f.name, getattr(self.brownout, f.name)))
        lines.append("")
        lines.append("[cluster]")
        for f in fields(ClusterConfig):
            lines.extend(_toml_line(f.name, getattr(self.cluster, f.name)))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """Nested plain-dict form (JSON/TOML-compatible scalars)."""
        record = dataclasses.asdict(self)
        record.pop("shard_index", None)
        return record

    def for_shard(self, shard: int, port: int) -> "ServiceConfig":
        """The per-worker view of a cluster config: one shard, one port,
        bound on the worker interface, no nested cluster."""
        return replace(
            self,
            host=self.cluster.worker_host,
            port=port,
            shard_index=shard,
            cluster=ClusterConfig(),
        )


# ----------------------------------------------------------------------
# Source readers (each returns a *partial* nested override dict)
# ----------------------------------------------------------------------

#: Scalar ServiceConfig fields settable from TOML/env/args (the nested
#: blocks travel under their own section names).
_SERVICE_SCALARS = tuple(
    f.name for f in fields(ServiceConfig)
    if f.name not in ("brownout", "cluster", "shard_index")
)

#: Fields where a non-positive number means "disabled" (stored None).
_NONE_WHEN_NON_POSITIVE = ("read_timeout", "write_timeout",
                           "proxy_timeout")
#: Fields where an empty string means None.
_NONE_WHEN_EMPTY = ("cache_dir",)


def _normalize(section: str, name: str, value: Any) -> Any:
    if name in _NONE_WHEN_NON_POSITIVE and isinstance(value, (int, float)) \
            and value <= 0:
        return None
    if name in _NONE_WHEN_EMPTY and value == "":
        return None
    return value


def _known(section: str, names: tuple[str, ...], record: Mapping) -> dict:
    unknown = sorted(set(record) - set(names))
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in [{section}]: {', '.join(unknown)}"
        )
    return {
        name: _normalize(section, name, value)
        for name, value in record.items()
    }


def _toml_overrides(path: str | Path) -> dict:
    import tomllib

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read service config {str(path)!r}: {exc}"
        ) from exc
    try:
        document = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigurationError(
            f"service config {str(path)!r} is not valid TOML: {exc}"
        ) from exc
    unknown = sorted(set(document) - {"service", "cluster"})
    if unknown:
        raise ConfigurationError(
            f"unknown top-level section(s) in {str(path)!r}: "
            f"{', '.join(unknown)} (expected [service] and [cluster])"
        )
    overrides: dict = {}
    service = dict(document.get("service", {}))
    brownout = service.pop("brownout", {})
    overrides.update(_known("service", _SERVICE_SCALARS, service))
    if brownout:
        overrides["brownout"] = _known(
            "service.brownout",
            tuple(f.name for f in fields(BrownoutConfig)),
            brownout,
        )
    cluster = document.get("cluster", {})
    if cluster:
        overrides["cluster"] = _known(
            "cluster",
            tuple(f.name for f in fields(ClusterConfig)),
            cluster,
        )
    return overrides


def _parse_bool(name: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(
        f"{name} must be a boolean (1/0/true/false), got {raw!r}"
    )


def _env_overrides(environ: Mapping[str, str]) -> dict:
    """Read ``REPRO_SERVICE_*`` variables into a partial override dict.

    Scalar service fields map directly (``REPRO_SERVICE_PORT``);
    cluster fields map by name too (``REPRO_SERVICE_WORKERS``,
    ``REPRO_SERVICE_CACHE_DIR``); ``REPRO_SERVICE_BROWNOUT`` toggles
    the ladder's ``enabled`` flag.
    """
    overrides: dict = {}
    cluster: dict = {}
    cluster_types = {f.name: f for f in fields(ClusterConfig)}
    service_types = {f.name: f for f in fields(ServiceConfig)}
    for key, raw in environ.items():
        if not key.startswith(ENV_PREFIX):
            continue
        name = key[len(ENV_PREFIX):].lower()
        if name == "brownout":
            overrides["brownout"] = {
                "enabled": _parse_bool(key, raw)
            }
            continue
        if name in cluster_types and name not in _SERVICE_SCALARS:
            cluster[name] = _coerce_env(key, raw, cluster_types[name])
        elif name in _SERVICE_SCALARS:
            overrides[name] = _coerce_env(key, raw, service_types[name])
        else:
            raise ConfigurationError(
                f"unknown service environment variable {key}"
            )
    if cluster:
        overrides["cluster"] = cluster
    return overrides


def _coerce_env(key: str, raw: str, spec: dataclasses.Field) -> Any:
    kind = str(spec.type)
    try:
        if kind.startswith("int"):
            value: Any = int(raw)
        elif kind.startswith("float"):
            value = float(raw)
        else:
            value = raw
    except ValueError as exc:
        raise ConfigurationError(
            f"{key} must parse as {kind}, got {raw!r}"
        ) from exc
    return _normalize("env", spec.name, value)


#: serve CLI destinations that feed the cluster block.
_ARG_CLUSTER_FIELDS = ("workers", "cache_dir")


def _args_overrides(args: Any) -> dict:
    """Read an argparse namespace (``None`` attrs mean "not given")."""
    overrides: dict = {}
    cluster: dict = {}
    for name in _SERVICE_SCALARS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = _normalize("args", name, value)
    for name in _ARG_CLUSTER_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            cluster[name] = _normalize("args", name, value)
    if getattr(args, "no_brownout", False):
        overrides["brownout"] = {"enabled": False}
    if cluster:
        overrides["cluster"] = cluster
    return overrides


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------


def _merge(base: dict, extra: dict) -> dict:
    merged = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _build(overrides: dict) -> ServiceConfig:
    overrides = dict(overrides)
    brownout = overrides.pop("brownout", None)
    cluster = overrides.pop("cluster", None)
    try:
        if brownout is not None:
            overrides["brownout"] = BrownoutConfig(**brownout)
        if cluster is not None:
            overrides["cluster"] = ClusterConfig(**cluster)
        return ServiceConfig(**overrides)
    except TypeError as exc:
        raise ConfigurationError(f"bad service configuration: {exc}") \
            from exc


def _toml_line(name: str, value: Any) -> list[str]:
    if value is None:
        if name in _NONE_WHEN_NON_POSITIVE:
            return [f"{name} = 0.0"]
        if name in _NONE_WHEN_EMPTY:
            return [f'{name} = ""']
        return []  # omitted means default
    if isinstance(value, bool):
        return [f"{name} = {'true' if value else 'false'}"]
    if isinstance(value, (int, float)):
        return [f"{name} = {value!r}"]
    return [f'{name} = "{value}"']
