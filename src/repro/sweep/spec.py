"""Declarative parameter sweeps: spec -> self-contained run configs.

The paper's efficacy story (Section 7, Figures 9-10) is told through
scheduler x workload x multiprogramming x seed grids.  A
:class:`SweepSpec` declares such a grid once; :meth:`SweepSpec.expand`
turns it into a flat list of :class:`RunConfig`\\ s, each of which is
pure data — JSON-serialisable, picklable, and sufficient on its own to
rebuild the partition, workload, scheduler and simulator in any worker
process.

Determinism is anchored in :func:`config_hash`: the SHA-256 of a
config's canonical JSON form (plus a cache-format version salt).  The
hash keys the on-disk result cache, and :func:`effective_seed` derives
the simulator seed from it, so a config's result depends on nothing but
the config itself — not on worker count, completion order, or position
in the grid.  Re-running a sweep with one cell changed re-executes only
that cell.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Mapping, Optional, Sequence

from repro.baselines import (
    MultiversionTimestampOrdering,
    MultiversionTwoPhaseLocking,
    ReedMultiversionTimestampOrdering,
    SDD1Pipelining,
    TimestampOrdering,
    TwoPhaseLocking,
)
from repro.core.scheduler import HDDScheduler
from repro.errors import ConfigError
from repro.sim.claims import build_claims_partition, build_claims_workload
from repro.sim.engine import Simulator
from repro.sim.hierarchies import (
    build_hierarchy_workload,
    chain_partition,
    star_partition,
    tree_partition,
)
from repro.sim.inventory import (
    build_inventory_partition,
    build_inventory_workload,
)
from repro.sim.workload import Workload

#: Bump to invalidate every on-disk sweep cache entry (the hash is the
#: cache key, and results depend on engine behaviour, not just config).
SWEEP_CACHE_VERSION = 1


#: The canonical scheduler registry (the CLI shares it).
SCHEDULER_FACTORIES: dict[str, Callable] = {
    "hdd": lambda p: HDDScheduler(p),
    "hdd-to": lambda p: HDDScheduler(p, protocol_b="to"),
    "hdd-reed": lambda p: HDDScheduler(p, protocol_b="mvto-reed"),
    "2pl": lambda p: TwoPhaseLocking(),
    "to": lambda p: TimestampOrdering(),
    "mvto": lambda p: MultiversionTimestampOrdering(),
    "mvto-reed": lambda p: ReedMultiversionTimestampOrdering(),
    "mv2pl": lambda p: MultiversionTwoPhaseLocking(),
    "sdd1": lambda p: SDD1Pipelining(p),
}


def _make_scheduler(name: str, partition):
    if name not in SCHEDULER_FACTORIES:
        raise ConfigError(f"unknown scheduler {name!r}")
    return SCHEDULER_FACTORIES[name](partition)


@dataclass(frozen=True)
class RunConfig:
    """One fully specified simulation run (pure data).

    ``workload`` holds the schema name plus its builder parameters,
    e.g. ``{"schema": "inventory", "read_only_share": 0.5}`` or
    ``{"schema": "chain", "depth": 4, "granules_per_segment": 8}``.
    """

    scheduler: str
    seed: int = 0
    clients: int = 8
    target_commits: Optional[int] = None
    max_steps: int = 50_000
    think_time: int = 0
    restart_backoff: int = 3
    gc_interval: Optional[int] = None
    arrival_rate: Optional[float] = None
    audit: bool = False
    workload: Mapping[str, object] = field(
        default_factory=lambda: {"schema": "inventory"}
    )
    #: Distributed-runtime parameters (``latency``, ``jitter``,
    #: ``drop_rate``, ``spike_rate``, ``spike_ticks``, ``net_seed``,
    #: ``wall_interval``, ``heartbeat``, ``batch_gossip`` — default
    #: ``True``; ``False`` selects the eager reference wire) or ``None``
    #: for the monolithic scheduler.  ``None`` is omitted from
    #: :meth:`to_dict` so every monolithic config hash (and its cached
    #: result) is unchanged; :meth:`to_dict` writes the resolved
    #: ``batch_gossip`` into a ``dist`` block, so a cell that omits it
    #: hashes as the batched cell it runs, never as a cached eager one.
    dist: Optional[Mapping[str, object]] = None

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            "scheduler": self.scheduler,
            "seed": self.seed,
            "clients": self.clients,
            "target_commits": self.target_commits,
            "max_steps": self.max_steps,
            "think_time": self.think_time,
            "restart_backoff": self.restart_backoff,
            "gc_interval": self.gc_interval,
            "arrival_rate": self.arrival_rate,
            "audit": self.audit,
            "workload": dict(self.workload),
        }
        if self.dist is not None:
            data["dist"] = {"batch_gossip": True, **self.dist}
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunConfig":
        merged = {**data, "workload": dict(data["workload"])}
        if merged.get("dist") is not None:
            merged["dist"] = dict(merged["dist"])
        return cls(**merged)


def config_hash(config: RunConfig) -> str:
    """Stable SHA-256 over the config's canonical JSON form."""
    canonical = json.dumps(
        {"cache_version": SWEEP_CACHE_VERSION, **config.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def effective_seed(digest: str) -> int:
    """The simulator seed for a config, derived from its hash.

    Tying the seed to the config (rather than to grid position or
    submission order) is what makes sweep results byte-identical
    regardless of worker count or completion order.
    """
    return int(digest[:16], 16)


def build_workload(params: Mapping[str, object]) -> Workload:
    """Build the (partitioned) workload a config names.

    Schemas: ``inventory`` and ``claims`` (the paper's two case
    studies), plus the synthetic hierarchies ``chain`` (``depth``),
    ``star`` (``leaves``) and ``tree`` (``depth``, ``branching``).
    Remaining keys pass through to the workload builder
    (``read_only_share``, ``skew``, ``granules_per_segment``, ...).
    """
    params = dict(params)
    schema = params.pop("schema", "inventory")
    if schema == "inventory":
        return build_inventory_workload(build_inventory_partition(), **params)
    if schema == "claims":
        return build_claims_workload(build_claims_partition(), **params)
    if schema == "chain":
        partition = chain_partition(int(params.pop("depth", 3)))
    elif schema == "star":
        partition = star_partition(int(params.pop("leaves", 2)))
    elif schema == "tree":
        partition = tree_partition(
            int(params.pop("depth", 3)), int(params.pop("branching", 2))
        )
    else:
        raise ConfigError(f"unknown workload schema {schema!r}")
    return build_hierarchy_workload(partition, **params)


def _make_dist_runtime(config: RunConfig, partition):
    """A :class:`~repro.dist.runtime.DistributedRuntime` for a config
    carrying a ``dist`` block (imported lazily: most sweeps never pay
    for the distributed stack)."""
    from repro.dist import DistributedRuntime, FaultPlan

    if config.scheduler not in DIST_SCHEDULERS:
        raise ConfigError(
            f"scheduler {config.scheduler!r} has no distributed runtime; "
            f"choose from {sorted(DIST_SCHEDULERS)}"
        )
    if config.gc_interval is not None:
        raise ConfigError(
            "gc_interval is not supported by the distributed runtime "
            "(it never retires walls or prunes versions)"
        )
    params = dict(config.dist or {})
    net_seed = int(params.pop("net_seed", 0))
    wall_interval = int(params.pop("wall_interval", 25))
    heartbeat = int(params.pop("heartbeat", 5))
    batch_gossip = bool(params.pop("batch_gossip", True))
    transport = str(params.pop("transport", "sim"))
    raw_procs = params.pop("procs", None)
    procs = None if raw_procs is None else int(raw_procs)
    plan = FaultPlan(
        latency=int(params.pop("latency", 0)),
        jitter=int(params.pop("jitter", 0)),
        drop_rate=float(params.pop("drop_rate", 0.0)),
        spike_rate=float(params.pop("spike_rate", 0.0)),
        spike_ticks=int(params.pop("spike_ticks", 0)),
    )
    if params:
        raise ConfigError(f"unknown dist parameters: {sorted(params)}")
    return DistributedRuntime(
        partition,
        mode=config.scheduler,
        plan=plan,
        seed=net_seed,
        wall_interval=wall_interval,
        heartbeat=heartbeat,
        batch_gossip=batch_gossip,
        transport=transport,
        procs=procs,
    )


#: Schedulers that also exist as distributed runtimes.
DIST_SCHEDULERS = {"hdd", "hdd-to", "to", "mvto"}


def build_simulator(config: RunConfig) -> Simulator:
    """Instantiate the scheduler + simulator a config describes."""
    workload = build_workload(config.workload)
    if config.dist is not None:
        scheduler = _make_dist_runtime(config, workload.partition)
    else:
        scheduler = _make_scheduler(config.scheduler, workload.partition)
    return Simulator(
        scheduler,
        workload,
        clients=config.clients,
        seed=effective_seed(config_hash(config)),
        max_steps=config.max_steps,
        target_commits=config.target_commits,
        think_time=config.think_time,
        restart_backoff=config.restart_backoff,
        arrival_rate=config.arrival_rate,
        gc_interval=config.gc_interval,
        audit=config.audit,
    )


@dataclass
class SweepSpec:
    """A declarative sweep: schedulers x workload grid x seeds.

    ``grid`` cells are dicts of :class:`RunConfig` field overrides;
    workload parameters live under the ``workload`` key.  ``base``
    supplies shared defaults the cells override.  Expansion order is
    the deterministic nested product (cell-major, then scheduler, then
    seed) — the merged result order, independent of how runs execute.
    """

    schedulers: Sequence[str]
    grid: Sequence[Mapping[str, object]] = field(
        default_factory=lambda: [{}]
    )
    seeds: Sequence[int] = (0,)
    base: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.schedulers:
            raise ConfigError("sweep needs at least one scheduler")
        if not self.grid:
            raise ConfigError("sweep needs at least one grid cell")
        if not self.seeds:
            raise ConfigError("sweep needs at least one seed")
        for name in self.schedulers:
            if name not in SCHEDULER_FACTORIES:
                raise ConfigError(f"unknown scheduler {name!r}")
        bad = set(self.base) - _CONFIG_FIELDS - {"workload"}
        if bad:
            raise ConfigError(
                f"unknown RunConfig fields in base: {sorted(bad)}"
            )

    @classmethod
    def from_axes(
        cls,
        schedulers: Sequence[str],
        axes: Mapping[str, Sequence[object]],
        seeds: Sequence[int] = (0,),
        base: Optional[Mapping[str, object]] = None,
    ) -> "SweepSpec":
        """Cartesian-product grid from named axes.

        Axis names are :class:`RunConfig` fields, or — for anything
        else — workload builder parameters (``ro_share`` is accepted as
        an alias for ``read_only_share``).
        """
        names = list(axes)
        cells = []
        for values in product(*(axes[name] for name in names)):
            cell: dict[str, object] = {}
            workload: dict[str, object] = {}
            for name, value in zip(names, values):
                if name == "ro_share":
                    name = "read_only_share"
                if name in _CONFIG_FIELDS:
                    cell[name] = value
                else:
                    workload[name] = value
            if workload:
                cell["workload"] = workload
            cells.append(cell)
        return cls(
            schedulers=list(schedulers),
            grid=cells,
            seeds=list(seeds),
            base=dict(base or {}),
        )

    def expand(self) -> list[RunConfig]:
        """The flat, ordered run-config list this spec denotes."""
        configs = []
        base = dict(self.base)
        base_workload = dict(base.pop("workload", {"schema": "inventory"}))
        base_workload.setdefault("schema", "inventory")
        for cell in self.grid:
            cell = dict(cell)
            workload = {**base_workload, **dict(cell.pop("workload", {}))}
            unknown = set(cell) - _CONFIG_FIELDS
            if unknown:
                raise ConfigError(
                    f"unknown RunConfig fields in grid cell: {sorted(unknown)}"
                )
            for scheduler in self.schedulers:
                for seed in self.seeds:
                    configs.append(
                        RunConfig(
                            scheduler=scheduler,
                            seed=seed,
                            workload=workload,
                            **{**base, **cell},
                        )
                    )
        return configs

    def to_dict(self) -> dict[str, object]:
        return {
            "schedulers": list(self.schedulers),
            "grid": [dict(cell) for cell in self.grid],
            "seeds": list(self.seeds),
            "base": dict(self.base),
        }


_CONFIG_FIELDS = {
    "clients",
    "target_commits",
    "max_steps",
    "think_time",
    "restart_backoff",
    "gc_interval",
    "arrival_rate",
    "audit",
    "dist",
}
