"""Tests for the declarative sweep spec, config hashing, and builders."""

import pytest

from repro.errors import ConfigError
from repro.sweep import (
    RunConfig,
    SweepSpec,
    build_simulator,
    build_workload,
    config_hash,
    effective_seed,
)


class TestRunConfig:
    def test_round_trips_through_dict(self):
        config = RunConfig(
            scheduler="hdd",
            seed=3,
            clients=4,
            target_commits=50,
            workload={"schema": "chain", "depth": 4},
        )
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_defaults_are_pure_data(self):
        data = RunConfig(scheduler="2pl").to_dict()
        assert data["workload"] == {"schema": "inventory"}
        assert data["audit"] is False


class TestConfigHash:
    def test_stable_across_calls_and_instances(self):
        a = RunConfig(scheduler="hdd", seed=1)
        b = RunConfig(scheduler="hdd", seed=1)
        assert config_hash(a) == config_hash(b)

    def test_every_field_is_load_bearing(self):
        base = RunConfig(scheduler="hdd")
        variants = [
            RunConfig(scheduler="2pl"),
            RunConfig(scheduler="hdd", seed=1),
            RunConfig(scheduler="hdd", clients=9),
            RunConfig(scheduler="hdd", target_commits=10),
            RunConfig(scheduler="hdd", max_steps=1),
            RunConfig(scheduler="hdd", think_time=1),
            RunConfig(scheduler="hdd", restart_backoff=4),
            RunConfig(scheduler="hdd", gc_interval=5),
            RunConfig(scheduler="hdd", arrival_rate=0.5),
            RunConfig(scheduler="hdd", audit=True),
            RunConfig(scheduler="hdd", workload={"schema": "claims"}),
        ]
        hashes = {config_hash(v) for v in variants}
        assert config_hash(base) not in hashes
        assert len(hashes) == len(variants)

    def test_monolithic_seed_is_stable(self):
        # Sweep figures reproduce only while this seed holds.
        digest = config_hash(RunConfig(scheduler="hdd"))
        assert effective_seed(digest) == 297126657418773858

    def test_dist_cell_hashes_as_the_wire_it_runs(self):
        def dist_hash(**dist):
            return config_hash(RunConfig(scheduler="hdd", dist=dist))

        assert dist_hash(latency=0) == dist_hash(
            latency=0, batch_gossip=True
        )
        assert dist_hash(latency=0) != dist_hash(
            latency=0, batch_gossip=False
        )

    def test_effective_seed_is_hash_prefix(self):
        digest = config_hash(RunConfig(scheduler="hdd"))
        assert effective_seed(digest) == int(digest[:16], 16)


class TestBuildWorkload:
    @pytest.mark.parametrize(
        "params",
        [
            {"schema": "inventory", "read_only_share": 0.5},
            {"schema": "claims"},
            {"schema": "chain", "depth": 4},
            {"schema": "star", "leaves": 3},
            {"schema": "tree", "depth": 3, "branching": 2},
        ],
    )
    def test_known_schemas_build(self, params):
        workload = build_workload(params)
        assert workload.partition is not None

    def test_unknown_schema_rejected(self):
        with pytest.raises(ConfigError):
            build_workload({"schema": "nope"})

    def test_simulator_seed_comes_from_hash(self):
        import random

        config = RunConfig(scheduler="hdd", seed=7)
        simulator = build_simulator(config)
        expected = random.Random(effective_seed(config_hash(config)))
        assert simulator.rng.getstate() == expected.getstate()


class TestSweepSpecValidation:
    def test_needs_schedulers_grid_and_seeds(self):
        with pytest.raises(ConfigError):
            SweepSpec(schedulers=[])
        with pytest.raises(ConfigError):
            SweepSpec(schedulers=["hdd"], grid=[])
        with pytest.raises(ConfigError):
            SweepSpec(schedulers=["hdd"], seeds=[])

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(schedulers=["hdd", "nope"])

    def test_unknown_base_field_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(schedulers=["hdd"], base={"sedulers": []})

    def test_unknown_grid_cell_field_rejected_on_expand(self):
        spec = SweepSpec(schedulers=["hdd"], grid=[{"cleints": 2}])
        with pytest.raises(ConfigError):
            spec.expand()


class TestExpansion:
    def test_order_is_cell_major_then_scheduler_then_seed(self):
        spec = SweepSpec(
            schedulers=["hdd", "2pl"],
            grid=[{"clients": 2}, {"clients": 4}],
            seeds=[0, 1],
        )
        configs = spec.expand()
        assert [(c.clients, c.scheduler, c.seed) for c in configs] == [
            (2, "hdd", 0),
            (2, "hdd", 1),
            (2, "2pl", 0),
            (2, "2pl", 1),
            (4, "hdd", 0),
            (4, "hdd", 1),
            (4, "2pl", 0),
            (4, "2pl", 1),
        ]

    def test_base_supplies_defaults_cells_override(self):
        spec = SweepSpec(
            schedulers=["hdd"],
            grid=[{}, {"clients": 3, "workload": {"skew": 2.0}}],
            base={
                "clients": 5,
                "workload": {"schema": "chain", "depth": 3},
            },
        )
        plain, overridden = spec.expand()
        assert plain.clients == 5
        assert plain.workload == {"schema": "chain", "depth": 3}
        assert overridden.clients == 3
        assert overridden.workload == {
            "schema": "chain",
            "depth": 3,
            "skew": 2.0,
        }

    def test_from_axes_cartesian_product(self):
        spec = SweepSpec.from_axes(
            schedulers=["hdd"],
            axes={"ro_share": [0.0, 0.5], "clients": [2, 4]},
        )
        configs = spec.expand()
        assert len(configs) == 4
        # ro_share is an alias for the workload builder's name; clients
        # is a RunConfig field.
        assert [
            (c.workload["read_only_share"], c.clients) for c in configs
        ] == [(0.0, 2), (0.0, 4), (0.5, 2), (0.5, 4)]

    def test_to_dict_round_trips_the_declaration(self):
        spec = SweepSpec(
            schedulers=["hdd"], grid=[{"clients": 2}], seeds=[9]
        )
        data = spec.to_dict()
        again = SweepSpec(**data)
        assert again.expand() == spec.expand()
