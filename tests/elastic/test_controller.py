"""ElasticityController: idempotent group provision/retire on a live
system, and the monitor bookkeeping both feed."""

from repro.core import DynaStarSystem, SystemConfig
from repro.elastic import ElasticConfig
from repro.sim import ConstantLatency
from repro.smr import KeyValueApp


def build_elastic_system(**overrides):
    config = SystemConfig(
        n_partitions=2,
        seed=5,
        latency=ConstantLatency(0.001),
        repartition_enabled=False,
        elastic_enabled=True,
        **overrides,
    )
    app = KeyValueApp({f"k{i}": i for i in range(8)})
    return DynaStarSystem(app, config)


class TestProvision:
    def test_creates_and_registers_group(self):
        system = build_elastic_system()
        system.start()
        system.elastic.provision("e1")
        assert "e1" in system.directory.groups
        assert "e1" in system.partition_names
        group = system.directory.groups["e1"]
        assert len(group.replicas) == system.config.n_replicas

    def test_idempotent(self):
        system = build_elastic_system()
        system.start()
        system.elastic.provision("e1")
        group = system.directory.groups["e1"]
        system.elastic.provision("e1")  # other oracle replica / log replay
        assert system.directory.groups["e1"] is group
        assert system.partition_names.count("e1") == 1

    def test_records_partition_count(self):
        system = build_elastic_system()
        system.start()
        system.elastic.provision("e1")
        assert system.monitor.gauge("partition_count").value == 3
        counters = system.monitor.labeled_counters("reconfig")
        assert counters.get("topology_change") == 1

    def test_provisioned_group_serves_traffic(self):
        # A group provisioned mid-run must be a fully working member:
        # start it, run the clock, and its replicas elect a leader.
        system = build_elastic_system()
        system.start()
        system.elastic.provision("e1")
        system.run(until=5.0)
        group = system.directory.groups["e1"]
        assert any(not r.crashed for r in group.replicas)


class TestRetire:
    def test_removes_from_active_set_keeps_group(self):
        system = build_elastic_system()
        system.start()
        system.elastic.retire("p1")
        assert "p1" not in system.partition_names
        # Replicas stay on the network to ack stragglers / NACK clients.
        assert "p1" in system.directory.groups

    def test_idempotent(self):
        system = build_elastic_system()
        system.start()
        system.elastic.retire("p1")
        system.elastic.retire("p1")
        assert system.partition_names == ["p0"]
        counters = system.monitor.labeled_counters("reconfig")
        assert counters.get("topology_change") == 1

    def test_provision_does_not_resurrect_retired(self):
        # A lagging oracle replica replaying an old provision hook for a
        # name that has since been retired must not bring it back.
        system = build_elastic_system()
        system.start()
        system.elastic.provision("e1")
        system.elastic.retire("e1")
        system.elastic.provision("e1")
        assert "e1" not in system.partition_names


class TestWiring:
    def test_disabled_by_default(self):
        config = SystemConfig(
            n_partitions=2, seed=5, latency=ConstantLatency(0.001)
        )
        system = DynaStarSystem(KeyValueApp({"k0": 0}), config)
        assert system.elastic is None

    def test_oracle_replicas_share_elastic_config(self):
        system = build_elastic_system(
            elastic=ElasticConfig(split_factor=2.0, eval_interval=123)
        )
        for replica in system.oracle_replicas():
            assert replica.elastic is not None
            assert replica.elastic.split_factor == 2.0
            assert replica.elastic.eval_interval == 123
