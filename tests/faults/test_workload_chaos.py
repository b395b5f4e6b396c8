"""A real workload (TPC-C) under chaos: the spec's consistency
conditions must hold on the replicated state after crashes, recoveries,
and loss bursts."""

import pytest

from repro.core import DynaStarSystem, SystemConfig
from repro.faults import ChaosInjector, FaultSchedule
from repro.sim import ConstantLatency
from repro.workloads.tpcc import (
    TPCCApp,
    TPCCConfig,
    TPCCWorkload,
    district_key,
    warehouse_key,
)

from tests.core.conftest import assert_clean


class TestTPCCUnderChaos:
    def test_tpcc_consistency_across_crash_recover_and_loss_burst(self):
        config = TPCCConfig(
            n_warehouses=2, customers_per_district=8, n_items=40
        )
        app = TPCCApp(config)
        system = DynaStarSystem(
            app,
            SystemConfig(
                n_partitions=2,
                seed=3,
                latency=ConstantLatency(0.0005),
                client_timeout=0.25,
                client_timeout_cap=2.0,
            ),
        )
        schedule = (
            FaultSchedule()
            .at(0.2, "crash_replica", "p0", 0)
            .at(0.3, "crash_replica", system.oracle_group, 1)
            .at(1.5, "recover_replica", "p0", 0)
            .at(1.7, "recover_replica", system.oracle_group, 1)
            .at(2.0, "loss_burst", 1.0, 0.1)
        )
        injector = ChaosInjector(system, schedule).arm()
        workload = TPCCWorkload(config, seed=4, commands_per_client=40)
        clients = [system.add_client(workload) for _ in range(3)]
        system.run(until=240.0)

        assert len(injector.applied) == len(schedule)
        completed = sum(c.completed for c in clients)
        assert completed > 0
        assert_clean(system)
        # TPC-C consistency condition 1: warehouse YTD == sum of its
        # districts' YTDs — violated if any payment is lost or doubled.
        merged = system.all_store_variables()
        for w in range(1, config.n_warehouses + 1):
            w_ytd = merged[warehouse_key(w)]["ytd"]
            d_ytd = sum(
                merged[district_key(w, d)]["ytd"]
                for d in range(1, config.districts_per_warehouse + 1)
            )
            assert w_ytd == pytest.approx(d_ytd), (w, w_ytd, d_ytd)
