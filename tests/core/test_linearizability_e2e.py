"""End-to-end linearizability: run concurrent clients against a DynaStar
deployment (including across repartitioning) and check the observed
history against the sequential specification."""

import random

import pytest

from repro.core.client import ScriptedWorkload
from repro.smr import Command, History, KeyValueApp

from tests.core.conftest import assert_clean, build_system


def run_with_history(system, scripts, until=60.0):
    history = History()
    for cmds in scripts:
        system.add_client(ScriptedWorkload(cmds), history=history)
    system.run(until=until)
    return history


class TestLinearizableExecutions:
    def test_single_partition_reads_writes(self):
        system = build_system(n_keys=4, n_partitions=2)
        scripts = [
            [Command(f"a:{i}", "write", ("k0", i)) for i in range(5)],
            [Command(f"b:{i}", "read", ("k0",)) for i in range(5)],
        ]
        history = run_with_history(system, scripts)
        assert_clean(system, history)

    def test_cross_partition_transfers_and_sums(self):
        system = build_system(n_keys=4, n_partitions=2, seed=7)
        loc = system.initial_assignment
        keys = sorted(loc)
        ka = keys[0]
        kb = next((k for k in keys if loc[k] != loc[ka]), keys[1])
        scripts = [
            [Command(f"a:{i}", "transfer", (ka, kb, 1)) for i in range(4)],
            [Command(f"b:{i}", "sum", (ka, kb)) for i in range(4)],
            [Command(f"c:{i}", "read", (ka,)) for i in range(4)],
        ]
        history = run_with_history(system, scripts)
        assert_clean(system, history)

    @pytest.mark.parametrize("seed", [1, 2, 9])
    def test_random_mixed_workload(self, seed):
        system = build_system(n_keys=6, n_partitions=3, seed=seed)
        rng = random.Random(seed)
        scripts = []
        for c in range(3):
            cmds = []
            for i in range(6):
                kind = rng.choice(["read", "write", "sum", "transfer"])
                if kind == "read":
                    cmds.append(Command(f"c{c}:{i}", "read", (f"k{rng.randrange(6)}",)))
                elif kind == "write":
                    cmds.append(
                        Command(
                            f"c{c}:{i}", "write", (f"k{rng.randrange(6)}", rng.randrange(100))
                        )
                    )
                elif kind == "sum":
                    a, b = rng.sample(range(6), 2)
                    cmds.append(Command(f"c{c}:{i}", "sum", (f"k{a}", f"k{b}")))
                else:
                    a, b = rng.sample(range(6), 2)
                    cmds.append(
                        Command(f"c{c}:{i}", "transfer", (f"k{a}", f"k{b}", 1))
                    )
            scripts.append(cmds)
        history = run_with_history(system, scripts)
        assert_clean(system, history)

    def test_linearizable_across_repartitioning(self):
        system = build_system(
            n_keys=8, n_partitions=2, repartition=True, threshold=60, seed=4
        )
        scripts = []
        for c in range(2):
            cmds = []
            for i in range(25):
                pair = 2 * ((c + i) % 4)
                cmds.append(
                    Command(
                        f"c{c}:{i}", "transfer", (f"k{pair}", f"k{pair + 1}", 1)
                    )
                )
            scripts.append(cmds)
        scripts.append([Command(f"r:{i}", "sum", (f"k{2*(i%4)}", f"k{2*(i%4)+1}")) for i in range(10)])
        history = run_with_history(system, scripts, until=200.0)
        assert system.oracle_replicas()[0].version >= 1, "no plan applied"
        assert_clean(system, history)

    def test_linearizable_in_ssmr_mode(self):
        from repro.baselines import SSMRSystem
        from repro.core import SystemConfig
        from repro.sim import ConstantLatency

        app = KeyValueApp({f"k{i}": i for i in range(4)})
        system = SSMRSystem(
            app,
            SystemConfig(
                n_partitions=2, seed=3, latency=ConstantLatency(0.001)
            ),
        )
        scripts = [
            [Command(f"a:{i}", "transfer", ("k0", "k3", 1)) for i in range(4)],
            [Command(f"b:{i}", "sum", ("k0", "k3")) for i in range(4)],
        ]
        history = run_with_history(system, scripts)
        assert_clean(system, history)

    def test_linearizable_in_dssmr_mode(self):
        from repro.baselines import DSSMRSystem
        from repro.core import SystemConfig
        from repro.sim import ConstantLatency

        app = KeyValueApp({f"k{i}": i for i in range(4)})
        system = DSSMRSystem(
            app,
            SystemConfig(
                n_partitions=2, seed=3, latency=ConstantLatency(0.001)
            ),
        )
        scripts = [
            [Command(f"a:{i}", "transfer", ("k0", "k3", 1)) for i in range(4)],
            [Command(f"b:{i}", "sum", (("k0"), ("k3"))) for i in range(4)],
        ]
        history = run_with_history(system, scripts)
        assert_clean(system, history)
