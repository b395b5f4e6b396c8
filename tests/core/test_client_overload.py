"""Client-side overload behaviour: terminal give-up, backpressure
retries, retry budgets, and the circuit breaker — end to end against a
real simulated deployment.
"""

import pytest

from repro.core import DynaStarSystem, SystemConfig, admission
from repro.core import client as client_mod
from repro.core.client import ScriptedWorkload, Workload
from repro.sim import ConstantLatency
from repro.smr import Command, KeyValueApp
from repro.smr.command import ReplyStatus

from tests.core.conftest import assert_clean, kv_app


class RecordingWorkload(ScriptedWorkload):
    """Scripted workload that records terminal failures."""

    def __init__(self, commands):
        super().__init__(commands)
        self.failures = []

    def on_command_failed(self, client, command, reason):
        self.failures.append((command.uid, reason))


def overload_system(**config_kwargs):
    config = SystemConfig(
        n_partitions=2,
        seed=5,
        latency=ConstantLatency(0.001),
        repartition_enabled=False,
        **config_kwargs,
    )
    return DynaStarSystem(kv_app(), config)


def crash_all_partitions(system):
    for partition in system.partition_names:
        for replica in system.servers(partition):
            replica.crash()


def recover_all_partitions(system):
    for partition in system.partition_names:
        for replica in system.servers(partition):
            replica.recover()


class TestGiveUp:
    def test_exhausted_attempts_surface_as_terminal_failure(self):
        # Partitions are dead the whole run: every attempt times out and
        # the client must give up, tell the workload, and move on.
        system = overload_system(client_timeout=0.1)
        workload = RecordingWorkload(
            [Command("g:0", "read", ("k0",)), Command("g:1", "read", ("k1",))]
        )
        client = system.add_client(workload, max_attempts=3)
        system.start()
        crash_all_partitions(system)
        system.run(until=30.0)

        assert client.done, "give-up must unblock the client"
        assert client.gave_up == 2
        assert workload.failures == [
            ("g:0", "timed out"),
            ("g:1", "timed out"),
        ]
        for uid in ("g:0", "g:1"):
            status, result = client.results[uid]
            assert status == ReplyStatus.NOK
        assert system.monitor.labeled_counters("client")["gave_up"] == 2

    def test_retry_budget_exhaustion_gives_up_early(self):
        # Budget of 1: the first command spends the only retry token
        # (its own deposit is a fifth of one) and gives up on the second
        # timeout, well before max_attempts.
        system = overload_system(client_timeout=0.1, client_retry_budget=1.0)
        workload = RecordingWorkload([Command("b:0", "read", ("k0",))])
        client = system.add_client(workload, max_attempts=50)
        system.start()
        crash_all_partitions(system)
        system.run(until=30.0)

        assert workload.failures == [("b:0", "retry budget exhausted")]
        assert client.timeouts == 2  # initial attempt + the one retry
        assert client.gave_up == 1


class TestBackpressure:
    @pytest.fixture(autouse=True)
    def fast_busy_retry(self, monkeypatch):
        monkeypatch.setattr(admission, "ADMISSION_RETRY_AFTER", 0.01)

    def build_saturated(self, n_clients=4, **extra):
        # bound=1 on busy partitions: concurrent single-partition
        # clients are refused with ServerBusy and must back off.
        system = overload_system(
            service_time=0.02,
            client_timeout=0.5,
            admission_bound=1,
            **extra,
        )
        clients = []
        for c in range(n_clients):
            cmds = [
                Command(f"c{c}:{i}", "write", ("k0", c * 100 + i))
                for i in range(5)
            ]
            clients.append(system.add_client(ScriptedWorkload(cmds)))
        return system, clients

    def test_busy_replies_are_retried_to_completion(self):
        system, clients = self.build_saturated()
        system.run(until=60.0)

        assert all(c.done for c in clients)
        assert all(c.completed == 5 for c in clients)
        assert sum(c.gave_up for c in clients) == 0
        # The overload was real and visible: clients saw backpressure,
        # servers counted their refusals under labeled admission metrics.
        assert sum(c.busy_rejections for c in clients) > 0
        admission = system.monitor.labeled_counters("admission")
        refusals = {
            key: value
            for key, value in admission.items()
            if isinstance(key, tuple) and key[0] in ("busy", "shed")
        }
        assert sum(refusals.values()) > 0
        assert_clean(system)

    def test_acked_commands_execute_exactly_once_under_shedding(self):
        system, clients = self.build_saturated()
        system.run(until=60.0)
        # k0 saw every write; the survivor value must be one of the
        # written values and replicas must agree (no double-execution
        # would be visible as a counter skew for transfer ops; writes
        # assert via full replica-state equality instead).
        written = {c * 100 + i for c in range(4) for i in range(5)}
        merged = system.all_store_variables()
        assert merged["k0"] in written
        assert_clean(system)


class TestCircuitBreaker:
    def test_breaker_trips_then_recovers_after_outage(self):
        system = overload_system(
            client_timeout=0.1,
            client_timeout_cap=0.2,
            client_breaker_threshold=2,
        )
        workload = RecordingWorkload([Command("cb:0", "read", ("k0",))])
        client = system.add_client(workload, max_attempts=100)
        system.start()
        crash_all_partitions(system)
        # Long enough for threshold timeouts + several breaker windows.
        system.run(until=3.0)
        assert client.breaker.trips >= 1
        trips = system.monitor.labeled_counters("admission")["breaker_trip"]
        assert trips == client.breaker.trips
        assert not client.done  # still holding the command, not giving up

        recover_all_partitions(system)
        system.run(until=30.0)
        assert client.done
        status, result = client.results["cb:0"]
        assert status == ReplyStatus.OK
        assert client.gave_up == 0

    def test_open_breaker_stops_issuing(self, monkeypatch):
        monkeypatch.setattr(client_mod, "CLIENT_BREAKER_COOLDOWN", 10.0)
        system = overload_system(
            client_timeout=0.1,
            client_timeout_cap=0.1,
            client_breaker_threshold=1,
        )
        client = system.add_client(
            RecordingWorkload([Command("ob:0", "read", ("k0",))]),
            max_attempts=100,
        )
        system.start()
        crash_all_partitions(system)
        system.run(until=5.0)
        # One timeout trips the breaker; with a 10s cooldown the client
        # sits quiet instead of hammering the dead partition.
        assert client.breaker.is_open
        assert client.timeouts <= 2


class TestKnobValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"client_rate_limit": 0.0},
            {"client_rate_limit": -5.0},
            {"client_retry_budget": -1.0},
            {"client_breaker_threshold": 0},
            {"client_think_time": 0.0},
            {"client_timeout": 0.0},
            {"client_backoff": 0.5},
            {"client_retry_jitter": 1.0},
            {"client_max_attempts": 0},
        ],
    )
    def test_bad_client_knobs_fail_at_build_time(self, kwargs):
        system = overload_system(**kwargs)
        with pytest.raises(ValueError):
            system.add_client(ScriptedWorkload([Command("v:0", "read", ("k0",))]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"admission_bound": 0},
            {"oracle_admission_bound": -2},
            {"mode": "bogus"},
            {"placement": "nowhere"},
        ],
    )
    def test_bad_server_knobs_fail_at_build_time(self, kwargs):
        with pytest.raises(ValueError):
            overload_system(**kwargs)

    def test_workload_hook_default_is_noop(self):
        # The base Workload class must tolerate drivers that never
        # override the failure hook.
        Workload().on_command_failed(None, Command("x", "read", ("k0",)), "r")
