"""Shared fixtures for DynaStar core tests."""

from contextlib import contextmanager

from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import CallbackWorkload, ScriptedWorkload
from repro.experiments.harness import check_run
from repro.sim import ConstantLatency
from repro.smr import Command, KeyValueApp


def kv_app(n_keys=8):
    """Keys k0..k{n-1} with initial value = index."""
    return KeyValueApp({f"k{i}": i for i in range(n_keys)})


def build_system(
    n_keys=8,
    n_partitions=2,
    seed=3,
    repartition=False,
    threshold=400,
    mode="dynastar",
    oracle_dispatch=False,
    hint_period=0.5,
    placement="random",
    execution_lanes=1,
    service_time=0.0,
):
    app = kv_app(n_keys)
    config = SystemConfig(
        n_partitions=n_partitions,
        seed=seed,
        latency=ConstantLatency(0.001),
        repartition_enabled=repartition,
        repartition_threshold=threshold,
        hint_period=hint_period,
        mode=mode,
        oracle_dispatch=oracle_dispatch,
        placement=placement,
        execution_lanes=execution_lanes,
        service_time=service_time,
    )
    return DynaStarSystem(app, config)


@contextmanager
def tapped_sends(system, tap):
    """Call ``tap(src, dst, message)`` for every message handed to the
    network while the block runs."""
    deliver = system.net.send

    def send(src, dst, message, size=1):
        tap(src, dst, message)
        deliver(src, dst, message, size)

    system.net.send = send
    try:
        yield
    finally:
        system.net.send = deliver


def run_script(system, commands, until=30.0, **client_kwargs):
    client = system.add_client(ScriptedWorkload(commands), **client_kwargs)
    system.run(until=until)
    return client


def ok_results(client):
    from repro.smr.command import ReplyStatus

    return {
        uid: result
        for uid, (status, result) in client.results.items()
        if status == ReplyStatus.OK
    }


def assert_clean(system, history=None):
    """The one verdict on a finished, drained run
    (:func:`repro.experiments.harness.check_run`): live replicas agree,
    nothing is lost or left in flight, every client is done, and
    ``history``, when one was recorded, is linearizable."""
    problems = check_run(system, history)
    assert not problems, "\n".join(problems)
