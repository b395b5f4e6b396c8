"""Shared helpers for chaos/fault-injection tests."""

from dataclasses import replace

from repro.core import DynaStarSystem, SystemConfig
from repro.experiments import harness
from repro.sim import ConstantLatency
from repro.smr import KeyValueApp


def kv_app(n_keys=8):
    return KeyValueApp({f"k{i}": i for i in range(n_keys)})


def build_chaos_system(
    n_keys=8,
    n_partitions=2,
    seed=3,
    repartition=False,
    threshold=400,
    **config_kwargs,
):
    """Like :func:`tests.core.conftest.build_system`, but forwards any
    extra :class:`SystemConfig` field (loss_probability, client_timeout,
    retransmit_period, ...) so chaos tests can shape the fault model."""
    app = kv_app(n_keys)
    config = SystemConfig(
        n_partitions=n_partitions,
        seed=seed,
        latency=ConstantLatency(0.001),
        repartition_enabled=repartition,
        repartition_threshold=threshold,
        **config_kwargs,
    )
    return DynaStarSystem(app, config)


def scenario_fingerprint(scenario):
    """``(trace_jsonl, metrics_json)`` of one traced run of a scenario of
    the runner (``python -m repro.experiments``), as the exact gate
    digests it."""
    _summary, system = harness.run_scenario(replace(scenario, tracing=True))
    return harness.fingerprint(system)
