"""Replay determinism with compartmentalization: same seed, same
scenario — the exported trace JSONL and metric snapshots must match
byte for byte, with the stages enabled, disabled, and under the stage
fault comb (proxy crashes + forced lease expiries)."""

import pytest

from dataclasses import replace

from repro.experiments.compartment import CompartmentScenario

from tests.faults.conftest import scenario_fingerprint as fingerprint

SCENARIO = CompartmentScenario(duration=2.0, n_clients=8)


def assert_identical(scenario):
    trace_a, metrics_a = fingerprint(scenario)
    trace_b, metrics_b = fingerprint(scenario)
    assert trace_a, "empty trace — the gate would be vacuous"
    assert trace_a == trace_b
    assert metrics_a == metrics_b
    return trace_a, metrics_a


class TestCompartmentDeterminism:
    def test_compartment_run_is_byte_identical(self):
        _, metrics = assert_identical(SCENARIO)
        # The scenario actually served local reads, or this proves
        # nothing about the read path.
        assert "event=local_ok" in metrics

    def test_baseline_run_is_byte_identical(self):
        _, metrics = assert_identical(replace(SCENARIO, compartment=False))
        # The off switch is total: no stage counter families at all.
        for family in ("proxy{", "lease{", "learner_reads{", "reads{"):
            assert family not in metrics

    def test_compartment_and_baseline_runs_differ(self):
        # Sanity: the compartment knob is not a no-op in this scenario.
        trace_on, _ = fingerprint(SCENARIO)
        trace_off, _ = fingerprint(replace(SCENARIO, compartment=False))
        assert trace_on != trace_off

    def test_lease_ablation_run_is_byte_identical(self):
        _, metrics = assert_identical(replace(SCENARIO, lease=False))
        assert "event=local_ok" not in metrics

    @pytest.mark.slow
    def test_chaos_run_is_byte_identical(self):
        _, metrics = assert_identical(
            replace(SCENARIO, duration=4.0, chaos=True)
        )
        assert "fault{" in metrics
