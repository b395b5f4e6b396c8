"""Replay determinism with elasticity: same seed, same scenario — the
exported trace JSONL and metric snapshots must match byte for byte,
with elasticity enabled, disabled, and under the reconfig fault comb."""

import pytest

from dataclasses import replace

from repro.experiments.elastic import ElasticScenario

from tests.faults.conftest import scenario_fingerprint as fingerprint

SCENARIO = ElasticScenario(duration=3.0, shift_at=1.5)


def assert_identical(scenario):
    trace_a, metrics_a = fingerprint(scenario)
    trace_b, metrics_b = fingerprint(scenario)
    assert trace_a, "empty trace — the gate would be vacuous"
    assert trace_a == trace_b
    assert metrics_a == metrics_b
    return trace_a, metrics_a


class TestElasticDeterminism:
    def test_elastic_run_is_byte_identical(self):
        trace, metrics = assert_identical(SCENARIO)
        # The scenario actually reconfigured, or this proves nothing
        # about elasticity.
        assert '"reconfigs_applied"' in metrics or "reconfigs_applied" in metrics

    def test_static_run_is_byte_identical(self):
        assert_identical(replace(SCENARIO, elastic=False))

    def test_elastic_and_static_runs_differ(self):
        # Sanity: the elasticity knob is not a no-op in this scenario.
        trace_elastic, _ = fingerprint(SCENARIO)
        trace_static, _ = fingerprint(replace(SCENARIO, elastic=False))
        assert trace_elastic != trace_static

    @pytest.mark.slow
    def test_chaos_run_is_byte_identical(self):
        assert_identical(
            replace(SCENARIO, duration=8.0, shift_at=4.0, chaos=True)
        )
