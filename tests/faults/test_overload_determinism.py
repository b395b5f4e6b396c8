"""Two same-seed flash-crowd runs must be byte-identical: the exported
trace JSONL and the full metric dump.  Every overload decision — shed,
busy, breaker trip, retry backoff — runs on the virtual clock and seeded
RNG streams, so nondeterminism anywhere in the admission path shows up
here as a diff."""

import json
from dataclasses import replace

from repro.experiments import harness
from repro.experiments.overload import FlashCrowdConfig

from tests.faults.conftest import scenario_fingerprint as fingerprint

# Small but genuinely overloaded: the assertions below require that the
# run actually sheds, not just that an idle system replays identically.
QUICK = FlashCrowdConfig(
    seed=7,
    n_clients=24,
    duration=3.0,
    burst_at=1.0,
    burst_duration=1.5,
    burst_factor=10.0,
)


class TestFlashCrowdDeterminism:
    def test_trace_and_metrics_byte_identical(self):
        trace_a, metrics_a = fingerprint(QUICK)
        trace_b, metrics_b = fingerprint(QUICK)
        assert trace_a == trace_b
        assert metrics_a == metrics_b
        # The gate must not pass vacuously.
        assert trace_a.count("\n") > 100
        assert '"backpressure"' in trace_a or '"shed"' in trace_a or '"busy"' in trace_a

    def test_overload_decisions_visible_in_fingerprint(self):
        summary, system = harness.run_scenario(QUICK)
        assert harness.check_run(system) == []
        # the determinism fingerprint covers the overload path
        assert QUICK.gates(summary) == []
        _trace, metrics = fingerprint(QUICK)
        dump = json.loads(metrics)
        assert json.dumps(dump, sort_keys=True) == metrics  # canonical form

    def test_different_seed_changes_the_run(self):
        # Sanity check that the fingerprint has discriminating power.
        trace_a, _ = fingerprint(QUICK)
        trace_b, _ = fingerprint(replace(QUICK, seed=8))
        assert trace_a != trace_b
