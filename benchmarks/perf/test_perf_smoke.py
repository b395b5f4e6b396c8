"""Smoke tests for the wall-clock perf harness (`repro.experiments.perf`).

Tiny-scale versions of what `python -m repro.experiments.perf --quick`
runs in CI: the determinism gate must hold and the report plumbing must
round-trip.  Timing numbers are *not* asserted here — wall-clock
thresholds in tests are flaky by construction; the trajectory lives in
the emitted ``BENCH_*.json`` files.
"""

import json

from repro.experiments import perf


class TestDeterminismGate:
    def test_traced_social_fingerprint_is_repeatable(self):
        """The seeded, traced social scenario exports byte-identical
        trace JSONL and metric dumps across two in-process runs."""
        trace_a, metrics_a = perf._traced_social_fingerprint(quick=True)
        trace_b, metrics_b = perf._traced_social_fingerprint(quick=True)
        assert trace_a == trace_b
        assert metrics_a == metrics_b
        assert trace_a  # non-trivial: the run actually produced spans
        assert '"kind": "span"' in trace_a

    def test_gate_reports_baseline_match(self):
        results, ok = perf.run_determinism_gate(
            True,
            baseline={
                "determinism": {
                    "social_macro": {
                        "trace_sha256": "not-the-real-hash",
                        "metrics_sha256": "nope",
                    }
                }
            },
        )
        assert ok  # repeats are identical even when the baseline differs
        assert results["social_macro"]["matches_baseline"] is False
        assert "matches_baseline" not in results["chaos"]  # no baseline entry


class TestReportPlumbing:
    def test_baseline_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        section = {"schema": perf.SCHEMA_VERSION, "scenarios": {}}
        perf.save_baseline(path, quick=True, section=section)
        perf.save_baseline(path, quick=False, section=section)
        assert perf.load_baseline(path, quick=True) == section
        assert perf.load_baseline(path, quick=False) == section
        raw = json.loads(path.read_text())
        assert set(raw) == {"quick", "full"}

    def test_baseline_never_stores_comparison_flags(self, tmp_path):
        """``matches_baseline`` compares a run with the baseline it is
        about to replace; stored, it is stale at once."""
        path = tmp_path / "baseline.json"
        entry = {"trace_sha256": "t", "metrics_sha256": "m", "repeat_identical": True}
        section = {
            "schema": perf.SCHEMA_VERSION,
            "determinism": {"chaos": {**entry, "matches_baseline": False}},
        }
        perf.save_baseline(path, quick=True, section=section)
        assert perf.load_baseline(path, quick=True)["determinism"] == {"chaos": entry}
        assert section["determinism"]["chaos"]["matches_baseline"] is False  # not mutated

    def test_load_baseline_rejects_schema_mismatch(self, tmp_path):
        path = tmp_path / "baseline.json"
        perf.save_baseline(path, quick=True, section={"schema": -1})
        assert perf.load_baseline(path, quick=True) == {}

    def test_load_baseline_missing_file(self, tmp_path):
        assert perf.load_baseline(tmp_path / "nope.json", quick=True) == {}

    def test_committed_baseline_is_loadable(self):
        """The repo ships a recorded baseline; the harness must be able
        to read it (schema drift here silently disables the gate)."""
        path = perf.default_baseline_path()
        assert path.is_file(), "benchmarks/perf/baseline.json missing"
        for quick in (True, False):
            section = perf.load_baseline(path, quick)
            assert section, f"baseline section unreadable (quick={quick})"
            assert set(section["determinism"]) == set(perf.GATE_SCENARIOS)
            for entry in section["determinism"].values():
                assert "matches_baseline" not in entry
