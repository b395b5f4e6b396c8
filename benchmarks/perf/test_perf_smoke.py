"""Smoke tests for the exact gate (`repro.experiments.perf`).

The whole registry takes ~35 s and runs as a CI step of its own; here it
is cut down to the ~1 s ``chaos`` cell (or to a fake cell) and the lanes
ablation answers from the committed record, so what is tested is the
gate itself: what passes, what fails, and what a failure says.

No test asserts a committed digest.  Whether the digests are the same on
another machine (another libm behind ``lognormvariate``) is unverified;
every baseline compared with here is recorded by the test that uses it.
"""

import itertools
import json

import pytest

from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import ScriptedWorkload
from repro.experiments import perf
from repro.sim import ConstantLatency
from repro.smr import Command, KeyValueApp

ENTRY_KEYS = {"trace_records", "trace_sha256", "metrics_sha256", "counts"}


@pytest.fixture
def committed():
    return json.loads(perf.BASELINE_PATH.read_text())


@pytest.fixture
def canned_ablation(monkeypatch, committed):
    """The 12 s lanes ablation answers from the committed record."""
    monkeypatch.setattr(perf, "run_lanes_ablation", lambda: committed["lanes_ablation"])


def only_cell(monkeypatch, name, runner):
    monkeypatch.setattr(perf, "GATE_SCENARIOS", {name: runner})


def metrics_json(events):
    return json.dumps({"counters": {"done": 1}, "sim": {"events_processed": events}})


def small_cell(diverge=False):
    """A traced two-partition run of a dozen writes; ``diverge`` overwrites
    one replica's copy afterwards, which no span or counter sees."""
    system = DynaStarSystem(
        KeyValueApp({f"k{i}": i for i in range(4)}),
        SystemConfig(
            n_partitions=2, seed=5, latency=ConstantLatency(0.001), tracing=True
        ),
    )
    commands = [Command(f"c:{i}", "write", (f"k{i % 4}", i)) for i in range(12)]
    system.add_client(ScriptedWorkload(commands))
    system.run(until=5.0)
    if diverge:
        system.servers("p0")[1].store.put("k0", -1)
    return system


class TestCommittedBaseline:
    def test_one_flat_record_with_every_registered_cell(self, committed):
        """A cell without a committed digest fails the gate and a digest
        without a cell is dead weight: the two sets are the same."""
        assert set(committed) == {
            "schema", "recorded", "python", "platform", "determinism", "lanes_ablation",
        }
        assert perf.load_baseline(perf.BASELINE_PATH) == committed
        assert set(committed["determinism"]) == set(perf.GATE_SCENARIOS)
        for entry in committed["determinism"].values():
            assert set(entry) == ENTRY_KEYS
            assert all(isinstance(v, int) for v in entry["counts"].values())
        for entry in committed["lanes_ablation"].values():
            assert set(entry) <= {"commands_completed", "problems", "speedup_vs_serial"}
            assert entry["problems"] == []

    def test_unreadable_baselines_load_as_empty(self, tmp_path):
        assert perf.load_baseline(tmp_path / "nope.json") == {}
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"schema": perf.SCHEMA_VERSION - 1}))
        assert perf.load_baseline(stale) == {}


class TestGate:
    def test_record_then_match_then_tamper(
        self, canned_ablation, monkeypatch, tmp_path, capsys
    ):
        only_cell(monkeypatch, "chaos", perf.GATE_SCENARIOS["chaos"])
        path = tmp_path / "baseline.json"
        assert perf.main(["--baseline", str(path)]) == 1  # nothing recorded yet
        assert "chaos: no baseline entry" in capsys.readouterr().err
        assert not path.exists()

        assert perf.main(["--baseline", str(path), "--rebaseline"]) == 0
        record = json.loads(path.read_text())
        assert set(record["determinism"]) == {"chaos"}
        assert set(record["determinism"]["chaos"]) == ENTRY_KEYS
        assert perf.main(["--baseline", str(path)]) == 0
        assert capsys.readouterr().err == ""

        # One message more per run than was recorded: the failure names
        # the cell, the digest and the count.
        entry = record["determinism"]["chaos"]
        sent = entry["counts"]["sim.net_sent"]
        entry["counts"]["sim.net_sent"] = sent - 1
        entry["metrics_sha256"] = "0" * 64
        path.write_text(json.dumps(record))
        assert perf.main(["--baseline", str(path)]) == 1
        err = capsys.readouterr().err
        assert "chaos: metrics_sha256 differ from the baseline" in err
        assert "trace_sha256" not in err
        assert f"sim.net_sent {sent - 1} -> {sent}" in err
        assert f"baseline recorded {record['recorded']} under CPython" in err
        assert "GATE FAILED" in err

        # Same counts, other bytes: only an order or a timestamp moved.
        entry["counts"]["sim.net_sent"] = sent
        entry["trace_sha256"] = "0" * 64
        path.write_text(json.dumps(record))
        assert perf.main(["--baseline", str(path)]) == 1
        err = capsys.readouterr().err
        assert "chaos: trace_sha256 and metrics_sha256 differ" in err
        assert "no count moved: timing only" in err

    def test_unrepeatable_cell_fails_and_is_never_recorded(
        self, canned_ablation, monkeypatch, tmp_path, capsys
    ):
        events = itertools.count()
        only_cell(monkeypatch, "fake", small_cell)
        monkeypatch.setattr(
            perf, "fingerprint",
            lambda system: ('{"kind": "span"}\n', metrics_json(next(events))),
        )
        path = tmp_path / "baseline.json"
        assert perf.main(["--baseline", str(path), "--rebaseline"]) == 1
        assert "fake: two runs of one seed differ" in capsys.readouterr().err
        assert not path.exists()

    def test_empty_trace_fails(self, canned_ablation, monkeypatch, tmp_path, capsys):
        only_cell(monkeypatch, "fake", small_cell)
        monkeypatch.setattr(perf, "fingerprint", lambda system: ("", metrics_json(7)))
        path = tmp_path / "baseline.json"
        assert perf.main(["--baseline", str(path), "--rebaseline"]) == 1
        assert "fake: empty trace: the gate is vacuous" in capsys.readouterr().err
        assert not path.exists()

    def test_matching_digest_of_a_wrong_run_fails_and_is_never_recorded(
        self, canned_ablation, monkeypatch, tmp_path, capsys
    ):
        """A digest says the run is the same, ``check_run`` that it is
        right: the gate wants both."""
        only_cell(monkeypatch, "small", small_cell)
        path = tmp_path / "baseline.json"
        assert perf.main(["--baseline", str(path), "--rebaseline"]) == 0
        recorded = path.read_text()

        only_cell(monkeypatch, "small", lambda: small_cell(diverge=True))
        assert perf.main(["--baseline", str(path)]) == 1
        err = capsys.readouterr().err
        assert "small: replica state divergence in p0" in err
        assert "differ" not in err  # both digests are the recorded ones
        assert perf.main(["--baseline", str(path), "--rebaseline"]) == 1
        assert "small: replica state divergence in p0" in capsys.readouterr().err
        assert path.read_text() == recorded


class TestLanesCheck:
    def test_committed_ablation_passes_against_itself(self, committed):
        ablation = committed["lanes_ablation"]
        assert perf.check_lanes(ablation, committed) == []
        assert perf.check_lanes(ablation, None) == []

    def test_what_fails(self, committed):
        ablation = json.loads(json.dumps(committed["lanes_ablation"]))
        ablation["lanes2"]["problems"] = ["replica state divergence in p0"]
        ablation["lanes4"]["speedup_vs_serial"] = 1.2
        failures = perf.check_lanes(ablation, committed)
        assert failures[0] == "lanes_ablation: lanes2: replica state divergence in p0"
        assert failures[1] == "lanes_ablation: 4-lane speedup 1.20x < 1.5x"
        assert len(failures) == 3  # and it is not the committed result
        assert len(perf.check_lanes(ablation, None)) == 2  # recording: no comparison
