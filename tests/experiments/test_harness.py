"""Tests for the experiment harness and reporting helpers."""

import dataclasses
import json
import math

import pytest

from repro.experiments import __main__ as runner
from repro.experiments.harness import (
    build_chirper_system,
    build_tpcc_system,
    make_social_graph,
    run_clients,
    social_optimized_placement,
    steady_rate,
    tpcc_workload,
    warehouse_aligned_placement,
)
from repro.experiments.reporting import downsample, render_series, render_table
from repro.recovery import demo
from repro.workloads.social import ChirperWorkload
from repro.workloads.tpcc import TPCCConfig, district_node, warehouse_node


class TestSteadyRate:
    def test_windows_correctly(self):
        series = [(0.0, 10.0), (1.0, 20.0), (2.0, 30.0), (3.0, 40.0)]
        assert steady_rate(series, 1.0, 3.0) == 25.0

    def test_empty_window(self):
        assert steady_rate([(0.0, 1.0)], 5.0, 10.0) == 0.0

    def test_empty_series(self):
        assert steady_rate([], 0.0, 10.0) == 0.0


class TestPlacements:
    def test_warehouse_aligned_covers_all_nodes(self):
        config = TPCCConfig(n_warehouses=3)
        placement = warehouse_aligned_placement(config)
        for w in range(1, 4):
            assert placement[warehouse_node(w)] == w - 1
            for d in range(1, 11):
                assert placement[district_node(w, d)] == w - 1

    def test_social_optimized_placement_is_partitioning(self):
        graph = make_social_graph(200, seed=1)
        placement = social_optimized_placement(graph, 4)
        assert len(placement.assignment) == 200
        assert set(placement.assignment.values()) <= set(range(4))


class TestBuilders:
    def test_tpcc_builder_modes(self):
        for mode in ("dynastar", "ssmr", "dssmr"):
            system, config = build_tpcc_system(2, mode=mode)
            assert system.config.n_partitions == 2
            assert config.n_warehouses == 2

    def test_chirper_builder_modes(self):
        graph = make_social_graph(100, seed=1)
        for mode in ("dynastar", "ssmr", "dssmr"):
            system = build_chirper_system(2, graph, mode=mode)
            assert len(system.partition_names) == 2

    def test_run_clients_returns_populated_result(self):
        system, config = build_tpcc_system(2, service_time=0.0)
        workload = tpcc_workload(config, seed=1)
        result = run_clients(system, workload, 4, duration=8.0, warmup=2.0)
        assert result.completed > 0
        assert result.throughput > 0
        assert not math.isnan(result.latency_mean)
        assert result.counters["commands_completed"] == result.completed


class TestScenarioRunner:
    """``python -m repro.experiments``: run, drain, judge — every time."""

    def test_clean_scenario_exits_zero_and_says_so(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert runner.main(["recovery", "--json", str(out), "--obs", str(tmp_path)]) == 0
        assert "[recovery] problems: none" in capsys.readouterr().out
        written = json.loads(out.read_text())
        assert written["problems"] == []
        assert written["scenario"]["seed"] == 3
        assert written["summary"]["snapshot_recoveries"] >= 1
        assert (tmp_path / "trace.jsonl").stat().st_size > 0

    def test_a_problem_is_named_and_exits_nonzero(self, monkeypatch, capsys):
        """No flag asks for the check and none can skip it: a scenario
        whose gate does not hold fails the run."""
        monkeypatch.setattr(
            demo.RecoveryScenario, "gates", lambda self, summary: ["no recovery"]
        )
        assert runner.main(["recovery", "--seed", "4"]) == 1
        captured = capsys.readouterr()
        assert "[recovery] no recovery" in captured.err
        assert "[recovery] problems: 1" in captured.out

    def test_chaos_needs_a_fault_comb(self, capsys):
        with pytest.raises(SystemExit) as caught:
            runner.main(["overload", "--chaos"])
        assert caught.value.code == 2
        assert "overload has no fault comb" in capsys.readouterr().err

    def test_every_scenario_offers_what_the_runner_drives(self):
        for module in runner.SCENARIOS.values():
            for scenario in (module.FULL, module.QUICK):
                assert scenario.duration > 0 and isinstance(scenario.seed, int)
                assert dataclasses.replace(scenario, tracing=True).tracing
                for method in ("build", "summarize", "gates"):
                    assert callable(getattr(scenario, method))


class TestReporting:
    def test_downsample_preserves_short_series(self):
        series = [(0.0, 1.0), (1.0, 2.0)]
        assert downsample(series, 10) == series

    def test_downsample_reduces_long_series(self):
        series = [(float(i), 1.0) for i in range(100)]
        out = downsample(series, 10)
        assert len(out) <= 12
        assert out[0][0] == 0.0

    def test_render_series_includes_peak(self):
        text = render_series([(0.0, 5.0), (1.0, 10.0)], "tput")
        assert "10.0" in text and "tput" in text

    def test_render_series_empty(self):
        assert "no data" in render_series([], "x")

    def test_render_table_formats_rows(self):
        text = render_table(
            [{"a": 1, "b": 2.5}],
            [("a", "A", 0), ("b", "B", 1)],
            title="T",
        )
        assert "T" in text and "A" in text and "2.5" in text
