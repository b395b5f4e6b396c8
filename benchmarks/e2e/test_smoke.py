"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Outside the tier-1 ``testpaths``.  Runs every workload through a one-second
window and checks the plumbing, not the numbers: names agree with
``BENCHMARK.json``, values are finite, a repeated pass is virtually
identical, and the traced host fractions add up.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import hostspans  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = harness.Sizing(window=1.0, subseeds=1, min_cycles=2)
SPECS = pytest.mark.parametrize("spec", workloads.WORKLOADS, ids=lambda s: s.name)


def _declared(section):
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


def test_contract_names_the_same_workloads_and_metrics():
    assert [w["name"] for w in CONTRACT["workloads"]] == [s.name for s in workloads.WORKLOADS]
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        s.name: s.why for s in workloads.WORKLOADS
    }
    assert _declared("end_to_end") == harness.END_TO_END
    assert _declared("per_layer") == {
        name: harness.per_layer_unit(name) for name in harness.per_layer_names()
    }


@SPECS
def test_end_to_end_run(spec):
    report = harness.measure_end_to_end(spec, seed=1, seconds=0.0, sizing=SMOKE)
    assert report["problems"] == []  # includes: warm-up and timed pass identical
    assert set(report["metrics"]) == set(_declared("end_to_end"))
    assert all(math.isfinite(v) and v > 0 for v in report["metrics"].values())
    assert report["attempted"] >= 1 and report["failed"] == 0


@SPECS
def test_traced_run(spec, tmp_path):
    trace = tmp_path / "trace.jsonl"
    report = harness.measure_per_layer(spec, seed=1, sizing=SMOKE, trace_path=trace)
    assert report["problems"] == []  # includes: tracing left the virtual numbers alone
    assert list(report["metrics"]) == harness.per_layer_names()
    assert all(math.isfinite(v) for v in report["metrics"].values())
    fractions = [report["metrics"][f"{layer}.host_self_frac"] for layer in hostspans.LAYERS]
    assert sum(fractions) == pytest.approx(1.0, abs=0.01)
    clocks = {json.loads(line).get("clock") for line in trace.read_text().splitlines()}
    assert {"virtual", "host"} <= clocks
