"""The exact gate: seeded runs replay byte-for-byte.

Replicas that deliver the same sequence execute it deterministically
(PAPER.md §2).  This reproduction's equivalent — a seeded run exports the
same trace JSONL and metric dump every time, under every interpreter and
``PYTHONHASHSEED`` — is the licence every refactoring leans on, and this
module is where it is held (EXPERIMENTS.md, "The exact gate")::

    python -m repro.experiments.perf                # the gate (~45 s)
    python -m repro.experiments.perf --rebaseline   # declare a behaviour change

:func:`run_gate` replays every cell of :data:`GATE_SCENARIOS` against the
digests committed in ``benchmarks/perf/baseline.json``, and
:func:`check_lanes` holds the TPC-C lanes ablation to its committed
counts.  A digest says a run is the *same*, not that it is *right*: each
cell is then drained and judged by ``harness.check_run``, and fails on a
problem whether or not its digests match.  Any mismatch fails; the
failure says which counts moved and who recorded the baseline, because
whether the digests depend on the machine's libm (``lognormvariate``) is
unverified.  ``--rebaseline`` rewrites the file from this run — refused
when a cell does not repeat or is not clean, or the ablation reports a
problem — and its diff then shows reviewers what the change moved.

Nothing here reads a clock: host time and memory are measured by
``benchmarks/e2e`` and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

from repro.experiments import compartment, elastic, overload
from repro.experiments.harness import (
    build_chirper_system,
    build_tpcc_system,
    check_run,
    fingerprint,
    make_social_graph,
    run_scenario,
    tpcc_workload,
    warehouse_aligned_placement,
)
from repro.faults import ChaosConfig, ChaosInjector, generate_for_system
from repro.workloads.social import ChirperWorkload
from repro.workloads.tpcc import TPCCConfig

#: Bump when the layout of ``baseline.json`` changes (an older file then
#: loads as empty and every cell fails with "no baseline entry").
SCHEMA_VERSION = 2

#: Pinned seeds — the whole point is replayable runs.
SOCIAL_SEED = 11
WORKLOAD_SEED = 3
SYSTEM_SEED = 1


def _traced(system):
    system.config.tracing = True
    system.tracer.enabled = True
    return system


def _social(mode: str):
    """Chirper (85 % timeline / 15 % post) on DynaStar with
    repartitioning, or on a baseline: ``mode="ssmr"`` / ``"dssmr"`` are
    the only digests that cover :mod:`repro.baselines`."""
    graph = make_social_graph(120, seed=SOCIAL_SEED)
    system = _traced(
        build_chirper_system(
            2, graph, mode=mode, seed=SYSTEM_SEED, repartition_threshold=4000
        )
    )
    workload = ChirperWorkload(graph, mix="mix", seed=WORKLOAD_SEED)
    for _ in range(3):
        system.add_client(workload, stop_at=3.0)
    system.run(until=3.0)
    return system


def _chaos(chaos_seed: int = 77):
    """Chirper under 2 % message loss, crashes, link cuts and
    client-timeout retries: the one cell on the lossy send path."""
    graph = make_social_graph(80, seed=SOCIAL_SEED)
    system = _traced(build_chirper_system(2, graph, seed=SYSTEM_SEED))
    system.config.loss_probability = system.net.loss_probability = 0.02
    system.config.client_timeout = 0.25
    system.config.client_timeout_cap = 2.0
    schedule = generate_for_system(
        system, ChaosConfig(duration=3.0, start_after=0.5), seed=chaos_seed
    )
    ChaosInjector(system, schedule).arm()
    workload = ChirperWorkload(graph, mix="mix", seed=WORKLOAD_SEED)
    for _ in range(3):
        system.add_client(workload, stop_at=4.0)
    system.run(until=6.0)
    return system


#: Lane counts compared by the ablation (1 = the serial baseline).
LANE_COUNTS = (1, 2, 4)


def _run_tpcc_lanes(lanes: int, n_clients: int, duration: float, traced: bool):
    """Warehouse-aligned TPC-C (minimal multi-partition traffic) with a
    modeled service time, run until its clients stop: the
    intra-partition execution rig of the ``tpcc_lanes`` cell and of the
    ablation."""
    tpcc_config = TPCCConfig(n_warehouses=2)
    system, _ = build_tpcc_system(
        2,
        placement=warehouse_aligned_placement(tpcc_config),
        seed=SYSTEM_SEED,
        tpcc_config=tpcc_config,
        # high enough that execution (not protocol round-trips) dominates,
        # so the lane count is what moves the completion numbers
        service_time=0.004,
        execution_lanes=lanes,
    )
    if traced:
        _traced(system)
    workload = tpcc_workload(tpcc_config, seed=WORKLOAD_SEED)
    for _ in range(n_clients):
        system.add_client(workload, stop_at=duration)
    system.run(until=duration)
    return system


def run_lanes_ablation() -> dict:
    """Commands completed in 4 virtual seconds by 12 clients at each lane
    count, on identical seeded offered load.  Virtual-time completion
    counts are deterministic, so the speedup ratios are exact and
    replayable.  Each run is then drained and judged (``problems``): no
    ratio is quoted from a run that fails :func:`check_run`."""
    results: dict = {}
    for lanes in LANE_COUNTS:
        system = _run_tpcc_lanes(lanes, n_clients=12, duration=4.0, traced=False)
        completed = system.total_completed()
        # 2 s more, so every command in flight resolves before the check
        system.run(until=6.0)
        results[f"lanes{lanes}"] = {
            "commands_completed": completed,
            "problems": check_run(system),
        }
    base = results["lanes1"]["commands_completed"]
    for lanes in LANE_COUNTS[1:]:
        entry = results[f"lanes{lanes}"]
        entry["speedup_vs_serial"] = entry["commands_completed"] / base if base else 0.0
    return results


#: Virtual seconds a cell runs on once its fingerprint is taken (the
#: ``social_*`` and ``tpcc_lanes`` cells stop with their clients): only
#: a drained run can be judged.
GATE_DRAIN = 5.0


def _scenario(scenario):
    return run_scenario(replace(scenario, tracing=True))[1]


#: Every digest-gated cell, as a callable returning the finished traced
#: system.  The first five run the protocol core on the LAN latency
#: model; the rest are the ``--quick`` scenarios of the scenario runner
#: (admission, elastic retirement NACKs, the compartment read path), each
#: beside the variant with its subsystem switched off.
GATE_SCENARIOS = {
    "social_macro": lambda: _social("dynastar"),
    "social_ssmr": lambda: _social("ssmr"),
    "social_dssmr": lambda: _social("dssmr"),
    "chaos": _chaos,
    # the lane scheduler itself must be deterministic
    "tpcc_lanes": lambda: _run_tpcc_lanes(4, n_clients=6, duration=2.0, traced=True),
    "overload": lambda: _scenario(overload.QUICK),
    "elastic": lambda: _scenario(elastic.QUICK),
    "elastic_static": lambda: _scenario(replace(elastic.QUICK, elastic=False)),
    "compartment": lambda: _scenario(compartment.QUICK),
    "compartment_chaos": lambda: _scenario(replace(compartment.QUICK, chaos=True)),
    "leader_only": lambda: _scenario(replace(compartment.QUICK, compartment=False)),
    "leader_only_chaos": lambda: _scenario(
        replace(compartment.QUICK, compartment=False, chaos=True)
    ),
}


def _drift(recorded: dict, entry: dict) -> list[str]:
    """What of a baseline entry is not as recorded: which digests, and
    ``name old -> new`` for every count that moved."""
    digests = [
        key for key in ("trace_sha256", "metrics_sha256") if recorded[key] != entry[key]
    ]
    if not digests:
        return []
    old = {"trace_records": recorded["trace_records"], **recorded["counts"]}
    new = {"trace_records": entry["trace_records"], **entry["counts"]}
    moved = [
        f"{key} {old.get(key)} -> {new.get(key)}"
        for key in sorted(old.keys() | new.keys())
        if old.get(key) != new.get(key)
    ]
    return [
        f"{' and '.join(digests)} differ from the baseline: "
        + ("; ".join(moved) or "no count moved: timing only")
    ]


def run_gate(baseline: Optional[dict]) -> tuple[dict, list[str]]:
    """Run every cell of :data:`GATE_SCENARIOS` twice; return
    ``(entries, failures)``: one baseline entry per cell, and one line
    per thing wrong with it — the two runs differ, the trace is empty,
    a digest is not the committed one, or the drained run fails
    :func:`check_run` (the fingerprint is taken before the drain, which
    can therefore move no digest).  ``baseline`` is ``None`` on a
    recording run, which has nothing to compare with.
    """
    entries, failures = {}, []
    for name, runner in GATE_SCENARIOS.items():
        system = runner()
        trace, metrics = fingerprint(system)
        dump = json.loads(metrics)
        entry = entries[name] = {
            "trace_records": trace.count("\n"),
            "trace_sha256": hashlib.sha256(trace.encode()).hexdigest(),
            "metrics_sha256": hashlib.sha256(metrics.encode()).hexdigest(),
            "counts": {
                **dump["counters"],
                **{f"sim.{key}": value for key, value in dump["sim"].items()},
            },
        }
        system.run(until=system.sim.now + GATE_DRAIN)
        problems = check_run(system)
        if fingerprint(runner()) != (trace, metrics):
            problems.append("two runs of one seed differ")
        if not trace:
            problems.append("empty trace: the gate is vacuous")
        if baseline is not None:
            recorded = baseline.get("determinism", {}).get(name)
            if recorded is None:
                problems.append("no baseline entry (record one with --rebaseline)")
            else:
                problems += _drift(recorded, entry)
        print(
            f"[perf]   {name}: {entry['trace_records']} trace records, "
            f"{'FAILED' if problems else 'ok'}",
            flush=True,
        )
        failures += [f"{name}: {problem}" for problem in problems]
    return entries, failures


def check_lanes(ablation: dict, baseline: Optional[dict]) -> list[str]:
    """What is wrong with a lanes ablation: a drained run with a
    consistency problem, a 4-lane ratio under 1.5x, or (unless recording)
    results that are not the committed ones."""
    failures = [
        f"{name}: {problem}"
        for name, entry in ablation.items()
        for problem in entry["problems"]
    ]
    ratio = ablation["lanes4"]["speedup_vs_serial"]
    if ratio < 1.5:
        failures.append(f"4-lane speedup {ratio:.2f}x < 1.5x")
    if baseline is not None and baseline.get("lanes_ablation") != ablation:
        failures.append(f"{baseline.get('lanes_ablation')} -> {ablation}")
    return [f"lanes_ablation: {failure}" for failure in failures]


#: ``benchmarks/perf/baseline.json`` in the repo checkout.
BASELINE_PATH = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "perf" / "baseline.json"
)


def load_baseline(path: Path) -> dict:
    """The committed record, or ``{}`` when there is none this version
    can read (every cell then fails for want of a baseline entry)."""
    if not path.is_file():
        return {}
    data = json.loads(path.read_text())
    return data if data.get("schema") == SCHEMA_VERSION else {}


def save_baseline(path: Path, entries: dict, ablation: dict) -> None:
    """Write one flat record: each digest once, its counts beside it,
    and who recorded it.  Nothing that compares this run with the
    baseline it replaces is stored — it would be stale at once."""
    record = {
        "schema": SCHEMA_VERSION,
        "recorded": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "determinism": entries,
        "lanes_ablation": ablation,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="The exact gate: seeded runs replay byte-for-byte."
    )
    parser.add_argument(
        "--baseline", type=Path, default=BASELINE_PATH, help="baseline JSON path"
    )
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="record this run as the baseline (declares a behaviour change)",
    )
    args = parser.parse_args(argv)
    baseline = None if args.rebaseline else load_baseline(args.baseline)

    print(f"[perf] {len(GATE_SCENARIOS)} cells, each run twice ...", flush=True)
    entries, failures = run_gate(baseline)
    print("[perf] lanes ablation ...", flush=True)
    ablation = run_lanes_ablation()
    for name, entry in ablation.items():
        print(f"[perf]   {name}: {entry['commands_completed']} commands", flush=True)
    failures += check_lanes(ablation, baseline)

    if failures:
        for failure in failures:
            print(f"[perf] {failure}", file=sys.stderr)
        if baseline:
            print(
                f"[perf] baseline recorded {baseline['recorded']} under CPython "
                f"{baseline['python']} on {baseline['platform']}; this is CPython "
                f"{platform.python_version()} on {platform.platform()}",
                file=sys.stderr,
            )
        print("[perf] GATE FAILED", file=sys.stderr)
        return 1
    if args.rebaseline:
        save_baseline(args.baseline, entries, ablation)
        print(f"[perf] baseline rewritten: {args.baseline}", flush=True)
    else:
        print(f"[perf] gate ok: every cell matches {args.baseline}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
