"""Determinism gate plus single-shot wall-clock figures.

Runs pinned, seeded scenarios and writes a ``BENCH_<date>.json`` with
events/sec, wall-clock seconds, and peak RSS per scenario.  Every scenario
is timed once, so those figures are informational; performance claims are
judged with the end-to-end benchmark in ``benchmarks/e2e``.  What this
module gates is determinism (below).  Usage::

    python -m repro.experiments.perf            # full scale (~2 min)
    python -m repro.experiments.perf --quick    # CI smoke scale (~30 s)

Scenarios
---------
* ``social_macro`` — the Chirper social network on DynaStar (the
  headline macro scenario; the optimization acceptance bar is measured
  here).
* ``tpcc`` — TPC-C with warehouse-aligned partitions.
* ``chaos`` — Chirper under message loss, crashes, link cuts, and
  client-timeout retries.
* ``read_heavy`` — the compartmentalized read-path scenario (proxy
  leaders + 3 read learners + leader leases) next to its leader-only
  baseline; records the read-throughput scaling ratio.
* ``micro.*`` — event dispatch, ``Network.send``, ``Monitor`` counter
  increments, ``fastcopy.copy_value``, and the disabled-path cost of
  the observability hooks in isolation.

Determinism gate
----------------
Every optimization to the simulation hot path must be a *pure
mechanical speedup*: seeded runs must produce byte-identical trace
JSONL and identical metric dumps.  The harness proves this two ways:

* **repeat gate** — each gated scenario runs twice in-process; the two
  trace exports and metric dumps must be byte-identical or the harness
  exits nonzero (this is what CI enforces).
* **baseline comparison** — trace/metric SHA-256 digests are compared
  against ``benchmarks/perf/baseline.json`` (recorded before the
  optimization pass) and the match is recorded in the output, proving
  the optimized hot path replays the exact same simulation.  Use
  ``--strict-baseline`` to also fail on a mismatch (off by default:
  digests are only comparable on the interpreter that recorded them).

``--rebaseline`` rewrites the current mode's section of the baseline
file from this run (digests and figures; never ``matches_baseline``
flags, which describe the baseline being replaced).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments import compartment, elastic, overload
from repro.experiments.harness import (
    build_chirper_system,
    build_tpcc_system,
    fingerprint,
    make_social_graph,
    tpcc_workload,
    verify_consistency,
    warehouse_aligned_placement,
)
from repro.faults import ChaosConfig, ChaosInjector, generate_for_system
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.monitor import Monitor
from repro.sim.network import Network
from repro.smr.fastcopy import copy_value
from repro.workloads.social import ChirperWorkload

#: Bump when scenario definitions change incompatibly (invalidates
#: baseline comparisons).
SCHEMA_VERSION = 1

#: Pinned seeds — the whole point is replayable runs.
SOCIAL_SEED = 11
WORKLOAD_SEED = 3
SYSTEM_SEED = 1
CHAOS_SEED = 77


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB (Linux semantics)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _timed(fn):
    """Run ``fn`` and return (result, wall_clock_seconds)."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Macro scenarios
# ---------------------------------------------------------------------------


def _social_system(quick: bool, tracing: bool = False, gate: bool = False):
    n_users = 120 if (quick or gate) else 300
    graph = make_social_graph(n_users, seed=SOCIAL_SEED)
    system = build_chirper_system(
        2,
        graph,
        mode="dynastar",
        seed=SYSTEM_SEED,
        repartition_threshold=4000,
    )
    system.config.tracing = tracing
    system.tracer.enabled = tracing
    workload = ChirperWorkload(graph, mix="mix", seed=WORKLOAD_SEED)
    return system, workload


def run_social_macro(quick: bool) -> dict:
    system, workload = _social_system(quick)
    n_clients = 4 if quick else 8
    duration = 4.0 if quick else 10.0
    for _ in range(n_clients):
        system.add_client(workload, stop_at=duration)
    _, wall = _timed(lambda: system.run(until=duration))
    return {
        "wall_clock_s": wall,
        "events": system.sim.events_processed,
        "events_per_sec": system.sim.events_processed / wall,
        "commands_completed": system.total_completed(),
        "peak_rss_kb": _peak_rss_kb(),
    }


def run_tpcc(quick: bool) -> dict:
    system, tpcc_config = build_tpcc_system(2, mode="dynastar", seed=SYSTEM_SEED)
    workload = tpcc_workload(tpcc_config, seed=WORKLOAD_SEED)
    n_clients = 4 if quick else 8
    duration = 4.0 if quick else 10.0
    for _ in range(n_clients):
        system.add_client(workload, stop_at=duration)
    _, wall = _timed(lambda: system.run(until=duration))
    return {
        "wall_clock_s": wall,
        "events": system.sim.events_processed,
        "events_per_sec": system.sim.events_processed / wall,
        "commands_completed": system.total_completed(),
        "peak_rss_kb": _peak_rss_kb(),
    }


#: Service time for the lane scenarios: high enough that execution (not
#: protocol round-trips) dominates, so the lane count is what moves the
#: completion numbers.
LANES_SERVICE_TIME = 0.004

#: Lane counts compared by the ablation (1 = the serial baseline).
LANE_COUNTS = (1, 2, 4)

#: Virtual seconds the ablation runs on after its clients stop, so every
#: command in flight resolves before the consistency check.
LANES_DRAIN = 2.0


def _lanes_tpcc_system(lanes: int, quick: bool):
    """Warehouse-aligned TPC-C (minimal multi-partition traffic) with a
    modeled service time: the intra-partition execution ablation rig."""
    from repro.workloads.tpcc import TPCCConfig

    tpcc_config = TPCCConfig(n_warehouses=2)
    system, tpcc_config = build_tpcc_system(
        2,
        mode="dynastar",
        placement=warehouse_aligned_placement(tpcc_config),
        seed=SYSTEM_SEED,
        tpcc_config=tpcc_config,
        service_time=LANES_SERVICE_TIME,
        execution_lanes=lanes,
    )
    return system, tpcc_config


def run_tpcc_lanes(quick: bool) -> dict:
    """The TPC-C macro with 4 execution lanes (dependency-aware parallel
    intra-partition execution)."""
    system, tpcc_config = _lanes_tpcc_system(4, quick)
    workload = tpcc_workload(tpcc_config, seed=WORKLOAD_SEED)
    n_clients = 12 if quick else 24
    duration = 4.0 if quick else 10.0
    for _ in range(n_clients):
        system.add_client(workload, stop_at=duration)
    _, wall = _timed(lambda: system.run(until=duration))
    return {
        "wall_clock_s": wall,
        "events": system.sim.events_processed,
        "events_per_sec": system.sim.events_processed / wall,
        "commands_completed": system.total_completed(),
        "peak_rss_kb": _peak_rss_kb(),
    }


def run_social_lanes(quick: bool) -> dict:
    """The social macro with 4 execution lanes and a modeled service
    time.  Posts and follows are writes over a skewed graph, so unlike
    the near-disjoint TPC-C district streams this measures lane scaling
    in the presence of real conflicts (timeline fan-in)."""
    n_users = 120 if quick else 300
    graph = make_social_graph(n_users, seed=SOCIAL_SEED)
    system = build_chirper_system(
        2,
        graph,
        mode="dynastar",
        seed=SYSTEM_SEED,
        repartition_threshold=4000,
        service_time=LANES_SERVICE_TIME,
        execution_lanes=4,
    )
    workload = ChirperWorkload(graph, mix="mix", seed=WORKLOAD_SEED)
    n_clients = 8 if quick else 16
    duration = 4.0 if quick else 10.0
    for _ in range(n_clients):
        system.add_client(workload, stop_at=duration)
    _, wall = _timed(lambda: system.run(until=duration))
    return {
        "wall_clock_s": wall,
        "events": system.sim.events_processed,
        "events_per_sec": system.sim.events_processed / wall,
        "commands_completed": system.total_completed(),
        "peak_rss_kb": _peak_rss_kb(),
    }


def run_lanes_ablation(quick: bool) -> dict:
    """Commands completed in a fixed virtual duration at each lane
    count, on identical seeded offered load.  Virtual-time completion
    counts are deterministic (unlike wall clock), so the speedup ratios
    are exact and replayable — this is what ``--check-lanes`` gates on,
    together with ``problems``: each run is drained after the clients
    stop and must then pass :func:`verify_consistency`, so a ratio is
    never quoted from a run whose replicas diverged.
    """
    duration = 4.0 if quick else 8.0
    n_clients = 12 if quick else 24
    results: dict = {}
    for lanes in LANE_COUNTS:
        system, tpcc_config = _lanes_tpcc_system(lanes, quick)
        workload = tpcc_workload(tpcc_config, seed=WORKLOAD_SEED)
        for _ in range(n_clients):
            system.add_client(workload, stop_at=duration)
        _, wall = _timed(lambda: system.run(until=duration))
        completed = system.total_completed()
        system.run(until=duration + LANES_DRAIN)
        results[f"lanes{lanes}"] = {
            "commands_completed": completed,
            "wall_clock_s": wall,
            "problems": verify_consistency(system)
            + [f"{c.name} hung" for c in system.clients if not c.done],
        }
    base = results["lanes1"]["commands_completed"]
    for lanes in LANE_COUNTS[1:]:
        entry = results[f"lanes{lanes}"]
        entry["speedup_vs_serial"] = (
            entry["commands_completed"] / base if base else None
        )
    return results


def _chaos_system(quick: bool, tracing: bool = False):
    n_users = 80 if quick else 150
    graph = make_social_graph(n_users, seed=SOCIAL_SEED)
    system = build_chirper_system(
        2,
        graph,
        mode="dynastar",
        seed=SYSTEM_SEED,
    )
    cfg = system.config
    cfg.tracing = tracing
    system.tracer.enabled = tracing
    cfg.loss_probability = 0.02
    system.net.loss_probability = 0.02
    cfg.client_timeout = 0.25
    cfg.client_timeout_cap = 2.0
    duration = 4.0 if quick else 8.0
    chaos = ChaosConfig(duration=duration * 0.75, start_after=0.5)
    schedule = generate_for_system(system, chaos, seed=CHAOS_SEED)
    ChaosInjector(system, schedule).arm()
    workload = ChirperWorkload(graph, mix="mix", seed=WORKLOAD_SEED)
    return system, workload, duration


def run_chaos(quick: bool) -> dict:
    system, workload, duration = _chaos_system(quick)
    for _ in range(4):
        system.add_client(workload, stop_at=duration)
    _, wall = _timed(lambda: system.run(until=duration + 4.0))
    return {
        "wall_clock_s": wall,
        "events": system.sim.events_processed,
        "events_per_sec": system.sim.events_processed / wall,
        "commands_completed": system.total_completed(),
        "peak_rss_kb": _peak_rss_kb(),
    }


def run_read_heavy(quick: bool) -> dict:
    """The compartmentalized read-path macro and its leader-only
    baseline, on the identical seeded offered load; the scaling ratio
    is the acceptance number the compartment work is gated on."""
    scenario = compartment.QUICK if quick else compartment.CompartmentScenario()
    system, _injector, _workloads = compartment.build_scenario(scenario)
    _, wall = _timed(lambda: system.run(until=scenario.duration + 30.0))
    counters = system.monitor.snapshot()["counters"]
    local_ok = sum(
        v for k, v in counters.items()
        if k.startswith("reads{") and "event=local_ok" in k
    )
    baseline_system, _i, _w = compartment.build_scenario(
        replace(scenario, compartment=False)
    )
    _, baseline_wall = _timed(
        lambda: baseline_system.run(until=scenario.duration + 30.0)
    )
    completed = system.total_completed()
    baseline_completed = baseline_system.total_completed()
    return {
        "wall_clock_s": wall + baseline_wall,
        "events": system.sim.events_processed,
        "events_per_sec": system.sim.events_processed / wall,
        "commands_completed": completed,
        "local_reads_ok": local_ok,
        "baseline_commands_completed": baseline_completed,
        "read_scaling_ratio": (
            completed / baseline_completed if baseline_completed else None
        ),
        "peak_rss_kb": _peak_rss_kb(),
    }


# ---------------------------------------------------------------------------
# Micro-benchmarks
# ---------------------------------------------------------------------------


def micro_event_dispatch(quick: bool) -> dict:
    n = 100_000 if quick else 400_000
    sim = Simulator()

    def noop():
        pass

    def setup_and_run():
        for i in range(n):
            sim.schedule(i * 1e-6, noop)
        sim.run()

    _, wall = _timed(setup_and_run)
    return {"ops": n, "wall_clock_s": wall, "ops_per_sec": n / wall}


def micro_network_send(quick: bool) -> dict:
    from repro.sim.actors import Actor

    n = 30_000 if quick else 120_000

    class Sink(Actor):
        def on_message(self, sender, message):
            pass

    sim = Simulator()
    net = Network(sim, default_latency=ConstantLatency(0.0001))
    net.register(Sink("a"))
    net.register(Sink("b"))

    def send_all():
        for i in range(n):
            net.send("a", "b", i)
        sim.run()

    _, wall = _timed(send_all)
    return {"ops": n, "wall_clock_s": wall, "ops_per_sec": n / wall}


def micro_monitor_counters(quick: bool) -> dict:
    n = 100_000 if quick else 400_000
    monitor = Monitor()

    def bump():
        for i in range(n):
            monitor.counter("plain").inc()
            monitor.counter("labeled", kind="a" if i & 1 else "b").inc()

    _, wall = _timed(bump)
    ops = 2 * n
    return {"ops": ops, "wall_clock_s": wall, "ops_per_sec": ops / wall}


def micro_obs_disabled(quick: bool) -> dict:
    """Cost of the observability hooks when observability is off.

    Every audit call site in the oracle/server plan path is shaped as
    an ``enabled`` guard (possibly followed by a ``NULL_AUDIT.record``
    early return); the health sampler is simply absent.  This micro
    times that disabled pattern in isolation.
    """
    from repro.obs.audit import NULL_AUDIT

    n = 100_000 if quick else 400_000
    audit = NULL_AUDIT

    def hooks():
        for i in range(n):
            if audit.enabled:  # guarded call site: never taken
                audit.record("plan-published", 0.0, version=i)
            audit.record("plan-applied", 0.0, version=i)  # early return

    _, wall = _timed(hooks)
    ops = 2 * n
    return {"ops": ops, "wall_clock_s": wall, "ops_per_sec": ops / wall}


def micro_fastcopy(quick: bool) -> dict:
    n = 5_000 if quick else 20_000
    # Shaped like the social-network store values: follower sets, tuple
    # timelines, nested per-user dicts.
    value = {
        "followers": {f"u{i}" for i in range(40)},
        "timeline": [(float(i), f"u{i % 7}", f"post {i}") for i in range(60)],
        "profile": {"name": "user", "counters": [1, 2, 3], "tags": ("a", "b")},
    }

    def copy_loop():
        for _ in range(n):
            copy_value(value)

    _, wall = _timed(copy_loop)
    return {"ops": n, "wall_clock_s": wall, "ops_per_sec": n / wall}


# ---------------------------------------------------------------------------
# Determinism gate
# ---------------------------------------------------------------------------


def _traced_social_fingerprint(quick: bool) -> tuple:
    system, workload = _social_system(quick, tracing=True, gate=True)
    duration = 3.0
    for _ in range(3):
        system.add_client(workload, stop_at=duration)
    system.run(until=duration)
    return fingerprint(system)


def _traced_chaos_fingerprint(quick: bool) -> tuple:
    system, workload, duration = _chaos_system(True, tracing=True)
    for _ in range(3):
        system.add_client(workload, stop_at=duration)
    system.run(until=duration + 2.0)
    return fingerprint(system)


def _traced_lanes_fingerprint(quick: bool) -> tuple:
    """The lane scheduler itself must be deterministic: a traced 4-lane
    TPC-C run repeated in-process must export identical bytes."""
    system, tpcc_config = _lanes_tpcc_system(4, quick)
    system.config.tracing = True
    system.tracer.enabled = True
    workload = tpcc_workload(tpcc_config, seed=WORKLOAD_SEED)
    duration = 2.0
    for _ in range(6):
        system.add_client(workload, stop_at=duration)
    system.run(until=duration)
    return fingerprint(system)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GATE_SCENARIOS = {
    "social_macro": _traced_social_fingerprint,
    "chaos": _traced_chaos_fingerprint,
    "tpcc_lanes": _traced_lanes_fingerprint,
    # The ``--quick`` scenarios of the three subsystem CLIs, at either
    # scale: the three above never run admission, retirement NACKs or the
    # compartment read path, so they license no refactoring of that code.
    "overload": lambda quick: overload.fingerprint(overload.QUICK),
    "elastic": lambda quick: elastic.fingerprint(elastic.QUICK),
    "compartment_chaos": lambda quick: compartment.fingerprint(
        replace(compartment.QUICK, chaos=True)
    ),
}


def run_determinism_gate(quick: bool, baseline: dict) -> tuple:
    """Run every gated scenario twice; return (results, ok).

    ``ok`` is False when any repeat pair differs — the hard failure CI
    acts on.  Baseline digest mismatches are recorded per scenario but
    only fail under ``--strict-baseline``.
    """
    results = {}
    ok = True
    base_gate = (baseline or {}).get("determinism", {})
    for name, runner in GATE_SCENARIOS.items():
        trace_a, metrics_a = runner(quick)
        trace_b, metrics_b = runner(quick)
        identical = trace_a == trace_b and metrics_a == metrics_b
        ok = ok and identical
        entry = {
            "repeat_identical": identical,
            "trace_records": trace_a.count("\n"),
            "trace_sha256": _sha256(trace_a),
            "metrics_sha256": _sha256(metrics_a),
        }
        base_entry = base_gate.get(name)
        if base_entry:
            entry["matches_baseline"] = (
                base_entry.get("trace_sha256") == entry["trace_sha256"]
                and base_entry.get("metrics_sha256") == entry["metrics_sha256"]
            )
        results[name] = entry
    return results, ok


# ---------------------------------------------------------------------------
# Baseline bookkeeping
# ---------------------------------------------------------------------------


def default_baseline_path() -> Path:
    """``benchmarks/perf/baseline.json`` in the repo checkout."""
    return (
        Path(__file__).resolve().parents[3] / "benchmarks" / "perf" / "baseline.json"
    )


def load_baseline(path: Path, quick: bool) -> dict:
    if not path.is_file():
        return {}
    data = json.loads(path.read_text())
    section = data.get("quick" if quick else "full", {})
    if section.get("schema") != SCHEMA_VERSION:
        return {}
    return section


def save_baseline(path: Path, quick: bool, section: dict) -> None:
    """Write ``section`` as this mode's baseline.  ``matches_baseline``
    flags are dropped: they compare a run with the baseline it *replaces*
    and would be stale the moment they are stored."""
    data = {}
    if path.is_file():
        data = json.loads(path.read_text())
    if "determinism" in section:
        section = dict(section)
        section["determinism"] = {
            name: {k: v for k, v in entry.items() if k != "matches_baseline"}
            for name, entry in section["determinism"].items()
        }
    data["quick" if quick else "full"] = section
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the pinned wall-clock benchmark suite."
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (~30 s)"
    )
    parser.add_argument(
        "--out",
        default=".",
        help="directory to write BENCH_<date>.json into (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON path (default: benchmarks/perf/baseline.json)",
    )
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="rewrite this mode's baseline section from this run",
    )
    parser.add_argument(
        "--skip-macro",
        action="store_true",
        help="run only the determinism gate and micro-benchmarks",
    )
    parser.add_argument(
        "--strict-baseline",
        action="store_true",
        help="also fail when trace digests differ from the baseline's",
    )
    parser.add_argument(
        "--check-lanes",
        action="store_true",
        help=(
            "fail unless the 4-lane TPC-C ablation completes >= 1.5x the "
            "one-lane commands (deterministic virtual-time ratio) and every "
            "lane count's drained run passes verify_consistency"
        ),
    )
    args = parser.parse_args(argv)

    baseline_path = (
        Path(args.baseline) if args.baseline else default_baseline_path()
    )
    baseline = load_baseline(baseline_path, args.quick)

    scenarios: dict = {}
    if not args.skip_macro:
        for name, runner in (
            ("social_macro", run_social_macro),
            ("tpcc", run_tpcc),
            ("tpcc_lanes", run_tpcc_lanes),
            ("social_lanes", run_social_lanes),
            ("chaos", run_chaos),
            ("read_heavy", run_read_heavy),
        ):
            print(f"[perf] running {name} ...", flush=True)
            scenarios[name] = runner(args.quick)
            print(
                f"[perf]   {scenarios[name]['events_per_sec']:,.0f} events/s "
                f"in {scenarios[name]['wall_clock_s']:.2f}s",
                flush=True,
            )
        print("[perf] running lanes ablation ...", flush=True)
        scenarios["lanes_ablation"] = run_lanes_ablation(args.quick)
        for lanes in LANE_COUNTS:
            entry = scenarios["lanes_ablation"][f"lanes{lanes}"]
            ratio = entry.get("speedup_vs_serial")
            suffix = f" ({ratio:.2f}x vs serial)" if ratio else ""
            print(
                f"[perf]   lanes={lanes}: "
                f"{entry['commands_completed']} commands{suffix}",
                flush=True,
            )

    micro = {}
    for name, runner in (
        ("event_dispatch", micro_event_dispatch),
        ("network_send", micro_network_send),
        ("monitor_counters", micro_monitor_counters),
        ("fastcopy", micro_fastcopy),
        ("obs_disabled", micro_obs_disabled),
    ):
        print(f"[perf] running micro.{name} ...", flush=True)
        micro[name] = runner(args.quick)
        print(f"[perf]   {micro[name]['ops_per_sec']:,.0f} ops/s", flush=True)
    scenarios["micro"] = micro

    print("[perf] running determinism gate ...", flush=True)
    determinism, gate_ok = run_determinism_gate(args.quick, baseline)
    for name, entry in determinism.items():
        status = "ok" if entry["repeat_identical"] else "MISMATCH"
        extra = ""
        if "matches_baseline" in entry:
            extra = (
                ", matches baseline"
                if entry["matches_baseline"]
                else ", DIFFERS FROM BASELINE"
            )
        print(f"[perf]   {name}: repeat {status}{extra}", flush=True)

    date = time.strftime("%Y-%m-%d")
    report = {
        "schema": SCHEMA_VERSION,
        "date": date,
        "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": scenarios,
        "determinism": determinism,
        # Which baseline ``matches_baseline`` refers to
        # (a stamp, not a copy: the file itself is in git), and whether
        # this run then replaced it.
        "baseline": (
            {"recorded": baseline.get("recorded"), "python": baseline.get("python")}
            if baseline
            else None
        ),
        "rebaselined": args.rebaseline,
        "peak_rss_kb": _peak_rss_kb(),
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{date}.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[perf] wrote {out_path}", flush=True)

    if args.rebaseline:
        section = {
            "schema": SCHEMA_VERSION,
            "recorded": date,
            "python": platform.python_version(),
            "scenarios": {
                k: v for k, v in scenarios.items() if k != "micro"
            },
            "micro": scenarios.get("micro", {}),
            "determinism": determinism,
        }
        save_baseline(baseline_path, args.quick, section)
        print(f"[perf] baseline rewritten: {baseline_path}", flush=True)

    if not gate_ok:
        print("[perf] DETERMINISM GATE FAILED", file=sys.stderr)
        return 1
    if args.strict_baseline and any(
        entry.get("matches_baseline") is False for entry in determinism.values()
    ):
        print("[perf] baseline digest mismatch (strict)", file=sys.stderr)
        return 1
    if args.check_lanes:
        ablation = scenarios.get("lanes_ablation") or run_lanes_ablation(
            args.quick
        )
        scenarios.setdefault("lanes_ablation", ablation)
        diverged = {
            name: entry["problems"]
            for name, entry in ablation.items()
            if entry.get("problems")
        }
        if diverged:
            print(f"[perf] LANES GATE FAILED: {diverged}", file=sys.stderr)
            return 1
        ratio = (ablation.get("lanes4") or {}).get("speedup_vs_serial")
        if ratio is None or ratio < 1.5:
            print(
                f"[perf] LANES GATE FAILED: 4-lane speedup "
                f"{ratio if ratio is not None else 'n/a'} < 1.5x",
                file=sys.stderr,
            )
            return 1
        print(f"[perf] lanes gate ok: {ratio:.2f}x >= 1.5x", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
