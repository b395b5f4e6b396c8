"""Pass runner, metric definitions and correctness checks.

A *pass* builds one deployment from ``(seed, sub-seed)``, runs it through its
window and drain, and reads everything back through public counters.  The
program under test gets only the generated inputs.  Two clocks are kept
apart: *virtual* numbers (exact for a given input) and *host* numbers
(``time.process_time``, noisy).

A *run* of a workload combines several passes:

* virtual-clock metrics pool ``SUBSEEDS`` independent inputs derived from
  ``--seed`` (rates over all their windows, latency percentiles over all
  their samples), so a single unlucky graph or fault schedule does not set
  them;
* host-clock metrics come from the timed passes: at least ``MIN_CYCLES``
  cycles over the sub-seeds, interleaved so that a slow spell of the machine
  spreads over all of them, with a fixed pure-Python kernel timed after every
  pass to say how fast the machine was during the run.  Every repeat of an
  input must reproduce its virtual numbers exactly.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import hostspans
from repro.obs.analyze import TraceSet, stage_breakdown
from repro.sim import Simulator
from repro.smr import History
from workloads import LIGHT_CLIENTS, BuildParams, WorkloadSpec

#: Independent inputs per run (at the saturated and at the light point) and
#: how often at least each saturated one is timed.  Only the smoke test
#: shrinks them.
SUBSEEDS = 3
MIN_CYCLES = 3

#: Host times are reported in *calibrated* seconds: CPU seconds as they would
#: read on a machine where ``calibration_kernel`` takes this long.
CALIBRATION_REFERENCE_S = 0.1

#: Virtual-clock stages of a command's critical path (``repro.obs`` span
#: names); anything else on the path is reported as ``other``.
STAGES = (
    "queue", "multicast-order", "oracle-lookup", "borrow", "execute",
    "return", "reply", "local-read",
)

END_TO_END = {
    "tput_cps": "1/s",
    "lat_light_mid_ms": "ms",
    "lat_light_p99_ms": "ms",
    "lat_sat_p99_ms": "ms",
    "answered_frac": "frac",
    "served_frac": "frac",
    "host_s_per_kcmd": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def percentile(ordered: list, p: float) -> float:
    """Linear-interpolated percentile of an ascending list, ``p`` in [0, 100]."""
    if not ordered:
        return math.nan
    rank = p / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def midmean(ordered: list) -> float:
    """Mean of the middle half (between the quartiles) of an ascending list:
    a typical value that moves smoothly where the median would jump between
    two modes."""
    middle = ordered[len(ordered) // 4: len(ordered) - len(ordered) // 4]
    return statistics.fmean(middle) if middle else math.nan


def ramp_of(window: float) -> float:
    """Start of the measured part of the window (the first second, or a
    fifth of a short window, is warm-up: caches fill, first plan forms)."""
    return min(1.0, 0.2 * window)


@dataclass
class PassResult:
    sub: int
    n_clients: int
    window: float
    setup_s: float          # host CPU s, input generation -> start() returned
    run_s: float            # host CPU s inside system.run
    completed: int          # OK replies
    app_nok: int            # answered, application said no (TPC-C rollbacks)
    gave_up: int
    unanswered: int         # clients still waiting after the drain
    events: int
    messages_sent: int
    virtual: dict           # in_window, served_slots, slots, max_stall_s
    latencies: list         # seconds, ascending
    ledger: dict            # per-layer numbers from public counters
    problems: list = field(default_factory=list)
    spans: object = None    # hostspans.HostSpans of a host-traced pass
    stages: dict = None     # stage metrics of a pass with repro.obs tracing on
    trace_records: list = None  # its span records, first commands only

    @property
    def issued(self) -> int:
        return self.completed + self.app_nok + self.gave_up + self.unanswered

    @property
    def failed(self) -> int:
        return self.gave_up + self.unanswered

    def fingerprint(self) -> tuple:
        """What a repeat of the same input must reproduce exactly."""
        return (
            self.events, self.messages_sent, self.completed, self.app_nok,
            self.gave_up, self.unanswered, tuple(sorted(self.virtual.items())),
        )


# -- one pass -----------------------------------------------------------------


def run_pass(spec: WorkloadSpec, seed: int, sub: int, n_clients: int,
             window: float, tracing: bool = False, host_spans: bool = False) -> PassResult:
    history = History()
    gc.collect()
    built = time.process_time()
    deployment = spec.build(BuildParams(seed, sub, n_clients, window, tracing, history))
    system = deployment.system
    # The wrappers must be in place before start() arms the first timers.
    with (hostspans.installed(system) if host_spans else nullcontext()) as spans:
        system.start()
        start = time.process_time()
        system.run(until=window + spec.drain)
        run_s = time.process_time() - start

    clients = system.clients
    result = PassResult(
        sub=sub, n_clients=n_clients, window=window, setup_s=start - built, run_s=run_s,
        completed=sum(c.completed for c in clients),
        app_nok=sum(c.failed - c.gave_up for c in clients),
        gave_up=sum(c.gave_up for c in clients),
        unanswered=sum(1 for c in clients if not c.done),
        events=system.sim.events_processed,
        messages_sent=system.net.stats()["sent"],
        virtual={}, latencies=[], ledger={}, spans=spans,
    )
    _client_metrics(result, history, window)
    result.ledger = _ledger(result, deployment)
    result.problems = check_after_drain(result, deployment, history)
    if tracing:
        result.stages, result.trace_records = _stage_table(system.tracer)
    return result


#: Width of the slots ``served_frac`` counts: about the shortest outage a
#: user of a replicated service would notice.
SERVICE_SLOT = 0.1


def _client_metrics(result: PassResult, history: History, window: float) -> None:
    ramp = ramp_of(window)
    ops = history.operations
    result.latencies = sorted(op.returned_at - op.invoked_at for op in ops)
    done = sorted(op.returned_at for op in ops if ramp <= op.returned_at < window)
    edges = [ramp] + done + [window]
    n_slots = max(1, round((window - ramp) / SERVICE_SLOT))
    served = {min(int((t - ramp) / SERVICE_SLOT), n_slots - 1) for t in done}
    result.virtual = {
        "in_window": len(done),
        "served_slots": len(served),
        "slots": n_slots,
        "max_stall_s": max(b - a for a, b in zip(edges, edges[1:])),
    }


def _sum_counters(counters: dict, name: str, *needles: str) -> int:
    """Total of the labeled counters ``name{...}`` whose label text holds
    every needle (and of the unlabeled ``name``, when no needle is given)."""
    total = 0
    for key, value in counters.items():
        base, _, labels = key.partition("{")
        if base == name and all(n in labels for n in needles):
            total += value
    return total


def _ledger(result: PassResult, deployment) -> dict:
    """Per-layer numbers that come from public counters alone: exact, free,
    comparable across commits as counts."""
    system = deployment.system
    monitor = system.monitor
    counters = monitor.counters()
    net = system.net.stats()
    cmds = max(result.completed, 1)
    window, ramp = result.window, ramp_of(result.window)
    events = max(result.events, 1)
    deliveries = net["delivered"] + net["drop_reasons"].get("crashed", 0)

    instances = values = ballots = 0
    for group in system.directory.groups.values():
        ahead = max(group.replicas, key=lambda r: r.next_deliver)
        instances += ahead.next_deliver
        values += sum(len(getattr(v, "values", (v,))) for v in ahead.decided.values())
        ballots += max(r.ballot for r in group.replicas)

    def in_tail(series_by_label, start):
        return sum(
            total for series in series_by_label.values()
            for t, total in series.buckets() if start <= t < window
        )

    multi = counters.get("multi_partition_commands", 0)
    tail_start = math.floor(0.8 * window)
    tail_multi = in_tail(monitor.labeled_series("multipart"), tail_start)
    tail_done = in_tail({"": monitor.series("completed")}, tail_start)
    executed = in_tail(monitor.labeled_series("tput"), math.ceil(ramp))
    config = system.config
    lane_seconds = (
        config.execution_lanes * config.n_partitions * (window - math.ceil(ramp))
    )

    def class_ms(name, p):
        histogram = monitor.histogram(name)
        return histogram.percentile(p) * 1e3 if len(histogram) else 0.0

    reads = sum(w.reads_issued for w in deployment.read_workloads)
    local_dispatch = _sum_counters(counters, "reads", "event=local_dispatch")
    return {
        "sim.events_per_cmd": result.events / cmds,
        "sim.timer_event_frac": 1.0 - deliveries / events,
        "sim.net_msgs_per_cmd": net["sent"] / cmds,
        "sim.net_dropped_frac": net["dropped"] / max(net["sent"], 1),
        "sim.host_us_per_event": result.run_s / events * 1e6,
        "consensus.instances_per_cmd": instances / cmds,
        "consensus.values_per_instance": values / max(instances, 1),
        "consensus.ballot_changes": ballots,
        "core.client.retries_per_cmd": sum(c.retries for c in system.clients) / cmds,
        "core.client.timeouts_per_cmd": sum(c.timeouts for c in system.clients) / cmds,
        "core.client.max_stall_s": result.virtual["max_stall_s"],
        "core.client.lat_single_p50_ms": class_ms("latency_single", 50),
        "core.client.lat_multi_p50_ms": class_ms("latency_multi", 50),
        "core.client.lat_multi_p99_ms": class_ms("latency_multi", 99),
        "core.oracle.queries_per_cmd": counters.get("oracle_queries_total", 0) / cmds,
        "core.oracle.plans_applied": counters.get("plans_applied", 0),
        "core.oracle.plan_objects_moved": counters.get("plan_objects_moved", 0),
        "core.server.multi_frac": multi / cmds,
        "core.server.multi_frac_tail": tail_multi / max(tail_done, 1),
        "core.server.objects_per_multi_cmd": counters.get("objects_exchanged", 0) / max(multi, 1),
        "core.server.retry_replies_per_cmd": counters.get("retries_sent", 0) / cmds,
        "core.server.dedup_replies_per_cmd": counters.get("dedup_replies", 0) / cmds,
        "core.server.lane_occupancy_mean": executed * config.service_time / max(lane_seconds, 1e-9),
        "workloads.app_nok_frac": result.app_nok / max(result.issued, 1),
        "compartment.local_read_frac": _sum_counters(counters, "reads", "event=local_ok") / max(reads, 1),
        "compartment.ordered_read_frac": _sum_counters(counters, "reads", "event=ordered") / max(reads, 1),
        "compartment.local_reject_frac": _sum_counters(counters, "reads", "event=local_reject") / max(local_dispatch, 1),
        "faults.injected": len(deployment.injector.applied) if deployment.injector else 0,
        "faults.drops_per_cmd": net["dropped"] / cmds,
    }


# -- correctness ------------------------------------------------------------------


def check_after_drain(result: PassResult, deployment, history: History) -> list:
    """Checked only after the drain: at the window cut-off replicas
    legitimately differ (commands are still in flight)."""
    system = deployment.system
    problems = []
    for partition in system.partition_names:
        replicas = system.servers(partition)
        if any(r.crashed for r in replicas):
            problems.append(f"{partition}: a replica is still crashed after the drain")
        reference = dict(replicas[0].store.items())
        if any(dict(r.store.items()) != reference for r in replicas[1:]):
            problems.append(f"{partition}: replica stores differ")
        for learner in system.directory.groups[partition].learners:
            if dict(learner.store.items()) != reference:
                problems.append(f"{learner.name}: mirror differs from {partition}")
    try:
        merged = system.all_store_variables()
    except AssertionError as exc:
        problems.append(str(exc))
    else:
        lost = set(system.app.initial_variables()) - set(merged)
        if lost:
            problems.append(f"{len(lost)} initial variables owned by no partition")
    for client in system.clients:
        if len(client.results) != client.completed + client.failed:
            problems.append(f"{client.name}: results and counters disagree")
    if len(history) != result.completed:
        problems.append("history and completed counters disagree")
    if result.completed == 0:
        problems.append("no command completed")
    return [f"sub {result.sub}, {result.n_clients} clients: {p}" for p in problems]


# -- virtual-clock stages -------------------------------------------------------------


def _stage_metric(label: str, stage: str, kind: str) -> str:
    prefix = "stage." if label == "all" else f"stage.{label}."
    return f"{prefix}{stage.replace('-', '_')}_{kind}"


def stage_metric_names() -> list:
    return [
        _stage_metric(label, stage, kind)
        for label in ("all", "single", "multi")
        for stage in (*STAGES, "other")
        for kind in ("ms_p50", "share")
    ]


def _stage_table(tracer) -> tuple:
    """Critical-path time per stage from ``repro.obs`` causal spans: for all
    commands and split single / multi-partition.  ``ms_p50`` is the median
    over the class's commands (a stage a command never entered counts 0);
    ``share`` is the stage's part of the class's total end-to-end latency.
    Also returns the span records of the first commands, for the trace file."""
    breakdown = stage_breakdown(TraceSet.from_tracer(tracer))
    classes = {"all": [], "single": [], "multi": []}
    for row in breakdown["slowest"]:
        if row["tags"].get("status") != "ok":
            continue
        folded = dict.fromkeys((*STAGES, "other"), 0.0)
        for name, seconds in row["critical"].items():
            folded[name if name in folded else "other"] += seconds
        entry = (row["latency"], folded)
        classes["all"].append(entry)
        classes["multi" if row["tags"].get("multi") else "single"].append(entry)
    metrics = {}
    for label, entries in classes.items():
        total = sum(latency for latency, _ in entries)
        for stage in (*STAGES, "other"):
            times = sorted(folded[stage] for _, folded in entries)
            metrics[_stage_metric(label, stage, "ms_p50")] = (
                percentile(times, 50) * 1e3 if times else 0.0
            )
            metrics[_stage_metric(label, stage, "share")] = sum(times) / total if total else 0.0
    first_commands: dict = {}
    records = []
    for span in tracer.spans:
        if span.trace_id in first_commands or len(first_commands) < hostspans.FULL_SPAN_COMMANDS:
            first_commands[span.trace_id] = True
            records.append(span.to_record())
    return metrics, records


# -- environment ----------------------------------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()} "
                  f"({platform.python_build()[0]}, {platform.python_compiler()})",
        "platform": platform.platform(),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "loadavg_1min": os.getloadavg()[0],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate_noop_events_per_s(n: int = 200_000) -> float:
    """Event-heap throughput of this process right now: the ``sim`` layer's
    own floor, per-layer only."""
    sim = Simulator()

    def noop():
        pass

    gc.collect()
    start = time.process_time()
    for i in range(n):
        sim.schedule(i * 1e-6, noop)
    sim.run()
    return n / (time.process_time() - start)


def calibration_kernel(n: int = 60_000) -> float:
    """Host CPU seconds a fixed piece of pure-Python work takes right now.

    Shaped like the simulator's inner loop (heap pushes and pops of tuples,
    small-object allocation, dict traffic, calls) but sharing no code with
    ``repro``: a change to the program cannot move it, a slow spell of the
    machine does (correlation 0.7-0.8 with pass time while sizing)."""
    heap: list = []
    store: dict = {}
    push, pop = heapq.heappush, heapq.heappop

    def handler(t, key):
        store[key] = store.get(key, 0) + (t, key)[1]

    gc.collect()
    start = time.process_time()
    for i in range(n):
        push(heap, (i * 1e-6 + (i % 7) * 1e-3, i, handler, i % 4096))
        if i % 3 == 2:
            t, _, fn, key = pop(heap)
            fn(t, key)
    while heap:
        t, _, fn, key = pop(heap)
        fn(t, key)
    return time.process_time() - start


# -- a run: end-to-end metrics -------------------------------------------------------------


@dataclass(frozen=True)
class Sizing:
    """How much one run does; the defaults are the pinned benchmark."""

    window: float = 0.0  # 0 = the workload's own windows; else both of them
    subseeds: int = SUBSEEDS
    min_cycles: int = MIN_CYCLES


def _pooled(passes: list) -> list:
    return sorted(x for p in passes for x in p.latencies)


def measure_end_to_end(spec: WorkloadSpec, seed: int, seconds: float,
                       sizing: Sizing = Sizing()) -> dict:
    window = sizing.window or spec.window
    subs = range(sizing.subseeds)
    load_start = os.getloadavg()[0]
    problems: list = []

    def sat_pass(sub):
        return run_pass(spec, seed, sub, spec.sat_clients, window)

    # Warm-up: a short pass fills import, bytecode and allocator caches.
    run_pass(spec, seed, 0, spec.sat_clients, min(1.0, window))
    first: dict = {}

    # Timed cycles, the calibration kernel after every pass.
    timed: list = []
    speed = [calibration_kernel()]
    deadline = time.perf_counter() + seconds
    while len(timed) < sizing.min_cycles * len(subs) or time.perf_counter() < deadline:
        for sub in subs:
            result = sat_pass(sub)
            if result.fingerprint() != first.setdefault(sub, result).fingerprint():
                problems.append(f"sub {sub}: a repeat of the same input gave different virtual numbers")
            timed.append(result)
            speed.append(calibration_kernel())
    light = [
        run_pass(spec, seed, sub, LIGHT_CLIENTS, sizing.window or spec.light_window)
        for sub in subs
    ]
    rss = peak_rss_mb()

    sat = [first[sub] for sub in subs]
    counted = sat + light
    for result in timed + light:
        problems += result.problems
    attempted = sum(p.issued for p in counted)
    failed = sum(p.failed for p in counted)
    light_pool, sat_pool = _pooled(light), _pooled(sat)

    # Host times in calibrated seconds: CPU seconds scaled by how fast the
    # kernel ran during this run.  Per cycle the sub-seeds' passes are summed,
    # so every input weighs the same; across cycles the median is reported.
    scale = CALIBRATION_REFERENCE_S / statistics.median(speed)
    cycles = [timed[i:i + len(subs)] for i in range(0, len(timed), len(subs))]
    kcmds = max(sum(p.completed for p in sat), 1) / 1e3
    host_by_cycle = [scale * sum(p.run_s for p in cycle) / kcmds for cycle in cycles]
    setup_by_cycle = [scale * statistics.median(p.setup_s for p in cycle) for cycle in cycles]
    metrics = {
        "tput_cps": sum(p.virtual["in_window"] for p in sat) / ((window - ramp_of(window)) * len(sat)),
        "lat_light_mid_ms": midmean(light_pool) * 1e3,
        "lat_light_p99_ms": percentile(light_pool, 99) * 1e3,
        "lat_sat_p99_ms": percentile(sat_pool, 99) * 1e3,
        "answered_frac": 1.0 - failed / max(attempted, 1),
        "served_frac": sum(p.virtual["served_slots"] for p in sat) / sum(p.virtual["slots"] for p in sat),
        "host_s_per_kcmd": statistics.median(host_by_cycle),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup_by_cycle),
    }
    return {
        "workload": spec.name,
        "seed": seed,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        # One value per timed cycle, in time order: the spread of a host
        # metric inside this run, which --compare reads as its noise.
        "repeats": {"host_s_per_kcmd": host_by_cycle, "setup_s": setup_by_cycle},
        "samples": {
            "lat_light_samples": len(light_pool),
            "lat_sat_samples": len(sat_pool),
            "timed_passes": len(timed),
            "calibration_s": speed,
            "calibration_scale": scale,
            "per_sub": [
                dict(p.virtual, sub=p.sub, completed=p.completed, app_nok=p.app_nok,
                     events=p.events, messages_sent=p.messages_sent)
                for p in sat
            ],
        },
        "ledger": sat[0].ledger,
        "environment": dict(environment(), loadavg_1min_start=load_start),
    }


# -- a run: per-layer metrics ----------------------------------------------------------------


def per_layer_names() -> list:
    ledger = [
        "sim.events_per_cmd", "sim.timer_event_frac", "sim.net_msgs_per_cmd",
        "sim.net_dropped_frac", "sim.host_us_per_event", "sim.calib_noop_events_per_s",
        "consensus.instances_per_cmd", "consensus.values_per_instance",
        "consensus.ballot_changes",
        "core.client.retries_per_cmd", "core.client.timeouts_per_cmd",
        "core.client.max_stall_s",
        "core.client.lat_single_p50_ms", "core.client.lat_multi_p50_ms",
        "core.client.lat_multi_p99_ms",
        "core.oracle.queries_per_cmd", "core.oracle.plans_applied",
        "core.oracle.plan_objects_moved", "partitioning.calls",
        "partitioning.host_ms_per_call",
        "core.server.multi_frac", "core.server.multi_frac_tail",
        "core.server.objects_per_multi_cmd", "core.server.retry_replies_per_cmd",
        "core.server.dedup_replies_per_cmd", "core.server.lane_occupancy_mean",
        "workloads.app_nok_frac", "workloads.execute_calls_per_cmd",
        "workloads.execute_host_us", "smr.copy_calls_per_cmd",
        "compartment.local_read_frac", "compartment.ordered_read_frac",
        "compartment.local_reject_frac",
        "faults.injected", "faults.drops_per_cmd",
    ]
    host = [f"{layer}.host_self_frac" for layer in hostspans.LAYERS]
    msgs = [f"{layer}.msgs_per_cmd" for layer in hostspans.MESSAGE_LAYERS]
    return ledger + stage_metric_names() + host + msgs + [
        "obs.trace_overhead_frac", "bench.hostspan_overhead_frac",
    ]


def per_layer_unit(name: str) -> str:
    for suffix, unit in (
        ("_ms_p50", "ms"), ("_ms", "ms"), ("_stall_s", "s"), ("_us", "us"), ("_us_per_event", "us"),
        ("_ms_per_call", "ms"), ("_frac", "frac"), ("_share", "frac"),
        ("_frac_tail", "frac"), ("_per_cmd", "1/cmd"), ("_per_s", "1/s"),
        ("_occupancy_mean", "frac"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def measure_per_layer(spec: WorkloadSpec, seed: int, sizing: Sizing = Sizing(),
                      trace_path: Path = None) -> dict:
    """The traced run: one untraced pass (ledger and host baseline), one pass
    under the host-clock span wrappers, one with ``repro.obs`` tracing on, and
    one light pass — all on sub-seed 0.  None of it feeds an end-to-end
    metric."""
    window = sizing.window or spec.window
    run_pass(spec, seed, 0, spec.sat_clients, min(1.0, window))  # warm-up
    plain = run_pass(spec, seed, 0, spec.sat_clients, window)
    hosted = run_pass(spec, seed, 0, spec.sat_clients, window, host_spans=True)
    traced = run_pass(spec, seed, 0, spec.sat_clients, window, tracing=True)
    light = run_pass(spec, seed, 0, LIGHT_CLIENTS, sizing.window or spec.light_window)

    problems = plain.problems + hosted.problems + traced.problems + light.problems
    for name, other in (("host-span", hosted), ("obs-traced", traced)):
        if other.fingerprint() != plain.fingerprint():
            problems.append(f"the {name} pass changed the virtual numbers")

    spans = hosted.spans
    cmds = max(hosted.completed, 1)
    execute_name = next((n for n in spans.calls if n.endswith(".execute")), "")
    partition_calls = spans.calls.get("partition_graph", 0)
    metrics = dict(plain.ledger)
    metrics.update(traced.stages)
    # Latency by command class is read at the light point, where it is
    # protocol round-trips rather than queueing.
    metrics.update({k: v for k, v in light.ledger.items() if k.startswith("core.client.lat_")})
    metrics.update({
        "sim.calib_noop_events_per_s": calibrate_noop_events_per_s(),
        "partitioning.calls": partition_calls,
        "partitioning.host_ms_per_call":
            spans.name_ns.get("partition_graph", 0) / max(partition_calls, 1) / 1e6,
        "workloads.execute_calls_per_cmd": spans.calls.get(execute_name, 0) / cmds,
        "workloads.execute_host_us":
            spans.name_ns.get(execute_name, 0) / max(spans.calls.get(execute_name, 0), 1) / 1e3,
        "smr.copy_calls_per_cmd": spans.calls.get("copy_value", 0) / cmds,
        "obs.trace_overhead_frac": traced.run_s / plain.run_s - 1.0,
        "bench.hostspan_overhead_frac": hosted.run_s / plain.run_s - 1.0,
    })
    wrapper_cost = hostspans.wrapper_cost_ns()
    for layer, fraction in spans.self_fractions(*wrapper_cost).items():
        metrics[f"{layer}.host_self_frac"] = fraction
    for layer in hostspans.MESSAGE_LAYERS:
        metrics[f"{layer}.msgs_per_cmd"] = spans.messages.get(layer, 0) / cmds
    if sum(spans.messages.values()) != hosted.messages_sent:
        problems.append("message ledger does not add up to messages sent")

    if trace_path is not None:
        write_trace(trace_path, spec.name, traced, hosted)
    passes = (plain, hosted, traced, light)
    return {
        "workload": spec.name,
        "seed": seed,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(p.issued for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: float(metrics[name]) for name in per_layer_names()},
        "layers": {
            "host_self_ms": {k: v / 1e6 for k, v in sorted(spans.self_ns.items())},
            "wrapper_cost_ns": dict(zip(("in_span", "in_caller"), wrapper_cost)),
            "host_self_ms_by_span": {
                k: v / 1e6 for k, v in sorted(spans.name_ns.items(), key=lambda kv: -kv[1])[:25]
            },
            "calls_by_span": dict(sorted(spans.calls.items(), key=lambda kv: -kv[1])[:25]),
            "messages": dict(spans.messages),
        },
        "environment": environment(),
    }


def write_trace(path: Path, workload: str, traced: PassResult, hosted: PassResult) -> None:
    """Full spans of the first commands on both clocks, then the aggregates."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for record in traced.trace_records:
            out.write(json.dumps(dict(record, clock="virtual"), sort_keys=True) + "\n")
        for span_id, parent, layer, name, start, end in hosted.spans.spans:
            out.write(json.dumps({
                "clock": "host", "kind": "span", "id": span_id, "parent": parent,
                "layer": layer, "name": name, "start_ns": start, "end_ns": end,
            }) + "\n")
        out.write(json.dumps({
            "kind": "aggregate", "workload": workload,
            "host_self_ns": dict(hosted.spans.self_ns),
            "host_calls": dict(hosted.spans.calls),
            "messages": dict(hosted.spans.messages),
            "virtual_stages": traced.stages,
        }, sort_keys=True) + "\n")
