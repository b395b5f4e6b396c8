#!/usr/bin/env python3
"""Two-clock end-to-end benchmark of the DynaStar simulator.

One workload, as the benchmark driver calls it (last stdout line is the
result object; ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones)::

    python3 benchmarks/e2e/run.py --workload chirper_mix --seed 1 --seconds 12 --trace 0

All five workloads, each in its own child process, into one result file::

    python3 benchmarks/e2e/run.py [--seed 1] [--traced] [--out benchmarks/e2e/out/result.json]

Two result files against each other::

    python3 benchmarks/e2e/run.py --compare A.json B.json

Exits non-zero when a correctness check fails (or, for ``--compare``, when a
metric regressed).  See README.md in this directory for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pin_hash_seed() -> None:
    """Re-exec with ``PYTHONHASHSEED=0``: set iteration order over strings
    feeds the simulation, so runs only repeat under a fixed hash seed."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def import_harness():
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {src / 'repro'} is missing")
    sys.path[:0] = [str(src), str(HERE)]
    import harness
    import workloads
    return harness, workloads


# -- one workload (the driver's entry) ----------------------------------------------


def run_workload(args) -> int:
    pin_hash_seed()
    harness, workloads = import_harness()
    spec = workloads.BY_NAME.get(args.workload)
    if spec is None:
        sys.exit(f"run.py: unknown workload {args.workload!r}; known: {sorted(workloads.BY_NAME)}")
    if args.trace:
        trace_path = OUT_DIR / f"trace_{spec.name}.jsonl"
        report = harness.measure_per_layer(spec, args.seed, trace_path=trace_path)
        units = {name: harness.per_layer_unit(name) for name in report["metrics"]}
    else:
        report = harness.measure_end_to_end(spec, args.seed, args.seconds)
        units = harness.END_TO_END
    report["environment"]["loadavg_1min_end"] = os.getloadavg()[0]
    if args.details:
        Path(args.details).parent.mkdir(parents=True, exist_ok=True)
        Path(args.details).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"workload {spec.name}  seed {args.seed}  trace {args.trace}")
    for name, value in report["metrics"].items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    for problem in report["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report["metrics"].items()
        },
    }))
    return 0 if report["correct"] else 1


# -- all workloads ------------------------------------------------------------------


def run_all(args) -> int:
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    status = 0
    started = time.perf_counter()
    for workload in (w["name"] for w in contract["workloads"]):
        entry = {}
        for trace in (0, 1) if args.traced else (0,):
            details = OUT_DIR / f"details_{workload}_{trace}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(seconds),
                "--trace", str(trace), "--details", str(details),
            ]
            t0 = time.perf_counter()
            # One child per workload and kind of run: peak RSS and warm-up
            # state belong to that workload alone; children run one at a time.
            child = subprocess.run(command, env=dict(os.environ, PYTHONHASHSEED="0"))
            status = status or child.returncode
            if details.is_file():
                entry["traced" if trace else "end_to_end"] = json.loads(details.read_text())
                details.unlink()
            print(f"[{workload} trace={trace}] {time.perf_counter() - t0:.1f} s, "
                  f"exit {child.returncode}", flush=True)
        result["workloads"][workload] = entry
    result["wall_s"] = time.perf_counter() - started
    out = Path(args.out) if args.out else OUT_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({result['wall_s']:.0f} s)")
    return status


# -- compare -------------------------------------------------------------------------

#: Bounds for the virtual-clock metrics when A and B ran the same seed.  Their
#: inputs are then identical and the numbers exact, so any difference is a
#: change of behaviour and the bound only says how much of one is tolerated.
#: BENCHMARK.json's bounds are wider: they must also cover the spread between
#: seeds of the noisiest workload.
SAME_SEED_BOUNDS = {
    "tput_cps": 0.02,
    "lat_light_mid_ms": 0.03,
    "lat_light_p99_ms": 0.05,
    "lat_sat_p99_ms": 0.05,
    "answered_frac": 0.002,
    "served_frac": 0.05,
}


def relative_range(values) -> float:
    return (max(values) - min(values)) / statistics.median(values) if values else 0.0


def judge(va: float, vb: float, better: str, bound: float, repeats: list) -> tuple:
    """``(delta, noise, verdict)`` of B against A.  ``repeats`` holds, per
    run, the metric's value in each timed cycle (empty: the metric is exact
    or read once).  *Noise* is the wider of the two runs' ranges over their
    median.  A difference is ``unresolved`` when the noise exceeds the bound,
    or when one run's own cycles already span both values."""
    delta = (vb - va) / va
    worse = delta if better == "lower" else -delta
    noise = max(relative_range(r) for r in repeats)
    spanned = any(r and min(r) <= min(va, vb) and max(va, vb) <= max(r) for r in repeats)
    if noise > bound or (worse > bound and spanned):
        return delta, noise, "unresolved"
    return delta, noise, "regressed" if worse > bound else "ok"


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    contract = {m["name"]: m for m in load_contract()["end_to_end"]}
    same_seed = a["seed"] == b["seed"]
    print(f"A = {path_a} (seed {a['seed']})\nB = {path_b} (seed {b['seed']})")
    print("delta = (B - A) / A; noise = widest range of a run's timed cycles / their median")
    print("virtual-clock metrics: " + (
        "same seed, exact, judged by the same-seed bounds" if same_seed
        else "different seeds, judged by the bounds of BENCHMARK.json"))
    print(f"{'workload':15s} {'metric':18s} {'A':>12s} {'B':>12s} {'delta':>9s} {'bound':>7s} {'noise':>7s}  verdict")
    regressed = 0
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None or "end_to_end" not in entry_a or "end_to_end" not in entry_b:
            print(f"{workload:15s} missing from one side")
            continue
        run_a, run_b = entry_a["end_to_end"], entry_b["end_to_end"]
        for name, metric in contract.items():
            bound = SAME_SEED_BOUNDS.get(name, metric["bound"]) if same_seed else metric["bound"]
            va, vb = run_a["metrics"][name], run_b["metrics"][name]
            repeats = [run["repeats"].get(name, []) for run in (run_a, run_b)]
            delta, noise, verdict = judge(va, vb, metric["better"], bound, repeats)
            regressed += verdict == "regressed"
            print(f"{workload:15s} {name:18s} {va:12.5g} {vb:12.5g} {delta:+9.2%} "
                  f"{bound:7.3f} {noise:7.3f}  {verdict}")
    print(f"{regressed} regressed")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", help="run this one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=1, help="derives every generated input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep timing whole cycles for at least this much wall time, "
                             "and never fewer than three (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--details", help="also write the full report of the run here")
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: add the traced run of each workload")
    parser.add_argument("--out", help="all-workloads mode: result file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        if args.seconds is None:
            args.seconds = load_contract()["run_seconds"]
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
