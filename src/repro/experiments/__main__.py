"""The one scenario runner: run, drain, judge.

    python -m repro.experiments <scenario> [--quick] [--chaos] [--seed N]
                                [--obs DIR] [--json PATH]

Every run is judged — there is no unchecked mode: the drained system
goes through :func:`repro.experiments.harness.check_run` (with the
history, where the scenario records one) and the scenario's own
``gates(summary)``; any problem is printed by name and the exit status
is 1.  That the ``--quick`` scenarios replay byte-for-byte is the exact
gate's business (:mod:`repro.experiments.perf`).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

from repro.experiments import compartment, elastic, overload
from repro.experiments.harness import check_run, export_run_artifacts, run_scenario
from repro.recovery import demo

SCENARIOS = {
    "overload": overload,
    "elastic": elastic,
    "compartment": compartment,
    "recovery": demo,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run one seeded scenario to completion and judge it.",
    )
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("--quick", action="store_true",
                        help="the short variant (CI smoke, the exact gate's cell)")
    parser.add_argument("--chaos", action="store_true",
                        help="arm the scenario's fault comb (elastic, compartment)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--obs", default=None, metavar="DIR",
                        help="trace the run and export its artifacts for "
                             "repro.obs.report")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write scenario, summary and problems to this path")
    args = parser.parse_args(argv)

    module = SCENARIOS[args.scenario]
    scenario = module.QUICK if args.quick else module.FULL
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.chaos:
        if not hasattr(scenario, "chaos"):
            parser.error(f"{args.scenario} has no fault comb")
        scenario = replace(scenario, chaos=True)
    if args.obs:
        scenario = replace(scenario, tracing=True)

    summary, system = run_scenario(scenario)
    print(json.dumps(summary, indent=2, sort_keys=True), flush=True)
    problems = check_run(system, system.clients[0].history) + scenario.gates(summary)
    if args.obs:
        written = export_run_artifacts(system, args.obs)
        print(f"[{args.scenario}] wrote {sorted(written)} to {args.obs}", flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {"scenario": asdict(scenario), "summary": summary, "problems": problems},
                fh, indent=2, sort_keys=True,
            )
        print(f"[{args.scenario}] wrote {args.json}", flush=True)
    for problem in problems:
        print(f"[{args.scenario}] {problem}", file=sys.stderr)
    print(f"[{args.scenario}] problems: {len(problems) or 'none'}", flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
