"""Regenerate and print every paper figure/table in one go.

Usage::

    python -m repro.experiments.run_all            # laptop scale (~15 min)
    python -m repro.experiments.run_all --quick    # smoke scale (~3 min)

The per-figure functions in :mod:`repro.experiments.figures` take scale
parameters directly if you want to push any single experiment toward the
paper's deployment size.
"""

from __future__ import annotations

import argparse

from repro.experiments import figures, reporting


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller, faster scales"
    )
    args = parser.parse_args()
    quick = args.quick

    plan = [
        (
            "fig2",
            lambda: figures.fig2_repartitioning(
                duration=40.0 if quick else 90.0
            ),
            reporting.render_fig2,
        ),
        (
            "fig3",
            lambda: figures.fig3_tpcc_scalability(
                partition_counts=(1, 2, 4) if quick else (1, 2, 4, 8),
                duration=20.0 if quick else 30.0,
            ),
            reporting.render_fig3,
        ),
        (
            "fig4",
            lambda: figures.fig4_social_throughput(
                partition_counts=(2, 4) if quick else (1, 2, 4, 8),
                n_users=600 if quick else 1500,
                duration=20.0 if quick else 40.0,
            ),
            reporting.render_fig4,
        ),
        (
            "fig5",
            lambda: figures.fig5_latency_cdf(
                partition_counts=(2, 4) if quick else (2, 4, 8),
                n_users=600 if quick else 1500,
                duration=16.0 if quick else 30.0,
            ),
            reporting.render_fig5,
        ),
        (
            "fig6",
            lambda: figures.fig6_dynamic_workload(
                n_users=600 if quick else 1200,
                duration=100.0 if quick else 240.0,
                event_time=50.0 if quick else 120.0,
            ),
            reporting.render_fig6,
        ),
        (
            "table1",
            lambda: figures.table1_partition_load(
                n_users=600 if quick else 1500,
                duration=20.0 if quick else 40.0,
            ),
            reporting.render_table1,
        ),
        (
            "fig7",
            lambda: figures.fig7_partitioner_scaling(
                sizes=(10_000, 30_000) if quick else (10_000, 50_000, 200_000),
            ),
            reporting.render_fig7,
        ),
        (
            "fig8",
            lambda: figures.fig8_oracle_load(
                n_users=600 if quick else 1200,
                duration=80.0 if quick else 160.0,
                repartition_time=40.0 if quick else 80.0,
            ),
            reporting.render_fig8,
        ),
        (
            "chirper_lanes",
            lambda: figures.chirper_lanes(duration=5.0 if quick else 8.0),
            reporting.render_chirper_lanes,
        ),
    ]

    for name, experiment, render in plan:
        result = experiment()
        print("=" * 72)
        print(render(result))
        print(f"[{name} regenerated]")
        print()


if __name__ == "__main__":
    main()
