"""Experiment harness: regenerates every table and figure of the paper.

Each ``figures.fig*`` function is a self-contained experiment returning a
plain dict (series and summary rows) and printable through
:mod:`repro.experiments.reporting`.  The pytest-benchmark wrappers in
``benchmarks/`` call these with laptop-scale defaults; pass larger
``scale`` values to approach the paper's deployment sizes.
"""

from repro.experiments.harness import (
    RunResult,
    build_chirper_system,
    build_tpcc_system,
    run_clients,
    social_optimized_placement,
    steady_rate,
    warehouse_aligned_placement,
)
from repro.experiments import figures, reporting

__all__ = [
    "RunResult",
    "build_chirper_system",
    "build_tpcc_system",
    "run_clients",
    "social_optimized_placement",
    "steady_rate",
    "warehouse_aligned_placement",
    "figures",
    "reporting",
]

