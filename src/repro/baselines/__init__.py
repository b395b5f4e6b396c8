"""Baseline systems the paper compares DynaStar against.

* **S-SMR** (Bezerra et al., DSN 2014): static state partitioning;
  multi-partition commands are executed by *every* involved partition
  after the partitions exchange the needed state.  No oracle traffic at
  steady state, no object moves — but also no ability to adapt.
* **S-SMR\\*** — S-SMR whose static placement was optimized offline with
  the graph partitioner using full workload knowledge (the paper's
  idealized, impractical-in-reality comparator).
* **DS-SMR** (Le et al., DSN 2016): dynamic migration without a workload
  graph — every multi-partition command permanently migrates the
  involved variables to the target partition, which thrashes when the
  workload cannot be perfectly partitioned.

Each baseline is a :class:`~repro.core.server.PartitionServer` subclass
that its system class names as ``server_class``.
"""

from repro.baselines.ssmr import SSMRServer, SSMRSystem, optimized_placement
from repro.baselines.dssmr import DSSMRServer, DSSMRSystem

__all__ = [
    "SSMRServer",
    "SSMRSystem",
    "optimized_placement",
    "DSSMRServer",
    "DSSMRSystem",
]
