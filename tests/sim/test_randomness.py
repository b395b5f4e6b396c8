"""Tests for seeded RNG streams and the Zipf generator."""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.sim.randomness import (
    SeedSequenceFactory,
    ZipfGenerator,
    weighted_choice,
    zipf_cdf,
)


class TestSeedSequenceFactory:
    def test_same_name_same_stream(self):
        f = SeedSequenceFactory(42)
        assert f.rng("net").random() == f.rng("net").random()

    def test_different_names_differ(self):
        f = SeedSequenceFactory(42)
        assert f.rng("net").random() != f.rng("clients").random()

    def test_different_roots_differ(self):
        a = SeedSequenceFactory(1).rng("net").random()
        b = SeedSequenceFactory(2).rng("net").random()
        assert a != b

    def test_child_seed_is_stable_across_instances(self):
        assert (
            SeedSequenceFactory(9).child_seed("x")
            == SeedSequenceFactory(9).child_seed("x")
        )


class TestZipfCdf:
    def test_monotone_and_normalized(self):
        cdf = zipf_cdf(100, 0.95)
        assert cdf == sorted(cdf)
        assert cdf[-1] == pytest.approx(1.0)

    def test_rho_zero_is_uniform(self):
        cdf = zipf_cdf(4, 0.0)
        assert cdf == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_skew_favors_low_ranks(self):
        cdf = zipf_cdf(1000, 0.95)
        # the top 10% of ranks should hold far more than 10% of the mass
        assert cdf[99] > 0.3

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zipf_cdf(0, 0.95)
        with pytest.raises(ValueError):
            zipf_cdf(10, -1.0)

    @given(n=st.integers(1, 500), rho=st.floats(0.0, 2.0))
    @settings(max_examples=50)
    def test_cdf_properties_hold_generally(self, n, rho):
        cdf = zipf_cdf(n, rho)
        assert len(cdf) == n
        assert all(0.0 < v <= 1.0 for v in cdf)
        assert cdf[-1] == pytest.approx(1.0)


class TestZipfGenerator:
    def test_draws_within_range(self):
        gen = ZipfGenerator(50, 0.95, random.Random(1))
        for _ in range(500):
            assert 1 <= gen.draw() <= 50

    def test_draw_index_zero_based(self):
        gen = ZipfGenerator(10, 0.95, random.Random(1))
        assert all(0 <= gen.draw_index() <= 9 for _ in range(200))

    def test_rank_one_is_most_frequent(self):
        gen = ZipfGenerator(100, 0.95, random.Random(3))
        counts = Counter(gen.draw() for _ in range(20000))
        assert counts[1] == max(counts.values())

    def test_deterministic_given_seed(self):
        a = ZipfGenerator(100, 0.95, random.Random(5))
        b = ZipfGenerator(100, 0.95, random.Random(5))
        assert [a.draw() for _ in range(100)] == [b.draw() for _ in range(100)]


class TestWeightedChoice:
    def test_respects_zero_weight(self):
        rng = random.Random(1)
        for _ in range(100):
            assert weighted_choice(rng, ["a", "b"], [0.0, 1.0]) == "b"

    def test_mix_roughly_matches_weights(self):
        rng = random.Random(2)
        counts = Counter(
            weighted_choice(rng, ["x", "y"], [0.8, 0.2]) for _ in range(5000)
        )
        assert 0.75 < counts["x"] / 5000 < 0.85

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            weighted_choice(random.Random(1), ["a"], [0.5, 0.5])

    def test_zero_total_raises(self):
        with pytest.raises(ValueError):
            weighted_choice(random.Random(1), ["a"], [0.0])


#: Prints everything a seeded run derives from a hash of a str or tuple.
_HASH_SITES_SCRIPT = """
from repro.consensus.group import PaxosGroup
from repro.core import DynaStarSystem, SystemConfig
from repro.partitioning import WorkloadGraph
from repro.partitioning.metis import hash_partition
from repro.sim import Network, Simulator
from repro.sim.randomness import stable_hash
from repro.smr import KeyValueApp

print(stable_hash(("user", 7)), stable_hash("k7"))
system = DynaStarSystem(
    KeyValueApp({f"k{i}": i for i in range(8)}),
    SystemConfig(n_partitions=2, seed=1, placement="hash"),
)
print(sorted(system.initial_assignment.items()))
graph = WorkloadGraph.from_edges(
    [(("user", i), ("user", i + 1), 1.0) for i in range(12)] + [("a", "b", 1.0)]
)
print(sorted(hash_partition(graph, 4).assignment.items(), key=repr))
group = PaxosGroup("g", Network(Simulator()))
print([replica.rng.random() for replica in group.replicas])
"""


class TestHashSeedIndependence:
    def test_seeded_runs_ignore_pythonhashseed(self):
        """Builtin ``hash`` of a str or tuple is salted per process, so
        comparing two calls inside one process proves nothing: run every
        site that hashes one (``placement="hash"``, ``hash_partition``,
        the default rng of a ``PaxosGroup``) in two processes with
        different salts and require the same output."""
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for salt in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", _HASH_SITES_SCRIPT],
                env={**os.environ, "PYTHONHASHSEED": salt, "PYTHONPATH": src},
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 4
