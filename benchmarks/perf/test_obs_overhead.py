"""Observability-off guarantees.

The audit / health hooks are meant to cost (essentially) nothing when
observability is disabled.  Wall-clock thresholds are not asserted in
tests; host time per command is measured by ``benchmarks/e2e``, which
runs with observability off.  What tests can assert deterministically:

* the disabled path is structurally free — a shared no-op audit
  instance, no sampler scheduled, nothing recorded;
* enabling the audit log does not perturb the simulation — the
  ``harness.fingerprint`` of a traced run is byte-identical with audit on
  or off.
"""

from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import ScriptedWorkload
from repro.experiments.harness import fingerprint
from repro.obs.audit import NULL_AUDIT
from repro.sim import ConstantLatency
from repro.smr import Command, KeyValueApp


def small_system(audit: bool, tracing: bool = True):
    app = KeyValueApp({f"k{i}": 100 for i in range(8)})
    config = SystemConfig(
        n_partitions=2,
        seed=42,
        latency=ConstantLatency(0.001),
        repartition_enabled=True,
        repartition_threshold=50,
        tracing=tracing,
        audit=audit,
    )
    system = DynaStarSystem(app, config)
    keys = sorted(system.initial_assignment)
    loc = system.initial_assignment
    key_a = keys[0]
    key_b = next(k for k in keys if loc[k] != loc[key_a])
    commands = [
        Command(f"c:{i}", "transfer", (key_a, key_b, 1)) for i in range(40)
    ]
    system.add_client(ScriptedWorkload(commands))
    return system


class TestDisabledPathIsStructurallyFree:
    def test_default_config_has_no_observers(self):
        system = small_system(audit=False, tracing=False)
        assert system.audit is NULL_AUDIT
        assert system.health is None
        system.run(until=10.0)
        assert len(system.audit) == 0

    def test_null_audit_record_is_noop(self):
        before = len(NULL_AUDIT)
        NULL_AUDIT.record("plan-applied", 1.0, version=3)
        NULL_AUDIT.decision(
            t=1.0, version=1, trigger="threshold", published=True,
            inputs={}, outputs={},
        )
        assert len(NULL_AUDIT) == before == 0


class TestAuditHooksArePureObservers:
    def test_fingerprint_identical_with_audit_on_and_off(self):
        """Audit recording must never schedule events or touch the
        monitor: trace JSONL, metric dump and the event and message
        totals are byte-identical whether the audit log is enabled or
        not."""
        fingerprints = []
        for audit in (False, True):
            system = small_system(audit=audit)
            system.run(until=10.0)
            fingerprints.append(fingerprint(system))
        assert fingerprints[0] == fingerprints[1]
        assert fingerprints[0][0]

    def test_audited_run_actually_records(self):
        """Sanity for the comparison above: the audit=True arm did
        exercise the recording path, not an accidentally-dead one."""
        system = small_system(audit=True)
        system.run(until=10.0)
        assert len(system.audit) > 0
