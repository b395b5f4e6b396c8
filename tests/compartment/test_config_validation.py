"""Field validation for the liveness-critical configuration knobs.

A zero window or batch size silently wedges the Paxos pending queue, a
zero timer period re-arms its timer at the same instant forever, and a
non-positive lease duration makes every lease dead on arrival — all
must fail loudly at construction time, not hang at runtime.
"""

import pytest

from repro.compartment import CompartmentConfig
from repro.consensus.paxos import ReplicaConfig
from repro.core import DynaStarSystem, SystemConfig
from repro.smr import KeyValueApp


class TestReplicaConfigValidation:
    @pytest.mark.parametrize("value", [0, -1, -32, 1.5, "8", None, True, False])
    def test_bad_window_rejected(self, value):
        with pytest.raises(ValueError, match="window must be a positive int"):
            ReplicaConfig(window=value)

    @pytest.mark.parametrize("value", [0, -1, 2.0, "64", None, True])
    def test_bad_max_batch_rejected(self, value):
        with pytest.raises(ValueError, match="max_batch must be a positive int"):
            ReplicaConfig(max_batch=value)

    @pytest.mark.parametrize("value", [0, 0.0, -0.001, "fast", None, True])
    def test_bad_batch_delay_rejected(self, value):
        with pytest.raises(ValueError, match="batch_delay must be positive"):
            ReplicaConfig(batch_delay=value)

    @pytest.mark.parametrize("value", [0.0, -0.1])
    @pytest.mark.parametrize(
        "field",
        [
            "heartbeat_period",
            "catchup_period",
            "leader_timeout",
            "recovery_retry",
            "recovery_retry_cap",
            "hint_period",
        ],
    )
    def test_non_positive_period_rejected(self, field, value):
        # At 0 the run never leaves the instant it was armed at, or (the
        # recovery retry) doubles a zero delay until 2 ** attempts
        # overflows.  Only constructed, never run.
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            if field == "hint_period":
                DynaStarSystem(KeyValueApp({}), SystemConfig(hint_period=value))
            else:
                ReplicaConfig(**{field: value})

    def test_error_message_names_offending_value(self):
        with pytest.raises(ValueError, match=r"got 0"):
            ReplicaConfig(window=0)

    def test_defaults_and_valid_overrides_accepted(self):
        ReplicaConfig()
        cfg = ReplicaConfig(window=1, max_batch=1, batch_delay=1e-6)
        assert (cfg.window, cfg.max_batch) == (1, 1)


class TestCompartmentConfigValidation:
    @pytest.mark.parametrize(
        "field", ["n_proxy_leaders", "n_learners", "proxy_max_batch"]
    )
    @pytest.mark.parametrize("value", [0, -1, 2.5, "3", None, True])
    def test_bad_counts_rejected(self, field, value):
        with pytest.raises(
            ValueError, match=f"{field} must be a positive int"
        ):
            CompartmentConfig(**{field: value})

    @pytest.mark.parametrize(
        "field",
        [
            "proxy_batch_delay",
            "lease_duration",
            "lease_renew_margin",
            "probe_retry",
            "read_deadline",
            "sync_period",
        ],
    )
    @pytest.mark.parametrize("value", [0, 0.0, -1.0, "soon", None, True])
    def test_bad_durations_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            CompartmentConfig(**{field: value})

    def test_renew_margin_must_undercut_duration(self):
        with pytest.raises(ValueError, match="lease_renew_margin"):
            CompartmentConfig(lease_duration=1.0, lease_renew_margin=1.0)
        with pytest.raises(ValueError, match="lease_renew_margin"):
            CompartmentConfig(lease_duration=0.5, lease_renew_margin=0.7)

    def test_defaults_valid_and_disabled_by_default(self):
        cfg = CompartmentConfig()
        assert not cfg.enabled
        assert cfg.lease_renew_margin < cfg.lease_duration

    def test_validation_applies_even_when_disabled(self):
        # A config is validated at construction, not first use: a latent
        # bad knob must not survive until someone flips `enabled`.
        with pytest.raises(ValueError):
            CompartmentConfig(enabled=False, n_learners=0)
