"""Tests for the prefetch-admission policies."""

import copy

import numpy as np
import pytest

from repro.caching.policies import (
    AccessThresholdPolicy,
    CacheAllBlockPolicy,
    CombinedPolicy,
    InsertAtPositionPolicy,
    NoPrefetchPolicy,
    ShadowAdmissionPolicy,
)


class TestSimplePolicies:
    def test_no_prefetch_rejects_everything(self):
        policy = NoPrefetchPolicy()
        assert policy.admit(5) is None

    def test_cache_all_admits_at_top(self):
        assert CacheAllBlockPolicy().admit(5) == pytest.approx(0.0)

    def test_insert_at_position(self):
        policy = InsertAtPositionPolicy(position=0.7)
        assert policy.admit(5) == pytest.approx(0.7)

    def test_insert_position_validated(self):
        with pytest.raises(ValueError):
            InsertAtPositionPolicy(position=2.0)


class TestShadowAdmissionPolicy:
    def test_admits_only_shadow_residents(self):
        policy = ShadowAdmissionPolicy(real_cache_size=4, multiplier=1.0)
        assert policy.admit(1) is None
        policy.record_access(1)
        assert policy.admit(1) == pytest.approx(0.0)

    def test_reset_clears_shadow(self):
        policy = ShadowAdmissionPolicy(real_cache_size=4)
        policy.record_access(1)
        policy.reset()
        assert policy.admit(1) is None


class TestCombinedPolicy:
    def test_shadow_hit_goes_to_top_miss_to_position(self):
        policy = CombinedPolicy(real_cache_size=4, position=0.5, multiplier=1.0)
        assert policy.admit(1) == pytest.approx(0.5)
        policy.record_access(1)
        assert policy.admit(1) == pytest.approx(0.0)


class TestAccessThresholdPolicy:
    def test_admits_above_threshold_only(self):
        counts = np.array([0, 5, 50])
        policy = AccessThresholdPolicy(counts, threshold=5)
        assert policy.admit(0) is None
        assert policy.admit(1) is None      # strictly greater than t
        assert policy.admit(2) == pytest.approx(0.0)

    def test_out_of_range_vector_rejected(self):
        policy = AccessThresholdPolicy(np.array([10]), threshold=1)
        assert policy.admit(5) is None

    def test_threshold_zero_admits_any_accessed_vector(self):
        policy = AccessThresholdPolicy(np.array([0, 1]), threshold=0)
        assert policy.admit(0) is None
        assert policy.admit(1) == pytest.approx(0.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            AccessThresholdPolicy(np.array([1]), threshold=-1)

    def test_2d_counts_rejected(self):
        with pytest.raises(ValueError):
            AccessThresholdPolicy(np.zeros((2, 2)), threshold=1)


POLICY_BUILDERS = {
    "no-prefetch": NoPrefetchPolicy,
    "cache-all-block": CacheAllBlockPolicy,
    "insert-at-position": lambda: InsertAtPositionPolicy(position=0.3),
    "shadow-admission": lambda: ShadowAdmissionPolicy(real_cache_size=4),
    "combined": lambda: CombinedPolicy(real_cache_size=4, position=0.5),
    "access-threshold": lambda: AccessThresholdPolicy(
        np.array([0, 3, 9, 1, 7, 0, 2, 8]), threshold=2
    ),
}


def test_policy_names_are_the_reported_labels():
    for label, build in POLICY_BUILDERS.items():
        assert build().name == label


@pytest.mark.parametrize("label", list(POLICY_BUILDERS))
def test_reset_deep_copy_admits_like_a_fresh_policy(label):
    """What a cluster node's shard store does to the host's policy."""
    build = POLICY_BUILDERS[label]
    warm = build()
    warm.record_access_batch(np.arange(8, dtype=np.int64))
    warm_positions = warm.admit_batch(np.arange(12, dtype=np.int64))
    cold = copy.deepcopy(warm)
    cold.reset()
    fresh_positions = build().admit_batch(np.arange(12, dtype=np.int64))
    np.testing.assert_array_equal(
        cold.admit_batch(np.arange(12, dtype=np.int64)), fresh_positions
    )
    # The copy is independent: the warm original still admits as it did.
    np.testing.assert_array_equal(
        warm.admit_batch(np.arange(12, dtype=np.int64)), warm_positions
    )
