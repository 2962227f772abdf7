"""Tests for the Bandana, serving and cluster configuration knobs."""

import numpy as np
import pytest

from repro.core.config import BandanaConfig, ClusterConfig, ServingConfig, TableCacheConfig
from repro.serving.batcher import form_batches


class TestBandanaConfig:
    def test_defaults_match_paper_geometry(self):
        config = BandanaConfig()
        assert config.vector_bytes == 128
        assert config.block_bytes == 4096
        assert config.vectors_per_block == 32
        assert config.shp_iterations == 16

    def test_block_must_be_multiple_of_vector(self):
        with pytest.raises(ValueError):
            BandanaConfig(vector_bytes=100, block_bytes=4096)

    def test_empty_thresholds_rejected(self):
        with pytest.raises(ValueError):
            BandanaConfig(candidate_thresholds=())

    def test_vector_size_sweep(self):
        # Figure 16 changes the vector size; vectors_per_block must follow.
        assert BandanaConfig(vector_bytes=64).vectors_per_block == 64
        assert BandanaConfig(vector_bytes=256).vectors_per_block == 16

    def test_table_cache_config_validation(self):
        TableCacheConfig(cache_size_vectors=0, threshold=None)
        with pytest.raises(ValueError):
            TableCacheConfig(cache_size_vectors=-1)
        with pytest.raises(ValueError):
            TableCacheConfig(cache_size_vectors=1, threshold=-2)

    @pytest.mark.parametrize("size", [2.5, True, 3.0])
    def test_table_cache_size_must_be_an_integer(self, size):
        # A fractional or boolean cache size used to construct silently.
        with pytest.raises(TypeError, match="cache_size_vectors"):
            TableCacheConfig(cache_size_vectors=size)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_table_cache_threshold_must_be_finite(self, threshold):
        # ``nan < 0`` is False, so a NaN threshold used to pass and then
        # admit nothing.
        with pytest.raises(ValueError, match="threshold"):
            TableCacheConfig(cache_size_vectors=1, threshold=threshold)


class TestConfigKnobValidation:
    """The store/serving/cluster knobs fail loudly at construction."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_workers": 0},
            {"vector_bytes": 0},
            {"total_cache_vectors": 0},
            {"shp_iterations": 0},
        ],
    )
    def test_bandana_rejects_non_positive_counts(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            BandanaConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_workers": 2.5},
            {"total_cache_vectors": 100.7},
            {"total_cache_vectors": True},
            # Annotated ``int`` but checked as a positive number, 2.5 and
            # True used to construct.
            {"shp_iterations": 2.5},
            {"shp_iterations": True},
        ],
    )
    def test_bandana_rejects_non_integer_counts(self, kwargs):
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            BandanaConfig(**kwargs)

    @pytest.mark.parametrize("num_workers", [2, 4])
    def test_worker_sharded_replay_is_gone(self, num_workers):
        assert BandanaConfig(num_workers=1).num_workers == 1
        with pytest.raises(ValueError, match="worker-sharded store replay was removed"):
            BandanaConfig(num_workers=num_workers)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"default_threshold": float("nan")}, "default_threshold"),
            ({"default_threshold": float("inf")}, "default_threshold"),
            ({"default_threshold": -1.0}, "default_threshold"),
            ({"candidate_thresholds": (0, -5, 10)}, r"candidate_thresholds\[1\]"),
            ({"candidate_thresholds": (float("nan"),)}, r"candidate_thresholds\[0\]"),
            ({"mini_cache_sampling_rate": 0.0}, "mini_cache_sampling_rate"),
            ({"mini_cache_sampling_rate": float("nan")}, "mini_cache_sampling_rate"),
        ],
        ids=[
            "threshold-nan",
            "threshold-inf",
            "threshold-negative",
            "candidate-negative",
            "candidate-nan",
            "sampling-zero",
            "sampling-nan",
        ],
    )
    def test_bandana_rejects_what_build_cannot_use(self, kwargs, name):
        # Each of these used to construct and then fail (or silently
        # misbehave) deep inside BandanaStore.build, after SHP had run.
        with pytest.raises(ValueError, match=name):
            BandanaConfig(**kwargs)

    def test_bandana_accepts_the_boundaries(self):
        config = BandanaConfig(
            total_cache_vectors=1,
            default_threshold=0.0,
            candidate_thresholds=(0,),
            mini_cache_sampling_rate=1.0,
        )
        assert config.candidate_thresholds == (0.0,)

    def test_serving_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="slo_latency_us"):
            ServingConfig(slo_latency_us=0.0)
        with pytest.raises(ValueError, match="max_batch_requests"):
            ServingConfig(max_batch_requests=0)
        with pytest.raises(TypeError, match="max_batch_requests"):
            ServingConfig(max_batch_requests=4.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 0},
            {"replication": 0},
            {"virtual_nodes": 0},
            {"max_attempts": 0},
            {"breaker_cooloff_s": 0.0},
        ],
    )
    def test_cluster_rejects_bad_knobs(self, kwargs):
        with pytest.raises((ValueError, TypeError), match=next(iter(kwargs))):
            ClusterConfig(**kwargs)

    @pytest.mark.parametrize(
        "config_cls, name",
        [(ServingConfig, "max_linger_us")],
        ids=lambda value: getattr(value, "__name__", value),
    )
    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_time_knobs_reject_nan_and_negative(self, config_cls, name, value):
        # NaN used to slip past a hand-rolled ``< 0`` check and then poison
        # every latency the knob is added to.
        with pytest.raises(ValueError, match=name):
            config_cls(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_form_batches_rejects_nan_and_negative_linger(self, value):
        with pytest.raises(ValueError, match="max_linger_us"):
            form_batches(np.array([0.0, 1.0]), 4, value)

    @pytest.mark.parametrize(
        "name", ["admission_queue_slack", "default_slo_us", "table_slo_us"]
    )
    def test_cluster_admission_knobs_live_on_the_serving_config(self, name):
        # A cluster node sheds by the run's ServingConfig, as a host does;
        # ClusterConfig's copies (read only by the cluster, silently
        # diverging from the host's) are gone.
        with pytest.raises(TypeError, match=name):
            ClusterConfig(**{name: 1.0})

