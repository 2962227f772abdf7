"""Tests for embedding tables, synthetic values and the recommendation model."""

import numpy as np
import pytest

from repro.embeddings.model import EmbeddingModel, RecommendationModel
from repro.embeddings.synthesis import synthesize_topic_vectors
from repro.embeddings.table import EmbeddingTable


class TestEmbeddingTable:
    def test_shapes_and_sizes(self):
        table = EmbeddingTable("t", num_vectors=100, dim=64, dtype=np.float16)
        assert table.values.shape == (100, 64)
        assert table.vector_bytes == 128
        assert table.nbytes == 100 * 128

    def test_gather(self):
        values = np.arange(20, dtype=np.float32).reshape(10, 2)
        table = EmbeddingTable("t", 10, dim=2, dtype=np.float32, values=values)
        out = table.gather([3, 0])
        np.testing.assert_array_equal(out, [[6, 7], [0, 1]])

    def test_gather_out_of_range(self):
        table = EmbeddingTable("t", 10, dim=2)
        with pytest.raises(IndexError):
            table.gather([10])

    def test_pooled_sums(self):
        values = np.ones((4, 3), dtype=np.float32)
        table = EmbeddingTable("t", 4, dim=3, dtype=np.float32, values=values)
        np.testing.assert_allclose(table.pooled([0, 1, 2]), [3, 3, 3])
        np.testing.assert_allclose(table.pooled([]), [0, 0, 0])

    def test_bad_values_shape_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable("t", 4, dim=2, values=np.zeros((4, 3)))


class TestSynthesis:
    def test_same_topic_vectors_are_closer(self):
        topic_of = np.array([0] * 50 + [1] * 50)
        values = synthesize_topic_vectors(topic_of, dim=16, noise=0.2, seed=0).astype(
            np.float32
        )
        same = np.linalg.norm(values[0] - values[1])
        cross = np.linalg.norm(values[0] - values[60])
        assert same < cross

    def test_noise_zero_collapses_topics(self):
        topic_of = np.array([0, 0, 1, 1])
        values = synthesize_topic_vectors(topic_of, dim=4, noise=0.0, seed=0)
        np.testing.assert_allclose(values[0], values[1])

    def test_unassigned_vectors_get_values(self):
        values = synthesize_topic_vectors(np.array([-1, -1, 0]), dim=4, seed=0)
        assert values.shape == (3, 4)
        assert np.isfinite(values.astype(np.float32)).all()

    def test_deterministic(self):
        topic_of = np.array([0, 1, 2, 0])
        a = synthesize_topic_vectors(topic_of, dim=8, seed=5)
        b = synthesize_topic_vectors(topic_of, dim=8, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            synthesize_topic_vectors(np.zeros((2, 2), dtype=int))


class TestEmbeddingModel:
    def make_model(self):
        model = EmbeddingModel()
        model.add_table(EmbeddingTable("users", 10, dim=4, dtype=np.float32))
        model.add_table(EmbeddingTable("pages", 20, dim=4, dtype=np.float32))
        return model

    def test_registration(self):
        model = self.make_model()
        assert len(model) == 2
        assert "users" in model
        assert model.table_names == ["users", "pages"]
        assert model.nbytes == 10 * 16 + 20 * 16

    def test_duplicate_rejected(self):
        model = self.make_model()
        with pytest.raises(ValueError):
            model.add_table(EmbeddingTable("users", 5, dim=4))

    def test_pooled_features_concatenates_tables(self):
        model = self.make_model()
        features = model.pooled_features({"users": [1, 2], "pages": [3]})
        assert features.shape == (8,)

    def test_missing_table_contributes_zeros(self):
        model = self.make_model()
        features = model.pooled_features({"users": [1]})
        np.testing.assert_allclose(features[4:], 0.0)


class TestRecommendationModel:
    def test_score_in_unit_interval(self):
        embedding_model = EmbeddingModel(
            {"t": EmbeddingTable("t", 50, dim=8, dtype=np.float32)}
        )
        model = RecommendationModel(embedding_model, hidden_dims=(16,), dense_dim=4, seed=0)
        score = model.score({"t": [1, 2, 3]})
        assert 0.0 <= score <= 1.0

    def test_pooled_override_matches_direct(self):
        embedding_model = EmbeddingModel(
            {"t": EmbeddingTable("t", 50, dim=8, dtype=np.float32)}
        )
        model = RecommendationModel(embedding_model, seed=1)
        request = {"t": [5, 7]}
        direct = model.score(request)
        pooled = embedding_model.pooled_features(request)
        assert model.score(request, pooled=pooled) == pytest.approx(direct)

    def test_requires_a_table(self):
        with pytest.raises(ValueError):
            RecommendationModel(EmbeddingModel())

    def test_bad_dense_features_shape(self):
        embedding_model = EmbeddingModel({"t": EmbeddingTable("t", 10, dim=4)})
        model = RecommendationModel(embedding_model, dense_dim=4)
        with pytest.raises(ValueError):
            model.score({"t": [0]}, dense_features=np.zeros(3))

    def test_num_parameters_positive(self):
        embedding_model = EmbeddingModel({"t": EmbeddingTable("t", 10, dim=4)})
        model = RecommendationModel(embedding_model)
        assert model.num_parameters > 0
