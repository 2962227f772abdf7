"""Unit tests for the paper's Table 1 specs and their scaled variants."""

import pytest

from repro.workloads.tables_spec import (
    PAPER_TABLE_SPECS,
    PAPER_VECTORS_PER_BLOCK,
    TableSpec,
    scaled_table_specs,
)


class TestPaperSpecs:
    def test_eight_tables(self):
        assert len(PAPER_TABLE_SPECS) == 8

    def test_lookup_shares_roughly_sum_to_one(self):
        total = sum(spec.lookup_share for spec in PAPER_TABLE_SPECS.values())
        assert total == pytest.approx(1.0, abs=0.1)

    def test_table2_matches_paper_row(self):
        spec = PAPER_TABLE_SPECS["table2"]
        assert spec.num_vectors == 10_000_000
        assert spec.avg_lookups_per_query == pytest.approx(92.75)
        assert spec.lookup_share == pytest.approx(0.2514)
        assert spec.compulsory_miss_rate == pytest.approx(0.0219)

    def test_table8_has_highest_compulsory_miss_rate(self):
        rates = {name: s.compulsory_miss_rate for name, s in PAPER_TABLE_SPECS.items()}
        assert max(rates, key=rates.get) == "table8"

    def test_vector_geometry(self):
        assert PAPER_VECTORS_PER_BLOCK == 32


class TestScaling:
    def test_scaled_preserves_intensive_stats(self):
        specs = scaled_table_specs(1 / 500)
        for name, scaled in specs.items():
            original = PAPER_TABLE_SPECS[name]
            assert scaled.avg_lookups_per_query == original.avg_lookups_per_query
            assert scaled.compulsory_miss_rate == original.compulsory_miss_rate
            assert scaled.num_vectors == pytest.approx(
                original.num_vectors / 500, rel=0.01
            )

    def test_scaled_subset(self):
        specs = scaled_table_specs(1 / 1000, names=["table1", "table8"])
        assert set(specs) == {"table1", "table8"}

    @pytest.mark.parametrize("scale", [True, "0.01"])
    def test_non_numeric_scale_rejected(self, scale):
        # ``scaled_table_specs(True)`` used to return the scale-1 specs.
        with pytest.raises(TypeError, match="scale"):
            scaled_table_specs(scale)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            scaled_table_specs(1 / 1000, names=["table9"])

    def test_scale_never_below_one_block(self):
        specs = scaled_table_specs(1e-9)
        assert all(s.num_vectors >= PAPER_VECTORS_PER_BLOCK for s in specs.values())


class TestTableSpecValidation:
    def test_invalid_share_rejected(self):
        with pytest.raises(ValueError):
            TableSpec(
                name="bad",
                num_vectors=100,
                avg_lookups_per_query=10,
                lookup_share=1.5,
                compulsory_miss_rate=0.1,
            )

    def test_invalid_num_vectors_rejected(self):
        with pytest.raises(ValueError):
            TableSpec(
                name="bad",
                num_vectors=0,
                avg_lookups_per_query=10,
                lookup_share=0.5,
                compulsory_miss_rate=0.1,
            )
