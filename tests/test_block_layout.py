"""Unit and property tests for the NVM block layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm.block import BlockLayout
from tests.conftest import average_fanout


class TestBlockLayoutBasics:
    def test_identity_layout(self):
        layout = BlockLayout.identity(100, 32)
        assert layout.num_blocks == 4
        assert layout.block_of([0, 31, 32, 99]).tolist() == [0, 0, 1, 3]
        assert layout.vectors_in_block(1)[1] == 33

    def test_custom_order(self):
        order = np.array([3, 1, 0, 2])
        layout = BlockLayout(order, vectors_per_block=2)
        assert layout.block_of([3, 1]).tolist() == [0, 0]
        assert layout.block_of([0, 2]).tolist() == [1, 1]
        np.testing.assert_array_equal(layout.vectors_in_block(0), [3, 1])

    def test_partial_last_block(self):
        layout = BlockLayout.identity(10, 4)
        assert layout.num_blocks == 3
        assert layout.vectors_in_block(2).tolist() == [8, 9]

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            BlockLayout([0, 0, 1], vectors_per_block=2)
        with pytest.raises(ValueError):
            BlockLayout([0, 1, 5], vectors_per_block=2)

    def test_empty_order_rejected(self):
        with pytest.raises(ValueError):
            BlockLayout([], vectors_per_block=2)

    def test_out_of_range_lookup_rejected(self):
        layout = BlockLayout.identity(10, 4)
        with pytest.raises(IndexError):
            layout.block_of([10])
        with pytest.raises(IndexError):
            layout.vectors_in_block(3)


class TestFanout:
    """The layout score the partitioning tests use (``conftest.average_fanout``)."""

    def test_fanout_single_block(self):
        layout = BlockLayout.identity(64, 32)
        assert average_fanout(layout, [[0, 1, 2]]) == 1
        assert average_fanout(layout, [[0, 32]]) == 2

    def test_empty_query_fanout(self):
        layout = BlockLayout.identity(64, 32)
        assert average_fanout(layout, [[]]) == 0

    def test_average_fanout(self):
        layout = BlockLayout.identity(64, 32)
        assert average_fanout(layout, [[0, 1], [0, 32]]) == pytest.approx(1.5)

    def test_average_fanout_empty(self):
        layout = BlockLayout.identity(64, 32)
        assert average_fanout(layout, []) == pytest.approx(0.0)


@given(
    num_vectors=st.integers(min_value=1, max_value=300),
    vectors_per_block=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_layout_roundtrip_property(num_vectors, vectors_per_block, seed):
    """Every vector maps to exactly one (block, slot) and back."""
    order = np.random.default_rng(seed).permutation(num_vectors)
    layout = BlockLayout(order, vectors_per_block)
    ids = np.arange(num_vectors)
    blocks = layout.block_of(ids)
    # Each vector appears in the block it maps to.
    for block_id in range(layout.num_blocks):
        members = layout.vectors_in_block(block_id)
        assert len(members) <= vectors_per_block
        assert (blocks[members] == block_id).all()
    # Blocks partition the table.
    total = sum(layout.vectors_in_block(b).size for b in range(layout.num_blocks))
    assert total == num_vectors
