"""The consistent-hash ring: determinism, replica placement, balance."""

import numpy as np
import pytest

from repro.cluster.ring import ConsistentHashRing, stable_hash64


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash64("t0:block3") == stable_hash64("t0:block3")

    def test_64_bit_range(self):
        for key in ("a", "b", "table:block123", ""):
            assert 0 <= stable_hash64(key) < 2**64

    def test_known_value_pinned(self):
        # blake2b is platform-independent; this pin guards placement
        # stability across releases (moving blocks would cold every cache).
        assert stable_hash64("node0#vnode0") == int.from_bytes(
            __import__("hashlib").blake2b(b"node0#vnode0", digest_size=8).digest(),
            "big",
        )


class TestRingConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            ConsistentHashRing(["a", "b", "a"])

    def test_rejects_zero_vnodes(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(["a"], virtual_nodes=0)

    def test_len_is_physical_nodes(self):
        assert len(ConsistentHashRing(["a", "b", "c"])) == 3


class TestReplicaPlacement:
    def test_deterministic(self):
        names = [f"node{i}" for i in range(5)]
        a = ConsistentHashRing(names)
        b = ConsistentHashRing(names)
        for key in ("t:block0", "t:block1", "u:block7"):
            assert a.replicas_for(key, 3) == b.replicas_for(key, 3)

    def test_replicas_distinct(self):
        ring = ConsistentHashRing([f"node{i}" for i in range(4)])
        for block in range(50):
            replicas = ring.replicas_for(f"t:block{block}", 3)
            assert len(replicas) == len(set(replicas)) == 3

    def test_replication_clamped_to_cluster(self):
        ring = ConsistentHashRing(["a", "b"])
        assert sorted(ring.replicas_for("k", 5)) == [0, 1]

    def test_primary_prefix_property(self):
        # R=1 placement is the first entry of R=2 placement: raising the
        # replication factor must not move any primary.
        ring = ConsistentHashRing([f"node{i}" for i in range(4)])
        for block in range(50):
            key = f"t:block{block}"
            assert ring.replicas_for(key, 2)[0] == ring.replicas_for(key, 1)[0]


class TestBlockOwners:
    def test_shape_and_dtype(self):
        ring = ConsistentHashRing([f"node{i}" for i in range(4)])
        owners = ring.block_owners("t", 32, 2)
        assert owners.shape == (32, 2)
        assert owners.dtype == np.int64

    def test_single_node_all_zero(self):
        ring = ConsistentHashRing(["only"])
        owners = ring.block_owners("t", 16, 1)
        assert np.all(owners == 0)

    def test_rows_match_replicas_for(self):
        ring = ConsistentHashRing([f"node{i}" for i in range(3)])
        owners = ring.block_owners("t", 10, 2)
        for block in range(10):
            assert owners[block].tolist() == ring.replicas_for(f"t:block{block}", 2)

    def test_virtual_nodes_spread_load(self):
        # With enough vnodes every node owns a nontrivial share — the whole
        # point of virtual nodes (a bare 4-point ring can starve a node).
        ring = ConsistentHashRing([f"node{i}" for i in range(4)], virtual_nodes=64)
        shares = np.bincount(ring.block_owners("t", 400, 1).ravel(), minlength=4)
        assert shares.min() > 0
        assert shares.max() < 400  # nobody owns everything


class TestNodeRemoval:
    """Removing one node moves only that node's blocks.

    The sharded-store property: every block keeps ``min(R, n - 1)`` owners
    through a departure, and no block the departed node did not own moves.
    """

    BLOCKS = 500

    @pytest.mark.parametrize("num_nodes", range(2, 9))
    @pytest.mark.parametrize("replication", [1, 2, 3])
    def test_removing_any_node_moves_only_its_blocks(self, num_nodes, replication):
        names = [f"node{i}" for i in range(num_nodes)]
        before = ConsistentHashRing(names)
        owners_before = before.block_owners("t", self.BLOCKS, replication)
        for removed in range(num_nodes):
            survivors = [name for name in names if name != names[removed]]
            after = ConsistentHashRing(survivors)
            owners_after = after.block_owners("t", self.BLOCKS, replication)
            # Rows as node names: the survivors' indices shift by one.
            assert owners_after.shape[1] == min(replication, num_nodes - 1)
            rows = zip(owners_before.tolist(), owners_after.tolist())
            for row_before, row_after in rows:
                old = [names[i] for i in row_before]
                new = [survivors[i] for i in row_after]
                assert len(set(new)) == len(new) == min(replication, num_nodes - 1)
                if names[removed] not in old:
                    assert new == old  # untouched blocks keep their owners
                else:
                    # The survivors keep their places, in order; the ring's
                    # next node fills the freed replica slot.
                    kept = [name for name in old if name != names[removed]]
                    assert new[: len(kept)] == kept
