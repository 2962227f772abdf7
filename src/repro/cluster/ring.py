"""Consistent-hash ring with virtual nodes and replica placement.

The cluster partitions each table's dense id space at **block granularity**:
a 4 KB NVM block is the unit of placement (prefetch admission is a
block-local decision, so keeping a block's vectors on one node preserves the
single-store cache semantics within every shard).  Each ``(table, block)``
key hashes to a point on a 64-bit ring; the node owning the first virtual
node clockwise of that point is the block's primary, and the next ``R - 1``
*distinct physical* nodes along the ring hold its replicas — the classic
consistent-hash construction (cf. the sharded KV-store exemplar in
SNIPPETS.md), which moves only ``~1/N`` of the keys when a node joins or
leaves.

Hashes come from ``blake2b`` over stable strings, so placement is a pure
function of (names, vnode count) — independent of process hash
randomisation, platform and run order.  Ownership for a whole table is
precomputed into one ``(num_blocks, R)`` integer array so routing is a
couple of numpy gathers per request.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_int_at_least

_HASH_BITS = 64


def stable_hash64(key: str) -> int:
    """A stable 64-bit hash of a string (first 8 bytes of blake2b)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """A ring of virtual nodes mapping keys to replica lists.

    Parameters
    ----------
    node_names:
        Physical node names, in cluster index order (``replicas_for``
        returns *indices* into this sequence).
    virtual_nodes:
        Virtual nodes per physical node.
    """

    def __init__(self, node_names: Sequence[str], virtual_nodes: int = 64) -> None:
        names = list(node_names)
        if not names:
            raise ValueError("the ring needs at least one node")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names: {sorted(names)}")
        check_int_at_least(virtual_nodes, 1, "virtual_nodes")
        self.node_names = names
        self.virtual_nodes = int(virtual_nodes)
        points: List[Tuple[int, int]] = []
        for index, name in enumerate(names):
            for v in range(self.virtual_nodes):
                points.append((stable_hash64(f"{name}#vnode{v}"), index))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [o for _, o in points]

    def __len__(self) -> int:
        return len(self.node_names)

    # ---------------------------------------------------------------- lookup
    def replicas_for(self, key: str, replication: int = 1) -> List[int]:
        """The first ``replication`` distinct node indices clockwise of ``key``.

        ``replication`` is clamped to the number of physical nodes (a 3-node
        cluster cannot hold 4 distinct copies).
        """
        check_int_at_least(replication, 1, "replication")
        replication = min(replication, len(self.node_names))
        point = stable_hash64(key)
        start = bisect.bisect_right(self._points, point) % len(self._points)
        replicas: List[int] = []
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in replicas:
                replicas.append(owner)
                if len(replicas) == replication:
                    break
        return replicas

    def block_owners(
        self, table_name: str, num_blocks: int, replication: int = 1
    ) -> np.ndarray:
        """Replica table for one embedding table.

        Returns an ``(num_blocks, R)`` int64 array: row ``b`` holds the node
        indices serving block ``b``, primary first.  ``R`` is ``replication``
        clamped to the cluster size.
        """
        check_int_at_least(num_blocks, 0, "num_blocks")
        check_int_at_least(replication, 1, "replication")
        effective = min(replication, len(self.node_names))
        owners = np.empty((num_blocks, effective), dtype=np.int64)
        for block in range(num_blocks):
            owners[block] = self.replicas_for(
                f"{table_name}:block{block}", effective
            )
        return owners
