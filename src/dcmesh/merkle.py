"""Merkle trees with inclusion paths: each signer's tree over its edges' digests.

Every tree is a power of two leaves wide, so no node is ever promoted
and every path has one sibling per level.  ``build_tree`` takes the
leaf hashes of many equal trees, so a leaf shared by two trees is
hashed once, and hashes them one level at a time across all of them.
"""

from __future__ import annotations

import hashlib

_LEAF = b"\x00"
_NODE = b"\x01"


def leaf_hash(data: bytes) -> bytes:
    return hashlib.sha256(_LEAF + data).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE + left + right).digest()


def build_tree(leaf_hashes, width: int) -> list[list[bytes]]:
    """The levels of the trees over each consecutive run of ``width``
    leaf hashes (``leaf_hash`` of each leaf), those first; the last level
    holds the trees' roots, in order.

    ``width`` is a power of two, so a level's pairs never straddle two
    trees.  Raises ValueError for another width or a count that is not a
    multiple of it.
    """
    if width < 1 or width & (width - 1) or len(leaf_hashes) % width:
        raise ValueError(f"{len(leaf_hashes)} leaves do not make trees of width {width}")
    sha256 = hashlib.sha256   # node_hash, inlined
    levels = [list(leaf_hashes)]
    while width > 1:
        level = levels[-1]
        levels.append(
            [sha256(_NODE + level[i] + level[i + 1]).digest() for i in range(0, len(level), 2)]
        )
        width //= 2
    return levels


def path(levels, index: int) -> list[bytes]:
    """Sibling digests from leaf ``index`` up to its tree's root."""
    siblings = []
    for level in levels[:-1]:
        siblings.append(level[index ^ 1])
        index //= 2
    return siblings


def root_at(leaf: bytes, index: int, width: int, siblings) -> bytes | None:
    """The root that ``siblings`` lead to from ``leaf`` at ``index`` of a
    ``width``-leaf tree, or None unless the index lies in the tree and
    there are exactly log2(width) siblings.

    Whether each sibling sits left or right follows from the index, so
    a path only reproduces the root at the position it was made for.
    """
    if not 0 <= index < width or 1 << len(siblings) != width:
        return None
    acc = leaf_hash(leaf)
    for sibling in siblings:
        acc = node_hash(sibling, acc) if index & 1 else node_hash(acc, sibling)
        index //= 2
    return acc
