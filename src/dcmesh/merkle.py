"""Merkle tree with inclusion paths, used to endorse commitment lists with one signature.

``roots`` gives the roots of many equal trees of a power-of-two width,
one level at a time across all of them; ``build_tree`` keeps a tree's
every level, for its paths.
"""

from __future__ import annotations

import hashlib

_LEAF = b"\x00"
_NODE = b"\x01"


def leaf_hash(data: bytes) -> bytes:
    return hashlib.sha256(_LEAF + data).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE + left + right).digest()


def build_tree(leaves: list[bytes]) -> list[list[bytes]]:
    """Return the tree's levels, leaf hashes first; the last level is [root].

    Odd nodes are promoted to the next level unpaired, so paths can
    have differing lengths.  A single leaf is its own root with an
    empty path.
    """
    if not leaves:
        raise ValueError("need at least one leaf")
    sha256 = hashlib.sha256   # leaf_hash and node_hash, inlined
    levels = [[sha256(_LEAF + x).digest() for x in leaves]]
    while len(levels[-1]) > 1:
        level = levels[-1]
        nxt = [
            sha256(_NODE + level[i] + level[i + 1]).digest()
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        levels.append(nxt)
    return levels


def roots(leaves, width: int) -> list[bytes]:
    """The root of each consecutive run of ``width`` leaves, in order:
    ``build_tree(run)[-1][0]`` of each run.

    ``width`` is a power of two, so no node is promoted and a level's
    pairs never straddle two trees.  Raises ValueError for another width
    or a leaf count that is not a multiple of it.
    """
    if width < 1 or width & (width - 1) or len(leaves) % width:
        raise ValueError(f"{len(leaves)} leaves do not make trees of width {width}")
    sha256 = hashlib.sha256
    level = [sha256(_LEAF + x).digest() for x in leaves]
    while width > 1:
        level = [sha256(_NODE + level[i] + level[i + 1]).digest() for i in range(0, len(level), 2)]
        width //= 2
    return level


def path(levels, index: int) -> list[bytes]:
    """Sibling digests from leaf ``index`` up to the root; a promoted node has none."""
    siblings = []
    for level in levels[:-1]:
        if index ^ 1 < len(level):
            siblings.append(level[index ^ 1])
        index //= 2
    return siblings


def root_at(leaf: bytes, index: int, count: int, siblings) -> bytes | None:
    """The root that ``siblings`` lead to from ``leaf`` at ``index`` of
    ``count`` leaves, or None when the path's length does not fit.

    Whether each sibling sits left or right follows from the index, so
    a path only reproduces the root at the position it was made for.
    """
    if not 0 <= index < count:
        return None
    siblings = list(siblings)
    acc = leaf_hash(leaf)
    while count > 1:
        if index ^ 1 < count:
            if not siblings:
                return None
            sibling = siblings.pop(0)
            acc = node_hash(sibling, acc) if index & 1 else node_hash(acc, sibling)
        index //= 2
        count = (count + 1) // 2
    return None if siblings else acc
