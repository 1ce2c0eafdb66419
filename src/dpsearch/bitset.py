"""Fixed-capacity bit-vector sets.

Set values of states are plain ``int`` bitmasks over a universe
``{0, ..., n - 1}``: bit ``j`` is set iff element ``j`` is in the set.
Masks hash in O(1) and make union/intersection single machine ops, which
is what the dominance registry and duplicate detection lean on.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def from_items(items: Iterable[int], universe: int) -> int:
    """Build a mask from element indices, checking them against the universe."""
    mask = 0
    for item in items:
        if not 0 <= item < universe:
            raise ValueError(f"element {item} outside universe of size {universe}")
        mask |= 1 << item
    return mask


def full(universe: int) -> int:
    """Mask containing every element of the universe."""
    return (1 << universe) - 1


def members(mask: int) -> Iterator[int]:
    """Iterate over element indices in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
