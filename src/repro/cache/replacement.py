"""Replacement policies for the set-associative caches.

Only LRU is used by the paper's configuration, but the policy is a
pluggable object so ablations can swap in others without touching the
cache itself.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple


class LRUPolicy:
    """Least-recently-used ordering over one cache set.

    The set is an :class:`OrderedDict` mapping tag -> dirty flag, with
    least-recently-used entries first.
    """

    @staticmethod
    def touch(entries: "OrderedDict[int, bool]", tag: int) -> None:
        """Mark ``tag`` most recently used."""
        entries.move_to_end(tag)

    @staticmethod
    def victim(entries: "OrderedDict[int, bool]") -> Tuple[int, bool]:
        """Pick and remove the eviction victim; returns (tag, dirty)."""
        return entries.popitem(last=False)
