"""Minimal union-find over the integers 0..n-1.

The representative of every class is its smallest member, so sorted roots
list the classes by least member (``context.pullback_cm`` numbers its apex
ports this way).  The wiring code maps rows through :meth:`find` and lets
``normalize`` renumber the dots.
"""

from __future__ import annotations


class UnionFind:
    def __init__(self, size: int):
        self._parent = list(range(size))

    def find(self, i: int) -> int:
        parent = self._parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        # keep the smaller index as root so classes sort by least member
        if rb < ra:
            ra, rb = rb, ra
        self._parent[rb] = ra
        return ra
