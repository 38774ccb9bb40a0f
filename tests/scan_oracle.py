"""The planar scan order by rescanning every crossing: a test-only oracle.

At each step every remaining crossing's open boundary points are counted
afresh, and the one sharing the most is glued next, ties going to the
lowest index.  That is O(c^2) for c crossings; ``symknot.diagram``'s
``scan_order`` keeps the counts in a heap instead and must give the same
order.
"""

from __future__ import annotations


def rescan_order(crossings) -> list[int]:
    """Crossing indices, each next one sharing the most open boundary points."""
    remaining = list(range(len(crossings)))
    open_: set[int] = set()
    order = []
    while remaining:
        best = max(remaining, key=lambda i: (sum(a in open_ for a in crossings[i]), -i))
        remaining.remove(best)
        order.append(best)
        for a in crossings[best]:
            if a in open_:
                open_.remove(a)
            else:
                open_.add(a)
    return order
