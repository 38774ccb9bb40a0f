"""The Kauffman bracket as a sum over all 2^c smoothings: a test-only oracle.

Every smoothing is enumerated and its loops counted by union-find over the
edge labels.  The cost doubles per crossing, so it only checks the scanning
bracket of ``symknot.polynomials`` on small diagrams.
"""

from __future__ import annotations

from symknot.algebra import LaurentPolynomial
from symknot.diagram import PlanarDiagram


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def smoothing_counts(d: PlanarDiagram) -> dict[tuple[int, int], int]:
    """Histogram of (A-exponent, loop count) over all 2^c smoothings.

    A 0-smoothing (factor A) joins slots 0-1 and 2-3 of a crossing, a
    1-smoothing (factor A^-1) joins slots 0-3 and 1-2.
    """
    xs = d.crossings
    c = len(xs)
    labels = sorted({a for x in xs for a in x})
    index = {a: i for i, a in enumerate(labels)}
    quads = [tuple(index[a] for a in x) for x in xs]
    n = len(labels)
    counts: dict[tuple[int, int], int] = {}
    for mask in range(1 << c):
        parent = list(range(n))
        for ci, (s0, s1, s2, s3) in enumerate(quads):
            if mask >> ci & 1:
                pairs = ((s0, s3), (s1, s2))
            else:
                pairs = ((s0, s1), (s2, s3))
            for a, b in pairs:
                ra, rb = _find(parent, a), _find(parent, b)
                if ra != rb:
                    parent[ra] = rb
        loops = sum(1 for i in range(n) if parent[i] == i) + d.loops
        exp = c - 2 * mask.bit_count()
        key = (exp, loops)
        counts[key] = counts.get(key, 0) + 1
    return counts


def bracket_state_sum(d: PlanarDiagram) -> LaurentPolynomial:
    """Bracket in A, 1 on the unknot: each smoothing gives A^exp (-A^2 - A^-2)^(loops - 1)."""
    delta = LaurentPolynomial({2: -1, -2: -1})
    total = LaurentPolynomial.zero()
    for (exp, loops), count in smoothing_counts(d).items():
        total = total + (delta ** (loops - 1)).shift(exp) * count
    return total
