"""Khovanov homology from the whole cube of resolutions: a test-only oracle.

Every q-slice of the cube complex is assembled by ``symknot.khovanov``'s
slice builders and reduced here, by chain-level Gaussian elimination over Q
and bit-packed row reduction over F2.  The cost grows about 3x per crossing,
so it is only used to check the scanning engine on small diagrams.
``edge_data`` names what one edge of the cube does to its circles.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from symknot.algebra import BigradedDims
from symknot.khovanov import F2, _field_tag, _slice_levels, _slice_matrices, build_cube


def edge_data(cube, v: int, i: int):
    """(kind, source circles, target circles) of the cube edge v -> v | 1 << i."""
    if v >> i & 1:
        raise ValueError("edge goes from a 0-smoothing to a 1-smoothing")
    _, is_split, A, B, C, _ = cube._edge(v, i)
    if is_split:
        return ("split", (A,), (B, C))
    return ("merge", (A, B), (C,))


def _rank_f2(n_cols: int, cols: dict[int, dict[int, int]]) -> int:
    """Rank over F2 with columns packed into integers."""
    pivots: dict[int, int] = {}
    rank = 0
    for c in range(n_cols):
        rows = cols.get(c)
        if not rows:
            continue
        cur = 0
        for w in rows:
            cur |= 1 << w
        while cur:
            lead = cur.bit_length() - 1
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = cur
                rank += 1
                break
            cur ^= p
    return rank


def _dims_f2(levels, mats):
    ranks = {r: _rank_f2(len(levels[r]), cols) for r, cols in mats.items()}
    return {
        r: len(gens) - ranks.get(r, 0) - ranks.get(r - 1, 0)
        for r, gens in levels.items()
    }


def _dims_rational(levels, mats):
    """Homology dimensions by chain-level Gaussian elimination.

    Cancelling an invertible entry a = <d x, y> removes x and y, applies the
    complement update to the same differential, drops the x-row one level
    down and the y-column one level up; homology is unchanged.  Pivots are
    picked Markowitz-style, cheapest fill first, through a lazy heap whose
    stale entries are re-costed on pop.  Unit pivots keep everything in
    integers; leftovers (rare) pivot with Fractions.  Once no entries remain
    the surviving generator counts are the answer.
    """
    alive = {r: len(gens) for r, gens in levels.items()}
    out_: dict[int, dict[int, dict[int, object]]] = {
        r: {c: dict(rows) for c, rows in cols.items()} for r, cols in mats.items()
    }
    in_: dict[int, dict[int, dict[int, object]]] = {r: {} for r in out_}
    heap: list[tuple[int, int, int, int]] = []
    for r, cols in out_.items():
        rows_of = in_[r]
        for c, rows in cols.items():
            nc = len(rows) - 1
            for w, cf in rows.items():
                rows_of.setdefault(w, {})[c] = cf
                if cf == 1 or cf == -1:
                    heap.append((nc, r, c, w))
    heapq.heapify(heap)

    def cancel(r: int, x: int, y: int) -> None:
        a = out_[r][x].pop(y)
        yrow = in_[r].pop(y)
        del yrow[x]
        xcol = out_[r].pop(x)
        for w in yrow:
            del out_[r][w][y]
        for t in xcol:
            del in_[r][t][x]
        alive[r] -= 1
        alive[r + 1] -= 1
        if xcol and yrow:
            inv = a if a in (1, -1) else Fraction(1, 1) / a
            for w, b in yrow.items():
                fac = b * inv
                wcol = out_[r].setdefault(w, {})
                for t, cf in xcol.items():
                    val = wcol.get(t, 0) - fac * cf
                    if val:
                        wcol[t] = val
                        in_[r].setdefault(t, {})[w] = val
                        if val == 1 or val == -1:
                            heapq.heappush(
                                heap, ((len(wcol) - 1) * (len(in_[r][t]) - 1), r, w, t)
                            )
                    else:
                        wcol.pop(t, None)
                        trow = in_[r].get(t)
                        if trow:
                            trow.pop(w, None)
                if not wcol:
                    del out_[r][w]
        prev = in_.get(r - 1)
        if prev is not None:
            for w in prev.pop(x, ()):  # drop the x-row below
                cw = out_[r - 1][w]
                del cw[x]
                if not cw:
                    del out_[r - 1][w]
        nxt = out_.get(r + 1)
        if nxt is not None:
            for t in nxt.pop(y, ()):  # drop the y-column above
                ti = in_[r + 1][t]
                del ti[y]
                if not ti:
                    del in_[r + 1][t]

    while True:
        while heap:
            cost, r, x, y = heapq.heappop(heap)
            rows = out_.get(r, {}).get(x)
            if rows is None or rows.get(y) not in (1, -1):
                continue
            now = (len(rows) - 1) * (len(in_[r][y]) - 1)
            if now > cost and heap and heap[0][0] < now:
                heapq.heappush(heap, (now, r, x, y))
                continue
            cancel(r, x, y)
        leftover = None
        for r, cols in out_.items():
            for x, rows in cols.items():
                if rows:
                    leftover = (r, x, next(iter(rows)))
                    break
            if leftover:
                break
        if leftover is None:
            break
        cancel(*leftover)
    return dict(alive)


def _all_q_values(cube, shift_base: int) -> list[int]:
    qs: set[int] = set()
    for v in range(cube.n_vertices):
        k = cube.n_circles[v]
        base = v.bit_count() + shift_base
        qs.update(range(base - k, base + k + 1, 2))
    return sorted(qs)


def cube_homology(d, field) -> BigradedDims:
    """Bigraded Khovanov dimensions of ``d`` from its full cube, slice by slice."""
    tag = _field_tag(field)
    cube = build_cube(d, budget=d.n_crossings)
    n_minus = d.n_minus
    shift_base = d.n_plus - 2 * n_minus
    dims: dict[tuple[int, int], int] = {}
    for q in _all_q_values(cube, shift_base):
        levels, index = _slice_levels(cube, q, shift_base)
        mats = _slice_matrices(cube, levels, index, tag == F2)
        raw = _dims_f2(levels, mats) if tag == F2 else _dims_rational(levels, mats)
        for r, dim in raw.items():
            if dim:
                dims[(q, r - n_minus)] = dim
    return BigradedDims(dims)
