"""Bar-Natan's local algorithm for Khovanov homology: the scanning engine.

D. Bar-Natan, *Fast Khovanov homology computations*, JKTR 16 (2007),
arXiv:math/0606318.  The diagram is scanned one crossing at a time.  The
crossings seen so far form a tangle whose boundary points are the edge
labels seen exactly once; its complex lives in the dotted cobordism category
with x^2 = 0, and is kept small by two moves after every crossing:

- delooping: a closed circle O is replaced by two empty objects,
  O = {+1} + {-1}; the maps out of O are (dotted cap, cap), the maps into
  O are (cup, dotted cup);
- cancellation: an entry of the differential that is an isomorphism
  (a multiple of an identity) is Gaussian-eliminated, which leaves a
  homotopy-equivalent complex.

Objects are (matching, quantum shift, level).  A matching is a tuple ``m``
over the sorted boundary labels, ``m[i]`` the partner of point i.  A
morphism M1 -> M2 is a combination of dot sets on the cycles of the closed
curve M1 + M2, stored as ``{bitmask: coefficient}``; cycles are numbered in
the order of their smallest point.  Any surface between M1 and M2 reduces
to such dot sets by neck cutting: a component of genus g with b boundary
circles and d dots becomes, for g = d = 0, the sum of the b terms that leave
exactly one disk undotted; for d + g = 1, all b disks dotted (times 2 when
g = 1); for d + g >= 2, zero.  Closed components evaluate to sphere 0,
dotted sphere 1, torus 2.  A dot set S on k cycles between matchings of n
points has degree k - n/2 - 2|S|, and a map of complexes (M1, q1) ->
(M2, q2) has degree q1 - q2.

Over F2 coefficients are reduced mod 2.  Over Q every saddle carries the
Koszul sign (-1)^level, cancellations pivot only on +-1 while boundary
points remain, and the final scalar matrices pivot on any entry, through
Fractions.  Crossing i's 0-smoothing pairs slots (0,1),(2,3) and its
1-smoothing (0,3),(1,2), with the 1-smoothing one level up and one quantum
step up, as in the cube of resolutions.  Only the standard library is used.

The entries a crossing glues repeat.  Each old entry M1 -> M2, and each
edge M -> M of the new crossing, becomes a block of entries between the
delooped summands of its two ends.  The block is fixed by the gluing plan
(both matchings and smoothings, hence the summands' cap signs and shifts),
the morphism, the Koszul sign and q(M1) - q(M2); these also fix the degree
every entry must have.  So each distinct block is glued, and its degree
checked, once per crossing, and written to every pair that repeats it.
The pairs share the entry dicts, which is sound because no entry is changed
in place: a cancellation copies an entry before it updates it.

The object count is the scan's cost.  Each crossing projects the count it
is about to build, 2^(closed circles) per old object and smoothing, and a
projection above the bound raises ``BudgetError`` before any object is made.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import product

from .diagram import BudgetError, InvariantError, find, scan_order

__all__ = ["ScanStats", "scan_homology"]

# partner slot of every slot in the 0- and the 1-smoothing of a crossing
_SMOOTHINGS = ((1, 0, 3, 2), (3, 2, 1, 0))


@dataclass(frozen=True, slots=True)
class ScanStats:
    """Exact size counters of one scan."""

    crossings: int
    max_boundary: int
    max_objects_before: int
    max_objects_after: int
    cancellations: int
    compositions: int


def _cycles(m1: tuple, m2: tuple) -> tuple[tuple[int, ...], int]:
    """Cycle id of every point of the closed curve m1 + m2, and the cycle count."""
    cyc = [-1] * len(m1)
    k = 0
    for p in range(len(m1)):
        if cyc[p] < 0:
            x = p
            while cyc[x] < 0:
                cyc[x] = k
                y = m1[x]
                cyc[y] = k
                x = m2[y]
            k += 1
    return tuple(cyc), k


def _evaluate(chi, dots, through) -> dict[int, int]:
    """Neck-cut a surface given per component: Euler characteristic, dots, boundary cycles."""
    terms = {0: 1}
    for c, mask in enumerate(through):
        b = mask.bit_count()
        twice_genus = 2 - b - chi[c]
        if twice_genus < 0 or twice_genus & 1:
            raise InvariantError(f"surface component with chi {chi[c]} and {b} boundary circles")
        weight = dots[c] + (twice_genus >> 1)
        if weight > 1 or (weight == 0 and b == 0):
            return {}
        factor = 2 if twice_genus else 1
        if weight == 1:
            terms = {m | mask: v * factor for m, v in terms.items()}
        else:
            terms = {
                m | (mask & ~(1 << t)): v
                for t in range(mask.bit_length())
                if mask >> t & 1
                for m, v in terms.items()
            }
    return terms


class _Plan:
    """Topology of a glued surface, independent of its dots.

    Pieces are the disks of the two glued morphisms; ``comp_a[j]`` and
    ``comp_b[j]`` give the component of each, ``chi`` the Euler characteristic
    of each component before capping, ``through`` the result's boundary cycles
    in each component as a bitmask, ``src`` and ``tgt`` the components of the
    closed circles that delooping caps on each side.
    """

    __slots__ = ("comp_a", "comp_b", "chi", "through", "src", "tgt", "n_cycles", "cache")

    def __init__(self, n_a, n_b, gluings, through_pieces, n_cycles, src, tgt):
        n = n_a + n_b
        parent = list(range(n))
        for a, b in gluings:
            parent[find(parent, a)] = find(parent, b)
        comp: dict[int, int] = {}
        of = [comp.setdefault(find(parent, i), len(comp)) for i in range(n)]
        chi = [0] * len(comp)
        for i in range(n):
            chi[of[i]] += 1
        for a, _ in gluings:
            chi[of[a]] -= 1
        through = [0] * len(comp)
        for t, piece in through_pieces:
            through[of[piece]] |= 1 << t
        self.comp_a = of[:n_a]
        self.comp_b = of[n_a:]
        self.chi = chi
        self.through = through
        self.src = [of[p] for p in src]
        self.tgt = [of[p] for p in tgt]
        self.n_cycles = n_cycles
        self.cache: dict[tuple, dict[int, int]] = {}

    def apply(self, a: int, b: int, eps1: tuple = (), eps2: tuple = ()) -> dict[int, int]:
        """Dot sets of the glued surface with dots ``a``, ``b`` and the caps of eps1, eps2."""
        key = (a, b, eps1, eps2)
        out = self.cache.get(key)
        if out is not None:
            return out
        dots = [0] * len(self.chi)
        chi = list(self.chi)
        for mask, comp in ((a, self.comp_a), (b, self.comp_b)):
            j = 0
            while mask:
                if mask & 1:
                    dots[comp[j]] += 1
                mask >>= 1
                j += 1
        # a source circle is capped by a cup on {+1} and a dotted cup on {-1};
        # a target circle by a dotted cap on {+1} and a cap on {-1}
        for c, e in zip(self.src, eps1):
            chi[c] += 1
            dots[c] += e < 0
        for c, e in zip(self.tgt, eps2):
            chi[c] += 1
            dots[c] += e > 0
        out = self.cache[key] = _evaluate(chi, dots, self.through)
        return out


class _Scan:
    """The complex of the partial tangle, grown one crossing at a time.

    ``n_crossings`` is how many crossings the whole scan will add; a refusal
    names its crossing as "k of n_crossings", so it says how far the scan got.
    """

    def __init__(self, loops: int, char2: bool, bound: int, n_crossings: int):
        self.char2 = char2
        self.bound = bound
        self.n_crossings = n_crossings
        self.boundary: list[int] = []
        self.objs: dict[int, tuple[tuple, int, int]] = {}
        self.out: dict[int, dict[int, dict]] = {}
        self.inc: dict[int, dict[int, dict]] = {}
        self.next_id = 0
        self.counts = dict.fromkeys((f.name for f in fields(ScanStats)), 0)
        # composition plans; matchings index the current boundary, so they
        # are dropped whenever a crossing changes it
        self._vplans: dict[tuple, _Plan] = {}
        self._check(2**loops, f"the {loops} crossingless loops")
        for eps in product((1, -1), repeat=loops):
            self._add((), sum(eps), 0)

    def _add(self, match: tuple, q: int, r: int) -> int:
        i = self.next_id
        self.next_id += 1
        self.objs[i] = (match, q, r)
        self.out[i] = {}
        self.inc[i] = {}
        return i

    def _check(self, projected: int, what: str) -> None:
        if projected > self.bound:
            raise BudgetError(
                f"{what} would make {projected} objects, the budget is {self.bound}",
                needed=projected,
                budget=self.bound,
            )

    def _reduce(self, mor: dict) -> dict:
        if self.char2:
            return {m: 1 for m, v in mor.items() if v & 1}
        return {m: v for m, v in mor.items() if v}

    # -- adding one crossing ------------------------------------------------

    def add_crossing(self, x: tuple[int, int, int, int]) -> None:
        n = len(self.boundary)
        pos = {a: i for i, a in enumerate(self.boundary)}
        # nodes 0..n-1 are the old boundary points, n..n+3 the crossing's slots;
        # ident pairs the nodes that the gluing identifies
        ident = [-1] * (n + 4)
        for i, a in enumerate(x):
            p = pos.get(a)
            if p is not None:
                ident[p], ident[n + i] = n + i, p
            for j in range(i + 1, 4):
                if x[j] == a:
                    ident[n + i], ident[n + j] = n + j, n + i
        label = self.boundary + list(x)
        free = sorted((v for v in range(n + 4) if ident[v] < 0), key=label.__getitem__)
        new_pos = {v: k for k, v in enumerate(free)}
        gluings = [(v, ident[v]) for v in range(n + 4) if ident[v] > v]

        glued: dict[tuple, tuple] = {}

        def glue(match: tuple, s: int):
            """Matching of M + smoothing s on the new boundary, and its closed circles."""
            key = (match, s)
            hit = glued.get(key)
            if hit is not None:
                return hit
            sm = _SMOOTHINGS[s]

            def arc(v: int) -> int:
                return match[v] if v < n else n + sm[v - n]

            seen = [False] * (n + 4)
            new = [0] * len(free)
            for v in free:
                if seen[v]:
                    continue
                seen[v] = True
                w = arc(v)
                while ident[w] >= 0:
                    seen[w] = True
                    w = ident[w]
                    seen[w] = True
                    w = arc(w)
                seen[w] = True
                new[new_pos[v]], new[new_pos[w]] = new_pos[w], new_pos[v]
            circles = []
            for v in range(n + 4):
                if not seen[v]:
                    circles.append(v)
                    w = v
                    while True:
                        seen[w] = True
                        w = arc(w)
                        seen[w] = True
                        w = ident[w]
                        if w == v:
                            break
            hit = glued[key] = (tuple(new), tuple(circles))
            return hit

        hplans: dict[tuple, _Plan] = {}

        def hplan(m1: tuple, m2: tuple, s1: int, s2: int) -> _Plan:
            key = (m1, m2, s1, s2)
            plan = hplans.get(key)
            if plan is not None:
                return plan
            new1, circ1 = glue(m1, s1)
            new2, circ2 = glue(m2, s2)
            cyc_a, k_a = _cycles(m1, m2)
            cyc_b, k_b = _cycles(_SMOOTHINGS[s1], _SMOOTHINGS[s2])

            def piece(v: int) -> int:
                return cyc_a[v] if v < n else k_a + cyc_b[v - n]

            cyc_n, k_n = _cycles(new1, new2)
            plan = hplans[key] = _Plan(
                k_a, k_b,
                [(piece(v), piece(w)) for v, w in gluings],
                [(cyc_n[k], piece(v)) for k, v in enumerate(free)],
                k_n,
                [piece(v) for v in circ1],
                [piece(v) for v in circ2],
            )
            return plan

        # new objects: every old object times both smoothings, delooped
        self._check(
            sum(1 << len(glue(m, s)[1]) for m, _, _ in self.objs.values() for s in (0, 1)),
            f"crossing {self.counts['crossings'] + 1} of {self.n_crossings} X{list(x)}",
        )
        half = len(free) // 2
        objs, out, inc = self.objs, self.out, self.inc
        self.objs, self.out, self.inc = {}, {}, {}
        summands: dict[tuple[int, int], list[tuple[int, tuple]]] = {}
        for o, (match, q, r) in objs.items():
            for s in (0, 1):
                new, circles = glue(match, s)
                summands[(o, s)] = [
                    (self._add(new, q + s + sum(eps), r + s), eps)
                    for eps in product((1, -1), repeat=len(circles))
                ]

        # (source summand, target summand, entry) per (plan, morphism, sign,
        # q1 - q2): one glued block per key, shared by every pair that repeats it
        blocks: dict[tuple, list[tuple[int, int, dict]]] = {}

        def put(plan: _Plan, src: list, tgt: list, mor: dict, sign: int, dq: int) -> None:
            key = (plan, tuple(mor.items()), sign, dq)
            block = blocks.get(key)
            if block is None:
                block = blocks[key] = []
                for i, (n1, e1) in enumerate(src):
                    q1 = self.objs[n1][1]
                    for j, (n2, e2) in enumerate(tgt):
                        acc: dict[int, int] = {}
                        for a, v in mor.items():
                            for m, w in plan.apply(a, 0, e1, e2).items():
                                acc[m] = acc.get(m, 0) + sign * v * w
                        acc = self._reduce(acc)
                        if not acc:
                            continue
                        twice = plan.n_cycles - half - q1 + self.objs[n2][1]
                        if any(2 * m.bit_count() != twice for m in acc):
                            raise InvariantError(
                                f"glued entry {n1} -> {n2} has dot sets off the degree its shifts imply"
                            )
                        block.append((i, j, acc))
            for i, j, acc in block:
                n1, n2 = src[i][0], tgt[j][0]
                self.out[n1][n2] = self.inc[n2][n1] = acc

        for o1, row in out.items():
            m1, q1, _ = objs[o1]
            for o2, mor in row.items():
                m2, q2, _ = objs[o2]
                for s in (0, 1):
                    put(hplan(m1, m2, s, s), summands[(o1, s)], summands[(o2, s)], mor, 1,
                        q1 - q2)
        for o, (match, _, r) in objs.items():
            put(hplan(match, match, 0, 1), summands[(o, 0)], summands[(o, 1)], {0: 1},
                -1 if r & 1 else 1, 0)

        self.boundary = [label[v] for v in free]
        self._vplans = {}
        c = self.counts
        c["crossings"] += 1
        c["max_boundary"] = max(c["max_boundary"], len(free))
        c["max_objects_before"] = max(c["max_objects_before"], len(self.objs))
        self.eliminate()
        c["max_objects_after"] = max(c["max_objects_after"], len(self.objs))

    # -- Gaussian elimination -----------------------------------------------

    def _compose(self, f: dict, g: dict, m1: tuple, m2: tuple, m3: tuple) -> dict:
        """g after f, for f: m1 -> m2 and g: m2 -> m3."""
        self.counts["compositions"] += 1
        key = (m1, m2, m3)
        plan = self._vplans.get(key)
        if plan is None:
            cyc_a, k_a = _cycles(m1, m2)
            cyc_b, k_b = _cycles(m2, m3)
            cyc_r, k_r = _cycles(m1, m3)
            plan = self._vplans[key] = _Plan(
                k_a, k_b,
                [(cyc_a[p], k_a + cyc_b[p]) for p in range(len(m2)) if p < m2[p]],
                [(cyc_r[p], cyc_a[p]) for p in range(len(m1))],
                k_r, (), (),
            )
        acc: dict[int, int] = {}
        for a, v in f.items():
            for b, w in g.items():
                for m, u in plan.apply(a, b).items():
                    acc[m] = acc.get(m, 0) + v * w * u
        return acc

    def _pivot(self, x: int, y: int):
        """The inverse of the entry x -> y if it may be cancelled now, else None."""
        mor = self.out[x].get(y)
        if mor is None or len(mor) != 1 or self.objs[x][0] != self.objs[y][0]:
            return None
        c = mor.get(0)
        if c in (1, -1):
            return c
        if c is None or self.boundary:
            return None
        return Fraction(1, 1) / c

    def _cancel(self, b1: int, b2: int, inv) -> list[tuple[int, int]]:
        """Remove b1 -> b2 (an isomorphism with inverse ``inv``); return changed entries."""
        out, inc = self.out, self.inc
        srcs = [(x, f) for x, f in inc[b2].items() if x != b1]
        tgts = [(y, g) for y, g in out[b1].items() if y != b2]
        for b in (b1, b2):
            for x in inc.pop(b):
                if x not in (b1, b2):
                    del out[x][b]
            for y in out.pop(b):
                if y not in (b1, b2):
                    del inc[y][b]
        m = self.objs.pop(b1)[0]
        del self.objs[b2]
        self.counts["cancellations"] += 1
        changed = []
        for x, f in srcs:
            mx = self.objs[x][0]
            row = out[x]
            for y, g in tgts:
                h = self._compose(f, g, mx, m, self.objs[y][0])
                if not h:
                    continue
                acc = dict(row.get(y, ()))
                for k, v in h.items():
                    acc[k] = acc.get(k, 0) - inv * v
                acc = self._reduce(acc)
                if acc:
                    row[y] = inc[y][x] = acc
                    changed.append((x, y))
                elif y in row:
                    del row[y]
                    del inc[y][x]
        return changed

    def eliminate(self) -> None:
        """Cancel isomorphism entries until none is left."""
        work = [(x, y) for x, row in self.out.items() for y in row]
        while work:
            x, y = work.pop()
            if x not in self.out or y not in self.out[x]:
                continue
            inv = self._pivot(x, y)
            if inv is not None:
                work.extend(self._cancel(x, y, inv))

    def result(self) -> dict[tuple[int, int], int]:
        if self.boundary:
            raise InvariantError(f"boundary {self.boundary} left open after the last crossing")
        if any(self.out.values()):
            raise InvariantError("a differential entry survived the final elimination")
        dims: dict[tuple[int, int], int] = {}
        for _, q, r in self.objs.values():
            dims[(q, r)] = dims.get((q, r), 0) + 1
        return dims


def scan_homology(crossings, loops: int, char2: bool, bound: int):
    """Khovanov homology of a PD code before the global shifts.

    Returns ``({(q, r): dim}, ScanStats)`` with q = (#1 - #x) + |v| and
    r = |v| in cube terms; the caller adds n_plus - 2 n_minus to q and
    subtracts n_minus from r.  A crossing that would make more than
    ``bound`` objects raises ``BudgetError``.
    """
    scan = _Scan(loops, char2, bound, len(crossings))
    for i in scan_order(crossings):
        scan.add_crossing(tuple(crossings[i]))
    dims = scan.result()
    return dims, ScanStats(**scan.counts)
