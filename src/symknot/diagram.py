"""Planar diagrams of knots and links as PD codes, plus diagram surgery.

A crossing is a 4-tuple ``X[a,b,c,d]``: the first entry is the incoming
under-strand edge and the remaining entries list the other edge-ends
counterclockwise around the crossing.  Every edge label appears exactly
twice in the diagram.  Crossing-free circle components (which arise from
smoothings) are tracked by a separate ``loops`` count and serialize as the
term ``O``.

Orientation is derived data: one walk along the strands, entering every
under strand at slot 0, orients the diagram and counts its components.  It
is never stored by the caller.
"""

from __future__ import annotations

import functools
import heapq
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "PdError",
    "PdSyntaxError",
    "ArcCountError",
    "OrientationError",
    "DiagramStructureError",
    "BudgetError",
    "InvariantError",
    "PlanarDiagram",
    "TangleSite",
    "parse_pd",
    "scan_order",
    "scan_width",
    "mirror",
    "connected_sum",
    "resolve_crossing",
    "twist_insert",
    "fusion_resolution",
    "symmetric_union",
    "SymmetricUnion",
]


class PdError(ValueError):
    """Base class for diagram errors; the subclass says what is wrong."""


class PdSyntaxError(PdError):
    """A term or label that is not PD-code syntax."""


class ArcCountError(PdError):
    """An edge label that does not appear exactly twice."""


class OrientationError(PdError):
    """Strands that cannot be oriented from slot 0 of every crossing."""


class DiagramStructureError(PdError):
    """A diagram whose structure the operation cannot use, such as a non-planar one."""


class BudgetError(RuntimeError):
    """A computation was refused because its size estimate exceeds its budget."""

    def __init__(self, message: str, *, needed: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.needed = needed
        self.budget = budget


class InvariantError(RuntimeError):
    """An internal invariant of an invariant engine failed: a bug or corrupted input."""


def memoized(fn):
    """Run the stage ``fn(d, *args)`` once per diagram.

    The value is kept in ``d``'s cache under ``(fn, *args)``, so a second
    call returns the same object.  A call that raises stores nothing: a
    refused or failed stage runs again when it is asked for again.
    """

    @functools.wraps(fn)
    def stage(d, *args):
        key = (fn, *args)
        if key not in d._cache:
            d._cache[key] = fn(d, *args)
        return d._cache[key]

    return stage


def find(parent: list[int] | dict[int, int], x: int) -> int:
    """Root of ``x`` in a union-find forest kept in a list or dict, halving paths.

    Callers union by ``parent[find(parent, a)] = find(parent, b)``.  The roots
    become edge labels in ``assemble_corners``, so the union order is output.
    """
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _edge_ends(crossings: Sequence[Sequence[int]]) -> list[int]:
    """Edge-end p -> the edge-end at the other end of its edge.

    The edge-end at slot s of crossing c is the integer p = 4 * c + s.
    """
    ends = [0] * (4 * len(crossings))
    first: dict[int, int] = {}
    for p, a in enumerate(a for x in crossings for a in x):
        if a in first:
            q = first.pop(a)
            ends[p], ends[q] = q, p
        else:
            first[a] = p
    return ends


def _walk_strands(
    crossings: Sequence[Sequence[int]], starts: Iterable[int]
) -> tuple[list[bool | None], int]:
    """Walk each strand once, entering at the first edge-end of ``starts`` it meets.

    A strand that enters a crossing at slot s leaves at slot s ^ 2 and goes
    on at the other end of that edge until it is back where it began.
    Returns whether each edge-end (as in ``_edge_ends``) is inbound, None
    where no walk passed, and the number of walks, which is the number of
    closed strands met by ``starts``.
    """
    ends = _edge_ends(crossings)
    inbound: list[bool | None] = [None] * len(ends)
    walks = 0
    for p in starts:
        if inbound[p] is None:
            walks += 1
            while inbound[p] is None:
                inbound[p] = True
                inbound[p ^ 2] = False
                p = ends[p ^ 2]
    return inbound, walks


def _pieces(crossings: Sequence[Sequence[int]]) -> int:
    """Number of connected pieces of the 4-valent projection of ``crossings``."""
    parent = list(range(len(crossings)))
    for p, q in enumerate(_edge_ends(crossings)):
        parent[find(parent, p // 4)] = find(parent, q // 4)
    return len({find(parent, i) for i in range(len(crossings))})


_TOKEN = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]$|O$")

IN = 1
OUT = -1


class PlanarDiagram:
    """An immutable PD-code diagram with ``loops`` extra crossing-free circles."""

    def __init__(
        self,
        crossings: Iterable[Sequence[int]] = (),
        loops: int = 0,
        name: str | None = None,
    ):
        xs = []
        for x in crossings:
            t = tuple(int(v) for v in x)
            if len(t) != 4:
                raise PdSyntaxError("each crossing needs exactly 4 edge labels")
            if any(v < 1 for v in t):
                raise PdSyntaxError("edge labels are 1-based positive integers")
            xs.append(t)
        if loops < 0:
            raise DiagramStructureError("negative loop count")
        self.crossings: tuple[tuple[int, int, int, int], ...] = tuple(xs)
        self.loops = int(loops)
        self.name = name
        self._validate_arcs()
        self._cache: dict[tuple, object] = {}

    # -- basic structure ---------------------------------------------------

    def _validate_arcs(self) -> None:
        seen: dict[int, int] = {}
        for x in self.crossings:
            for a in x:
                seen[a] = seen.get(a, 0) + 1
        bad = {a: k for a, k in seen.items() if k != 2}
        if bad:
            raise ArcCountError(f"edge labels must appear exactly twice, got {bad}")

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def arcs(self) -> tuple[int, ...]:
        return tuple(sorted({a for x in self.crossings for a in x}))

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    def appearances(self) -> dict[int, list[tuple[int, int]]]:
        """arc -> list of (crossing index, slot) where it appears."""
        apps: dict[int, list[tuple[int, int]]] = {}
        for ci, x in enumerate(self.crossings):
            for slot, a in enumerate(x):
                apps.setdefault(a, []).append((ci, slot))
        return apps

    # -- orientation -------------------------------------------------------

    def _walk(self) -> tuple[list[bool | None], int]:
        """Walk every strand from each slot 0 in crossing order, then each over slot."""
        ends = 4 * len(self.crossings)
        return _walk_strands(self.crossings, [*range(0, ends, 4), *range(1, ends, 2)])

    @memoized
    def orientation(self) -> dict[tuple[int, int], int]:
        """Map (crossing, slot) -> IN or OUT, read off one walk along the strands.

        Every under strand enters at slot 0.  A component that never passes
        under anything flows in at its first over slot in (crossing, slot)
        order.
        """
        inbound, _ = self._walk()
        for ci, flag in enumerate(inbound[::4]):
            if not flag:
                raise OrientationError(
                    f"orientation cannot close: slot 0 of crossing {ci} is an exit"
                )
        return {divmod(p, 4): IN if flag else OUT for p, flag in enumerate(inbound)}

    @memoized
    def signs(self) -> tuple[int, ...]:
        """Crossing signs: positive when the over-strand enters at slot 3."""
        status = self.orientation()
        # from a list: tuple(<generator>) resizes its tuple, and without a full
        # collection that leaves CPython's tuple free lists growing call by call
        return tuple([1 if status[(ci, 1)] == OUT else -1 for ci in range(len(self.crossings))])

    @property
    def n_plus(self) -> int:
        return sum(1 for s in self.signs() if s > 0)

    @property
    def n_minus(self) -> int:
        return sum(1 for s in self.signs() if s < 0)

    def writhe(self) -> int:
        return sum(self.signs())

    def arc_head(self, arc: int) -> tuple[int, int]:
        """The (crossing, slot) appearance into which ``arc`` flows."""
        status = self.orientation()
        for pos in self.appearances()[arc]:
            if status[pos] == IN:
                return pos
        raise OrientationError(f"edge {arc} has no head")

    # -- components and faces ----------------------------------------------

    def n_components(self) -> int:
        """Number of link components, counting crossing-free loops."""
        return self._walk()[1] + self.loops

    @memoized
    def _n_pieces(self) -> int:
        """Connected pieces of the crossings' 4-valent projection, loops left out."""
        return _pieces(self.crossings)

    def is_connected(self) -> bool:
        """Connectivity of the underlying 4-valent projection, loops included."""
        return self._n_pieces() + self.loops == 1

    @memoized
    def _planar_faces(self) -> list[tuple[tuple[int, int], ...]]:
        """The faces of the crossings, as cycles of edge-ends (crossing, slot).

        Walking a face: from an edge-end, cross to the edge's other end, then
        rotate counterclockwise to the next slot.  No piece has Euler
        characteristic above 2, and a piece reaches 2 exactly when it is
        planar, so the faces are refused unless crossings - edges + faces =
        2 x pieces; crossing-free loops are planar pieces of their own.
        """
        ends = _edge_ends(self.crossings)
        seen = [False] * len(ends)
        faces = []
        for start in range(len(ends)):
            cycle = []
            p = start
            while not seen[p]:
                seen[p] = True
                cycle.append(divmod(p, 4))
                q = ends[p]
                p = q - q % 4 + (q + 1) % 4
            if cycle:
                faces.append(tuple(cycle))
        pieces = self._n_pieces()
        euler = len(self.crossings) - self.n_arcs + len(faces)
        if euler != 2 * pieces:
            raise DiagramStructureError(
                f"diagram is not planar: crossings - edges + faces = {euler} on {pieces} pieces"
            )
        return faces

    def faces(self) -> list[tuple[tuple[int, int], ...]]:
        """Complementary regions of a connected diagram as cycles of edge-ends (crossing, slot)."""
        if not self.is_connected():
            raise DiagramStructureError("faces need a connected diagram")
        if not self.crossings:
            return [(), ()]
        return self._planar_faces()

    @memoized
    def crossing_order(self) -> tuple[int, ...]:
        """The order in which both scanning engines glue the crossings: ``scan_order``'s."""
        return tuple(scan_order(self.crossings))

    # -- serialization -----------------------------------------------------

    def serialize(self) -> str:
        terms = [f"X[{a},{b},{c},{d}]" for (a, b, c, d) in self.crossings]
        terms.extend(["O"] * self.loops)
        return " ".join(terms)

    def normalized(self) -> "PlanarDiagram":
        """Relabel edges 1..2c in first-appearance order (crossing order kept)."""
        relabel: dict[int, int] = {}
        for x in self.crossings:
            for a in x:
                if a not in relabel:
                    relabel[a] = len(relabel) + 1
        return PlanarDiagram(
            [tuple(relabel[a] for a in x) for x in self.crossings], self.loops, self.name
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanarDiagram):
            return NotImplemented
        return self.crossings == other.crossings and self.loops == other.loops

    def __hash__(self) -> int:
        return hash((self.crossings, self.loops))

    def __repr__(self) -> str:
        tag = f" {self.name}" if self.name else ""
        return f"<PlanarDiagram{tag}: {self.serialize() or 'empty'}>"


def parse_pd(text: str, name: str | None = None) -> PlanarDiagram:
    """Parse PD-code text: whitespace-separated X[a,b,c,d] and O terms.

    ``#`` starts a comment running to end of line.  Raises PdSyntaxError,
    ArcCountError, OrientationError or DiagramStructureError (a code that
    is not planar); text with no term is a PdSyntaxError, as no invariant is
    defined on it.
    """
    crossings = []
    loops = 0
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        for token in line.split():
            m = _TOKEN.match(token)
            if not m:
                raise PdSyntaxError(f"bad term {token!r}")
            if token == "O":
                loops += 1
            else:
                crossings.append(tuple(int(g) for g in m.groups() if g is not None))
    if not crossings and not loops:
        raise PdSyntaxError("no X[...] or O term")
    d = PlanarDiagram(crossings, loops, name)
    d.orientation()
    d._planar_faces()
    return d


# -- crossing scans -----------------------------------------------------------


def scan_order(crossings) -> list[int]:
    """Crossing indices, each next one sharing the most open boundary points.

    Ties go to the lowest index.  The crossings glued so far form a tangle
    whose boundary points are the edge labels seen once; keeping it short
    keeps every scanning engine's state small.  A heap of the open counts,
    updated only where a label opens or closes, makes it O(c log c).
    """
    slots: dict[int, list[int]] = {}  # label -> the crossing of each slot it fills
    for i, x in enumerate(crossings):
        for a in x:
            slots.setdefault(a, []).append(i)
    shared: list[int | None] = [0] * len(crossings)  # open points; None once placed
    heap = [(0, i) for i in range(len(crossings))]
    open_: set[int] = set()
    order = []
    while heap:
        negative, best = heapq.heappop(heap)
        if -negative != shared[best]:
            continue  # placed already, or its count has changed since pushed
        shared[best] = None
        order.append(best)
        for a in crossings[best]:
            open_ ^= {a}
            for j in slots[a]:
                if shared[j] is not None:
                    shared[j] += 1 if a in open_ else -1
                    heapq.heappush(heap, (-shared[j], j))
    return order


def scan_width(crossings, order) -> int:
    """Most boundary points open at once while ``crossings`` are glued in ``order``."""
    open_: set[int] = set()
    widest = 0
    for i in order:
        for a in crossings[i]:
            if a in open_:
                open_.remove(a)
            else:
                open_.add(a)
        widest = max(widest, len(open_))
    return widest


# -- elementary operations --------------------------------------------------


def mirror(d: PlanarDiagram) -> PlanarDiagram:
    """Switch every crossing (same projection, over and under exchanged)."""
    out = []
    for (a, b, c, dd), sign in zip(d.crossings, d.signs()):
        if sign > 0:
            out.append((dd, a, b, c))
        else:
            out.append((b, c, dd, a))
    return PlanarDiagram(out, d.loops, f"mirror({d.name})" if d.name else None)


def connected_sum(d1: PlanarDiagram, d2: PlanarDiagram, arc1: int, arc2: int) -> PlanarDiagram:
    """Connected sum: cut ``arc1`` and ``arc2`` and cross-join respecting flow."""
    if arc1 not in d1.appearances():
        raise DiagramStructureError(f"no edge {arc1} in first diagram")
    if arc2 not in d2.appearances():
        raise DiagramStructureError(f"no edge {arc2} in second diagram")
    off = max(d1.arcs, default=0)
    d2s = PlanarDiagram([tuple(a + off for a in x) for x in d2.crossings], d2.loops)
    a2 = arc2 + off
    # New edge (tail half of arc1 + head half of arc2) keeps label arc1;
    # new edge (tail half of arc2 + head half of arc1) keeps label a2.
    xs1, xs2 = [list(x) for x in d1.crossings], [list(x) for x in d2s.crossings]
    (c1, s1), (c2, s2) = d1.arc_head(arc1), d2s.arc_head(a2)
    xs1[c1][s1], xs2[c2][s2] = a2, arc1
    return PlanarDiagram(xs1 + xs2, d1.loops + d2.loops)


def _merge_and_relabel(
    d: PlanarDiagram, keep: list[tuple[int, int, int, int]], unions: list[tuple[int, int]]
) -> PlanarDiagram:
    """Union edge labels, rewrite kept crossings, count closed-off loops."""
    parent: dict[int, int] = {a: a for a in d.arcs}
    for a, b in unions:
        parent[find(parent, a)] = find(parent, b)
    rep: dict[int, int] = {}
    for a in d.arcs:
        r = find(parent, a)
        rep[r] = min(rep.get(r, a), a)
    relabeled = [tuple(rep[find(parent, a)] for a in x) for x in keep]
    used = {a for x in relabeled for a in x}
    touched = {find(parent, a) for pair in unions for a in pair}
    new_loops = d.loops + sum(1 for cls in touched if rep[cls] not in used)
    return PlanarDiagram(_redirect(relabeled, range(0, 4 * len(keep), 4)), new_loops)


def _redirect(
    crossings: list[tuple[int, int, int, int]], starts: Iterable[int]
) -> list[tuple[int, int, int, int]]:
    """Rotate crossing tuples by two slots where a strand now runs backwards.

    Surgery or assembly can leave tuples whose under strand flows 2 -> 0.
    Rotating such a tuple describes the same crossing with the arrow read
    the other way, so the result is a valid PD for the same unoriented
    diagram.  Each component flows in at the first edge-end of ``starts``
    on it; tuples already consistent with that are kept verbatim.
    """
    inbound, _ = _walk_strands(crossings, starts)
    return [
        x if inbound[4 * ci] else (x[2], x[3], x[0], x[1])
        for ci, x in enumerate(crossings)
    ]


def resolve_crossing(d: PlanarDiagram, ci: int, which: int) -> PlanarDiagram:
    """Replace crossing ``ci`` by its 0- or 1-smoothing.

    The 0-smoothing joins slots (0,1) and (2,3); the 1-smoothing joins
    (0,3) and (1,2).  For a positive crossing the 0-smoothing is the one
    compatible with the strand orientations.
    """
    if not 0 <= ci < len(d.crossings):
        raise DiagramStructureError(f"no crossing {ci}")
    if which not in (0, 1):
        raise DiagramStructureError("smoothing must be 0 or 1")
    x = d.crossings[ci]
    pairs = [(x[0], x[1]), (x[2], x[3])] if which == 0 else [(x[0], x[3]), (x[1], x[2])]
    keep = [x2 for k, x2 in enumerate(d.crossings) if k != ci]
    return _merge_and_relabel(d, keep, pairs)


# -- corner-wired assembly ---------------------------------------------------
#
# PD codes fix each crossing's incoming under-strand, which is awkward while a
# diagram is being rewired: strand directions are global.  The assembler below
# instead takes crossings as (wires at NW, NE, SW, SE; whether the NE-SW strand
# is on top), writes each crossing with its under strand entering at its first
# corner, and then turns round the tuples that the strand walk finds backwards.

_NW, _NE, _SW, _SE = 0, 1, 2, 3
# Counterclockwise successor by corner angle: NE -> NW -> SW -> SE -> NE.
_CCW_NEXT = {_NE: _NW, _NW: _SW, _SW: _SE, _SE: _NE}
# A PD tuple lists edge-ends counterclockwise from the incoming under strand,
# so reading slots 0,1,2,3 at corners SE,NE,NW,SW preserves rotation order.
_SLOT_CORNER = (_SE, _NE, _NW, _SW)


def assemble_corners(
    xs: list[tuple[tuple[int, int, int, int], bool]],
    unions: list[tuple[int, int]],
    n_wires: int,
    name: str | None = None,
    loops: int = 0,
    normalize: bool = True,
) -> PlanarDiagram:
    """Turn corner-wired crossings plus wire joins into a PD code.

    Wires are ids ``0..n_wires-1``; ``unions`` identifies wires pairwise so
    long edges can be assembled from pieces.  Every resulting wire class must
    occupy exactly two corners; classes occupying none become extra circles
    on top of ``loops``.  Without ``normalize`` the emitted edge labels are
    the wire ids plus one (union classes keep the id of their last member).
    """
    parent = list(range(n_wires))
    for a, b in unions:
        parent[find(parent, a)] = find(parent, b)

    uses = Counter(find(parent, w) for corners, _ in xs for w in corners)
    if any(k != 2 for k in uses.values()):
        raise ValueError("wiring did not close into arcs")
    loops += sum(1 for w in range(n_wires) if find(parent, w) == w and w not in uses)

    crossings = []
    starts = []
    for ci, (corners, over_ne_sw) in enumerate(xs):
        slots = [_NW if over_ne_sw else _NE]
        while len(slots) < 4:
            slots.append(_CCW_NEXT[slots[-1]])
        crossings.append(tuple(find(parent, corners[s]) + 1 for s in slots))
        starts += [4 * ci + slots.index(corner) for corner in range(4)]
    # each component flows in at its lowest (crossing, corner)
    crossings = _redirect(crossings, starts)
    d = PlanarDiagram(crossings, loops, name)
    if normalize:
        d = d.normalized()
    d._planar_faces()  # planarity guard, split wirings included
    return d


def _cut_channel(
    d: PlanarDiagram, x: int, y: int, swap: bool
) -> tuple[list[tuple[tuple[int, int, int, int], bool]], tuple[int, int, int, int], int]:
    """Corner wiring of ``d`` with the channel edges ``x`` and ``y`` cut in two.

    Wire ids are dense over the edges; a cut edge keeps its id at its lower
    edge-end and a fresh id replaces the other.  Returns the corner list,
    the rail ends (xa, xb, ya, yb) with y's two pieces exchanged if
    ``swap``, and the id bound.

    ``assemble_corners`` starts each strand at its lowest (crossing,
    corner), which is always the NW or NE corner of a crossing of ``d``.
    Each crossing is turned so that both are edge-ends the strands leave by
    in ``d``: every strand then runs against its flow in ``d``, and the
    crossing signs are kept.
    """
    idx = {lab: k for k, lab in enumerate(d.arcs)}
    fresh = len(idx)
    pieces: dict[int, tuple[int, int]] = {}
    xs = []
    for c, sign in zip(d.crossings, d.signs()):
        corners = [0, 0, 0, 0]
        for slot, lab in enumerate(c):
            w = idx[lab]
            if lab in pieces:
                w = pieces[lab][1]
            elif lab in (x, y):
                pieces[lab] = (w, fresh)
                fresh += 1
            corners[_SLOT_CORNER[slot]] = w
        nw, ne, sw, se = corners
        # a positive crossing is left by slots 2 and 1, which sit at NW and NE;
        # a negative one by 2 and 3, which a clockwise quarter turn puts there
        xs.append(((nw, ne, sw, se), True) if sign > 0 else ((sw, nw, se, ne), False))
    ya, yb = pieces[y][::-1] if swap else pieces[y]
    return xs, (*pieces[x], ya, yb), fresh


@dataclass(frozen=True)
class TangleSite:
    """A disk meeting the diagram in two strands, named by its corner edges.

    ``nw``/``ne`` are the upper and lower edge pieces at one end of the
    channel and ``sw``/``se`` the pieces at the other end; ``interior``
    lists the crossing indices of the twist ladder inside the disk.  A
    trivial two-strand channel has no interior and repeats its two edges,
    ``nw == sw`` and ``ne == se``.
    """

    nw: int
    ne: int
    sw: int
    se: int
    interior: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.interior and len({self.nw, self.ne, self.sw, self.se}) != 4:
            raise DiagramStructureError("twist-region corners must be four distinct edges")


def _ladder_corners(u: list[int], v: list[int], over_ne_sw: bool, reflected: bool):
    """Corner-wired crossings of a 2-braid between rail pieces ``u`` and ``v``.

    Crossing k meets upper pieces u[k-1], u[k] and lower pieces v[k-1], v[k].
    ``reflected`` swaps east and west, which is how the braid must be wired
    when the channel's shared face lies behind the plane of the page.
    """
    out = []
    for k in range(1, len(u)):
        if reflected:
            out.append(((u[k], u[k - 1], v[k], v[k - 1]), over_ne_sw))
        else:
            out.append(((u[k - 1], u[k], v[k - 1], v[k]), over_ne_sw))
    return out


def _lay_ladder(
    d: PlanarDiagram, x: int, y: int, m: int, positive: bool, layout: tuple[bool, bool]
) -> tuple[PlanarDiagram, TangleSite]:
    """Cut edges ``x`` and ``y`` and wire ``m`` half twists between them."""
    swap, reflected = layout
    xs, (xa, xb, ya, yb), fresh = _cut_channel(d, x, y, swap)
    u = [xa] + list(range(fresh, fresh + m - 1)) + [xb]
    v = [ya] + list(range(fresh + m - 1, fresh + 2 * (m - 1))) + [yb]
    xs = xs + _ladder_corners(u, v, positive, reflected)
    out = assemble_corners(
        xs, [], fresh + 2 * (m - 1), d.name, loops=d.loops, normalize=False
    )
    out.faces()  # planarity guard
    out.orientation()  # gluing must stay coherently directed
    interior = tuple(range(len(d.crossings), len(d.crossings) + m))
    site = TangleSite(u[0] + 1, v[0] + 1, u[-1] + 1, v[-1] + 1, interior)
    return out, site


def _channel_layout(d: PlanarDiagram, x: int, y: int) -> tuple[bool, bool]:
    """Read the ladder wiring for the channel (x, y) off a face both edges border.

    Walking a face, x runs from edge-end p to ``ends[p]`` and y from q to
    ``ends[q]``, so ``ends[p]`` and q sit at one end of the channel and
    ``ends[q]`` and p at the other.  A cut edge's first piece is the one at
    its lower edge-end, which fixes the layout: whether the rail ends of y
    swap, and whether the braid is wired east-west reflected.  One half
    twist keeps the component count only where x and y lie on one strand
    and run against each other through the face.  Where two faces qualify
    the least layout wins, the one the frozen K_n PD codes were drawn with.
    """
    ends = _edge_ends(d.crossings)
    labels = [a for c in d.crossings for a in c]
    shared = []
    for face in d.faces():
        cycle = [4 * ci + slot for ci, slot in face]
        shared += [(p, q) for p in cycle if labels[p] == x for q in cycle if labels[q] == y]
    if not shared:
        raise DiagramStructureError("channel edges do not border a common face")
    flow, _ = _walk_strands(d.crossings, [shared[0][0]])
    if flow[shared[0][1]] is None:
        raise DiagramStructureError("channel edges lie on two components")
    # The ladder joins piece xa to piece ya, so y's pieces swap when the two
    # lower edge-ends sit at opposite ends of the channel.  One walk enters
    # ends[p] and ends[q] alike where x and y run against each other.
    layouts = [
        ((p < ends[p]) == (q < ends[q]), p > ends[p])
        for p, q in shared
        if flow[ends[p]] == flow[ends[q]]
    ]
    if not layouts:
        raise DiagramStructureError("channel edges run parallel through every shared face")
    return min(layouts)


def twist_insert(d: PlanarDiagram, site: TangleSite, n: int) -> "SymmetricUnion":
    """Insert ``n`` half twists along a two-edge channel of the diagram.

    The site must be trivial with ``nw == sw`` and ``ne == se`` naming two
    distinct edges of one component that border a common face and run
    against each other through it; the twist ladder is drawn through that
    face, cutting both edges open and braiding the four cut ends.  Positive
    ``n`` makes positive crossings.  Every strand of the result runs against
    its flow in ``d``, so each crossing of ``d`` keeps its sign, on links
    too.  ``n == 0`` validates the channel and returns the diagram's
    crossings unchanged.  The result is a new
    ``SymmetricUnion`` recording the twist region's own site, so the region
    can be re-resolved later; the infinity tangle on the same channel is
    ``fusion_resolution``.
    """
    if site.interior or site.nw != site.sw or site.ne != site.se:
        raise DiagramStructureError("twist insertion needs a trivial channel site")
    x, y = site.nw, site.ne
    apps = d.appearances()
    if x not in apps or y not in apps or x == y:
        raise DiagramStructureError("channel edges must be two distinct edges of the diagram")
    layout = _channel_layout(d, x, y)
    if n == 0:
        return SymmetricUnion(d.crossings, d.loops, d.name, site=site, n=0)
    out, ladder_site = _lay_ladder(d, x, y, abs(n), n > 0, layout)
    if out.n_components() != d.n_components():
        raise InvariantError("twist ladder changed the component count")
    return SymmetricUnion(out.crossings, out.loops, out.name, site=ladder_site, n=n)


def fusion_resolution(d: PlanarDiagram, site: TangleSite) -> PlanarDiagram:
    """Replace the site's tangle with the infinity tangle (cap both ends).

    Deletes the ladder crossings and joins nw to ne and sw to se.  For a
    symmetric union's twist region this produces the fusion link; the twist
    count never survives, so the result is the same for every ``n``.
    """
    apps = d.appearances()
    for corner in (site.nw, site.ne, site.sw, site.se):
        if corner not in apps:
            raise DiagramStructureError(f"no edge {corner} at the site")
    if not site.interior:
        if site.nw != site.sw or site.ne != site.se or site.nw == site.ne:
            raise DiagramStructureError("trivial site must be a two-edge channel")
        x, y = site.nw, site.ne
        # Cap with the same rail pairing a twist ladder on this channel
        # would use, so the fusion agrees with every twisted diagram.
        swap, _ = _channel_layout(d, x, y)
        xs, (xa, xb, ya, yb), fresh = _cut_channel(d, x, y, swap)
        return assemble_corners(
            xs, [(xa, ya), (xb, yb)], fresh, d.name, loops=d.loops, normalize=False
        )
    interior = set(site.interior)
    corner_arcs = {site.nw, site.ne, site.sw, site.se}
    boundary_hits = 0
    for ci in interior:
        if not 0 <= ci < len(d.crossings):
            raise DiagramStructureError("interior crossing out of range")
        for slot, arc in enumerate(d.crossings[ci]):
            if arc in corner_arcs:
                boundary_hits += 1
            else:
                other = [p for p in apps[arc] if p != (ci, slot)][0]
                if other[0] not in interior:
                    raise DiagramStructureError("site interior is not a closed twist region")
    if boundary_hits != 4:
        raise DiagramStructureError("twist region must meet the diagram in its four corners")
    keep = [x for k, x in enumerate(d.crossings) if k not in interior]
    return _merge_and_relabel(d, keep, [(site.nw, site.ne), (site.sw, site.se)])


class SymmetricUnion(PlanarDiagram):
    """A planar diagram that remembers its replaceable twist tangle.

    Behaves as a plain diagram everywhere; additionally ``site`` names the
    twist region so it can be re-resolved and ``n`` is its half-twist
    count.  ``twist_insert`` builds one per twist; the extra fields do not
    take part in equality.
    """

    def __init__(
        self,
        crossings: Iterable[Sequence[int]] = (),
        loops: int = 0,
        name: str | None = None,
        *,
        site: TangleSite | None = None,
        n: int = 0,
    ):
        super().__init__(crossings, loops, name)
        self.site = site
        self.n = n


def symmetric_union(j: PlanarDiagram, site_spec: TangleSite, n: int) -> SymmetricUnion:
    """Symmetric union of ``j`` with its mirror image.

    ``site_spec`` picks two edges of ``j`` in trivial-channel form: ``nw``
    (= ``sw``) is the band edge and ``ne`` (= ``se``) the twist edge.  The
    union is the connected sum of ``j`` with its reversed mirror along the
    band edge, then ``n`` half twists, of the handedness of the sign of
    ``n``, on the channel between the twist edge and its mirror partner.
    The reversed mirror is the planar reflection of ``j`` traversed against
    the reflected arrows, so that channel is anti-parallel; only a link
    component that passes under nothing keeps its arrows in the copy.
    """
    if site_spec.interior or site_spec.nw != site_spec.sw or site_spec.ne != site_spec.se:
        raise DiagramStructureError("union site needs band and twist edges, nothing else")
    band_arc, twist_arc = site_spec.nw, site_spec.ne
    if band_arc == twist_arc:
        raise DiagramStructureError("band and twist sites must be distinct edges")
    # the reflection (a, d, c, b) read two slots on, so slot 0 is again the
    # incoming under strand when the copy is traversed the other way
    reverse_mirror = PlanarDiagram([(c, b, a, d) for (a, b, c, d) in j.crossings], j.loops)
    base = connected_sum(j, reverse_mirror, band_arc, band_arc)
    base.name = j.name and f"U({j.name})"
    off = max(j.arcs, default=0)
    return twist_insert(base, TangleSite(twist_arc, twist_arc + off, twist_arc, twist_arc + off), n)
