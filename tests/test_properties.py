"""Every invariant is a knot invariant: it ignores how the diagram is written down.

Three changes that keep the link type are checked on the fixture zoo and
on the seeded braid corpus: relabelling the edges while shuffling the
crossing order (which also reorders ``crossing_order()``), a Reidemeister I
kink of either sign on an edge, and a Reidemeister II move on a channel.
"""

import random

from test_khovanov import EULER_CORPUS, random_braid_corpus

from symknot.algebra import eliminate_pivots
from symknot.diagram import (
    DiagramStructureError,
    PlanarDiagram,
    TangleSite,
    twist_insert,
)
from symknot.fixtures import kn_template, knot_10_22, pretzel
from symknot.goeritz import determinant_goeritz, h1_branched_cover
from symknot.khovanov import F2, RATIONAL, kh_homology
from symknot.obstruction import COMPUTE, ccc_verdict
from symknot.polynomials import (
    _alexander_minor,
    alexander,
    determinant_alexander,
    jones,
    kauffman_bracket,
)

ZOO = EULER_CORPUS + [knot_10_22(), pretzel(-2, 3, 3), kn_template(1), kn_template(-2)]


def _invariants(d: PlanarDiagram) -> dict:
    """Kh over Q and F2 and Jones; for knots also the classical stages and the verdict."""
    out = {
        "kh_q": kh_homology(d, RATIONAL).dims,
        "kh_f2": kh_homology(d, F2).dims,
        "jones": jones(d),
    }
    if d.n_components() == 1:
        verdict = ccc_verdict(d, COMPUTE)
        out |= {
            "alexander": alexander(d),
            "h1": h1_branched_cover(d),
            "determinant_goeritz": determinant_goeritz(d),
            "determinant_alexander": determinant_alexander(d),
            "verdict": (verdict.l_space_certificate, verdict.verdict, verdict.evidence),
        }
    return out


def _relabelled(d: PlanarDiagram, rng: random.Random) -> PlanarDiagram:
    """The same diagram with edges renamed at random and crossings shuffled."""
    arcs = list(d.arcs)
    names = rng.sample(range(1, 10 * len(arcs) + 2), len(arcs))
    rename = dict(zip(arcs, names))
    crossings = [tuple(rename[a] for a in x) for x in d.crossings]
    rng.shuffle(crossings)
    return PlanarDiagram(crossings, d.loops)


def _kinked(d: PlanarDiagram, e: int, sign: int) -> PlanarDiagram:
    """``d`` with a kink of the given sign where edge ``e`` flows in.

    The head of ``e`` is relabelled b, and the new crossing X[e,b,k,k]
    (positive) or X[e,k,k,b] (negative) takes e in and sends b on.
    """
    b, k = max(d.arcs) + 1, max(d.arcs) + 2
    ci, slot = d.arc_head(e)
    crossings = [list(x) for x in d.crossings]
    crossings[ci][slot] = b
    crossings.append([e, b, k, k] if sign > 0 else [e, k, k, b])
    return PlanarDiagram(crossings, d.loops)


def test_invariants_ignore_labels_and_crossing_order():
    rng = random.Random(20261019)
    reordered = 0
    for d in ZOO + random_braid_corpus():
        twin = _relabelled(d, rng)
        assert twin.n_crossings == d.n_crossings
        reordered += twin.crossing_order() != d.crossing_order()
        assert _invariants(twin) == _invariants(d), d.serialize()
    assert reordered > 40


def test_alexander_ignores_labels_on_large_members():
    # Relabelling K_28 once left rows scaled pivot after pivot, 23.6 million
    # bits wide.  The core is bounded before its determinant is taken, so a
    # regression fails here instead of hanging.
    for n, seeds in ((28, 24), (100, 24), (400, 6)):
        d = kn_template(n)
        want = alexander(d)
        b = (2 * 4 ** (len(d.crossings) - 1)).bit_length()
        for s in range(1, seeds + 1):
            twin = _relabelled(d, random.Random(s))
            core = eliminate_pivots(*_alexander_minor(twin, 1 << b), b)
            bits = max((abs(x).bit_length() for row in core.to_lists() for x in row), default=0)
            assert core.rows <= 6 and bits <= 8 * b, (n, s, core.rows, bits)
            assert alexander(twin) == want, (n, s)


def test_invariants_ignore_kinks():
    rng = random.Random(1507)
    kinks = 0
    for d in ZOO + random_braid_corpus():
        if not d.crossings:
            continue
        expected = _invariants(d)
        for sign in (1, -1):
            kinked = _kinked(d, rng.choice(d.arcs), sign)
            assert kinked.writhe() == d.writhe() + sign
            assert _invariants(kinked) == expected, (d.serialize(), kinked.serialize())
            kinks += 1
    assert kinks > 100


def _r2_moved(d: PlanarDiagram, x: int, y: int) -> PlanarDiagram:
    """``d`` with an R2 move on the channel (x, y): half twists of either sign, side by side.

    The second twist goes on the channel the first one's ladder ends in.
    """
    d1 = twist_insert(d, TangleSite(x, y, x, y), 1)
    s = d1.site
    d2 = twist_insert(d1, TangleSite(s.sw, s.se, s.sw, s.se), -1)
    return PlanarDiagram(d2.crossings, d2.loops)


def test_invariants_ignore_r2_moves():
    rng = random.Random(1928)
    moves = 0
    for d in ZOO + random_braid_corpus():
        channels = [(x, y) for x in d.arcs for y in d.arcs if x != y]
        rng.shuffle(channels)
        done = 0
        for x, y in channels:
            try:
                moved = _r2_moved(d, x, y)
            except DiagramStructureError:
                continue  # the edges share no face, or run parallel through every one
            assert moved.n_crossings == d.n_crossings + 2
            # each twist runs every component against the flow it was given,
            # so the two reverse all of them back and no crossing sign moves:
            # a component reversed alone would move the writhe by 4 lk
            pair = (d.serialize(), moved.serialize())
            assert moved.writhe() == d.writhe(), pair
            assert kauffman_bracket(moved) == kauffman_bracket(d), pair
            assert _invariants(moved) == _invariants(d), pair
            done += 1
            if done == 2:
                break
        moves += done
    assert moves > 60
