"""Every invariant is a knot invariant: it ignores how the diagram is written down.

Two changes that keep the link type are checked on the fixture zoo and on
the seeded braid corpus: relabelling the edges while shuffling the
crossing order (which also reorders ``scan_order``), and a Reidemeister I
kink of either sign on an edge.
"""

import random

from test_khovanov import EULER_CORPUS, random_braid_corpus

from symknot.diagram import PlanarDiagram, scan_order
from symknot.fixtures import kn_template, knot_10_22, pretzel
from symknot.goeritz import determinant_goeritz, h1_branched_cover
from symknot.khovanov import F2, RATIONAL, kh_homology
from symknot.obstruction import COMPUTE, ccc_verdict
from symknot.polynomials import alexander, determinant_alexander, jones

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
        reordered += scan_order(twin.crossings) != scan_order(d.crossings)
        assert _invariants(twin) == _invariants(d), d.serialize()
    assert reordered > 40


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
