import random
from collections import Counter

import pytest
from layout_oracle import LAYOUTS, trial_layout
from scan_oracle import rescan_order
from test_fixtures import _random_pd_codes, _rational_corpus
from test_khovanov import EULER_CORPUS, random_braid_corpus
from test_properties import _kinked

from symknot.diagram import (
    IN,
    OUT,
    ArcCountError,
    DiagramStructureError,
    OrientationError,
    PdSyntaxError,
    PlanarDiagram,
    SymmetricUnion,
    TangleSite,
    _channel_layout,
    _scan_order,
    assemble_corners,
    connected_sum,
    fusion_resolution,
    mirror,
    parse_pd,
    resolve_crossing,
    symmetric_union,
    twist_insert,
)
from symknot.fixtures import (
    KN_SITE,
    figure_eight,
    kn_template,
    knot_5_2,
    knot_10_22,
    pretzel,
    torus_2k,
    trefoil,
    two_unlink,
    unknot_kink,
    unknot_zero,
)

TREFOIL_PD = "X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]"


def test_parse_serialize_roundtrip():
    for text in (
        TREFOIL_PD,
        "X[1,1,2,2]",
        "X[1,2,2,3] X[3,4,4,1] O O",
        "O",
    ):
        assert parse_pd(text).serialize() == text


def test_parse_rejects_malformed_terms():
    with pytest.raises(PdSyntaxError):
        parse_pd("X[1,2,3]")
    with pytest.raises(PdSyntaxError):
        parse_pd("X[1,2,3,4] X[1,4,3,2] junk")
    with pytest.raises(PdSyntaxError):
        parse_pd("X[0,1,0,1]")  # labels are 1-based
    # no term at all: the empty diagram has no invariant to compute
    for text in ("", "  \n", "# only a comment"):
        with pytest.raises(PdSyntaxError):
            parse_pd(text)
    with pytest.raises(ArcCountError):
        parse_pd("X[1,2,3,4] X[1,2,3,5]")


def test_constructor_refuses_what_the_term_syntax_rules_out():
    # parse_pd reads four labels per term and no loop count, so these
    # reach only a caller that builds the diagram directly
    with pytest.raises(PdSyntaxError, match="exactly 4"):
        PlanarDiagram([(1, 2, 2)])
    with pytest.raises(DiagramStructureError, match="negative loop count"):
        PlanarDiagram([], loops=-1)


def test_orientation_and_signs():
    t = trefoil(True)
    assert t.signs() == (1, 1, 1)
    assert t.writhe() == 3
    assert trefoil(False).signs() == (-1, -1, -1)
    assert knot_5_2(True).writhe() == 5
    assert figure_eight().writhe() == 0
    assert figure_eight().n_plus == figure_eight().n_minus == 2


def test_orientation_failure_is_reported():
    # both appearances of edge 1 sit at an incoming under-slot; the parser
    # refuses such wirings outright
    with pytest.raises(OrientationError):
        parse_pd("X[1,2,3,4] X[1,4,3,2]")


def test_arc_head_and_tail_are_opposite_ends():
    d = trefoil(True)
    for arc in d.arcs:
        head = d.arc_head(arc)
        assert d.orientation()[head] == IN
        (tail,) = set(d.appearances()[arc]) - {head}
        assert d.orientation()[tail] == OUT


def test_faces_satisfy_euler_formula():
    for d in (trefoil(True), figure_eight(), knot_5_2(False), kn_template(3)):
        assert d.n_crossings - d.n_arcs + len(d.faces()) == 2


def test_faces_need_connected_projection():
    with pytest.raises(DiagramStructureError):
        two_unlink().faces()


def test_connectivity_is_checked_once_per_diagram():
    # assemble_corners asks is_connected and then faces, which asks it again:
    # the piece count is a stage, computed by the first ask and held after
    d = PlanarDiagram(trefoil().crossings)
    assert PlanarDiagram._n_pieces.held(d) is None
    assert d.is_connected()
    assert PlanarDiagram._n_pieces.held(d) == 1
    assert d.faces() and d.is_connected()


def test_components_and_loops():
    assert unknot_zero().n_components() == 1
    assert two_unlink().n_components() == 2
    assert parse_pd("X[1,2,2,3] X[3,4,4,1] O").n_components() == 2
    assert torus_2k(2).n_components() == 2
    assert trefoil(True).n_components() == 1


def test_mirror_is_an_involution_and_flips_signs():
    for d in (trefoil(True), knot_5_2(False), figure_eight()):
        m = mirror(d)
        assert m.writhe() == -d.writhe()
        assert mirror(m) == d


def test_resolve_crossing_smoothings():
    t = trefoil(True)
    zero = resolve_crossing(t, 0, 0)
    one = resolve_crossing(t, 0, 1)
    assert zero.serialize() == "X[6,2,1,3] X[2,6,3,1]"
    # second tuple comes back rotated so the rewired strand stays directed
    assert one.serialize() == "X[6,1,1,3] X[3,2,2,6]"
    assert zero.n_components() == 2
    assert one.n_components() == 1
    assert zero.signs() == (1, 1)
    assert one.signs() == (-1, -1)
    with pytest.raises(DiagramStructureError):
        resolve_crossing(t, 3, 0)
    with pytest.raises(DiagramStructureError):
        resolve_crossing(t, 0, 2)


def test_resolving_a_kink_leaves_a_free_loop():
    k = unknot_kink(1)
    out = resolve_crossing(k, 0, 1)
    assert out.n_crossings == 0
    assert out.loops == 1


def test_connected_sum_structure():
    granny = connected_sum(trefoil(True), trefoil(True), 1, 1)
    square = connected_sum(trefoil(True), trefoil(False), 1, 1)
    assert granny.n_crossings == square.n_crossings == 6
    assert granny.n_components() == square.n_components() == 1
    assert granny.writhe() == 6
    assert square.writhe() == 0
    granny.faces()  # planar
    granny.orientation()
    with pytest.raises(DiagramStructureError, match="no edge 99 in first"):
        connected_sum(trefoil(True), trefoil(True), 99, 1)
    with pytest.raises(DiagramStructureError, match="no edge 99 in second"):
        connected_sum(trefoil(True), trefoil(True), 1, 99)


def test_assemble_corners_traces_directions():
    # a one-crossing kink wired by hand: wire 0 u-turns across the top
    d = assemble_corners([((0, 0, 1, 1), True)], [], 2, "kink")
    assert d.serialize() == "X[1,2,2,1]"
    assert d.writhe() == -1
    with pytest.raises(ValueError):
        assemble_corners([((0, 1, 2, 0), True)], [], 3, "open")


def test_assemble_corners_refuses_split_non_planar_wiring():
    # a closed three-crossing 2-braid beside a one-crossing wiring whose two
    # wires each join opposite corners: the second piece has genus 1
    braid = [((2, 3, 5, 6), False), ((3, 4, 6, 7), False), ((4, 2, 7, 5), False)]
    assert assemble_corners(braid, [], 8).n_components() == 3  # the braid and two loops
    with pytest.raises(DiagramStructureError, match="not planar"):
        assemble_corners([((0, 1, 1, 0), True)] + braid, [], 8)
    # a planar piece beside it is a split diagram, which stays accepted
    split = assemble_corners([((0, 0, 1, 1), True)] + braid, [], 8)
    assert not split.is_connected() and split.n_components() == 2


def test_symmetric_union_crossing_count_and_writhe():
    j = knot_5_2(True)
    for n in range(-4, 5):
        k = symmetric_union(j, KN_SITE, n)
        assert k.n_crossings == 2 * j.n_crossings + abs(n)
        assert k.n_components() == 1
        assert k.writhe() == n
        twist_signs = k.signs()[2 * j.n_crossings:]
        assert all(s == (1 if n > 0 else -1) for s in twist_signs)
        k.faces()


def test_symmetric_union_returns_annotated_diagram():
    k = symmetric_union(knot_5_2(True), KN_SITE, 2)
    assert isinstance(k, PlanarDiagram)
    assert isinstance(k, SymmetricUnion)
    assert k.n == 2
    assert len(k.site.interior) == 2


def test_symmetric_union_site_validation():
    j = knot_5_2(True)
    with pytest.raises(DiagramStructureError):
        symmetric_union(j, TangleSite(1, 1, 1, 1), 1)
    with pytest.raises(DiagramStructureError):
        symmetric_union(j, TangleSite(1, 99, 1, 99), 1)
    # a site with a twist region, or with two ends that differ, names more
    # than a band edge and a twist edge
    for site in (TangleSite(1, 2, 3, 4, (0,)), TangleSite(1, 2, 3, 2)):
        with pytest.raises(DiagramStructureError, match="nothing else"):
            symmetric_union(j, site, 1)
    # edge 2 does not border either face along the band cut at edge 1
    with pytest.raises(DiagramStructureError):
        symmetric_union(j, TangleSite(1, 2, 1, 2), 1)


def test_twist_insert_needs_a_shared_face():
    base = symmetric_union(knot_5_2(True), KN_SITE, 0)
    with pytest.raises(DiagramStructureError, match="do not border a common face"):
        twist_insert(base, TangleSite(2, 3, 2, 3), 1)
    # these pairs share a face, but one half twist would join two
    # components or split one
    with pytest.raises(DiagramStructureError, match="lie on two components"):
        twist_insert(torus_2k(2), TangleSite(1, 2, 1, 2), 1)
    with pytest.raises(DiagramStructureError, match="run parallel"):
        twist_insert(trefoil(True), TangleSite(1, 4, 1, 4), 1)


def _layout_outcome(find, d, x, y):
    try:
        return find(d, x, y)
    except ValueError as e:
        return type(e).__name__


def test_channel_layout_matches_trial_oracle():
    # every ordered pair of distinct edges: the layout read off the shared
    # face is the first one the trial ladders let through, or both refuse
    corpus = EULER_CORPUS + [knot_10_22(), pretzel(-2, 3, 3), torus_2k(3)]
    corpus += [kn_template(n) for n in (-2, 0, 1, 3)]
    corpus += _rational_corpus(seed=1113, count=10)
    corpus += random.Random(1113).sample(random_braid_corpus(), 16)
    seen = Counter()
    for d in corpus:
        for x in d.arcs:
            for y in d.arcs:
                if x != y:
                    got = _layout_outcome(_channel_layout, d, x, y)
                    assert got == _layout_outcome(trial_layout, d, x, y), (d.serialize(), x, y)
                    seen[got] += 1
    # 6058 pairs, 1060 of them laid, each of the four layouts over 200 times
    assert all(seen[layout] > 200 for layout in LAYOUTS), seen
    assert sum(seen.values()) > 6000


def test_twist_insert_needs_a_trivial_site():
    # a laid ladder is twisted again by a new channel, not by its own site
    k = kn_template(2)
    for site in (k.site, TangleSite(k.site.nw, k.site.ne, k.site.sw, k.site.ne)):
        with pytest.raises(DiagramStructureError, match="trivial channel site"):
            twist_insert(k, site, 1)


def test_twist_insert_zero_keeps_diagram():
    base = symmetric_union(knot_5_2(True), KN_SITE, 0)
    again = twist_insert(base, base.site, 0)
    assert again == base


def _unoriented(d):
    # crossings up to through-flow reversal (tuple rotation by two)
    return sorted(min(x, x[2:] + x[:2]) for x in d.crossings), d.loops


def test_fusion_resolution_is_twist_independent():
    # odd n reverses one fused circle, so compare modulo orientation
    expected = None
    for n in (0, 1, -1, 2, -2, 5):
        k = kn_template(n)
        fus = _unoriented(fusion_resolution(k, k.site).normalized())
        if expected is None:
            expected = fus
        assert fus == expected
    even = fusion_resolution(kn_template(2), kn_template(2).site)
    assert (
        even.normalized().serialize()
        == "X[1,2,3,4] X[5,6,7,8] X[9,1,10,11] X[12,5,11,10] X[6,12,4,7]"
        " X[3,2,13,14] X[15,16,17,8] X[18,13,9,19] X[19,17,20,18] X[14,20,16,15]"
    )


def test_fusion_resolution_gives_two_components():
    for n in (0, 3):
        k = kn_template(n)
        fus = fusion_resolution(k, k.site)
        assert fus.n_components() == 2


def test_fusion_resolution_validates_site():
    k = kn_template(2)
    with pytest.raises(DiagramStructureError):
        fusion_resolution(k, TangleSite(1, 999, 1, 999))
    # the ladder interior must be named; half a region is rejected
    bad = TangleSite(k.site.nw, k.site.ne, k.site.sw, k.site.se, k.site.interior[:1])
    with pytest.raises(DiagramStructureError):
        fusion_resolution(k, bad)
    nw, ne, sw, se = k.site.nw, k.site.ne, k.site.sw, k.site.se
    with pytest.raises(DiagramStructureError, match="four distinct"):
        TangleSite(nw, ne, sw, nw, k.site.interior)
    # without an interior the site is a channel: one edge pair, named twice
    for site in (TangleSite(nw, ne, sw, se), TangleSite(nw, nw, nw, nw)):
        with pytest.raises(DiagramStructureError, match="two-edge channel"):
            fusion_resolution(k, site)
    with pytest.raises(DiagramStructureError, match="out of range"):
        fusion_resolution(k, TangleSite(nw, ne, sw, se, (k.n_crossings,)))
    # every crossing inside: the region is closed, but meets each corner twice
    whole = TangleSite(nw, ne, sw, se, tuple(range(k.n_crossings)))
    with pytest.raises(DiagramStructureError, match="four corners"):
        fusion_resolution(k, whole)


def test_kn_template_members():
    k0 = kn_template(0)
    assert k0.n_crossings == 10
    assert k0.writhe() == 0
    k1 = kn_template(1)
    assert k1.normalized() == knot_10_22()
    assert kn_template(-3).writhe() == -3
    assert kn_template(7).n_crossings == 17


def test_mirror_family_statement():
    # negative twisting builds the mirror image diagramwise
    k = kn_template(2)
    km = kn_template(-2)
    assert km.writhe() == -k.writhe()
    assert sorted(km.signs()) == sorted(-s for s in k.signs())


def test_normalized_left_inverse_of_relabeling():
    d = parse_pd("X[10,20,20,30] X[30,40,40,10]")
    nd = d.normalized()
    assert nd.serialize() == "X[1,2,2,3] X[3,4,4,1]"
    assert nd.normalized() == nd


def test_equality_ignores_names():
    a = parse_pd(TREFOIL_PD, name="a")
    b = parse_pd(TREFOIL_PD, name="b")
    assert a == b
    assert hash(a) == hash(b)


def test_scan_order_equals_rescan_oracle():
    # the heap keeps the rescan's rule, ties included, on codes of any shape:
    # random crossing lists (most neither planar nor orientable), the family
    # far past where a rescan per step is cheap, and kinks, whose crossing
    # holds one label twice
    codes = _random_pd_codes()
    codes += [kn_template(n).crossings for n in range(-30, 31)]
    codes += [kn_template(n).crossings for n in (100, -100, 400, -400)]
    kinks = [unknot_kink(1), unknot_kink(-1)]
    kinks += [_kinked(d, e, sign) for d in EULER_CORPUS if d.crossings for e in d.arcs for sign in (1, -1)]
    codes += [d.crossings for d in kinks]
    for code in codes:
        assert _scan_order(code) == rescan_order(code), code
