import hashlib

import pytest

from symknot.diagram import PlanarDiagram, SymmetricUnion
from symknot.fixtures import (
    braid_pd,
    figure_eight,
    kn_template,
    knot_5_2,
    knot_10_22,
    pretzel,
    rational_knot,
    torus_2k,
    trefoil,
    two_unlink,
    unknot_kink,
    unknot_r2,
    unknot_zero,
)

# sha256 of the K_n PD codes for n in -30..30, joined by newlines
KN_PD_SHA256 = "7ceebd4284082802b4e13e0b6626209b07f53ec249ed72930a605a15c6091d05"

KNOTS = [
    (unknot_zero, 0, 0),
    (lambda: unknot_kink(1), 1, 1),
    (lambda: unknot_kink(-1), 1, -1),
    (unknot_r2, 2, 0),
    (lambda: trefoil(True), 3, 3),
    (lambda: trefoil(False), 3, -3),
    (figure_eight, 4, 0),
    (lambda: knot_5_2(True), 5, 5),
    (lambda: knot_5_2(False), 5, -5),
    (knot_10_22, 11, 1),
    (lambda: pretzel(3, 1, -3), 7, -1),
    (lambda: torus_2k(3), 3, 3),
    (lambda: rational_knot([1, 1, 2]), 4, 0),
]


def test_corpus_is_valid_knots():
    # parse-time guards (arc counts, orientation, Euler) all fire in the builders
    for build, crossings, writhe in KNOTS:
        d = build()
        assert isinstance(d, PlanarDiagram)
        assert len(d.crossings) == crossings
        assert d.writhe() == writhe
        assert d.n_components() == 1


def test_two_unlink():
    d = two_unlink()
    assert len(d.crossings) == 0
    assert d.loops == 2
    assert d.n_components() == 2


def test_names_attached():
    assert trefoil().name == "trefoil+"
    assert figure_eight().name == "figure-eight"
    assert knot_5_2().name == "5_2+"
    assert knot_10_22().name == "10_22"
    assert pretzel(3, 1, -3).name == "P(3,1,-3)"


def test_braid_pd_closure():
    # trace closure of sigma_1^3 on two strands is the positive trefoil
    d = braid_pd([1, 1, 1], 2)
    assert len(d.crossings) == 3
    assert d.writhe() == 3
    assert d.n_components() == 1
    # sigma_1 sigma_1^-1 closes to a two-component shadow
    d = braid_pd([1, -1], 2)
    assert d.n_components() == 2
    assert d.writhe() == 0
    with pytest.raises(ValueError):
        braid_pd([2], 2)
    with pytest.raises(ValueError):
        braid_pd([0], 2)
    with pytest.raises(ValueError):
        braid_pd([1], 2, [(0, 1)], None)


def test_torus_family():
    for k in (1, 2, 4):
        d = torus_2k(k)
        assert len(d.crossings) == k
        assert d.writhe() == k
        assert d.n_components() == (1 if k % 2 else 2)
    assert torus_2k(0).n_components() == 2
    assert torus_2k(-3).writhe() == -3


def test_pretzel_structure():
    d = pretzel(3, 1, -3)
    assert d.n_components() == 1
    assert d.n_plus == 3 and d.n_minus == 4
    assert pretzel(1, 1, 1).writhe() == -3


def test_rational_structure():
    assert len(rational_knot([3]).crossings) == 3
    assert rational_knot([3]).n_components() == 1
    d = rational_knot([1, 1, 2])
    assert d.n_components() == 1
    assert d.n_plus == d.n_minus == 2
    assert rational_knot([1, 1, 3]).n_components() == 1
    with pytest.raises(ValueError):
        rational_knot([2, 0, 1])
    with pytest.raises(ValueError):
        rational_knot([])


def test_kn_template_family():
    for n in (-2, -1, 0, 1, 2, 5):
        d = kn_template(n)
        assert isinstance(d, SymmetricUnion)
        assert len(d.crossings) == 10 + abs(n)
        assert d.writhe() == n
        assert d.n_components() == 1
        assert d.name == f"K_{n}"
    assert kn_template(1).normalized() == knot_10_22().normalized()


def test_kn_template_twist_signs():
    # the ten 5_2-derived crossings are balanced; the twist block carries
    # the writhe with uniform sign
    for n in (3, -3):
        d = kn_template(n)
        assert d.n_plus - d.n_minus == n
        assert {d.signs()[i] for i in d.site.interior} == {1 if n > 0 else -1}


def test_kn_template_pd_codes_frozen():
    # byte-stable PD emission, edge labels included, for every K_n on -30..30
    text = "\n".join(kn_template(n).serialize() for n in range(-30, 31))
    assert hashlib.sha256(text.encode()).hexdigest() == KN_PD_SHA256


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
