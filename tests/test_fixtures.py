import hashlib
import random

import pytest
from test_khovanov import random_braid_corpus

from symknot.diagram import (
    InvariantError,
    PdError,
    PlanarDiagram,
    SymmetricUnion,
    TangleSite,
    fusion_resolution,
    resolve_crossing,
    symmetric_union,
)
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


def _rational_corpus(seed=1507, count=300):
    """Seeded ``rational_knot`` diagrams of 1-5 blocks, knots and links alike."""
    rng = random.Random(seed)
    return [
        rational_knot([rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(1, 5))])
        for _ in range(count)
    ]


def _random_pd_codes(seed=78, count=5000):
    """Seeded crossing lists of 1-6 crossings, each of 2c labels used twice.

    Most are not planar and many cannot be oriented; a component that
    passes under nothing only turns up here.
    """
    rng = random.Random(seed)
    codes = []
    for _ in range(count):
        c = rng.randint(1, 6)
        labels = list(range(1, 2 * c + 1)) * 2
        rng.shuffle(labels)
        codes.append([labels[k : k + 4] for k in range(0, 4 * c, 4)])
    return codes


def _outcome(stage):
    try:
        return repr(stage())
    except PdError as e:
        return type(e).__name__


def _generated_diagrams():
    """Named groups of diagrams built by the package's own constructors."""
    zoo = [build() for build, _, _ in KNOTS] + [two_unlink(), kn_template(2)]
    return {
        "braids": random_braid_corpus(),
        "pretzels": [
            pretzel(p, q, r)
            for p in range(-4, 5)
            for q in range(-3, 4)
            for r in range(-4, 5)
            if p and r
        ],
        "torus": [torus_2k(k) for k in range(-12, 13)],
        "rational": _rational_corpus(),
        "fusions": [fusion_resolution(k, k.site) for k in map(kn_template, range(-8, 9))],
        "resolutions": [
            resolve_crossing(d, ci, which)
            for d in zoo
            for ci in range(d.n_crossings)
            for which in (0, 1)
        ],
    }


# sha256 of "PD code | signs | components" per diagram, joined by newlines
GENERATED_SHA256 = {
    "braids": "cebd4e2d5c703b94d4601cfecb23bb504e19bd2c57425c293c04582abc4eff3b",
    "pretzels": "8fcbd87f9c68e1ae770d82ea84e417aab3f0be2400716208da30d62d91d2b07c",
    "torus": "63f9ceb62bd8969c46534659115530044c3deca1477765b6b225e67feee14aa8",
    "rational": "43de0ed6b0a69c06013df0fc48105db6dd89e16149d507dd42ff90d81d33e1b6",
    "fusions": "bcc22da4f6603fae33319f4bd34a406cdb086aadc94dd3a57eec477a6abc9608",
    "resolutions": "0fec1eac8c9a8f585d8bbba3d252b0d27c1c13ca5f4dc0a7e661a33d2488745e",
}

# sha256 of "orientation or its error | components | connected | faces or
# their error" per random PD code, joined by newlines
RANDOM_PD_SHA256 = "71e2deb69a7f74f5ad505b1f9db3dd37f03fb223552e4c19c1d0b94ef1832f29"


def test_kn_template_pd_codes_frozen():
    # byte-stable PD emission, edge labels included, for every K_n on -30..30
    text = "\n".join(kn_template(n).serialize() for n in range(-30, 31))
    assert hashlib.sha256(text.encode()).hexdigest() == KN_PD_SHA256
    # and for every other generated family: PD code, crossing signs, components
    digests = {
        group: hashlib.sha256(
            "\n".join(
                f"{d.serialize()}|{d.signs()}|{d.n_components()}" for d in diagrams
            ).encode()
        ).hexdigest()
        for group, diagrams in _generated_diagrams().items()
    }
    assert digests == GENERATED_SHA256
    # random codes reach the orientation error and over-only components
    lines = []
    for code in _random_pd_codes():
        d = PlanarDiagram(code)
        orient = _outcome(lambda: sorted(d.orientation().items()))
        faces = _outcome(d.faces)
        lines.append(f"{orient}|{d.n_components()}|{d.is_connected()}|{faces}")
    assert any(line.startswith("OrientationError") for line in lines)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RANDOM_PD_SHA256


# sha256 of "PD code | signs | components | site | n | name", or the error
# type, per (partial knot, band edge, twist edge, n), joined by newlines
UNION_SHA256 = "bad8a19c898a0d945d43ceff33ad557fb352cf79e901f5cf4096ed6859eb62e4"


def _union_outcome(j, band, twist, n):
    try:
        k = symmetric_union(j, TangleSite(band, twist, band, twist), n)
    except (PdError, InvariantError) as e:
        return type(e).__name__
    return f"{k.serialize()}|{k.signs()}|{k.n_components()}|{k.site}|{k.n}|{k.name}"


def test_symmetric_unions_frozen():
    # every ordered pair of edges of seven partial knots as band and twist
    # edges, equal pairs included, so the refusals are frozen too
    partials = [
        trefoil(True),
        trefoil(False),
        figure_eight(),
        knot_5_2(True),
        knot_5_2(False),
        knot_10_22(),
        rational_knot([2, 1, 3]),
    ]
    lines = [
        _union_outcome(j, band, twist, n)
        for j in partials
        for band in j.arcs
        for twist in j.arcs
        for n in (-2, 0, 1, 3)
    ]
    assert sum(not line.endswith("Error") for line in lines) == 1328
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == UNION_SHA256


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
