"""The rng key is defined once, in rng: a seeded pass draws from a key built
once per record (the seed's part) and once per box (the box's part, which
every TracedBox carries), and these draws are unit_uniform's bit for bit."""

import hashlib
import struct

import pytest

from jointkern import (
    Diagram,
    Hypergraph,
    HypMorphism,
    Interpretation,
    Product,
    Real,
    UNIT,
    UNIT_VALUE,
    bernoulli,
    box_key,
    compose,
    evaluate,
    from_primitive,
    normal,
    rename_boxes,
    sample_scored,
    seed_key,
    tensor,
    unit_uniform,
)

SEEDS = [0, 1, 7, -1, -(2 ** 40) - 3, 2 ** 63 - 1]
BOX_IDS = ["b1", "0", "123", "é", "日本語", "a\x1fb", "\x1f0", "", "g.n1", '"\\']


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _hashed(seed: int, box_id: str, slot: int) -> float:
    """The documented draw, without rng: the top 53 bits of the key's sha256."""
    key = f"{seed}\x1f{box_id}\x1f{slot}".encode("utf-8")
    return (int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 11) * 2.0 ** -53


@pytest.mark.parametrize("seed", SEEDS)
def test_keyed_draw_equals_unit_uniform(seed):
    for box_id in BOX_IDS:
        for slot in (0, 1, 12):
            u = unit_uniform(seed, box_id, slot)
            assert 0.0 <= u < 1.0
            assert _bits(unit_uniform(seed_key(seed), box_key(box_id, slot))) == _bits(u)
            assert _bits(u) == _bits(_hashed(seed, box_id, slot))
        assert unit_uniform(seed_key(seed), box_key(box_id)) == unit_uniform(seed, box_id, 0)


def _chain(a: str, b: str):
    """Two normal boxes, b's mean read from a's draw."""
    return compose(from_primitive(normal(0.25, 1.0), a),
                   from_primitive(normal(lambda x: 0.5 * x, 2.0, dom=Real(1)), b))


def _composite_diagram_kernel():
    """A one-box diagram whose box kernel is _chain("n1", "n2"), lowered."""
    sig = Hypergraph(("R",), ("mix",), {"mix": ()}, {"mix": ("R",)})
    graph = Hypergraph(("w",), ("g",), {"g": ()}, {"g": ("w",)})
    d = Diagram(graph=graph, signature=sig, labeling=HypMorphism({"w": "R"}, {"g": "mix"}),
                inputs=(), outputs=("w",))
    return evaluate(d, Interpretation({"R": Real(1)}, {"mix": _chain("n1", "n2")},
                                      {"mix": ("R", "R")}))


def test_moved_kernels_draw_as_fresh_ones():
    ids = {"a": "é", "b": "b\x1f0"}
    coin = lambda box_id: from_primitive(bernoulli(0.3), box_id)  # noqa: E731
    pairs = [
        # (moved to its ids, built with them)
        (rename_boxes(_chain("a", "b"), ids), _chain("é", "b\x1f0")),
        (compose(rename_boxes(_chain("a", "b"), ids),
                 rename_boxes(from_primitive(normal(lambda x: x, 1.0, dom=Real(1)), "c"),
                              {"c": "c2"})),
         compose(_chain("é", "b\x1f0"),
                 from_primitive(normal(lambda x: x, 1.0, dom=Real(1)), "c2"))),
        (tensor(rename_boxes(coin("a"), {"a": "1"}), rename_boxes(_chain("a", "b"), ids)),
         tensor(coin("1"), _chain("é", "b\x1f0"))),
        (_composite_diagram_kernel(), _chain("g.n1", "g.n2")),
    ]
    for moved, built in pairs:
        assert moved.box_ids == built.box_ids
        assert [s.key for s in moved.boxes] == [box_key(b) for b in moved.box_ids]
        z = (UNIT_VALUE, UNIT_VALUE) if moved.dom == Product(UNIT, UNIT) else UNIT_VALUE
        for seed in SEEDS:
            assert repr(sample_scored(moved, z, seed)) == repr(sample_scored(built, z, seed))
