"""The rng key is defined once, in rng: a seeded pass draws from a key built
once per record (the seed's part) and once per box (the box's part, which
each kernel builds for its boxes), and these draws are unit_uniform's bit for bit.
The bulk forms, unit_uniforms and derived_seed_keys, are the one-cell
forms cell by cell."""

import hashlib
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

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
    derive_seed,
    derived_seed_keys,
    evaluate,
    from_primitive,
    normal,
    rename_boxes,
    sample_scored,
    seed_key,
    tensor,
    unit_uniform,
    unit_uniforms,
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


# seeds at the edges of the int sizes, and one of 40 digits
EDGE_SEEDS = [-1, 0, 2 ** 63 - 1, 2 ** 64 + 1, 10 ** 39 + 7]
EDGE_BOXES = [("é", 0), ("日本語", 3), ("a\x1fb", 0), ("\x1f", 1), ("", 0), ("", 12)]
# any box id UTF-8 can encode
BOX_IDS_ANY = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


def _derived(seed: int, index: int) -> bytes:
    """The documented child seed's key, without rng: bytes 8..16 of the
    sha256 of f"{seed}\\x1f{index}", as a big-endian word, halved."""
    d = hashlib.sha256(f"{seed}\x1f{index}".encode("utf-8")).digest()
    return str(int.from_bytes(d[8:16], "big") >> 1).encode("utf-8")


@settings(derandomize=True, max_examples=80, deadline=None)
@given(seeds=st.lists(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers()), max_size=5),
       boxes=st.lists(st.one_of(st.sampled_from(EDGE_BOXES),
                                st.tuples(BOX_IDS_ANY, st.integers(0, 40))), max_size=5),
       start=st.integers(0, 2 ** 70), count=st.integers(0, 6))
@example(seeds=EDGE_SEEDS, boxes=EDGE_BOXES, start=1, count=3)
@example(seeds=[], boxes=EDGE_BOXES, start=0, count=0)
@example(seeds=EDGE_SEEDS, boxes=[], start=5, count=0)
@example(seeds=[], boxes=[], start=0, count=0)
def test_bulk_forms_equal_the_one_cell_forms_bit_for_bit(seeds, boxes, start, count):
    seed_keys = [seed_key(s) for s in seeds]
    box_keys = [box_key(b, slot) for b, slot in boxes]
    cells = unit_uniforms(seed_keys, box_keys)
    assert len(cells) == len(seeds) * len(boxes)
    for i, s in enumerate(seeds):
        assert seed_key(seed_keys[i]) is seed_keys[i]  # a key is its own key
        for j, (b, slot) in enumerate(boxes):
            got = cells[i * len(boxes) + j]
            assert 0.0 <= got < 1.0
            assert _bits(got) == _bits(unit_uniform(s, b, slot)) == _bits(_hashed(s, b, slot))
    for s in seeds or [0]:
        keys = derived_seed_keys(s, start, start + count)
        want = [seed_key(derive_seed(s, i)) for i in range(start, start + count)]
        assert keys == want == [_derived(s, i) for i in range(start, start + count)]


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
        assert list(moved.box_keys) == [box_key(b) for b in moved.box_ids]
        z = (UNIT_VALUE, UNIT_VALUE) if moved.dom == Product(UNIT, UNIT) else UNIT_VALUE
        for seed in SEEDS:
            assert repr(sample_scored(moved, z, seed)) == repr(sample_scored(built, z, seed))
