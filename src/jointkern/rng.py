"""Counter-based uniform variates.

Every random draw in the package is a pure function of (seed, box id, slot
index), computed by hashing; there is no mutable generator state. That gives
bit-exact reproducibility per (kernel, input, seed) and lets callers derive
independent per-record or per-shard seeds deterministically.

A draw hashes the key f"{seed}\\x1f{box_id}\\x1f{slot}" in UTF-8, built as
seed_key(seed) + box_key(box_id, slot); these two functions are the one
definition of the key. A draw needs no other draw, so draws are computed in
blocks: unit_uniforms hashes every (seed key, box key) cell of a block and
reads the digests' words as floats in one pass, with no call per cell.
Every seeded pass draws through it, so it is the one choke point that a
counter or tracer of draws needs. A pass encodes each seed once per record
(derived_seed_keys derives a range of records' keys the same way) and
reads the boxes' keys from its kernel, which builds them once
(kernels.JointKernel.box_keys). unit_uniform and derive_seed are the
one-cell forms, with the same bits.
"""

from __future__ import annotations

from hashlib import sha256
from io import BytesIO
from struct import Struct
from typing import Iterator, Sequence

__all__ = ["seed_key", "box_key", "unit_uniform", "unit_uniforms", "derive_seed",
           "derived_seed_keys"]

_SEP = "\x1f"
_SCALE = 2.0 ** -53
_WORD = Struct(">Q")  # big-endian, whatever the host's byte order


def seed_key(seed: int | bytes) -> bytes:
    """The key's leading part: the seed's decimal digits; a key, as
    derived_seed_keys builds them, is its own."""
    return seed if seed.__class__ is bytes else f"{seed}".encode("utf-8")


def box_key(box_id: str, slot: int = 0) -> bytes:
    """The key's trailing part: the separated box id and slot index."""
    return f"{_SEP}{box_id}{_SEP}{slot}".encode("utf-8")


def unit_uniform(seed: int | bytes, box_id: str | bytes, slot: int = 0) -> float:
    """One uniform in [0, 1) determined by (seed, box_id, slot).

    With the key's two parts prebuilt, unit_uniform(seed_key(seed),
    box_key(box_id, slot)) is the same draw, and so is the one cell of
    unit_uniforms([seed_key(seed)], [box_key(box_id, slot)]).
    """
    if seed.__class__ is not bytes:
        seed, box_id = seed_key(seed), box_key(box_id, slot)
    digest = sha256(seed + box_id).digest()
    # top 53 bits of the digest, scaled into [0, 1)
    return (int.from_bytes(digest[:8], "big") >> 11) * _SCALE


def unit_uniforms(seeds: Sequence[bytes], keys: Sequence[bytes]) -> list[float]:
    """unit_uniform(s, k) for every seed key s and, within it, every box key
    k, bit for bit: cell i * len(keys) + j is the draw of seeds[i] and
    keys[j]."""
    return [(w >> 11) * _SCALE for (w,) in _words(
        [sha256(s + k).digest()[:8] for s in seeds for k in keys])]


def derive_seed(seed: int, index: int) -> int:
    """A child seed for record/shard `index`, independent across indices."""
    key = f"{seed}{_SEP}{index}".encode("utf-8")
    digest = sha256(key).digest()
    return int.from_bytes(digest[8:16], "big") >> 1


def derived_seed_keys(seed: int, start: int, stop: int) -> list[bytes]:
    """seed_key(derive_seed(seed, i)) for each i in range(start, stop), bit
    for bit."""
    prefix = f"{seed}{_SEP}".encode("utf-8")
    return [b"%d" % (w >> 1) for (w,) in _words(
        [sha256(prefix + b"%d" % i).digest()[8:16] for i in range(start, stop)])]


def _words(parts: list[bytes]) -> Iterator[tuple[int]]:
    """Each 8-byte part read as a big-endian unsigned int (_WORD), in a
    1-tuple: the parts are joined and read in one pass. BytesIO joins them,
    as bytes.join would hold an 80-byte buffer record per part while it
    joins."""
    buf = BytesIO()
    buf.writelines(parts)
    return _WORD.iter_unpack(buf.getbuffer())
