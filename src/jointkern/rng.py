"""Counter-based uniform variates.

Every random draw in the package is a pure function of (seed, box id, slot
index), computed by hashing; there is no mutable generator state. That gives
bit-exact reproducibility per (kernel, input, seed) and lets callers derive
independent per-record or per-shard seeds deterministically.

A draw hashes the key f"{seed}\\x1f{box_id}\\x1f{slot}" in UTF-8, built as
seed_key(seed) + box_key(box_id, slot); these two functions are the one
definition of the key. A seeded pass draws for every box of a kernel under
one seed, so it encodes the seed once per record and reads each box's key
from its TracedBox, built once when the box got its id.
"""

from __future__ import annotations

from hashlib import sha256

__all__ = ["seed_key", "box_key", "unit_uniform", "derive_seed"]

_SEP = "\x1f"


def seed_key(seed: int) -> bytes:
    """The key's leading part: the seed's decimal digits."""
    return f"{seed}".encode("utf-8")


def box_key(box_id: str, slot: int = 0) -> bytes:
    """The key's trailing part: the separated box id and slot index."""
    return f"{_SEP}{box_id}{_SEP}{slot}".encode("utf-8")


def unit_uniform(seed: int | bytes, box_id: str | bytes, slot: int = 0) -> float:
    """One uniform in [0, 1) determined by (seed, box_id, slot).

    A seeded pass passes the key's two parts prebuilt instead:
    unit_uniform(seed_key(seed), box_key(box_id, slot)) is the same draw.
    Either way every draw goes through this one function, so a counter or
    tracer set on it sees them all.
    """
    if seed.__class__ is not bytes:
        seed, box_id = seed_key(seed), box_key(box_id, slot)
    digest = sha256(seed + box_id).digest()
    # top 53 bits of the digest, scaled into [0, 1)
    return (int.from_bytes(digest[:8], "big") >> 11) * 2.0 ** -53


def derive_seed(seed: int, index: int) -> int:
    """A child seed for record/shard `index`, independent across indices."""
    key = f"{seed}{_SEP}{index}".encode("utf-8")
    digest = sha256(key).digest()
    return int.from_bytes(digest[8:16], "big") >> 1
