"""Counter-based uniform variates.

Every random draw in the package is a pure function of (seed, box id, slot
index), computed by hashing; there is no mutable generator state. That gives
bit-exact reproducibility per (kernel, input, seed) and lets callers derive
independent per-record or per-shard seeds deterministically.
"""

from __future__ import annotations

import hashlib

__all__ = ["unit_uniform", "uniform_block", "derive_seed"]

_SEP = "\x1f"


def unit_uniform(seed: int, box_id: str, slot: int) -> float:
    """One uniform in [0, 1) determined by (seed, box_id, slot)."""
    key = f"{seed}{_SEP}{box_id}{_SEP}{slot}".encode("utf-8")
    digest = hashlib.sha256(key).digest()
    # top 53 bits of the digest, scaled into [0, 1)
    return (int.from_bytes(digest[:8], "big") >> 11) * 2.0 ** -53


def uniform_block(seed: int, box_id: str) -> tuple[float]:
    """The block of one uniform that a box pushes forward."""
    return (unit_uniform(seed, box_id, 0),)


def derive_seed(seed: int, index: int) -> int:
    """A child seed for record/shard `index`, independent across indices."""
    key = f"{seed}{_SEP}{index}".encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[8:16], "big") >> 1
