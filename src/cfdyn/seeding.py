"""Deterministic random-stream derivation.

Every random draw in the package comes from a stream identified by a
(seed, stream_id) pair, realized as a counter-based Philox generator.
Substreams are derived by hashing a tag string plus integer indices into a
fresh stream_id, so each pipeline stage, particle lane, or trajectory owns an
independent stream whose output does not depend on scheduling order or worker
count.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def _derive(stream_id: int, tag: str, indices: tuple[int, ...]) -> int:
    payload = struct.pack("<Q", stream_id & _MASK64) + tag.encode("utf-8")
    for ix in indices:
        payload += struct.pack("<q", ix)
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class RngSeed:
    """Value-semantics handle for one reproducible random stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if not 0 <= self.stream_id <= _MASK64:
            raise ValueError(f"stream_id must fit in 64 bits, got {self.stream_id}")

    def child(self, tag: str, *indices: int) -> "RngSeed":
        """Derive the substream named by `tag` and optional integer indices."""
        return RngSeed(self.seed, _derive(self.stream_id, tag, indices))

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; same (seed, stream_id), same draws."""
        key = ((self.seed & _MASK64) << 64) | (self.stream_id & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))


class StreamDrawer:
    """Cheap sequential access to many substreams of one parent seed.

    Re-keys a single Philox instance instead of constructing one per
    substream; draw-for-draw identical to `base.child(tag, *ix).generator()`.
    Not thread-safe, and the returned generator is only valid until the next
    `generator` call: for serial hot loops.
    """

    def __init__(self, base: RngSeed):
        self._base = base
        self._bitgen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bitgen)
        # The state setter copies these values, so one zero block serves every re-key.
        self._zeros = np.zeros(4, dtype=np.uint64)

    def generator(self, tag: str, *indices: int) -> np.random.Generator:
        sid = _derive(self._base.stream_id, tag, indices)
        # A freshly built state is cheaper than reading `.state` back and editing it.
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": self._zeros,
                "key": np.array([sid, self._base.seed & _MASK64], dtype=np.uint64),
            },
            "buffer": self._zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._gen
