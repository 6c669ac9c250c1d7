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
_INDEX = struct.Struct("<q")


def _prefix(stream_id: int, tag: str) -> hashlib.blake2b:
    """Hash state after the (stream_id, tag) part of a substream's payload."""
    payload = struct.pack("<Q", stream_id & _MASK64) + tag.encode("utf-8")
    return hashlib.blake2b(payload, digest_size=8)


def _finish(prefix: hashlib.blake2b, indices: tuple[int, ...]) -> int:
    """Stream id from a `_prefix` state (which is consumed) and the integer indices."""
    for ix in indices:
        prefix.update(_INDEX.pack(ix))
    return int.from_bytes(prefix.digest(), "little")


def _derive(stream_id: int, tag: str, indices: tuple[int, ...]) -> int:
    return _finish(_prefix(stream_id, tag), indices)


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
    Each tag's hash prefix is computed once and copied per substream. Not
    thread-safe, and the returned generator is only valid until the next
    `generator` call: for serial hot loops.
    """

    def __init__(self, base: RngSeed):
        self._base = base
        self._prefixes: dict[str, hashlib.blake2b] = {}
        self._bitgen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bitgen)
        # The state setter copies these values, so one dict serves every re-key;
        # plain lists are read faster by the setter than uint64 arrays.
        zeros = [0, 0, 0, 0]
        self._key = [0, base.seed & _MASK64]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": self._key},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def generator(self, tag: str, *indices: int) -> np.random.Generator:
        prefix = self._prefixes.get(tag)
        if prefix is None:
            prefix = self._prefixes[tag] = _prefix(self._base.stream_id, tag)
        self._key[0] = _finish(prefix.copy(), indices)
        self._bitgen.state = self._state
        return self._gen
