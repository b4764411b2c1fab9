"""Reproducible random-number streams.

Every stochastic component in the reproduction (latency model, workload
generator, client ramp, selector tie-breaking, sync jitter) draws from
its own named stream derived from a single root seed, so that

* two runs with the same seed are bit-identical, and
* adding a new consumer of randomness does not perturb the draws of
  existing components (streams are keyed by name, not by creation
  order).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.sim.snapshot import utf8_array

__all__ = ["RngRegistry"]

_MASK64 = (1 << 64) - 1


class _SeedState:
    """A ``SeedSequence``'s four PCG64 seed words, handed over once, so a
    stream does not keep a ~1.7 KB ``SeedSequence`` for life."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        words, self._words = self._words, None
        return words


class RngRegistry:
    """Factory of named, independent ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        # Registered here, not at import: importing numpy.random costs
        # ~2.5 MB in a process that never draws (a shard coordinator).
        from numpy.random.bit_generator import ISeedSequence
        ISeedSequence.register(_SeedState)

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream key is a stable hash of the name mixed with the root
        seed, so stream identity survives across processes and runs.
        """
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(name.encode("utf-8")).digest()
            # 4 x 32-bit words from the digest, plus the root seed.
            words = [int.from_bytes(digest[i:i + 4], "little") for i in (0, 4, 8, 12)]
            seq = np.random.SeedSequence([self.seed, *words])
            gen = np.random.Generator(np.random.PCG64(
                _SeedState(seq.generate_state(4, np.uint64))))
            self._streams[name] = gen
        return gen

    def snapshot_state(self) -> dict:
        """Canonical RNG state for snapshot digests.

        Every stream is a PCG64 (:meth:`stream` makes no other), whose
        state is two 128-bit integers plus the buffered 32-bit half: one
        row per stream, in name order, each integer split into
        little-endian 64-bit halves.
        """
        names = sorted(self._streams)
        states = [self._streams[name].bit_generator.state for name in names]
        cols: dict = {"name": utf8_array(names)}
        for key in ("state", "inc"):
            words = [int(st["state"][key]) for st in states]
            cols[f"{key}_lo"] = np.array([w & _MASK64 for w in words], "<u8")
            cols[f"{key}_hi"] = np.array([w >> 64 for w in words], "<u8")
        cols["has_uint32"] = np.array([st["has_uint32"] for st in states],
                                      "u1")
        cols["uinteger"] = np.array([st["uinteger"] for st in states], "<u4")
        return {"seed": self.seed, "streams": cols}

    def spawn(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of the parent's."""
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        child_seed = (self.seed * 0x9E3779B1 + int.from_bytes(digest[:8], "little")) % (2**63)
        return RngRegistry(child_seed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"
