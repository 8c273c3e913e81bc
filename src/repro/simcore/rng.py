"""Deterministic random-number streams.

Every stochastic component draws from its own named stream so that (a)
runs are reproducible given a seed and (b) adding randomness to one
component does not perturb another's draws — the standard DES
variance-reduction discipline.

This module is the only place simulation code may touch the raw
``random`` generators (rule SIM002 of :mod:`repro.lint` enforces this).  Components either receive a stream
from their cluster, or default to :func:`named_stream`, whose seed
derivation is stable across interpreter runs — never the builtin
``hash()``, which is salted per process by ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from typing import Dict

#: Re-export so simulation modules need no direct ``import random``.
Random = random.Random

#: Project-wide default seed: the ICPP 2013 conference date, for flavor.
DEFAULT_SEED = 20130901


def stable_seed(*parts: "str | int") -> int:
    """A process-stable 32-bit seed derived from ``parts``.

    Chains CRC-32 over the string form of each part — unlike the
    builtin ``hash()``, the result is identical across interpreter
    runs, platforms, and ``PYTHONHASHSEED`` values.
    """
    acc = 0
    for part in parts:
        acc = zlib.crc32(str(part).encode("utf-8"), acc)
    return acc


def named_stream(name: str, seed: int = DEFAULT_SEED) -> random.Random:
    """A standalone deterministic stream dedicated to ``name``.

    The default RNG for components constructed without an explicit
    stream (e.g. a bare ``DataNode``): two processes building the same
    component get identical draws.
    """
    return random.Random(stable_seed(seed, name))


class RngRegistry:
    """Factory of named, independently-seeded random streams."""

    def __init__(self, seed: int = DEFAULT_SEED):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def stream(self, name: str) -> random.Random:
        """A ``random.Random`` dedicated to ``name`` (cheap scalar draws)."""
        if name not in self._streams:
            self._streams[name] = random.Random(self._derive(name))
        return self._streams[name]

    def fork(self, salt: str) -> "RngRegistry":
        """A registry whose streams are all independent of this one's."""
        return RngRegistry(self._derive(f"fork:{salt}"))
