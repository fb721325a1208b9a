"""Deterministic substream derivation for reproducible parallel simulation.

Every random draw in the suite comes from a substream addressed by a path of
tags, e.g. ``substream(seed, "reject", "block", 7)`` or
``substream(seed, "smc", "step", k, "particle", i)``.  The address is hashed
into a 256-bit key for the Philox counter-based bit generator, so any unit of
work can be scheduled on any worker (or re-run in isolation) and still produce
exactly the numbers it would have produced in a serial run.
"""

import hashlib

import numpy as np

MAX_SEED = 2**64 - 1


class Substream(np.random.Generator):
    """A ``numpy.random.Generator`` that knows its ``address``, ``(seed, *path)``."""

    __slots__ = ("address",)


def substream(seed, *path):
    """Return an independent ``Substream`` for this address.

    Parameters
    ----------
    seed : int
        Run-level seed, 0 <= seed < 2**64.
    *path : str or int
        Module tag and indices (block, chain, step, particle, ...) naming
        the unit of work.
    """
    rng = Substream(np.random.Philox(key=stream_key(seed, *path)))
    rng.address = (seed, *path)
    return rng


def derive_seed(seed, *path):
    """64-bit child seed for nested runs (replicates, chains) at this address."""
    return stream_key(seed, *path) & MAX_SEED


def stream_key(seed, *path):
    """Hash (seed, *path) into the 128-bit Philox key for that address."""
    seed = int(seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    h = hashlib.sha256()
    h.update(seed.to_bytes(8, "little"))
    for part in path:
        if isinstance(part, str):
            encoded = part.encode("utf-8")
            h.update(b"s" + len(encoded).to_bytes(4, "little") + encoded)
        elif isinstance(part, (int, np.integer)):
            h.update(b"i" + int(part).to_bytes(8, "little", signed=True))
        else:
            raise TypeError(f"substream path parts must be str or int, got {part!r}")
    return int.from_bytes(h.digest()[:16], "little")
