"""Deterministic random-number management for simulations.

Every stochastic component in the simulator (key choosers, think times,
client arrivals, ...) draws from a generator handed out by a single
:class:`RngFactory`.  The factory derives independent child streams from a
root seed using :class:`numpy.random.SeedSequence`, so:

* the same root seed reproduces the same simulation bit-for-bit, and
* adding a new consumer does not perturb the streams of existing ones,
  because each stream is keyed by a stable string name rather than by
  draw order.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .seed import DEFAULT_SEED

__all__ = ["RngFactory", "DEFAULT_SEED"]


class RngFactory:
    """Hands out named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed.  Two factories built with the same seed return
        identical streams for identical names.
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this factory was built with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so a component that stashes the stream and one that
        re-fetches it every call observe the same sequence.
        """
        if name not in self._streams:
            # Key the child stream by a stable hash of the name so that the
            # set of other consumers cannot influence this stream.
            digest = np.frombuffer(
                name.encode("utf-8").ljust(8, b"\0")[:8], dtype=np.uint64
            )[0]
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(int(digest),))
            self._streams[name] = np.random.default_rng(seq)
        return self._streams[name]

    def fork(self, salt: int) -> "RngFactory":
        """Return a new factory whose streams are independent of this one.

        Useful for running several repetitions of an experiment with
        related-but-distinct randomness: ``factory.fork(rep_index)``.
        """
        return RngFactory(seed=(self._seed * 1_000_003 + int(salt)) & 0xFFFFFFFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self._seed:#x}, streams={sorted(self._streams)})"
