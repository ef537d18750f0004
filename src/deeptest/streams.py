"""Counter-based random streams for reproducible Monte Carlo.

Every stochastic routine in this package draws from a :class:`RandomStream`,
a frozen (seed, stream_id) descriptor backed by the Philox counter-based
generator.  Substreams derived with :meth:`RandomStream.child` are
statistically independent, so replicate loops can be farmed out to any
number of workers without changing the draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    # Finalizer from the splitmix64 generator; bijective on 64-bit ints.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class RandomStream:
    """Immutable descriptor of one random substream.

    Parameters
    ----------
    seed : int
        Experiment-level seed, 64-bit unsigned.
    stream_id : int
        Substream selector, 64-bit unsigned.  Distinct ids give
        independent sequences under the Philox keying scheme.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0 <= self.stream_id <= _MASK64:
            raise ValueError(f"stream_id must be a 64-bit unsigned integer, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        """Fresh Generator positioned at the start of this substream."""
        key = (self.stream_id << 64) | self.seed
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RandomStream":
        """Derive the ``index``-th child substream.

        Children mix the parent's stream_id with the index through the
        splitmix64 finalizer, so nested derivations collide only with
        birthday-bound probability.
        """
        if index < 0:
            raise ValueError(f"child index must be nonnegative, got {index}")
        mixed = _splitmix64(self.stream_id ^ _splitmix64(index & _MASK64))
        return RandomStream(self.seed, mixed)


def derive_seed(stream: RandomStream) -> int:
    """Collapse a stream descriptor to a single 64-bit training seed."""
    return _splitmix64(stream.seed ^ _splitmix64(stream.stream_id))
