"""Bulk walks of a compiled decision tree over a seeded Mersenne Twister
stream.

A walk starts at the root.  At each branch it draws one 128-bit word with
``getrandbits(128)`` and goes to child 1 exactly when the word lies below
the branch's threshold.  Every walk reads exactly D words, D the tree's
depth: walk k reads words [kD, (k+1)D) and follows them from the root until
it reaches a leaf, which absorbs, so a walk that ends above depth D leaves
its last words unread.  One walk reads the same words as a walk that stops
drawing at its leaf.  ``TreeWalker`` takes the tree as flat per-node
arrays, which its caller builds (``simulate.Simulation.walker`` selects
them per input), and decides many walks at once with numpy.
"""

from __future__ import annotations

import random
from typing import Iterator

import numpy as np

from .core import ZeroConditioningMass

CHUNK = 1024  # walks decided per bulk step; bounds the working set


class TreeWalker:
    """A compiled tree as flat arrays, and the bulk walk over them.

    ``payload[k]`` is what a walk that ends at node k returns; node 0 is
    the root.  Per node, the arrays hold its children as
    ``child[2 * node + bit]``, its threshold in ``[0, 2^128)`` as high and
    low 64-bit words, and whether it is a leaf; ``depth`` is the tree's
    depth, the words each walk reads.  A walk at a branch goes to child 1
    exactly when its draw lies below the threshold; a certain branch has
    child 1 as both children.  Leaves and dead nodes are absorbing: both
    their children are themselves, and a walk that ends at a dead node, a
    branch that absorbs, raises.
    """

    def __init__(self, payload, child, hi, lo, leaves, depth: int):
        self.payload, self.child, self.hi, self.lo = payload, child, hi, lo
        self.dead = (child[::2] == np.arange(len(leaves))) & ~leaves
        self.depth = depth

    def counts(self, rng: random.Random, samples: int) -> list[int]:
        """How many of ``samples`` successive walks end at each node."""
        total = np.zeros(len(self.payload), np.int64)
        for end in self.ends(rng, samples):
            total += np.bincount(end, minlength=len(total))
        return total.tolist()

    def ends(self, rng: random.Random, samples: int) -> Iterator[np.ndarray]:
        """The end nodes of ``samples`` successive walks on the words of
        ``rng``, chunk by chunk.

        ``getrandbits(128 * k)`` is exactly k successive ``getrandbits(128)``
        draws, draw i in bits [128i, 128i + 128), so a chunk of walks reads
        its words in bulk as (low, high) pairs, walk by walk and level by
        level, and goes down all levels at once."""
        depth = self.depth
        while samples > 0:
            starts = min(CHUNK, samples)
            k = starts * depth
            words = np.frombuffer(rng.getrandbits(128 * k).to_bytes(16 * k, "little"), "<u8")
            words = words.reshape(starts, depth, 2)
            node = np.zeros(starts, np.intp)
            for level in range(depth):
                bit = _below(words[:, level, 1], words[:, level, 0], self.hi[node], self.lo[node])
                node = self.child[2 * node + bit]
            if self.dead[node].any():
                raise ZeroConditioningMass(
                    "conditioning event has zero probability during simulation"
                )
            yield node
            samples -= starts


def _below(hi, lo, t_hi, t_lo):
    """Whether each 128-bit draw, given as high and low words, lies below
    its threshold, given the same way."""
    return (hi < t_hi) | ((hi == t_hi) & (lo < t_lo))
