"""Walks of a compiled decision tree over a seeded Mersenne Twister stream.

A walk starts at the root.  At each branch it reads one 128-bit word, the
value of one ``getrandbits(128)`` draw, and goes to child 1 exactly when
the word lies below the branch's threshold.  ``TreeWalker`` takes the tree
as flat per-node arrays (children, thresholds and dead flags), which its
caller builds (``simulate.Simulation.walker`` selects them per input); it
returns end nodes, which the caller maps to leaves.

``TreeWalker.walk`` is one walk, in Python: it draws one word per branch
on its path.  ``TreeWalker.counts`` is a stream of walks, decided many at
once with numpy, in which every walk reads exactly D words, D the tree's
depth: walk k reads words [kD, (k+1)D) and follows them from the root
until it reaches a leaf, which absorbs, so a walk that ends above depth D
leaves its last words unread.  So a single walk reads the first words of
the first walk of a stream.  A stream takes its words from ``stream_words``,
which replays the caller's ``random.Random`` bit for bit on numpy's MT19937
(Matsumoto & Nishimura, ACM TOMACS 1998), the generator behind it.  Only a
stream imports numpy.random, so neither ``import qclab`` nor a single walk
loads it.
"""

from __future__ import annotations

import random
from typing import Iterator

import numpy as np

from .core import ZeroConditioningMass

CHUNK = 1024  # walks decided per bulk step; bounds the working set


class TreeWalker:
    """A compiled tree as flat arrays, and the walks over them.

    Node 0 is the root.  Per node, the arrays hold its children as
    ``child[2 * node + bit]``, its threshold in ``[0, 2^128)`` as high and
    low 64-bit words, and whether it is dead, a branch whose sampling law
    gives its subcube no mass; ``depth`` is the tree's depth, the words
    each walk of a stream reads.  A walk at a branch goes to child 1
    exactly when its draw lies below the threshold; a certain branch has
    child 1 as both children.  Leaves and dead nodes are absorbing: both
    their children are themselves, and a walk that ends at a dead node
    raises.  The caller maps end nodes to what they stand for.
    """

    def __init__(self, child, hi, lo, dead, depth: int):
        self.child, self.hi, self.lo, self.dead = child, hi, lo, dead
        self.depth = depth

    def walk(self, rng: random.Random) -> int:
        """The end node of one walk, which draws ``getrandbits(128)`` from
        ``rng`` once per branch on its path."""
        child, node = self.child, 0
        while (one := child.item(2 * node + 1)) != node:
            threshold = self.hi.item(node) << 64 | self.lo.item(node)
            node = one if rng.getrandbits(128) < threshold else child.item(2 * node)
        if self.dead.item(node):
            raise _dead_end()
        return node

    def counts(self, rng: random.Random, samples: int) -> list[int]:
        """How many of ``samples`` successive walks on the words of ``rng``
        end at each node."""
        total = np.zeros(len(self.dead), np.int64)
        for chunk in stream_words(rng, samples, self.depth):
            total += np.bincount(self.ends(chunk), minlength=len(total))
        return total.tolist()

    def ends(self, words: np.ndarray) -> np.ndarray:
        """The end nodes of walks on ``words``, a (walks, depth, 2) uint64
        array that holds each walk's words level by level as (low, high)
        64-bit halves; all walks go down each level at once."""
        node = np.zeros(len(words), np.intp)
        for level in range(self.depth):
            bit = _below(words[:, level, 1], words[:, level, 0], self.hi[node], self.lo[node])
            node = self.child[2 * node + bit]
        if self.dead[node].any():
            raise _dead_end()
        return node


def stream_words(rng: random.Random, samples: int, depth: int) -> Iterator[np.ndarray]:
    """The words of ``samples`` successive walks of ``depth`` words each,
    ``CHUNK`` walks at a time, as ``TreeWalker.ends`` reads them: word i is
    the i-th ``getrandbits(128)`` draw from ``rng``.

    An MT19937 started in ``rng``'s state (its 624 key words and position)
    gives the same 32-bit outputs, and a 128-bit draw is four of them, low
    first; read as little-endian pairs, they are the draw's low and high
    64-bit halves.  When the words run out, ``rng`` takes the generator's
    state, as if it had made the draws itself."""
    from numpy.random import MT19937  # here, so that only a stream loads numpy.random

    version, internal, gauss = rng.getstate()
    twister = MT19937(0)
    twister.state = {"bit_generator": "MT19937",
                     "state": {"key": internal[:-1], "pos": internal[-1]}}
    try:
        for start in range(0, samples, CHUNK):
            walks = min(CHUNK, samples - start)
            raw = twister.random_raw(4 * walks * depth)
            yield raw.astype("<u4").view("<u8").reshape(walks, depth, 2)
    finally:
        state = twister.state["state"]
        rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss))


def _dead_end() -> ZeroConditioningMass:
    return ZeroConditioningMass("conditioning event has zero probability during simulation")


def _below(hi, lo, t_hi, t_lo):
    """Whether each 128-bit draw, given as high and low words, lies below
    its threshold, given the same way."""
    return (hi < t_hi) | ((hi == t_hi) & (lo < t_lo))
