"""Bulk walks of a compiled decision tree over a seeded Mersenne Twister
stream.

A walk starts at the root.  At each branch it draws one 128-bit word with
``getrandbits(128)`` and goes to child 1 exactly when the word lies below
the branch's threshold; successive walks read successive words.
``TreeWalker`` takes the tree as flat per-node arrays, which its caller
builds (``simulate.Simulation.walker`` selects them per input), and decides
many walks at once with numpy from the very same words, so every walk ends
where the one-at-a-time loop ends it, for every stream.
"""

from __future__ import annotations

import random
from typing import Iterator

import numpy as np

from .core import ZeroConditioningMass

CHUNK = 1024  # walk starts decided per bulk step; bounds the working set


class TreeWalker:
    """A compiled tree as flat arrays, and the bulk walk over them.

    ``payload[k]`` is what a walk that ends at node k returns; node 0 is
    the root.  Per node, the arrays hold its children as
    ``child[2 * node + bit]``, its threshold in ``[0, 2^128)`` as high and
    low 64-bit words, whether it is a leaf, and its depth.  A walk at a
    branch goes to child 1 exactly when its draw lies below the threshold;
    a certain branch has child 1 as both children.  Leaves and dead nodes
    are absorbing: both their children are themselves, and a walk that
    ends at a dead node, a branch that absorbs, raises.
    """

    def __init__(self, payload, child, hi, lo, leaves, depth):
        self.payload, self.child, self.hi, self.lo = payload, child, hi, lo
        self.dead = (child[::2] == np.arange(len(leaves))) & ~leaves
        # A walk draws as many words as its end's depth, and one that ends
        # at a dead node raises, so every walk starts a multiple of the
        # leaves' depths' gcd into the stream; a walk's step is its length
        # in those strides.
        self.depth = int(depth.max())
        self.stride = int(np.gcd.reduce(depth[leaves])) or 1
        self.step = np.maximum(depth // self.stride, 1)
        self.max_step = int(self.step[leaves].max(initial=1))

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
        draws, draw i in bits [128i, 128i + 128), so a chunk reads its words
        in bulk as (low, high) pairs.  A walk from every stride-th word of
        the chunk goes down all levels at once; the real walks are the chain from the
        chunk's first start, each one step after the last.  Words past the
        chain's end carry over to the next chunk."""
        stride, depth = self.stride, self.depth
        words = np.empty((0, 2), np.uint64)
        while samples > 0:
            starts = min(CHUNK, (samples - 1) * self.max_step + 1)
            need = (starts - 1) * stride + depth if depth else 0  # a lone leaf draws none
            if len(words) < need:
                k = need - len(words)
                fresh = np.frombuffer(rng.getrandbits(128 * k).to_bytes(16 * k, "little"), "<u8")
                fresh = fresh.reshape(k, 2)
                words = np.concatenate((words, fresh)) if len(words) else fresh
            node = np.zeros(starts, np.intp)
            for level in range(depth):
                draws = words[level: level + starts * stride: stride]
                bit = _below(draws[:, 1], draws[:, 0], self.hi[node], self.lo[node])
                node = self.child[2 * node + bit]
            if self.max_step == 1:  # every leaf is one stride deep: each start is a walk
                end, s = node, starts
            else:
                step = self.step[node].tolist()
                chain, s = [], 0
                while s < starts and len(chain) < samples:
                    chain.append(s)
                    s += step[s]
                end = node[chain]
            if self.dead[end].any():
                raise ZeroConditioningMass(
                    "conditioning event has zero probability during simulation"
                )
            yield end
            samples -= len(end)
            words = words[s * stride:]


def _below(hi, lo, t_hi, t_lo):
    """Whether each 128-bit draw, given as high and low words, lies below
    its threshold, given the same way."""
    return (hi < t_hi) | ((hi == t_hi) & (lo < t_lo))
