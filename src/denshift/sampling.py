"""Density-parameterized batch sampling.

Class j is drawn with probability n_j^q / sum_c n_c^q, then an instance
uniformly within the class, with replacement. q=1 reproduces regular
random sampling (instance-uniform), q=0 class-balanced sampling. A
SamplerState pairs one regular stream with one balanced stream, so each
step gets a `BatchPair`: both batches' row indices and the split they index.

The sampler draws one block of pairs ahead (an epoch of them, capped at
`_BLOCK_DRAWS` row draws) in a few array operations, and
`next_batch_pair` hands them out in order. The pairs are those of
drawing each batch in turn with `Generator.random` and
`Generator.integers`, so the sequence depends on the seed alone, not on
the call pattern; `sampler.rng` runs ahead of the pairs handed out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import PROBABILITY, Dataset, at_least
from .errors import ValidationError


@dataclass
class BatchPair:
    """One step's worth of draws: a regular batch stacked above a balanced one of the same size.

    `idx` holds the regular draw's row indices first, then the balanced
    draw's, into the split `ds`, whose labels its `Dataset` checked once.
    A step gathers only the rows it reads with `rows`.
    """

    ds: Dataset
    idx: np.ndarray
    n_regular: int

    def rows(self, stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Features and labels of the drawn rows before `stop` (all of them when None), in one gather."""
        idx = self.idx[:stop]
        return self.ds.features[idx], self.ds.labels[idx]


def class_probs(class_counts, q: float) -> np.ndarray:
    """Per-class sampling probabilities n_j^q / sum_c n_c^q."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.size == 0:
        raise ValidationError("empty class count vector")
    if (counts <= 0).any():
        raise ValidationError("class counts must be positive")
    weights = counts ** PROBABILITY.check("q", q)
    return weights / weights.sum()


def _class_cdf(class_counts, q: float) -> np.ndarray:
    """Cumulative class probabilities, normalised exactly as `Generator.choice` normalises p."""
    cdf = class_probs(class_counts, q).cumsum()
    cdf /= cdf[-1]
    return cdf


# Row draws (regular plus balanced) decoded in one block; bounds a block's arrays for any split size.
_BLOCK_DRAWS = 1 << 16
_U32 = 1 << 32


class _BlockDraws:
    """Draws blocks of (class, row within the class) for one or more class cdfs over the same class counts.

    `draw(rng, n_pairs, batch)` gives bit for bit the stream of `n_pairs` rounds of, per cdf
    in turn, `classes = cdf.searchsorted(rng.random(batch), side="right")` then
    `rng.integers(0, counts[classes])`, and leaves `rng` in the same state. For an even batch
    it decodes those draws from `random_raw` PCG64 words: a double is `(w >> 11) * 2**-53`, and
    a bounded int is numpy's 32-bit Lemire draw on half-words, low half first, with the bit
    generator's buffered half carried in and out. An odd batch, counts of 1 or of at least
    2**32, and a Lemire rejection take the per-draw path for that block.
    """

    def __init__(self, cdfs, counts):
        self.cdfs = tuple(cdfs)
        self.counts = np.asarray(counts)
        self.n = n = self.counts.astype(np.uint64)
        self.decodable = bool(n.max() < _U32)
        if not self.decodable:
            return
        # u >= cdf[j] exactly when the 53-bit integer w >> 11 >= ceil(cdf[j] * 2**53)
        self.bounds = [np.ceil(cdf[:-1] * 2.0**53).astype(np.uint64) for cdf in self.cdfs]
        # numpy redraws when the low half falls below (2**32 - n) % n; n == 1 draws no half at all
        self.threshold = np.where(n == 1, _U32, (_U32 - n) % n)
        self.max_threshold = self.threshold.max()

    def draw(self, rng: np.random.Generator, n_pairs: int, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """Classes and within-class rows, each shaped (n_pairs, number of cdfs, batch)."""
        bits = rng.bit_generator
        if self.decodable and batch % 2 == 0:
            saved = bits.state
            decoded = self._decode(bits, saved, n_pairs, batch)
            if decoded is not None:
                return decoded
            bits.state = saved
        classes = np.empty((n_pairs, len(self.cdfs), batch), dtype=np.int64)
        within = np.empty_like(classes)
        for pair in range(n_pairs):
            for s, cdf in enumerate(self.cdfs):
                classes[pair, s] = cdf.searchsorted(rng.random(batch), side="right")
                within[pair, s] = rng.integers(0, self.counts[classes[pair, s]])
        return classes, within

    def _decode(self, bits, state: dict, n_pairs: int, batch: int):
        """The raw-word path of `draw`; None when a Lemire redraw or a count of 1 shifts the words later draws read."""
        # words per stream and pair: `batch` doubles, then `batch // 2` words of two bounded-int halves
        raw = bits.random_raw(n_pairs * len(self.cdfs) * 3 * batch // 2).reshape(n_pairs, len(self.cdfs), -1)
        keys = raw[..., :batch] >> np.uint64(11)
        classes = np.stack([b.searchsorted(keys[:, s], side="right") for s, b in enumerate(self.bounds)], axis=1)
        halves = raw[..., batch:].astype("<u8", copy=False).view("<u4")
        if state["has_uint32"]:
            shifted = np.empty(halves.size + 1, dtype=np.uint32)
            shifted[0] = state["uinteger"]
            shifted[1:].reshape(halves.shape)[...] = halves
            halves, last = shifted[:-1].reshape(halves.shape), shifted[-1]
        else:
            last = halves[-1, -1, -1]
        m = halves * self.n[classes]
        low = m.astype(np.uint32)
        if low.min() < self.max_threshold and (low < self.threshold[classes]).any():
            return None
        after = bits.state
        after["uinteger"] = int(last)
        bits.state = after
        return classes, (m >> np.uint64(32)).view(np.int64)


class SamplerState:
    """Owns the random stream for one training loop over the split `ds`; not safe for concurrent mutation."""

    def __init__(
        self,
        ds: Dataset,
        batch_size: int,
        seed: int = 0,
        q_regular: float = 1.0,
        q_balanced: float = 0.0,
    ):
        at_least(1).check("batch_size", batch_size)
        if (ds.class_counts == 0).any():
            missing = [ds.class_names[c] for c in np.flatnonzero(ds.class_counts == 0)]
            raise ValidationError(f"training split is missing classes: {missing}")
        self.ds = ds
        self.batch_size = batch_size
        self.cdf_regular = _class_cdf(ds.class_counts, q_regular)
        self.cdf_balanced = _class_cdf(ds.class_counts, q_balanced)
        self.counts = ds.class_counts
        # row indices by class, class c from starts[c]; stable, as a draw picks a position within its class
        self.order = np.argsort(ds.labels, kind="stable")
        self.starts = np.cumsum(self.counts) - self.counts
        self.rng = np.random.default_rng(seed)
        self.block_pairs = max(1, min(math.ceil(ds.n / batch_size), _BLOCK_DRAWS // (2 * batch_size)))
        self._draws = _BlockDraws((self.cdf_regular, self.cdf_balanced), self.counts)
        self._block = np.empty((0, 2 * batch_size), dtype=np.int64)
        self._next = 0

    def _draw_block(self) -> np.ndarray:
        """Row indices of the next `block_pairs` pairs, one pair (regular, then balanced) per row."""
        classes, within = self._draws.draw(self.rng, self.block_pairs, self.batch_size)
        return self.order[self.starts[classes] + within].reshape(self.block_pairs, -1)


def next_batch_pair(sampler: SamplerState) -> BatchPair:
    """Hand out the sampler's next regular + balanced batch pair, drawing a new block when one is spent."""
    if sampler._next == len(sampler._block):
        sampler._block, sampler._next = sampler._draw_block(), 0
    idx = sampler._block[sampler._next]
    sampler._next += 1
    return BatchPair(sampler.ds, idx, sampler.batch_size)


def epoch_batches(sampler: SamplerState):
    """Yield ceil(N / batch_size) batch pairs, one epoch of regular draws."""
    for _ in range(math.ceil(sampler.ds.n / sampler.batch_size)):
        yield next_batch_pair(sampler)
