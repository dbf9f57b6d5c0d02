"""Density-parameterized batch sampling.

Class j is drawn with probability n_j^q / sum_c n_c^q, then an instance
uniformly within the class, with replacement. q=1 reproduces regular
random sampling (instance-uniform), q=0 class-balanced sampling. A
SamplerState pairs one regular stream with one balanced stream so the
decoupled trainer gets both batches per step, stacked in one index array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import PROBABILITY, Dataset, at_least
from .errors import ValidationError


@dataclass
class BatchPair:
    """One step's worth of draws: a regular batch stacked above a balanced one.

    `idx` holds the regular draw's row indices first, then the balanced
    draw's; they index `features` and `labels`, the whole split. A step
    gathers only the rows it reads with `rows`.
    """

    features: np.ndarray
    labels: np.ndarray
    idx: np.ndarray
    n_regular: int

    def rows(self, stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Features and labels of the drawn rows before `stop` (all of them when None), in one gather."""
        idx = self.idx[:stop]
        return self.features[idx], self.labels[idx]


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
        self.counts = ds.class_counts.copy()
        # row indices grouped by class (ascending within a class); class c starts at starts[c]
        self.order = np.argsort(ds.labels, kind="stable")
        self.starts = np.cumsum(self.counts) - self.counts
        self.rng = np.random.default_rng(seed)

    def _draw(self, cdf: np.ndarray) -> np.ndarray:
        """Same draws as rng.choice(n_classes, p=probs) then a uniform row within each class."""
        classes = cdf.searchsorted(self.rng.random(self.batch_size), side="right")
        within = self.rng.integers(0, self.counts[classes])
        return self.order[self.starts[classes] + within]


def next_batch_pair(sampler: SamplerState) -> BatchPair:
    """Draw one regular batch and one balanced batch of the sampler's split, with replacement."""
    reg_idx = sampler._draw(sampler.cdf_regular)
    bal_idx = sampler._draw(sampler.cdf_balanced)
    ds = sampler.ds
    return BatchPair(ds.features, ds.labels, np.concatenate((reg_idx, bal_idx)), reg_idx.size)


def epoch_batches(sampler: SamplerState):
    """Yield ceil(N / batch_size) batch pairs, one epoch of regular draws."""
    for _ in range(math.ceil(sampler.ds.n / sampler.batch_size)):
        yield next_batch_pair(sampler)
