"""Imbalance-aware evaluation: ranking metrics, Brier skill, calibration, temperature scaling.

AUC-ROC is the Mann-Whitney statistic computed exactly from rank sums
(ties get half credit). AUC-PRC is non-interpolated average precision
with tied scores processed as one cutoff. Both read only tie groups, so they rank
with numpy's default sort and refuse non-finite scores. The Brier Skill Score
normalizes the Brier score against the prevalence predictor:
BSS = 1 - BS / BS_max where BS_max always predicts the event rate of the
evaluated set, so the prevalence predictor itself scores exactly 0 and
anything worse goes negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import POSITIVE, at_least, class_labels, freeze, write_table
from .errors import ValidationError
from .losses import _check_labels, _softmax_ce, softmax


@dataclass(frozen=True)
class ScoredSet:
    """Binary predictions: positive-class probabilities in [0,1] plus 0/1 outcomes."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        labels = class_labels(self.labels, 2)
        if scores.ndim != 1 or labels.shape != scores.shape:
            raise ValidationError("scores and labels must be equal-length vectors")
        if scores.size == 0:
            raise ValidationError("empty scored set")
        if not np.isfinite(scores).all() or scores.min() < 0.0 or scores.max() > 1.0:
            raise ValidationError("scores must be finite and in [0, 1]")
        freeze(self, scores=scores, labels=labels)

    @property
    def n(self) -> int:
        return self.scores.size

    @property
    def prevalence(self) -> float:
        return float(self.labels.mean())


@dataclass(frozen=True)
class CalibrationTable:
    """Equal-width probability bins with per-bin mean prediction and observed positive rate."""

    bin_lo: np.ndarray
    bin_hi: np.ndarray
    mean_pred: np.ndarray  # NaN for empty bins
    frac_pos: np.ndarray   # NaN for empty bins
    count: np.ndarray

    def to_csv(self, path) -> None:
        """One row per bin; an empty bin's NaN mean and fraction are empty cells."""
        write_table(path, ["bin_lo", "bin_hi", "mean_pred", "frac_pos", "count"],
                    zip(self.bin_lo.tolist(), self.bin_hi.tolist(), self.mean_pred.tolist(),
                        self.frac_pos.tolist(), self.count.tolist()))


def _tie_bounds(sorted_scores: np.ndarray) -> np.ndarray:
    """Start of each run of equal values in a sorted vector, then the vector's length."""
    edge = np.ones(sorted_scores.size + 1, dtype=bool)
    np.not_equal(sorted_scores[1:], sorted_scores[:-1], out=edge[1:-1])
    return np.flatnonzero(edge)


def _rank_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Mann-Whitney AUC from average ranks; exact half credit for ties."""
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUC-ROC needs both classes present")
    order = np.argsort(scores)
    bounds = _tie_bounds(scores[order])
    ranks = np.empty(scores.size, dtype=np.float64)
    # the tie group [start, stop) gets the average of the 1-based ranks start+1..stop
    ranks[order] = np.repeat(0.5 * (bounds[:-1] + bounds[1:] - 1) + 1.0, np.diff(bounds))
    rank_sum_pos = ranks[positives].sum()
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auc_roc(s: ScoredSet) -> float:
    """P(score_pos > score_neg) + half the tie probability."""
    return _rank_auc(s.scores, s.labels == 1)


def auc_prc(s: ScoredSet) -> float:
    """Non-interpolated average precision; equal scores form a single cutoff."""
    n_pos = int(s.labels.sum())
    if n_pos == 0:
        raise ValidationError("AUC-PRC needs at least one positive")
    order = np.argsort(-s.scores)
    bounds = _tie_bounds(s.scores[order])
    tp_group = np.add.reduceat(s.labels[order], bounds[:-1])
    terms = (tp_group / n_pos) * (np.cumsum(tp_group) / bounds[1:])
    # cumsum adds left to right like a running sum; np.sum's pairwise order would change the last bits
    return float(np.cumsum(terms)[-1])


def brier(s: ScoredSet) -> float:
    """Mean squared error between predicted probability and outcome."""
    return float(((s.scores - s.labels) ** 2).mean())


def bss(s: ScoredSet) -> float:
    """Skill relative to the prevalence predictor: 1 - BS / BS_max."""
    pi = s.prevalence
    bs_max = float(((pi - s.labels) ** 2).mean())
    if bs_max == 0.0:
        raise ValidationError("BSS undefined: labels are single-class")
    return 1.0 - brier(s) / bs_max


def score_report(s: ScoredSet) -> dict:
    """The headline metric bundle for one split."""
    return {
        "auc_roc": auc_roc(s),
        "auc_prc": auc_prc(s),
        "brier": brier(s),
        "bss": bss(s),
        "n": s.n,
        "prevalence": s.prevalence,
    }


def split_report(probs: np.ndarray, labels) -> dict:
    """`score_report` of the positive column for binary probabilities, else one-vs-rest AUCs."""
    if probs.shape[1] == 2:
        return score_report(ScoredSet(probs[:, 1], labels))
    macro, micro = macro_micro_auc(probs, labels)
    return {"macro_auc": macro, "micro_auc": micro, "n": probs.shape[0]}


def calibration_bins(s: ScoredSet, n_bins: int = 10) -> CalibrationTable:
    """Equal-width bins on [0,1]; the last bin is right-closed; empty bins keep NaN fractions."""
    at_least(1).check("n_bins", n_bins)
    idx = np.minimum((s.scores * n_bins).astype(np.int64), n_bins - 1)
    count = np.bincount(idx, minlength=n_bins).astype(np.int64)
    sum_pred = np.bincount(idx, weights=s.scores, minlength=n_bins)
    sum_pos = np.bincount(idx, weights=s.labels.astype(np.float64), minlength=n_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_pred = np.where(count > 0, sum_pred / count, np.nan)
        frac_pos = np.where(count > 0, sum_pos / count, np.nan)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    return CalibrationTable(edges[:-1], edges[1:], mean_pred, frac_pos, count)


def macro_auc(score_matrix: np.ndarray, labels) -> float:
    """Unweighted mean of the one-vs-rest AUC-ROC of each class of N x C scores with N class labels."""
    scores = np.asarray(score_matrix, dtype=np.float64)
    labels = _check_labels(scores, labels)
    if not np.isfinite(scores).all():
        raise ValidationError("scores must be finite")
    per_class = []
    for c in range(scores.shape[1]):
        pos = labels == c
        if not pos.any() or pos.all():
            raise ValidationError(f"class {c} absent (or exhaustive) in labels")
        per_class.append(_rank_auc(scores[:, c], pos))
    return float(np.mean(per_class))


def macro_micro_auc(score_matrix: np.ndarray, labels) -> tuple[float, float]:
    """One-vs-rest AUCs for N x C multi-class scores with N class labels.

    macro: `macro_auc`; micro: AUC-ROC over the flattened (score, indicator)
    pairs of all classes.
    """
    scores = np.asarray(score_matrix, dtype=np.float64)
    labels = _check_labels(scores, labels)
    onehot = labels[:, None] == np.arange(scores.shape[1])
    return macro_auc(scores, labels), _rank_auc(scores.reshape(-1), onehot.reshape(-1))


def nll(logits: np.ndarray, labels, temperature: float = 1.0) -> float:
    """Mean negative log-likelihood of softmax(logits / T): the cross-entropy of the scaled logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = _check_labels(logits, labels)
    return _softmax_ce(logits / POSITIVE.check("temperature", temperature), labels)[0]


def temperature_fit(logits: np.ndarray, labels) -> float:
    """Temperature minimizing validation NLL, by golden-section search on [0.05, 20] to a width of 1e-4.

    Never returns a temperature worse than 1.0: if the search cannot beat
    the unscaled NLL, 1.0 is returned, so applying the fit weakly improves
    likelihood by construction.
    """
    labels = _check_labels(np.asarray(logits), labels)
    if np.unique(labels).size < 2:
        raise ValidationError("temperature fit needs at least two classes in the labels")
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.05, 20.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = nll(logits, labels, c), nll(logits, labels, d)
    while b - a > 1e-4:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = nll(logits, labels, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = nll(logits, labels, d)
    t = 0.5 * (a + b)
    if nll(logits, labels, t) > nll(logits, labels, 1.0):
        return 1.0
    return float(t)


def temperature_apply(logits: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(logits / T); T=1 leaves probabilities unchanged."""
    return softmax(np.asarray(logits, dtype=np.float64) / POSITIVE.check("temperature", temperature))
