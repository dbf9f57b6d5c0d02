"""Imbalance-aware evaluation: ranking metrics, Brier skill, calibration, temperature scaling.

AUC-ROC is the Mann-Whitney statistic computed exactly from rank sums
(ties get half credit). AUC-PRC is non-interpolated average precision
with tied scores processed as one cutoff. The Brier Skill Score
normalizes the Brier score against the prevalence predictor:
BSS = 1 - BS / BS_max where BS_max always predicts the event rate of the
evaluated set, so the prevalence predictor itself scores exactly 0 and
anything worse goes negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import write_table
from .errors import ValidationError
from .losses import _log_softmax, softmax


@dataclass(frozen=True)
class ScoredSet:
    """Binary predictions: positive-class probabilities in [0,1] plus 0/1 outcomes."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if scores.ndim != 1 or labels.shape != scores.shape:
            raise ValidationError("scores and labels must be equal-length vectors")
        if scores.size == 0:
            raise ValidationError("empty scored set")
        if not np.isfinite(scores).all() or scores.min() < 0.0 or scores.max() > 1.0:
            raise ValidationError("scores must be finite and in [0, 1]")
        fractional = labels is not self.labels and not np.array_equal(labels, self.labels)
        if fractional or np.maximum.reduce(labels.view(np.uint64)) > 1:  # a negative label wraps to a huge value
            raise ValidationError("labels must be 0/1")
        scores.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

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
    order = np.argsort(scores, kind="stable")
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
    order = np.argsort(-s.scores, kind="stable")
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
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = probs.shape[1]
    if n_classes == 2:
        return score_report(ScoredSet(probs[:, 1], labels))
    macro, micro = macro_micro_auc(probs, np.eye(n_classes)[labels])
    return {"macro_auc": macro, "micro_auc": micro, "n": labels.size}


def calibration_bins(s: ScoredSet, n_bins: int = 10) -> CalibrationTable:
    """Equal-width bins on [0,1]; the last bin is right-closed; empty bins keep NaN fractions."""
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    idx = np.minimum((s.scores * n_bins).astype(np.int64), n_bins - 1)
    count = np.bincount(idx, minlength=n_bins).astype(np.int64)
    sum_pred = np.bincount(idx, weights=s.scores, minlength=n_bins)
    sum_pos = np.bincount(idx, weights=s.labels.astype(np.float64), minlength=n_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_pred = np.where(count > 0, sum_pred / count, np.nan)
        frac_pos = np.where(count > 0, sum_pos / count, np.nan)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    return CalibrationTable(edges[:-1], edges[1:], mean_pred, frac_pos, count)


def macro_auc(score_matrix: np.ndarray, label_matrix: np.ndarray) -> float:
    """Unweighted mean of the one-vs-rest AUC-ROC of each class of single-label N x C scores."""
    scores = np.asarray(score_matrix, dtype=np.float64)
    labels = np.asarray(label_matrix, dtype=np.float64)
    if scores.ndim != 2 or scores.shape != labels.shape:
        raise ValidationError("score and label matrices must share an N x C shape")
    if not np.isin(labels, (0.0, 1.0)).all() or not (labels.sum(axis=1) == 1.0).all():
        raise ValidationError("label matrix must be one-hot")
    per_class = []
    for c in range(scores.shape[1]):
        pos = labels[:, c] == 1.0
        if not pos.any() or pos.all():
            raise ValidationError(f"class {c} absent (or exhaustive) in labels")
        per_class.append(_rank_auc(scores[:, c], pos))
    return float(np.mean(per_class))


def macro_micro_auc(score_matrix: np.ndarray, label_matrix: np.ndarray) -> tuple[float, float]:
    """One-vs-rest AUCs for single-label multi-class scores.

    macro: `macro_auc`; micro: AUC-ROC over the flattened (score, indicator)
    pairs of all classes.
    """
    macro = macro_auc(score_matrix, label_matrix)
    scores = np.asarray(score_matrix, dtype=np.float64).reshape(-1)
    labels = np.asarray(label_matrix, dtype=np.float64).reshape(-1)
    return macro, _rank_auc(scores, labels == 1.0)


def nll(logits: np.ndarray, labels, temperature: float = 1.0) -> float:
    """Mean negative log-likelihood of softmax(logits / T)."""
    if temperature <= 0:
        raise ValidationError("temperature must be positive")
    labels = np.asarray(labels, dtype=np.int64)
    logp = _log_softmax(np.asarray(logits, dtype=np.float64) / temperature)
    return float(-logp[np.arange(labels.size), labels].mean())


def temperature_fit(logits: np.ndarray, labels, lo: float = 0.05, hi: float = 20.0,
                    tol: float = 1e-4) -> float:
    """Temperature minimizing validation NLL, by golden-section search on [lo, hi].

    Never returns a temperature worse than 1.0: if the search cannot beat
    the unscaled NLL, 1.0 is returned, so applying the fit weakly improves
    likelihood by construction.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if np.unique(labels).size < 2:
        raise ValidationError("temperature fit needs at least two classes in the labels")
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = nll(logits, labels, c), nll(logits, labels, d)
    while b - a > tol:
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
    if temperature <= 0:
        raise ValidationError("temperature must be positive")
    return softmax(np.asarray(logits, dtype=np.float64) / temperature)
