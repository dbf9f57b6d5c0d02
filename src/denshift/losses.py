"""Objective functions with exact logit-space gradients.

Every loss takes a batch of logits (B x C) and integer labels (B,) and
returns the mean loss together with d(loss)/d(logits), with the 1/B batch
reduction already folded into the gradient. The cost-matrix loss also
returns the derivative with respect to its trainable log false-positive
cost.

The density-aware hinge assigns class c the margin

    delta_c = margin_scale / count_c**(1/4)

so sparser classes get wider margins, and its softmax relaxation shifts
the true-class logit down by delta_c before a standard cross-entropy:

    sigma(z_c) = exp(z_c - delta_c) / (exp(z_c - delta_c) + sum_{j != c} exp(z_j))

The cost-matrix loss scales the largest logit by a false-negative cost on
positive instances and a false-positive cost on negatives,

    L = -y log sigmoid(c_fn * z_max) - (1 - y) log(1 - sigmoid(c_fp * z_max)),

with the constraint set {c_fp > 0, c_fn > 0, c_fn > theta * c_fp}
satisfied by construction through c_fp = exp(log_cfp) and
c_fn = theta * c_fp + offset; training moves log_cfp, not c_fp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedTaskError, ValidationError


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(logits))


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) without overflow
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_labels(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if logits.ndim != 2:
        raise ValidationError(f"logits must be 2-D, got shape {logits.shape}")
    if y.shape != (logits.shape[0],):
        raise ValidationError("labels must be one per logit row")
    if y.size and (y.min() < 0 or y.max() >= logits.shape[1]):
        raise ValidationError("label out of range for logit width")
    return y


def delta_margins(class_counts, margin_scale: float) -> np.ndarray:
    """Per-class margins margin_scale / count**(1/4); smaller classes get larger margins."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if (counts < 1).any():
        raise ValidationError("class counts must be >= 1")
    if margin_scale <= 0:
        raise ValidationError("margin_scale must be positive")
    return margin_scale / counts**0.25


def default_margin_scale(class_counts, max_margin: float = 0.5) -> float:
    """Scale chosen so the rarest class gets margin max_margin."""
    counts = np.asarray(class_counts, dtype=np.float64)
    return float(max_margin * counts.min() ** 0.25)


@dataclass(frozen=True)
class DahConfig:
    """Density-aware hinge settings: the scale and the margins it induces."""

    margin_scale: float
    deltas: np.ndarray

    @classmethod
    def from_counts(cls, class_counts, margin_scale: float | None = None) -> "DahConfig":
        """Build margins from training-split counts; default scale caps the max margin at 0.5."""
        if margin_scale is None:
            margin_scale = default_margin_scale(class_counts)
        return cls(margin_scale=margin_scale, deltas=delta_margins(class_counts, margin_scale))


@dataclass
class CostParams:
    """Trainable misclassification costs for binary tasks.

    log_cfp is the single trainable degree of freedom; theta and offset are
    fixed hyperparameters. The parameterization keeps both costs positive
    and the false-negative cost at least theta times the false-positive
    cost for any real log_cfp.
    """

    log_cfp: float = 0.0
    theta: float = 5.0
    offset: float = 0.01

    def __post_init__(self):
        if self.theta <= 0:
            raise ValidationError("theta must be positive")
        if self.offset < 0:
            raise ValidationError("offset must be non-negative")


def current_costs(cp: CostParams) -> tuple[float, float]:
    """Materialize (false-positive cost, false-negative cost) from the parameters."""
    c_fp = float(np.exp(cp.log_cfp))
    return c_fp, cp.theta * c_fp + cp.offset


def ce(logits: np.ndarray, y) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy, mean over the batch."""
    y = _check_labels(logits, y)
    b = logits.shape[0]
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(b), y].mean())
    grad = np.exp(logp)
    grad[np.arange(b), y] -= 1.0
    return loss, grad / b


def focal(logits: np.ndarray, y, gamma: float = 2.0) -> tuple[float, np.ndarray]:
    """Focal loss (1 - p_y)^gamma * CE; gamma=0 reduces to cross-entropy."""
    if gamma < 0:
        raise ValidationError("gamma must be >= 0")
    y = _check_labels(logits, y)
    if gamma == 0.0:
        return ce(logits, y)
    b = logits.shape[0]
    rows = np.arange(b)
    logp = _log_softmax(logits)
    p = np.exp(logp)
    p_true = p[rows, y]
    ce_i = -logp[rows, y]
    w = 1.0 - p_true
    wg = w**gamma
    loss = float((wg * ce_i).mean())

    # d/dz_j [(1-p)^g * CE] = (p_j - onehot_j) * (g (1-p)^(g-1) p CE + (1-p)^g);
    # when p_y == 1 both terms vanish faster than (1-p)^(g-1) diverges.
    with np.errstate(divide="ignore", invalid="ignore"):
        fac = gamma * w ** (gamma - 1.0) * p_true * ce_i
    fac = np.where(w > 0.0, fac, 0.0)
    onehot = np.zeros_like(p)
    onehot[rows, y] = 1.0
    grad = (p - onehot) * (fac + wg)[:, None]
    return loss, grad / b


def dah_softmax(logits: np.ndarray, y, deltas) -> tuple[float, np.ndarray]:
    """Relaxed density-aware hinge: cross-entropy with the true logit shifted down by its margin.

    The gradient is the softmax of the shifted logits minus the one-hot target.
    """
    y = _check_labels(logits, y)
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != (logits.shape[1],):
        raise ValidationError("need one margin per class")
    b = logits.shape[0]
    rows = np.arange(b)
    shifted = np.array(logits, dtype=np.float64)
    shifted[rows, y] -= deltas[y]
    logp = _log_softmax(shifted)
    loss = float(-logp[rows, y].mean())
    grad = np.exp(logp)
    grad[rows, y] -= 1.0
    return loss, grad / b


def dah_hinge(logits: np.ndarray, y, deltas) -> float:
    """Hinge form max(max_{j != y} z_j - z_y + delta_y, 0), mean over the batch."""
    y = _check_labels(logits, y)
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != (logits.shape[1],):
        raise ValidationError("need one margin per class")
    b, c = logits.shape
    if c < 2:
        raise ValidationError("hinge needs at least 2 classes")
    rows = np.arange(b)
    masked = np.array(logits, dtype=np.float64)
    masked[rows, y] = -np.inf
    rival = masked.max(axis=1)
    margins = rival - logits[rows, y] + deltas[y]
    return float(np.maximum(margins, 0.0).mean())


def cost_loss(logits: np.ndarray, y, cp: CostParams) -> tuple[float, np.ndarray, float]:
    """Cost-weighted binary loss on the largest logit of each row.

    Returns (loss, d/dlogits, d/dlog_cfp). The logit gradient flows to the
    arg-max entry of each row (first index on ties); the log_cfp gradient
    chains through both costs since c_fn = theta * c_fp + offset.
    """
    y = _check_labels(logits, y)
    if logits.shape[1] != 2:
        raise UnsupportedTaskError("cost matrix loss applies to binary prediction only")
    b = logits.shape[0]
    rows = np.arange(b)
    c_fp, c_fn = current_costs(cp)
    amax = logits.argmax(axis=1)
    z = logits[rows, amax]

    pos = y == 1
    loss_i = np.where(pos, _softplus(-c_fn * z), _softplus(c_fp * z))
    # d softplus(a*z)/dz = a*sigmoid(a*z); d/da = z*sigmoid(a*z)
    sig_fn, sig_fp = _sigmoid(-c_fn * z), _sigmoid(c_fp * z)
    dz = np.where(pos, -c_fn * sig_fn, c_fp * sig_fp)
    d_cfn = np.where(pos, -z * sig_fn, 0.0)
    d_cfp = np.where(pos, 0.0, z * sig_fp)

    loss = float(loss_i.mean())
    grad = np.zeros_like(logits, dtype=np.float64)
    grad[rows, amax] = dz / b
    d_log_cfp = float((d_cfp + cp.theta * d_cfn).mean() * c_fp)
    return loss, grad, d_log_cfp
