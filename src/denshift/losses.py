"""Objective functions with exact logit-space gradients.

Every loss takes a batch of logits (B x C) and integer labels (B,), checks
the labels, and returns the mean loss together with d(loss)/d(logits), with
the 1/B batch reduction already folded into the gradient. `ce` and
`dah_softmax` also take logits with a leading head axis (H x B x C) and
labels (H x B): one call returns each head's mean loss (an (H,) float64
array) and the (H x B x C) gradient, each head's bit-equal to a 2-D call on
its rows, so a step calls such a term once for all heads. The cost-matrix
loss also returns the derivative with respect to its trainable log
false-positive cost.

Each loss skips its per-row label scan when its last argument `checked` is
True; the caller vouches for the labels (contiguous int64 class indices
in range, one per logit row). Its O(1) argument checks run either way.
`training.train_step` passes it on every call.

The three softmax losses and `metrics.nll` share one cross-entropy core: `ce`
is its plain case, `dah_softmax` lowers each true logit by its class margin (as
LDAM does, arXiv:1906.07413), `focal` weights each row by (1 - p_y)**gamma.

The density-aware hinge assigns class c the margin

    delta_c = margin_scale / count_c**(1/4)

so sparser classes get wider margins, and its softmax relaxation shifts
the true-class logit down by delta_c before a standard cross-entropy:

    sigma(z_c) = exp(z_c - delta_c) / (exp(z_c - delta_c) + sum_{j != c} exp(z_j))

The cost-matrix loss scales the largest logit by a false-negative cost on
positive instances and a false-positive cost on negatives,

    L = -y log sigmoid(c_fn * z_max) - (1 - y) log(1 - sigmoid(c_fp * z_max)),

with the constraint set {c_fp > 0, c_fn > 0, c_fn > theta * c_fp}
satisfied through c_fp = exp(log_cfp) and c_fn = theta * c_fp + offset
while both are positive finite floats (`current_costs` raises
NumericalError once they are not); training moves log_cfp, not c_fp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import NON_NEGATIVE, POSITIVE, class_labels
from .errors import NumericalError, UnsupportedTaskError, ValidationError


# Up to this many columns, folding np.maximum over the columns beats one np.maximum.reduce
# over the rows (1.1 against 3.6 us at 64 x 2 on a 2-vCPU x86_64); from 16 columns on at
# 64 rows it is slower.
_FOLD_MAX_COLUMNS = 8
_FLOAT_MAX = float(np.finfo(np.float64).max)


def _row_max(logits: np.ndarray) -> np.ndarray:
    """Each row's largest entry; both ways of finding it are exact for any class count."""
    if logits.shape[1] > _FOLD_MAX_COLUMNS:
        return np.maximum.reduce(logits, axis=1)
    top = logits[:, 0]
    for j in range(1, logits.shape[1]):
        top = np.maximum(top, logits[:, j], out=None if j == 1 else top)
    return top


def _true_entries(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Where each row's column-y entry sits in the row-major flattening (`ravel()`) of a (B x C) array.

    Writes through `a.ravel()[...]` reach `a` only when it is C-contiguous
    (otherwise ravel copies), so every array written this way is made C-ordered.
    """
    c = logits.shape[1]
    return np.arange(0, logits.shape[0] * c, c) + y


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.subtract(logits, _row_max(logits)[:, None], order="C")  # C-ordered for the flat writes
    exp = np.exp(shifted)  # floating even when the logits are integers
    total = np.add.reduce(exp, axis=1, keepdims=True)
    return np.subtract(shifted, np.log(total, out=total), out=exp)


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(logits))


def _check_labels(logits: np.ndarray, y, head_axis: bool = False) -> np.ndarray:
    """`y` as class labels shaped `logits.shape[:-1]`; the logits are 2-D, or 3-D (H x B x C) when `head_axis`."""
    if logits.ndim != 2 and not (head_axis and logits.ndim == 3):
        raise ValidationError(f"logits must be {'2-D or 3-D' if head_axis else '2-D'}, got shape {logits.shape}")
    y = class_labels(y, logits.shape[-1])
    if y.shape != logits.shape[:-1]:
        raise ValidationError(f"labels must be one per logit row, shaped {logits.shape[:-1]}, got {y.shape}")
    return y


def _softmax_ce(logits: np.ndarray, y: np.ndarray, deltas: np.ndarray | None = None, gamma: float = 0.0):
    """Mean CE with each true logit lowered by deltas[y] (unshifted when None), and d/dlogits.

    A gamma > 0 weights each row's CE by w**gamma, w = 1 - p_y (focal loss, arXiv:1708.02002).
    Logits with a head axis run as one batch of H*B rows; only the mean is taken per head.
    """
    shape = logits.shape
    if len(shape) == 3:
        logits, y = logits.reshape(-1, shape[2]), y.reshape(-1)
    b = shape[-2]
    true = _true_entries(logits, y)
    if deltas is not None:
        logits = np.array(logits, dtype=np.float64, order="C")
        logits.ravel()[true] -= deltas[y]
    logp = _log_softmax(logits)
    picked = logp.ravel()[true]  # a copy: the gradient overwrites logp
    grad = np.exp(logp, out=logp)
    if gamma > 0.0:
        p_true = grad.ravel()[true]
        w = 1.0 - p_true
        wg = w**gamma
        # d/dz_j [w^g * CE] = (p_j - onehot_j) * (g w^(g-1) p_y CE + w^g);
        # when p_y == 1 both terms vanish faster than w^(g-1) diverges.
        with np.errstate(divide="ignore", invalid="ignore"):
            fac = gamma * w ** (gamma - 1.0) * p_true * -picked
        picked = wg * picked
        grad.ravel()[true] -= 1.0
        grad *= (np.where(w > 0.0, fac, 0.0) + wg)[:, None]
    else:
        grad.ravel()[true] -= 1.0
    grad /= b
    if len(shape) == 2:
        return float(-np.add.reduce(picked) / b), grad
    return -np.add.reduce(picked.reshape(shape[:2]), axis=1) / b, grad.reshape(shape)


def delta_margins(class_counts, margin_scale: float | None = None) -> np.ndarray:
    """Per-class margins margin_scale / count**(1/4); smaller classes get larger margins.

    A None scale is 0.5 * min(count)**(1/4), so the rarest class gets margin 0.5.
    """
    counts = np.asarray(class_counts, dtype=np.float64)
    if (counts < 1).any():
        raise ValidationError("class counts must be >= 1")
    if margin_scale is None:
        margin_scale = float(0.5 * counts.min() ** 0.25)
    return POSITIVE.check("margin_scale", margin_scale) / counts**0.25


@dataclass
class CostParams:
    """Trainable misclassification costs for binary tasks.

    log_cfp is the single trainable degree of freedom; theta and offset are
    fixed hyperparameters. The parameterization keeps both costs positive
    and the false-negative cost at least theta times the false-positive
    cost while exp(log_cfp) neither underflows to 0.0 nor overflows c_fn.
    """

    log_cfp: float = 0.0
    theta: float = 5.0
    offset: float = 0.01

    def __post_init__(self):
        POSITIVE.check("theta", self.theta)
        NON_NEGATIVE.check("offset", self.offset)


def current_costs(cp: CostParams) -> tuple[float, float]:
    """(false-positive cost, false-negative cost); NumericalError unless both are positive finite floats."""
    c_fp = float(np.exp(cp.log_cfp))
    c_fn = cp.theta * c_fp + cp.offset
    if not (c_fp > 0.0 and c_fn <= _FLOAT_MAX):  # also false for NaN
        raise NumericalError(f"log_cfp={cp.log_cfp!r} gives costs c_fp={c_fp!r}, c_fn={c_fn!r}, not positive finite")
    return c_fp, c_fn


def ce(logits: np.ndarray, y, checked: bool = False) -> tuple[float | np.ndarray, np.ndarray]:
    """Softmax cross-entropy, mean over the batch (per head with a head axis). `checked`: see the module docstring."""
    return _softmax_ce(logits, y if checked else _check_labels(logits, y, head_axis=True))


def focal(logits: np.ndarray, y, gamma: float = 2.0, checked: bool = False) -> tuple[float, np.ndarray]:
    """Focal loss (1 - p_y)^gamma * CE; gamma=0 is `ce` bit for bit. `checked`: see the module docstring."""
    NON_NEGATIVE.check("gamma", gamma)
    return _softmax_ce(logits, y if checked else _check_labels(logits, y), gamma=gamma)


def dah_softmax(logits: np.ndarray, y, deltas, checked: bool = False) -> tuple[float | np.ndarray, np.ndarray]:
    """Relaxed density-aware hinge: cross-entropy with the true logit shifted down by its margin.

    The gradient is the softmax of the shifted logits minus the one-hot
    target; a head axis gets one mean loss per head, as in `ce`. `checked`:
    see the module docstring.
    """
    if not checked:
        y = _check_labels(logits, y, head_axis=True)
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != (logits.shape[-1],):
        raise ValidationError("need one margin per class")
    return _softmax_ce(logits, y, deltas)


def cost_loss(logits: np.ndarray, y, cp: CostParams, checked: bool = False) -> tuple[float, np.ndarray, float]:
    """Cost-weighted binary loss on the largest logit of each row.

    Returns (loss, d/dlogits, d/dlog_cfp). The logit gradient flows to the
    arg-max entry of each row (first index on ties); the log_cfp gradient
    chains through both costs since c_fn = theta * c_fp + offset.
    `checked`: see the module docstring; the costs are checked either way.
    """
    if not checked:
        y = _check_labels(logits, y)
    if logits.shape[1] != 2:
        raise UnsupportedTaskError("cost matrix loss applies to binary prediction only")
    b = logits.shape[0]
    c_fp, c_fn = current_costs(cp)
    top = _true_entries(logits, logits.argmax(axis=1))
    z = logits.ravel()[top]

    # only each row's own branch: softplus(u), u = a*z with a = -c_fn on positives, c_fp on negatives,
    # d/dz = a*sigmoid(u), d/da = z*sigmoid(u); one e = exp(-|u|) serves softplus and sigmoid
    pos = y == 1
    a = np.where(pos, -c_fn, c_fp)
    u = a * z
    e = np.exp(-np.abs(u))
    loss = float(np.add.reduce(np.maximum(u, 0.0) + np.log1p(e)) / b)
    sig = np.where(u >= 0.0, 1.0, e) / (1.0 + e)
    grad = np.zeros(logits.shape)
    grad.ravel()[top] = a * sig / b
    # d/dlog_cfp = c_fp * (d/dc_fp + theta * d/dc_fn); + 0.0 turns an all-zero -0.0 into 0.0
    d_cost = np.where(pos, -cp.theta, 1.0) * (z * sig)
    return loss, grad, float(np.add.reduce(d_cost) / b * c_fp) + 0.0
