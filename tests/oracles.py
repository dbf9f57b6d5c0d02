"""Independent brute-force oracles the fast implementations are checked against.

Everything here is deliberately naive (O(n^2) enumeration, full-batch
gradient descent, scalar finite differences, the losses as first written)
and shares no code with the package internals it verifies.
"""

from __future__ import annotations

import numpy as np


def pairwise_auc(scores, labels) -> float:
    """AUC-ROC by direct enumeration of (positive, negative) pairs; ties get half credit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def cutoff_average_precision(scores, labels) -> float:
    """Average precision by recomputing precision/recall at every distinct threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    thresholds = np.unique(scores)[::-1]
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        selected = scores >= t
        tp = int(((labels == 1) & selected).sum())
        precision = tp / int(selected.sum())
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def logistic_regression_auc(features, labels, steps: int = 2000, lr: float = 0.5) -> float:
    """Fit a plain full-batch logistic regression by gradient descent, return its train AUC."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    x = (x - x.mean(axis=0)) / np.maximum(x.std(axis=0), 1e-12)
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    w = np.zeros(xb.shape[1])
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-xb @ w))
        w -= lr * xb.T @ (p - y) / len(y)
    return pairwise_auc(xb @ w, y)


def central_difference(fn, x0: float, eps: float = 1e-6) -> float:
    """Scalar central finite difference of fn at x0."""
    return (fn(x0 + eps) - fn(x0 - eps)) / (2.0 * eps)


# The loss functions as they were before they shared one log-softmax core
# and before the cost loss evaluated only each row's own branch. The
# arithmetic is copied verbatim; the label checks are left out (the oracles
# only see valid labels) and the helpers carry a `_ref` prefix. The package's
# losses must agree with these bit for bit.


def _ref_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _ref_softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _ref_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_ce(logits, y):
    y = np.asarray(y, dtype=np.int64)
    b = logits.shape[0]
    logp = _ref_log_softmax(logits)
    loss = float(-logp[np.arange(b), y].mean())
    grad = np.exp(logp)
    grad[np.arange(b), y] -= 1.0
    return loss, grad / b


def ref_focal(logits, y, gamma=2.0):
    y = np.asarray(y, dtype=np.int64)
    if gamma == 0.0:
        return ref_ce(logits, y)
    b = logits.shape[0]
    rows = np.arange(b)
    logp = _ref_log_softmax(logits)
    p = np.exp(logp)
    p_true = p[rows, y]
    ce_i = -logp[rows, y]
    w = 1.0 - p_true
    wg = w**gamma
    loss = float((wg * ce_i).mean())
    with np.errstate(divide="ignore", invalid="ignore"):
        fac = gamma * w ** (gamma - 1.0) * p_true * ce_i
    fac = np.where(w > 0.0, fac, 0.0)
    onehot = np.zeros_like(p)
    onehot[rows, y] = 1.0
    grad = (p - onehot) * (fac + wg)[:, None]
    return loss, grad / b


def ref_dah_softmax(logits, y, deltas):
    y = np.asarray(y, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.float64)
    b = logits.shape[0]
    rows = np.arange(b)
    shifted = np.array(logits, dtype=np.float64)
    shifted[rows, y] -= deltas[y]
    logp = _ref_log_softmax(shifted)
    loss = float(-logp[rows, y].mean())
    grad = np.exp(logp)
    grad[rows, y] -= 1.0
    return loss, grad / b


def ref_cost_loss(logits, y, cp):
    """Both cost branches on every row, then a per-row pick; cp has log_cfp, theta and offset."""
    y = np.asarray(y, dtype=np.int64)
    b = logits.shape[0]
    rows = np.arange(b)
    c_fp = float(np.exp(cp.log_cfp))
    c_fn = cp.theta * c_fp + cp.offset
    amax = logits.argmax(axis=1)
    z = logits[rows, amax]

    pos = y == 1
    loss_i = np.where(pos, _ref_softplus(-c_fn * z), _ref_softplus(c_fp * z))
    sig_fn, sig_fp = _ref_sigmoid(-c_fn * z), _ref_sigmoid(c_fp * z)
    dz = np.where(pos, -c_fn * sig_fn, c_fp * sig_fp)
    d_cfn = np.where(pos, -z * sig_fn, 0.0)
    d_cfp = np.where(pos, 0.0, z * sig_fp)

    loss = float(loss_i.mean())
    grad = np.zeros_like(logits, dtype=np.float64)
    grad[rows, amax] = dz / b
    d_log_cfp = float((d_cfp + cp.theta * d_cfn).mean() * c_fp)
    return loss, grad, d_log_cfp


def ref_dah_hinge(logits, y, deltas):
    """The non-smooth density-aware hinge max(max_{j != y} z_j - z_y + delta_y, 0), mean over the batch.

    `dah_softmax` relaxes it: dah_softmax(t * z, y, t * deltas) / t tends to it as t grows.
    """
    y = np.asarray(y, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.float64)
    rows = np.arange(logits.shape[0])
    rivals = np.array(logits, dtype=np.float64)
    rivals[rows, y] = -np.inf
    margins = rivals.max(axis=1) - logits[rows, y] + deltas[y]
    return float(np.maximum(margins, 0.0).mean())


# The backbone and heads as they were before each bias was folded into its
# layer's matmul: `a @ W + b`, then a separate bias reduction in the
# backward pass. The arithmetic follows the unfolded code; the backward pass
# takes full-height upstream gradients, whose zero rows mask a head.


def ref_forward(params, x):
    """(pre-activations, activations, regular logits, balanced logits), unfolded."""
    span = params.resid_span
    pre, act, a = [], [], np.asarray(x, dtype=np.float64)
    for l, layer in enumerate(params.backbone):
        z = a @ layer.W + layer.b
        if span is not None and l == span[1]:
            z = z + act[span[0] - 1]
        a = np.maximum(z, 0.0)
        pre.append(z)
        act.append(a)
    hidden = act[-1]
    logits_regular = hidden @ params.head_regular.W + params.head_regular.b
    logits_balanced = hidden @ params.head_balanced.W + params.head_balanced.b
    return pre, act, logits_regular, logits_balanced


def ref_gradients(params, x, d_regular, d_balanced):
    """Parameter gradients in `flat()` order for full-height upstream gradients of both heads."""
    x = np.asarray(x, dtype=np.float64)
    pre, act, _, _ = ref_forward(params, x)
    hidden = act[-1]
    head_r = [hidden.T @ d_regular, d_regular.sum(axis=0)]
    d_hidden = d_regular @ params.head_regular.W.T + d_balanced @ params.head_balanced.W.T
    head_b = [hidden.T @ d_balanced, d_balanced.sum(axis=0)]

    n = len(params.backbone)
    span = params.resid_span
    skip = [None] * n
    backbone = [None] * n
    da = d_hidden
    for l in range(n - 1, -1, -1):
        if skip[l] is not None:
            da = da + skip[l]
        dz = da * (pre[l] > 0)
        a_in = act[l - 1] if l > 0 else x
        backbone[l] = [a_in.T @ dz, dz.sum(axis=0)]
        da = dz @ params.backbone[l].W.T
        if span is not None and l == span[1]:
            skip[span[0] - 1] = dz
    return [g for pair in backbone for g in pair] + head_r + head_b


# The sampler's draw as first written: per batch, the classes from
# `Generator.random` and then a row within each class from
# `Generator.integers`, regular stream before balanced on every step. This
# is the stream reference the block sampler must reproduce bit for bit.


def ref_class_draw(rng, cdf, counts, batch):
    """(classes, within-class rows) of one batch drawn through `Generator.random` and `Generator.integers`."""
    classes = cdf.searchsorted(rng.random(batch), side="right")
    return classes, rng.integers(0, counts[classes])


def ref_draw(sampler, cdf):
    """Row indices of one batch of `sampler`'s split, drawn from `sampler.rng` with the cdf's class weights."""
    classes, within = ref_class_draw(sampler.rng, cdf, sampler.counts, sampler.batch_size)
    return sampler.order[sampler.starts[classes] + within]


def ref_pair(sampler):
    """One step's stacked regular + balanced row indices, drawn batch by batch."""
    return np.concatenate((ref_draw(sampler, sampler.cdf_regular), ref_draw(sampler, sampler.cdf_balanced)))


def ref_draw_block(sampler):
    """Stand-in for `SamplerState._draw_block` that draws each pair through `ref_pair`."""
    return np.stack([ref_pair(sampler) for _ in range(sampler.block_pairs)])
