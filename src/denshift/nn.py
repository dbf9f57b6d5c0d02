"""Dense backbone with two classifier heads and hand-derived reverse-mode gradients.

The architecture is fixed by construction: `depth` weight matrices per
head path, ReLU hidden layers of equal width, and one residual skip
block spanning two middle hidden layers (h_out = relu(W2 relu(W1 h) + b2 + h)).
Two heads share the backbone; `backward` routes each head's upstream
gradient only to that head, and the backbone accumulates the sum of
whatever flows from unmasked heads. A head's upstream gradient may cover
only a block of the batch's rows (the regular head the first rows, the
balanced head the last), so one pass over two stacked batches trains
each head on its own batch. Everything is float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import NormStats, write_table
from .errors import NumericalError, ValidationError

CHECKPOINT_VERSION = "denshift-checkpoint-1"
_NORM_EPS = 1e-12  # guards division when a hidden row or weight column is exactly zero


class DenseLayer:
    """One affine map a @ W + b, held as the (d_in + 1, d_out) matrix Wb = [W; b]; W and b are views of it."""

    def __init__(self, Wb: np.ndarray):
        self.Wb, self.W, self.b = Wb, Wb[:-1], Wb[-1]


@dataclass(frozen=True)
class Layout:
    """Where each layer's [W; b] matrix sits in a flat vector: W row-major, then b, layer by layer."""

    slots: tuple[tuple[int, int, tuple[int, int]], ...]  # (start, stop, (d_in + 1, d_out)) per layer

    @classmethod
    def of(cls, weight_shapes) -> "Layout":
        slots, start = [], 0
        for d_in, d_out in weight_shapes:
            slots.append((start, start + (d_in + 1) * d_out, (d_in + 1, d_out)))
            start = slots[-1][1]
        return cls(tuple(slots))

    @property
    def size(self) -> int:
        return self.slots[-1][1]

    def bind(self, vector: np.ndarray) -> tuple[list[DenseLayer], DenseLayer, DenseLayer]:
        """Views into `vector`: the backbone layers, the regular head, the balanced head."""
        layers = [DenseLayer(vector[start:stop].reshape(shape)) for start, stop, shape in self.slots]
        return layers[:-2], layers[-2], layers[-1]


@dataclass
class _LayerVector:
    """Backbone layers and two heads whose arrays are views into one contiguous float64 vector."""

    vector: np.ndarray
    layout: Layout
    backbone: list[DenseLayer] = field(init=False, repr=False)
    head_regular: DenseLayer = field(init=False, repr=False)
    head_balanced: DenseLayer = field(init=False, repr=False)

    def __post_init__(self):
        self.backbone, self.head_regular, self.head_balanced = self.layout.bind(self.vector)

    # pickle and deepcopy would copy each view apart from `vector`; store the vector, rebind on load
    def __getstate__(self):
        views = ("backbone", "head_regular", "head_balanced")
        return {k: v for k, v in self.__dict__.items() if k not in views}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()

    def flat(self) -> list[np.ndarray]:
        """Live views in fixed order: backbone (W,b)*, regular head, balanced head."""
        layers = (*self.backbone, self.head_regular, self.head_balanced)
        return [a for layer in layers for a in (layer.W, layer.b)]


@dataclass
class ModelParams(_LayerVector):
    """Backbone + two heads. Mutable: the training loop updates `vector` in place."""

    resid_span: tuple[int, int] | None = None
    normalize_balanced: bool = False
    trained_heads: tuple[str, ...] | None = None

    @classmethod
    def pack(cls, layers: list[tuple[np.ndarray, np.ndarray]], resid_span, normalize_balanced: bool = False,
             trained_heads: tuple[str, ...] | None = None) -> "ModelParams":
        """Copy (W, b) pairs (the backbone, then the regular head, then the balanced head) into one new vector."""
        vector = np.concatenate([a.ravel() for W, b in layers for a in (W, b)], dtype=np.float64)
        return cls(vector, Layout.of(W.shape for W, _ in layers), resid_span, normalize_balanced, trained_heads)

    @property
    def input_dim(self) -> int:
        return self.backbone[0].W.shape[0]

    @property
    def n_classes(self) -> int:
        return self.head_regular.W.shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(self.vector.copy(), self.layout, self.resid_span,
                           self.normalize_balanced, self.trained_heads)


@dataclass
class ForwardTrace:
    """Cached activations from one forward pass, enough for an exact backward pass.

    `act[l]` is backbone layer l's input (act[0] the batch) with a trailing
    column of ones. A head's logits are None when the pass did not compute them.
    """

    act: list[np.ndarray]
    logits_regular: np.ndarray | None
    logits_balanced: np.ndarray | None = None
    # populated only when the balanced head normalizes hidden/weight vectors
    hidden_norms: np.ndarray | None = None
    hidden_unit: np.ndarray | None = None
    bal_w_norms: np.ndarray | None = None
    bal_w_unit: np.ndarray | None = None

    @property
    def hidden(self) -> np.ndarray:
        """The last hidden representation (the heads' input), without its ones column."""
        return self.act[-1][:, :-1]


class Gradients(_LayerVector):
    """Parameter gradients laid out like `ModelParams.vector`, with matching per-layer views."""


def init_mlp(
    input_dim: int,
    hidden: int = 28,
    depth: int = 4,
    n_classes: int = 2,
    seed: int = 0,
    normalize_balanced: bool = False,
) -> ModelParams:
    """Seeded model: depth weight matrices per head path, uniform(+-1/sqrt(fan_in)) weights, zero biases."""
    if min(input_dim, hidden, n_classes) < 1 or depth < 2:
        raise ValidationError("dims must be positive and depth >= 2")
    rng = np.random.default_rng(seed)
    n_backbone = depth - 1

    def dense(d_in, d_out):
        bound = 1.0 / np.sqrt(d_in)
        return rng.uniform(-bound, bound, size=(d_in, d_out)), np.zeros(d_out)

    backbone = [dense(input_dim, hidden)]
    backbone += [dense(hidden, hidden) for _ in range(n_backbone - 1)]
    span = None
    if n_backbone >= 3:
        m = (n_backbone - 1) // 2
        span = (m, m + 1)
    heads = [dense(hidden, n_classes), dense(hidden, n_classes)]
    return ModelParams.pack(backbone + heads, span, normalize_balanced)


def _with_ones(rows: int, width: int) -> np.ndarray:
    """An uninitialised (rows, width + 1) buffer whose last column is 1."""
    buf = np.empty((rows, width + 1))
    buf[:, width] = 1.0
    return buf


def forward(params: ModelParams, x: np.ndarray, head: str | None = None) -> ForwardTrace:
    """Run a batch through the backbone and one head ("regular"/"balanced") or both (None), caching activations.

    Each affine map is one GEMM: a layer writes `a @ [W; b]` into the first
    columns of a buffer whose last column is 1, and ReLU in place keeps the ones.
    """
    if head not in (None, "regular", "balanced"):
        raise ValidationError(f"unknown head {head!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValidationError(f"input shape {x.shape} does not match input_dim {params.input_dim}")
    rows, span = x.shape[0], params.resid_span
    a = _with_ones(rows, x.shape[1])
    a[:, :-1] = x
    act = [a]
    for l, layer in enumerate(params.backbone):
        a = _with_ones(rows, layer.W.shape[1])
        z = np.matmul(act[-1], layer.Wb, out=a[:, :-1])
        if span is not None and l == span[1]:
            z += act[span[0]][:, :-1]
        np.maximum(a, 0.0, out=a)
        act.append(a)
    trace = ForwardTrace(act, a @ params.head_regular.Wb if head != "balanced" else None)
    if head == "regular":
        return trace
    if params.normalize_balanced:
        hidden = trace.hidden
        r = np.sqrt((hidden**2).sum(axis=1, keepdims=True))
        trace.hidden_norms = np.maximum(r, _NORM_EPS)
        trace.hidden_unit = hidden / trace.hidden_norms
        s = np.sqrt((params.head_balanced.W**2).sum(axis=0, keepdims=True))
        trace.bal_w_norms = np.maximum(s, _NORM_EPS)
        trace.bal_w_unit = params.head_balanced.W / trace.bal_w_norms
        trace.logits_balanced = trace.hidden_unit @ trace.bal_w_unit + params.head_balanced.b
    else:
        trace.logits_balanced = a @ params.head_balanced.Wb
    return trace


def backward(
    params: ModelParams,
    trace: ForwardTrace,
    d_logits_regular: np.ndarray | None = None,
    d_logits_balanced: np.ndarray | None = None,
    out: Gradients | None = None,
) -> Gradients:
    """Exact parameter gradients, written into `out` (a new buffer when None) and returned.

    Each head's upstream gradient covers a block of the trace's rows (the
    regular head's the first rows, the balanced head's the last), so one
    stacked pass trains each head on its own batch; None masks a head. The
    backbone gets the sum over both blocks; rows neither covers add nothing.
    Each layer's dW and db come from one GEMM, `[a_in, 1].T @ dz`, written
    into the gradient's [W; b] view.
    """
    hidden = trace.act[-1]  # with its ones column
    n_rows = hidden.shape[0]
    grads = Gradients(np.empty(params.layout.size), params.layout) if out is None else out
    # each head writes its own rows of d_hidden; uncovered rows get 0, an overlapping block adds
    n_reg = 0 if d_logits_regular is None else d_logits_regular.shape[0]
    start_bal = n_rows if d_logits_balanced is None else n_rows - d_logits_balanced.shape[0]
    overlap = start_bal < n_reg
    d_hidden = np.empty_like(trace.hidden)
    d_hidden[n_reg:n_rows if overlap else start_bal] = 0.0

    if d_logits_regular is None:
        grads.head_regular.Wb.fill(0.0)
    else:
        np.matmul(hidden[:n_reg].T, d_logits_regular, out=grads.head_regular.Wb)
        np.matmul(d_logits_regular, params.head_regular.W.T, out=d_hidden[:n_reg])

    if d_logits_balanced is None:
        grads.head_balanced.Wb.fill(0.0)
    else:
        rows = slice(start_bal, n_rows)
        block = np.empty((n_rows - start_bal, d_hidden.shape[1])) if overlap else d_hidden[rows]
        if params.normalize_balanced:
            np.add.reduce(d_logits_balanced, axis=0, out=grads.head_balanced.b)
            h_unit, w_unit = trace.hidden_unit[rows], trace.bal_w_unit
            d_w_unit = h_unit.T @ d_logits_balanced
            # project out the radial component of each unit vector's gradient
            np.divide(d_w_unit - w_unit * (w_unit * d_w_unit).sum(axis=0, keepdims=True),
                      trace.bal_w_norms, out=grads.head_balanced.W)
            d_h_unit = d_logits_balanced @ w_unit.T
            np.divide(d_h_unit - h_unit * (h_unit * d_h_unit).sum(axis=1, keepdims=True),
                      trace.hidden_norms[rows], out=block)
        else:
            np.matmul(hidden[rows].T, d_logits_balanced, out=grads.head_balanced.Wb)
            np.matmul(d_logits_balanced, params.head_balanced.W.T, out=block)
        if overlap:
            d_hidden[rows] += block

    n_backbone = len(params.backbone)
    skip_extra: list[np.ndarray | None] = [None] * n_backbone
    span = params.resid_span
    da = d_hidden
    for l in range(n_backbone - 1, -1, -1):
        if skip_extra[l] is not None:
            da += skip_extra[l]  # da is this pass's own array
        dz = np.multiply(da, trace.act[l + 1][:, :-1] > 0, out=da)
        np.matmul(trace.act[l].T, dz, out=grads.backbone[l].Wb)
        if l > 0:  # the input's own gradient is never needed
            da = dz @ params.backbone[l].W.T
        if span is not None and l == span[1]:
            skip_extra[span[0] - 1] = dz
    return grads


@dataclass
class OptState:
    """SGD or bias-corrected Adam over one flat vector; Adam's moments and two scratch vectors match it."""

    kind: str
    lr: float
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @classmethod
    def for_vector(cls, vector: np.ndarray, kind: str = "adam", lr: float = 1e-3) -> "OptState":
        if kind not in ("sgd", "adam"):
            raise ValidationError(f"unknown optimizer {kind!r}")
        state = cls(kind=kind, lr=lr, scratch=(np.empty_like(vector), np.empty_like(vector)))
        if kind == "adam":
            state.m, state.v = np.zeros_like(vector), np.zeros_like(vector)
        return state


def opt_step(vector: np.ndarray, grad: np.ndarray, opt: OptState) -> np.ndarray:
    """Update `vector` in place from `grad` (same shape) and return it, allocating nothing."""
    if grad.shape != vector.shape:
        raise ValidationError(f"gradient shape {grad.shape} does not match parameters {vector.shape}")
    s, t = opt.scratch
    if opt.kind == "sgd":
        vector -= np.multiply(grad, opt.lr, out=s)
        return vector
    opt.step += 1
    m, v = opt.m, opt.v
    m *= opt.beta1
    m += np.multiply(grad, 1.0 - opt.beta1, out=s)  # m = b1*m + (1-b1)*g
    v *= opt.beta2
    v += np.multiply(np.multiply(grad, 1.0 - opt.beta2, out=s), grad, out=s)  # v = b2*v + (1-b2)*g*g
    np.divide(m, 1.0 - opt.beta1**opt.step, out=s)
    s *= opt.lr
    np.divide(v, 1.0 - opt.beta2**opt.step, out=t)
    np.sqrt(t, out=t)
    t += opt.eps
    vector -= np.divide(s, t, out=s)  # p -= lr*m_hat / (sqrt(v_hat) + eps)
    return vector


def grad_check(loss_fn, vector: np.ndarray, batch, eps: float = 1e-5,
               n_samples: int = 200, seed: int = 0) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    loss_fn(vector, batch) must return (scalar loss, gradient shaped like
    the 1-D `vector`). Each probed entry is perturbed in place and then
    restored. Probes a random subsample of n_samples entries (all of them
    if fewer exist); error is |g - g_fd| / max(|g_fd|, 1e-8).
    """
    if vector.ndim != 1:
        raise ValidationError(f"grad_check probes a 1-D vector, got shape {vector.shape}")
    loss, grad = loss_fn(vector, batch)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss {loss} in gradient check")
    rng = np.random.default_rng(seed)
    total = vector.size
    picks = np.arange(total) if total <= n_samples else rng.choice(total, size=n_samples, replace=False)

    worst = 0.0
    for i in picks:
        orig = vector[i]
        vector[i] = orig + eps
        lp, _ = loss_fn(vector, batch)
        vector[i] = orig - eps
        lm, _ = loss_fn(vector, batch)
        vector[i] = orig
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise NumericalError("non-finite loss while probing finite differences")
        g_fd = (lp - lm) / (2.0 * eps)
        worst = max(worst, abs(grad[i] - g_fd) / max(abs(g_fd), 1e-8))
    return float(worst)


def export_embeddings(params: ModelParams, x: np.ndarray, labels, path=None) -> np.ndarray:
    """Last hidden representation (the classifier input), optionally written as CSV with labels."""
    hidden = forward(params, x).hidden
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (hidden.shape[0],):
        raise ValidationError("need one label per row")
    if path is not None:
        write_table(path, [f"e{j}" for j in range(hidden.shape[1])] + ["label"],
                    zip(*hidden.T.tolist(), labels.tolist()))
    return hidden


def save_checkpoint(path, params: ModelParams, norm_stats: NormStats,
                    class_names: tuple[str, ...], feature_names: tuple[str, ...],
                    label_column: str = "label", extra: dict | None = None) -> None:
    """Bit-exact model checkpoint: parameter arrays + preprocessing stats + label mapping."""
    named = [(f"backbone_{i}", layer) for i, layer in enumerate(params.backbone)]
    named += [("head_regular", params.head_regular), ("head_balanced", params.head_balanced)]
    arrays = {f"{name}_{k}": getattr(layer, k) for name, layer in named for k in ("W", "b")}
    arrays["norm_mean"] = norm_stats.mean
    arrays["norm_std"] = norm_stats.std
    arrays["norm_impute"] = norm_stats.impute
    arrays["norm_constant"] = norm_stats.constant_mask
    meta = {
        "version": CHECKPOINT_VERSION,
        "n_backbone": len(params.backbone),
        "resid_span": list(params.resid_span) if params.resid_span else None,
        "normalize_balanced": params.normalize_balanced,
        "trained_heads": list(params.trained_heads) if params.trained_heads else None,
        "class_names": list(class_names),
        "feature_names": list(feature_names),
        "label_column": label_column,
        "extra": extra or {},
    }
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays)


def load_checkpoint(path) -> tuple[ModelParams, NormStats, dict]:
    """Inverse of save_checkpoint; logits reproduce bit-exactly on the same platform."""
    with np.load(path) as blob:
        meta = json.loads(bytes(blob["__meta__"]).decode("utf-8"))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValidationError(f"unsupported checkpoint version {meta.get('version')!r}")
        layers = [(blob[f"backbone_{i}_W"], blob[f"backbone_{i}_b"]) for i in range(meta["n_backbone"])]
        layers += [(blob[f"head_{h}_W"], blob[f"head_{h}_b"]) for h in ("regular", "balanced")]
        params = ModelParams.pack(
            layers,
            resid_span=tuple(meta["resid_span"]) if meta["resid_span"] else None,
            normalize_balanced=meta["normalize_balanced"],
            trained_heads=tuple(meta["trained_heads"]) if meta["trained_heads"] else None,
        )
        stats = NormStats(
            mean=blob["norm_mean"].copy(),
            std=blob["norm_std"].copy(),
            impute=blob["norm_impute"].copy(),
            constant_mask=blob["norm_constant"].copy(),
        )
    return params, stats, meta
