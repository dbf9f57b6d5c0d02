"""Dense backbone with two classifier heads and hand-derived reverse-mode gradients.

The architecture is fixed by construction: `depth` weight matrices per
head path, ReLU hidden layers of equal width, and one residual skip
block spanning two middle hidden layers (h_out = relu(W2 relu(W1 h) + b2 + h)).
Two heads share the backbone, and each row goes through one of them:
`forward` sends the first `n_regular` rows through the regular head and
the rest through the balanced head, into one logits array. So one pass
over two stacked batches trains each head on its own batch: `backward`
takes one upstream gradient shaped like the logits, gives each head the
gradient of its own rows only, and the backbone gets all rows' gradient.
Everything is float64.
"""

from __future__ import annotations

import json
import tokenize
import zipfile
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .data import CONFIG_RULES, TEXT, NormStats, Rule, at_least, list_of, one_of, or_null
from .errors import NumericalError, ValidationError

CHECKPOINT_VERSION = "denshift-checkpoint-3"
# Adam's moment decay rates and denominator guard, the defaults of Kingma & Ba (arXiv:1412.6980)
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# grad_check's central-difference step and the most entries it probes
_FD_EPS, _FD_SAMPLES = 1e-5, 200


class DenseLayer:
    """One affine map a @ W + b, held as the (d_in + 1, d_out) matrix Wb = [W; b]; W, b and WT = W.T are views
    of it, made once: an in-place update of the parameter vector moves none of them."""

    def __init__(self, Wb: np.ndarray):
        self.Wb, self.W, self.b = Wb, Wb[:-1], Wb[-1]
        self.WT = self.W.T


def _layer_shapes(widths: tuple[int, ...]):
    """Each layer's [W; b] shape (d_in + 1, d_out), lazily: the backbone's in order, then both heads."""
    for l in range(len(widths) - 2):
        yield widths[l] + 1, widths[l + 1]
    yield from ((widths[-2] + 1, widths[-1]),) * 2


@dataclass
class _LayerVector:
    """Backbone layers and two heads whose arrays are views into one contiguous float64 vector."""

    vector: np.ndarray
    widths: tuple[int, ...]  # input, each backbone layer's output, classes; each layer's W row-major, then b
    backbone: list[DenseLayer] = field(init=False, repr=False)
    head_regular: DenseLayer = field(init=False, repr=False)
    head_balanced: DenseLayer = field(init=False, repr=False)

    def __post_init__(self):
        size = sum(r * c for r, c in _layer_shapes(self.widths))  # lazily, so huge widths allocate nothing
        if self.vector.shape != (size,):
            raise ValidationError(f"the vector has shape {self.vector.shape}, the layer widths need ({size},)")
        shapes = list(_layer_shapes(self.widths))
        starts = accumulate((r * c for r, c in shapes), initial=0)
        layers = [DenseLayer(self.vector[s:s + r * c].reshape(r, c)) for (r, c), s in zip(shapes, starts)]
        self.backbone, self.head_regular, self.head_balanced = layers[:-2], layers[-2], layers[-1]

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
    trained_heads: tuple[str, ...] | None = None

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def n_classes(self) -> int:
        return self.widths[-1]

    def copy(self) -> "ModelParams":
        return ModelParams(self.vector.copy(), self.widths, self.resid_span, self.trained_heads)


class ForwardTrace:
    """Activations of one forward pass, enough for an exact backward pass, in buffers that later passes reuse.

    `act[l]` is backbone layer l's input (act[0] the batch) with a trailing
    column of ones, written once when the buffer is made. `logits` holds the
    last pass's logits: rows `[:n_regular]` from the regular head, the rest
    from the balanced head. `masks` and `d_act` hold backward's ReLU masks
    and upstream gradients, one per backbone layer's output; the first
    backward pass over the trace allocates them, so a trace that only
    predicts never does. A trace fits one row count and the layer widths of
    the parameters it was made for.

    Every slice and transpose of these buffers that a pass reads is made
    once: those of `act` with the trace (`x`, `out`, `act_T`), those of
    `d_act` with the first backward pass (`d_out`), and each head's rows
    with the first pass at a given `n_regular` (`heads`). So a pass over a
    reused trace builds no view of its buffers.
    """

    def __init__(self, params: ModelParams, rows: int):
        self.act = [_with_ones(rows, width) for width in params.widths[:-1]]
        self.logits = np.empty((rows, params.n_classes))
        self.x = self.act[0][:, :-1]  # the batch, without its ones column
        self.out = [a[:, :-1] for a in self.act[1:]]  # backbone layer l's GEMM writes out[l]
        self.act_T = [a.T for a in self.act[:-1]]  # backbone layer l's input, transposed for its [W; b] gradient
        self.n_regular = rows
        self.masks: list[np.ndarray] | None = None
        self.d_act: list[np.ndarray] | None = None
        self.d_out: list[np.ndarray] | None = None  # d_act[l] without its last column, as out[l]
        self.logits_by_head: np.ndarray | None = None
        self._heads_at: int | None = None  # the n_regular that `heads` last made its views for

    @property
    def rows(self) -> int:
        return self.act[0].shape[0]

    @property
    def hidden(self) -> np.ndarray:
        """The last hidden representation (the heads' input), without its ones column."""
        return self.act[-1][:, :-1]

    def heads(self, n_regular: int) -> tuple[tuple, tuple]:
        """Each head's views when the first `n_regular` rows go through the regular head, regular head first:
        (its rows as a slice, those rows of the hidden buffer with its ones column, their transpose, those rows
        of `logits`, those rows of the hidden gradient or None before the first backward pass).

        They are made again only when `n_regular` changes, and so is
        `logits_by_head`: the logits viewed as (2 x n_regular x C), heads
        first, when both heads hold `n_regular` rows, else None.
        """
        if n_regular != self._heads_at:
            hidden, logits, n = self.act[-1], self.logits, n_regular
            d_hidden = None if self.d_out is None else self.d_out[-1]
            self._heads = tuple((rows, hidden[rows], hidden[rows].T, logits[rows],
                                 None if d_hidden is None else d_hidden[rows])
                                for rows in (slice(0, n), slice(n, self.rows)))
            self.logits_by_head = logits.reshape(2, n, logits.shape[1]) if 2 * n == self.rows else None
            self._heads_at = n
        return self._heads

    def _backward_buffers(self) -> None:
        """ReLU masks and upstream-gradient buffers laid out like each backbone layer's output buffer.

        Whole contiguous rows keep numpy's elementwise calls unbuffered; each
        gradient buffer's last column stays 0 and no GEMM reads it.
        """
        self.masks = [np.empty(a.shape, dtype=bool) for a in self.act[1:]]
        self.d_act = [np.empty_like(a) for a in self.act[1:]]
        for d in self.d_act:
            d[:, -1] = 0.0
        self.d_out = [d[:, :-1] for d in self.d_act]
        self._heads_at = None  # the heads' views now include their rows of the hidden gradient


class Gradients(_LayerVector):
    """Parameter gradients laid out like `ModelParams.vector`, with matching per-layer views."""


def init_mlp(
    input_dim: int,
    hidden: int = 28,
    depth: int = 4,
    n_classes: int = 2,
    seed: int = 0,
) -> ModelParams:
    """Seeded model: depth weight matrices per head path, uniform(+-1/sqrt(fan_in)) weights, zero biases."""
    for name, value, least in (("input_dim", input_dim, 1), ("hidden", hidden, 1), ("n_classes", n_classes, 1),
                               ("depth", depth, 2)):
        at_least(least).check(name, value)
    n_layers = depth - 1
    span = ((n_layers - 1) // 2, (n_layers - 1) // 2 + 1) if n_layers >= 3 else None
    widths = (input_dim, *[hidden] * n_layers, n_classes)
    params = ModelParams(np.zeros(sum(r * c for r, c in _layer_shapes(widths))), widths, span)
    rng = np.random.default_rng(seed)
    for W in params.flat()[::2]:  # each layer's W, in vector order
        bound = 1.0 / np.sqrt(W.shape[0])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
    return params


def _with_ones(rows: int, width: int) -> np.ndarray:
    """An uninitialised (rows, width + 1) buffer whose last column is 1."""
    buf = np.empty((rows, width + 1))
    buf[:, width] = 1.0
    return buf


def forward(params: ModelParams, x: np.ndarray, n_regular: int | None = None,
            trace: ForwardTrace | None = None) -> ForwardTrace:
    """Run a batch through the backbone, rows `[:n_regular]` through the regular head and the rest through the
    balanced head (all rows through the regular head when None), caching activations.

    Writes into `trace` and returns it, or into a new trace when None. Each
    affine map is one GEMM: a layer writes `a @ [W; b]` into the first
    columns of a buffer whose last column is 1, and ReLU in place keeps the ones.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValidationError(f"input shape {x.shape} does not match input_dim {params.input_dim}")
    n = x.shape[0] if n_regular is None else n_regular
    if type(n) is not int or not 0 <= n <= x.shape[0]:  # a plain int in range skips building the Rule
        if at_least(0).check("n_regular", n) > x.shape[0]:
            raise ValidationError(f"n_regular must be at most the batch's {x.shape[0]} rows, got {n}")
    if trace is None:
        trace = ForwardTrace(params, x.shape[0])
    elif trace.rows != x.shape[0]:
        raise ValidationError(f"trace holds {trace.rows} rows, the batch has {x.shape[0]}")
    act, out, span = trace.act, trace.out, params.resid_span
    np.copyto(trace.x, x)
    for l, layer in enumerate(params.backbone):
        a = act[l + 1]
        np.matmul(act[l], layer.Wb, out=out[l])
        if span is not None and l == span[1]:
            a += act[span[0]]  # whole rows, one contiguous add; then the ones column is restored
            a[:, -1] = 1.0
        np.maximum(a, 0.0, out=a)
    for head, (rows, hidden, _, z, _) in zip((params.head_regular, params.head_balanced), trace.heads(n)):
        if rows.start < rows.stop:  # a head with no rows (the balanced one of a single-stream step): no empty GEMM
            np.matmul(hidden, head.Wb, out=z)
    trace.n_regular = n
    return trace


def backward(params: ModelParams, trace: ForwardTrace, d_logits: np.ndarray,
             out: Gradients | None = None) -> Gradients:
    """Exact parameter gradients from the upstream gradient `d_logits` of `trace.logits`, written into `out`
    (a new buffer when None) and returned.

    Each head's gradient comes from its own rows of the last forward pass
    alone (a head with no rows gets exact zeros), and the backbone's from
    all rows. Each layer's dW and db come from one GEMM, `[a_in, 1].T @ dz`,
    written into the gradient's [W; b] view. The ReLU masks and upstream
    gradients go into the trace's buffers, allocated on its first backward pass.
    """
    if d_logits.shape != trace.logits.shape:
        raise ValidationError(f"d_logits has shape {d_logits.shape}, the trace's logits {trace.logits.shape}")
    grads = Gradients(np.empty(params.vector.size), params.widths) if out is None else out
    if trace.masks is None:
        trace._backward_buffers()
    act, act_T, masks, d_act, d_out = trace.act, trace.act_T, trace.masks, trace.d_act, trace.d_out
    for head, grad, (rows, _, hidden_T, _, d_hidden) in zip((params.head_regular, params.head_balanced),
                                                           (grads.head_regular, grads.head_balanced),
                                                           trace.heads(trace.n_regular)):
        if rows.start < rows.stop:
            d = d_logits[rows]
            np.matmul(hidden_T, d, out=grad.Wb)
            np.matmul(d, head.WT, out=d_hidden)
        else:  # a head with no rows gets exact zeros, as its empty GEMM would give, and no row of d_hidden
            grad.Wb.fill(0.0)

    span = params.resid_span
    skip = None  # the residual's upstream gradient, taken at layer span[1] and added at layer span[0] - 1
    for l in range(len(params.backbone) - 1, -1, -1):
        da = d_act[l]  # whole rows: the last column is 0 and the ones column's mask is open
        if span is not None and l == span[0] - 1:
            da += skip
        np.multiply(da, np.greater(act[l + 1], 0.0, out=masks[l]), out=da)
        np.matmul(act_T[l], d_out[l], out=grads.backbone[l].Wb)
        if l > 0:  # the input's own gradient is never needed
            np.matmul(d_out[l], params.backbone[l].WT, out=d_out[l - 1])
        if span is not None and l == span[1]:
            skip = da
    return grads


@dataclass
class OptState:
    """SGD or bias-corrected Adam over one flat vector; Adam's moments and two scratch vectors match it."""

    kind: str
    lr: float
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @classmethod
    def for_vector(cls, vector: np.ndarray, kind: str = "adam", lr: float = 1e-3) -> "OptState":
        CONFIG_RULES["train.optimizer"].check("optimizer", kind)
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
    m *= _ADAM_BETA1
    m += np.multiply(grad, 1.0 - _ADAM_BETA1, out=s)  # m = b1*m + (1-b1)*g
    v *= _ADAM_BETA2
    v += np.multiply(np.multiply(grad, 1.0 - _ADAM_BETA2, out=s), grad, out=s)  # v = b2*v + (1-b2)*g*g
    np.divide(m, 1.0 - _ADAM_BETA1**opt.step, out=s)
    s *= opt.lr
    np.divide(v, 1.0 - _ADAM_BETA2**opt.step, out=t)
    np.sqrt(t, out=t)
    t += _ADAM_EPS
    vector -= np.divide(s, t, out=s)  # p -= lr*m_hat / (sqrt(v_hat) + eps)
    return vector


def grad_check(loss_fn, vector: np.ndarray, batch, seed: int = 0) -> float:
    """Max relative error of analytic gradients vs central finite differences with step 1e-5.

    loss_fn(vector, batch) must return (scalar loss, gradient shaped like
    the 1-D `vector`). Each probed entry is perturbed in place and then
    restored. Probes a random subsample of 200 entries (all of them
    if fewer exist); error is |g - g_fd| / max(|g_fd|, 1e-8).
    """
    if vector.ndim != 1:
        raise ValidationError(f"grad_check probes a 1-D vector, got shape {vector.shape}")
    loss, grad = loss_fn(vector, batch)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss {loss} in gradient check")
    rng = np.random.default_rng(seed)
    total = vector.size
    picks = np.arange(total) if total <= _FD_SAMPLES else rng.choice(total, size=_FD_SAMPLES, replace=False)

    worst = 0.0
    for i in picks:
        orig = vector[i]
        vector[i] = orig + _FD_EPS
        lp, _ = loss_fn(vector, batch)
        vector[i] = orig - _FD_EPS
        lm, _ = loss_fn(vector, batch)
        vector[i] = orig
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise NumericalError("non-finite loss while probing finite differences")
        g_fd = (lp - lm) / (2.0 * _FD_EPS)
        worst = max(worst, abs(grad[i] - g_fd) / max(abs(g_fd), 1e-8))
    return float(worst)


# every metadata key -> the rule its value keeps; `load_checkpoint` checks widths and span against each other
_CHECKPOINT_META = {
    "widths": list_of(at_least(1)), "resid_span": or_null(list_of(Rule(lambda v: type(v) is int, "an integer"), 2)),
    "trained_heads": or_null(one_of(["regular"], ["balanced"], ["regular", "balanced"], ["balanced", "regular"])),
    "class_names": list_of(TEXT), "feature_names": list_of(TEXT), "label_column": TEXT,
    "extra": Rule(lambda v: isinstance(v, dict), "a JSON object"),
}
# each checkpoint array of the preprocessing stats -> its NormStats field
_NORM_ARRAYS = {"norm_mean": "mean", "norm_std": "std"}
# what a damaged archive raises: a bad zip, a zip feature not implemented, a member cut short (an EOFError with
# no text), an .npy header that does not parse
_UNREADABLE = (ValueError, zipfile.BadZipFile, NotImplementedError, EOFError, tokenize.TokenError)


def save_checkpoint(path, params: ModelParams, norm_stats: NormStats,
                    class_names: tuple[str, ...], feature_names: tuple[str, ...],
                    label_column: str = "label", extra: dict | None = None) -> None:
    """Bit-exact model checkpoint: the parameter vector + its layer widths, preprocessing stats, label mapping."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "widths": list(params.widths),
        "resid_span": list(params.resid_span) if params.resid_span else None,
        "trained_heads": list(params.trained_heads) if params.trained_heads else None,
        "class_names": list(class_names),
        "feature_names": list(feature_names),
        "label_column": label_column,
        "extra": extra or {},
    }
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8), params=params.vector,
             **{key: getattr(norm_stats, f) for key, f in _NORM_ARRAYS.items()})


def load_checkpoint(path) -> tuple[ModelParams, NormStats, dict]:
    """Inverse of save_checkpoint; logits reproduce bit-exactly on the same platform.

    A file that is no readable .npz archive, metadata that is no JSON object or of another version, a missing
    or unknown key or array, a metadata value that breaks its `_CHECKPOINT_META` rule, a repeated feature name,
    widths that do not run from the features to the classes, a `params` vector of another size than the widths
    need, norm_* arrays not of one entry per feature, or an array not bool, integer or float or holding a NaN
    or an inf raise ValidationError naming the file and what is wrong. Only arrays a check names are decompressed.
    """
    where = f"checkpoint {path}"
    with open(path, "rb") as fh:
        try:  # any file but a zip archive raises BadZipFile; a damaged member raises as it is read
            with np.lib.npyio.NpzFile(fh) as npz:
                return _read_checkpoint(where, npz)
        except _UNREADABLE as exc:
            raise ValidationError(f"{where}: not a readable .npz archive "
                                  f"({str(exc) or 'a member ends early'})") from None


def _read_checkpoint(where: str, npz) -> tuple[ModelParams, NormStats, dict]:
    def array(key: str) -> np.ndarray:
        if key not in npz.files:
            raise ValidationError(f"{where}: missing the array {key!r}")
        value = np.asarray(npz[key])
        if value.dtype.kind not in "biuf":
            raise ValidationError(f"{where}: the array {key!r} holds {value.dtype}, not bool, integer or float")
        if value.dtype.kind == "f" and not np.isfinite(value).all():
            raise ValidationError(f"{where}: the array {key!r} holds a NaN or an inf")
        return value

    meta_bytes = array("__meta__").tobytes()  # not bytes(): a 0-d integer array would be read as a length
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except ValueError:  # also a JSONDecodeError or a UnicodeDecodeError
        meta = None
    if not isinstance(meta, dict):
        raise ValidationError(f"{where}: the array '__meta__' is not a JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValidationError(f"{where}: unsupported checkpoint version {meta.get('version')!r}")
    unknown = [key for key in meta if key != "version" and key not in _CHECKPOINT_META]
    if unknown:
        raise ValidationError(f"{where}: unknown metadata key {unknown[0]!r}")
    for key, rule in _CHECKPOINT_META.items():
        if key not in meta:
            raise ValidationError(f"{where}: metadata lacks the key {key!r}")
        rule.check(f"{where}: metadata key {key!r}", meta[key])
    repeated = [name for name, count in Counter(meta["feature_names"]).items() if count > 1]
    if repeated:
        raise ValidationError(f"{where}: metadata key 'feature_names' repeats the name {repeated[0]!r}")
    n_in, n_out = len(meta["feature_names"]), len(meta["class_names"])
    ends = Rule(lambda v: len(v) >= 3 and v[0] == n_in and v[-1] == n_out, f"[{n_in}, one or more widths, {n_out}]")
    widths = tuple(ends.check(f"{where}: metadata key 'widths'", meta["widths"]))
    n_layers, span = len(widths) - 2, meta["resid_span"]
    if span is not None:
        if not 1 <= span[0] <= span[1] < n_layers:
            raise ValidationError(f"{where}: resid_span {span!r} does not lie inside the "
                                  f"{n_layers}-layer backbone (need 1 <= start <= end < {n_layers})")
        if widths[span[0]] != widths[span[1] + 1]:
            raise ValidationError(f"{where}: resid_span {span!r} adds a width-{widths[span[0]]} activation "
                                  f"to a width-{widths[span[1] + 1]} layer output")
    vector = np.asarray(array("params"), dtype=np.float64)
    norm = {f: array(key) for key, f in _NORM_ARRAYS.items()}
    for key, f in _NORM_ARRAYS.items():
        if norm[f].shape != (n_in,):
            raise ValidationError(f"{where}: the array {key!r} holds {norm[f].dtype} of shape {norm[f].shape}, "
                                  f"need shape ({n_in},)")
    try:
        stats = NormStats(**norm)
    except ValidationError as exc:  # NormStats's message starts with the field it refuses: norm_<field> holds it
        field, _, why = str(exc).partition(": ")
        raise ValidationError(f"{where}: the array 'norm_{field}': {why}") from None
    unknown = [key for key in npz.files if key not in ("__meta__", "params", *_NORM_ARRAYS)]
    if unknown:
        raise ValidationError(f"{where}: unknown array {unknown[0]!r}")
    try:  # the size check runs by arithmetic on the widths, before any layer is built
        params = ModelParams(vector, widths, tuple(span) if span else None,
                             tuple(meta["trained_heads"]) if meta["trained_heads"] else None)
    except ValidationError as exc:
        raise ValidationError(f"{where}: the array 'params': {exc}") from None
    return params, stats, meta
