"""Decoupled dual-batch training, the ablation variant grid, and the theta sweep.

Each step draws a regular batch and a class-balanced batch, stacked in
one array, regular rows first. Dual-stream variants run the stacked rows
through the shared backbone in one forward and one backward pass, each
row through its own stream's head, so each head is optimized on its own
batch while the backbone gets the sum of both gradients, and each loss
term is called once per step over every head that holds it. Single-stream
variants run the regular rows alone. Once per run, not once per step,
`train` allocates the gradient buffer and the step's activation,
ReLU-mask and upstream-gradient buffers (one `nn.ForwardTrace`, which
also makes once each slice and transpose of them that a pass reads), and
one more trace for the validation rows. Every step calls the losses with
their label scans skipped (see `train_step`).
One optimizer step updates one vector: the parameters, then log C_FP
when the cost term trains. Model selection is by validation AUC-ROC of
the inference head (the balanced one when it is trained), with early
stopping after `early_stop_patience` epochs without improvement.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import CONFIG_RULES, POSITIVE, VARIANTS, Dataset, at_least, check_fields, list_of, one_of, out_of_range
from .errors import NumericalError, ValidationError
from .losses import CostParams, _row_max, ce, cost_loss, current_costs, dah_softmax, delta_margins, focal, softmax
from .metrics import ScoredSet, auc_prc, auc_roc, macro_auc, split_report
from .nn import ForwardTrace, Gradients, ModelParams, OptState, backward, forward, init_mlp, opt_step
from .sampling import BatchPair, SamplerState, epoch_batches


@dataclass(frozen=True)
class TrainConfig:
    """One training job's settings; each field keeps the rule of its `train.<field>` config key."""

    variant: str = "full"
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    early_stop_patience: int = 5
    hidden: int = 28
    depth: int = 4
    margin_scale: float | None = None  # None: scale so the rarest class gets margin 0.5
    gamma: float = 2.0
    theta: float = 5.0
    offset: float = 0.01
    lambda_cost: float = 1.0
    q_regular: float = 1.0
    q_balanced: float = 0.0

    def __post_init__(self):
        check_fields(self, "train")


@dataclass(frozen=True)
class VariantSpec:
    """Which streams run and which loss terms feed each head."""

    dual_stream: bool
    regular_terms: tuple[str, ...]
    balanced_terms: tuple[str, ...] | None

    @property
    def uses_cost(self) -> bool:
        return "cost" in self.regular_terms or ("cost" in (self.balanced_terms or ()))

    @cached_property
    def loss_calls(self) -> tuple[tuple[str, object], ...]:
        """Each loss term once, in order of first use, with the heads it covers: `...` for every trained head,
        or the index of the one head (0 regular, 1 balanced) that holds it."""
        heads = (self.regular_terms, self.balanced_terms) if self.dual_stream else (self.regular_terms,)
        held = {term: [h for h, terms in enumerate(heads) if term in terms] for term in sum(heads, ())}
        return tuple((term, ... if len(hs) == len(heads) else hs[0]) for term, hs in held.items())


_VARIANT_SPECS = {
    "base": VariantSpec(False, ("ce",), None),
    "focal": VariantSpec(False, ("focal",), None),
    "dah": VariantSpec(False, ("dah",), None),
    "cost": VariantSpec(False, ("ce", "cost"), None),
    "decoupling": VariantSpec(True, ("ce",), ("ce",)),
    "full": VariantSpec(True, ("dah",), ("dah", "cost")),
}


def variant_losses(variant: str) -> VariantSpec:
    """Loss/stream wiring for one ablation variant."""
    return _VARIANT_SPECS[CONFIG_RULES["train.variant"].check("variant", variant)]


class EpochRecord(NamedTuple):
    """One epoch of the trajectory: the `history.csv` columns after `epoch`; NaN where a variant or task has none."""

    loss_regular: float
    loss_balanced: float
    val_auc_roc: float
    val_auc_prc: float
    cost_fp: float
    cost_fn: float


@dataclass
class TrainHistory:
    """Per-epoch trajectory, the epoch whose parameters `train` returns, and why training stopped:
    "patience" when early stopping ended it, "epochs" when every epoch ran."""

    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    stop_reason: str = "epochs"

    @property
    def epochs_run(self) -> int:
        return len(self.epochs)


def _step_loss(calls, z, y, cfg, deltas, cost_params):
    """Sum each head's loss terms, calling each term of `calls` (see `VariantSpec.loss_calls`) once.

    `z` holds the logits, with a leading head axis (H x B x C, labels
    H x B) when two heads train. A term on every head gets all of `z`, a
    term on one head that head's rows; the first term is on every head.
    Every loss skips its label scan (see `train_step`). Returns (the
    loss: a float, or one per head; d/dz shaped like `z`; d/dlog_cfp).
    """
    loss, d_z, d_log_cfp = 0.0, None, 0.0
    for term, at in calls:
        zh, yh = (z, y) if at is ... else (z[at], y[at])
        if term == "ce":
            l, g = ce(zh, yh, True)
        elif term == "focal":
            l, g = focal(zh, yh, cfg.gamma, True)
        elif term == "dah":
            l, g = dah_softmax(zh, yh, deltas, True)
        elif term == "cost":
            l, g, dc = cost_loss(zh, yh, cost_params, True)
            l, g = cfg.lambda_cost * l, cfg.lambda_cost * g
            d_log_cfp += cfg.lambda_cost * dc
        else:
            raise ValidationError(f"unknown loss term {term!r}")
        if at is ...:
            loss += l
            d_z = g if d_z is None else np.add(d_z, g, out=d_z)  # the first term's fresh array
        else:
            loss[at] += l
            d_z[at] += g
    return loss, d_z, d_log_cfp


def train_step(params: ModelParams, pair: BatchPair, spec: VariantSpec, cfg: TrainConfig,
               deltas: np.ndarray, cost_params: CostParams | None, out: Gradients | None = None,
               trace: ForwardTrace | None = None) -> tuple[float, float, np.ndarray, float]:
    """Losses and gradients of one decoupled step; parameters are not updated.

    One gather, forward and backward pass: over the stacked regular and
    balanced rows for dual-stream variants, over the regular rows alone
    otherwise. The pair's `n_regular` first rows go through the regular
    head and feed its loss, the rest the balanced head's. Dual-stream
    logits are viewed as (2 x B x C), heads first, and each loss term is
    called once per step over every head whose term list holds it; the
    summed gradient, viewed as (2B x C), is the backward pass's upstream
    gradient. Both passes reuse the buffers of `trace` and its views when
    given (see `nn.ForwardTrace`). The losses skip their label scans, as
    the pair's labels are its `Dataset`'s, and keep their other checks.
    The step's one refusal is a split with more classes than the model,
    whose labels could pass the model's last class. Returns
    (loss_regular, loss_balanced (NaN when single stream), gradient laid
    out like `params.vector` (the vector of `out` when given), d/dlog_cfp).
    """
    if pair.ds.n_classes > params.n_classes:
        raise out_of_range(params.n_classes)
    n = pair.n_regular
    x, y = pair.rows(None if spec.dual_stream else n)
    trace = forward(params, x, n, trace)
    z = trace.logits
    if spec.dual_stream:
        z, y = trace.logits_by_head, y.reshape(2, n)
    loss, d_z, d_cost = _step_loss(spec.loss_calls, z, y, cfg, deltas, cost_params)
    grads = backward(params, trace, d_z.reshape(trace.logits.shape), out)
    loss_r, loss_b = loss.tolist() if spec.dual_stream else (loss, float("nan"))
    return loss_r, loss_b, grads.vector, d_cost


def _val_metrics(params: ModelParams, val: Dataset, trace: ForwardTrace) -> tuple[float, float, bool]:
    probs = predict(params, val.features, trace=trace)
    saturated = bool(_row_max(probs).min() == 1.0)  # every row's top class probability is exactly 1
    if val.n_classes == 2:
        scored = ScoredSet(probs[:, 1], val.labels)
        return auc_roc(scored), auc_prc(scored), saturated
    return macro_auc(probs, val.labels), float("nan"), saturated


def train(cfg: TrainConfig, splits: tuple[Dataset, Dataset]) -> tuple[ModelParams, TrainHistory]:
    """Run one training job; returns parameters from the best validation epoch."""
    train_ds, val_ds = splits
    if train_ds.has_missing or val_ds.has_missing:
        raise ValidationError("splits must be preprocessed (no missing values)")
    spec = variant_losses(cfg.variant)

    init = init_mlp(train_ds.dim, cfg.hidden, cfg.depth, train_ds.n_classes, seed=cfg.seed)
    # the optimizer updates one vector: the parameters, then log C_FP when the cost term trains
    n = init.vector.size
    state = np.append(init.vector, 0.0) if spec.uses_cost else init.vector
    params = replace(init, vector=state[:n],
                     trained_heads=("regular", "balanced") if spec.dual_stream else ("regular",))
    grad = np.empty_like(state)
    grads = Gradients(grad[:n], init.widths)
    trace = ForwardTrace(params, 2 * cfg.batch_size if spec.dual_stream else cfg.batch_size)
    val_trace = ForwardTrace(params, val_ds.n)
    sampler = SamplerState(
        train_ds, cfg.batch_size, seed=cfg.seed,
        q_regular=cfg.q_regular, q_balanced=cfg.q_balanced,
    )
    deltas = delta_margins(train_ds.class_counts, cfg.margin_scale)
    cost_params = CostParams(0.0, cfg.theta, cfg.offset) if spec.uses_cost else None
    opt = OptState.for_vector(state, cfg.optimizer, cfg.learning_rate)

    history = TrainHistory()
    best_params = best_saturated = None

    try:
        with np.errstate(over="raise"):  # ReLU can hide an overflow from every finite-loss check
            for epoch in range(cfg.epochs):
                sum_r = sum_b = 0.0
                for step, pair in enumerate(epoch_batches(sampler)):
                    loss_r, loss_b, _, d_cost = train_step(params, pair, spec, cfg, deltas, cost_params, grads, trace)
                    if not math.isfinite(loss_r) or (spec.dual_stream and not math.isfinite(loss_b)):
                        costs = current_costs(cost_params) if cost_params else None
                        raise NumericalError(
                            f"non-finite loss at epoch {epoch} step {step}: "
                            f"regular={loss_r} balanced={loss_b} costs={costs}"
                        )
                    if cost_params is not None:
                        grad[n] = d_cost
                    opt_step(state, grad, opt)
                    if cost_params is not None:
                        cost_params.log_cfp = float(state[n])
                    sum_r += loss_r
                    sum_b += loss_b

                costs = current_costs(cost_params) if spec.uses_cost else (float("nan"), float("nan"))
                *val, saturated = _val_metrics(params, val_ds, val_trace)
                record = EpochRecord(sum_r / (step + 1), sum_b / (step + 1), *val, *costs)
                history.epochs.append(record)

                if history.best_epoch < 0 or record.val_auc_roc > history.epochs[history.best_epoch].val_auc_roc:
                    history.best_epoch = epoch
                    best_params, best_saturated = params.copy(), saturated
                elif epoch - history.best_epoch > cfg.early_stop_patience:
                    history.stop_reason = "patience"
                    break
    except FloatingPointError as exc:
        raise NumericalError(f"numeric blow-up at epoch {epoch}: {exc}") from None
    if best_saturated:  # finite, yet broken: a finite blow-up leaves the model certain of every row
        raise NumericalError(f"best epoch {history.best_epoch} saturates every validation row: a top probability of 1")

    return best_params, history


def logits(params: ModelParams, x: np.ndarray, head: str | None = None,
           trace: ForwardTrace | None = None) -> np.ndarray:
    """Logits of the chosen head (default: balanced when trained, else regular); with `trace`, a view of its
    buffer, which the next pass over the trace overwrites."""
    available = params.trained_heads if params.trained_heads is not None else ("regular", "balanced")
    if head is None:
        head = "balanced" if "balanced" in available else "regular"
    if one_of("regular", "balanced").check("head", head) not in available:
        raise ValidationError(f"head {head!r} was not trained for this variant")
    return forward(params, x, 0 if head == "balanced" else None, trace).logits


def predict(params: ModelParams, x: np.ndarray, head: str | None = None,
            trace: ForwardTrace | None = None) -> np.ndarray:
    """Class probabilities: the softmax of `logits`, computed in `trace` when given; a non-finite one raises
    NumericalError."""
    probs = softmax(logits(params, x, head, trace))
    if not np.isfinite(probs).all():
        bad = int((~np.isfinite(probs)).any(axis=1).sum())
        raise NumericalError(f"non-finite class probabilities in {bad} of {probs.shape[0]} rows")
    return probs


def _t975(df: int) -> float:
    """The two-sided 95% Student t quantile for integer `df` >= 1: bisects theta = atan(t / sqrt(df)) on the
    closed-form P(|T| <= t) of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df)."""
    def inside(theta: float) -> float:
        c, s, term, total = math.cos(theta), math.sin(theta), 1.0, 0.0
        for j in range(1 + df % 2, df, 2):  # df // 2 terms, each (j / (j + 1)) c^2 times the last
            total += term
            term *= c * c * j / (j + 1)
        return s * total if df % 2 == 0 else 2 / math.pi * (theta + s * c * total)
    lo, hi = 0.0, math.pi / 2
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if inside(mid) < 0.95 else (lo, mid)
    return math.sqrt(df) * math.tan(mid)


def _mean_ci(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        return float(arr.mean()), float("nan")
    stderr = arr.std(ddof=1) / np.sqrt(arr.size)
    return float(arr.mean()), float(_t975(arr.size - 1) * stderr)


def _run_single(job) -> dict:
    cfg, train_ds, val_ds, test_ds = job
    params, _ = train(cfg, (train_ds, val_ds))
    return split_report(predict(params, test_ds.features), test_ds.labels)


def _run_jobs(jobs, max_workers: int = 1) -> list[dict]:
    if max_workers <= 1 or len(jobs) <= 1:
        return [_run_single(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=min(max_workers, len(jobs))) as pool:
        return list(pool.map(_run_single, jobs))


def table_metrics(n_classes: int) -> tuple[str, ...]:
    """Test metrics of a grid table and a CLI summary: binary scores, or macro/micro AUC for multi-class."""
    return ("auc_roc", "auc_prc", "bss") if n_classes == 2 else ("macro_auc", "micro_auc")


def _grid(cfg: TrainConfig, splits: tuple[Dataset, Dataset, Dataset], field: str, values, seeds,
          max_workers: int) -> dict:
    """Train one job per (value of `field`, seed) on the same splits.

    Maps each value to its run count and, for each of the splits' `table_metrics`, the mean,
    the 95% Student t interval's half-width (NaN for one seed) and the per-seed values.
    """
    seeds = list_of(at_least(0)).check("seeds", list(seeds))
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:
        raise ValidationError(f"seeds must not repeat: seed {repeated} appears more than once in {seeds}")
    train_ds, val_ds, test_ds = splits
    jobs = [(replace(cfg, **{field: v, "seed": s}), train_ds, val_ds, test_ds) for v in values for s in seeds]
    results = _run_jobs(jobs, max_workers)
    table = {}
    for i, value in enumerate(values):
        runs = results[i * len(seeds):(i + 1) * len(seeds)]
        row = table[value] = {"n_runs": len(runs)}
        for metric in table_metrics(train_ds.n_classes):
            per_seed = [r[metric] for r in runs]
            row[f"{metric}_mean"], row[f"{metric}_ci95"] = _mean_ci(per_seed)
            row[f"{metric}_per_seed"] = per_seed
    return table


def sweep_theta(cfg: TrainConfig, splits: tuple[Dataset, Dataset, Dataset],
                theta_grid=(1.0, 5.0, 10.0, 25.0, 50.0, 100.0), seeds=(0, 1, 2), max_workers: int = 1) -> list[dict]:
    """Train/eval over the theta grid; one table row per theta with mean +- 95% CI."""
    if not variant_losses(cfg.variant).uses_cost:
        raise ValidationError("theta sweep requires a cost-matrix variant")
    grid = sorted({float(t) for t in list_of(POSITIVE).check("theta_grid", list(theta_grid))})
    return [{"theta": t, **row} for t, row in _grid(cfg, splits, "theta", grid, seeds, max_workers).items()]


def run_ablation(cfg: TrainConfig, splits: tuple[Dataset, Dataset, Dataset], seeds=(0, 1, 2, 3, 4),
                 max_workers: int = 1) -> dict:
    """Train every variant on identical splits with shared seeds; consolidated metric table.

    On multi-class data the binary-only cost variants are skipped.
    """
    n_classes = splits[0].n_classes
    variants = tuple(v for v in VARIANTS if n_classes == 2 or not variant_losses(v).uses_cost)
    return _grid(cfg, splits, "variant", variants, seeds, max_workers)
