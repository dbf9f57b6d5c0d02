"""Decoupled dual-batch training, the ablation variant grid, and the theta sweep.

Each step draws a regular batch and a class-balanced batch, stacked in
one array, regular rows first. Dual-stream variants run the stacked rows
through the shared backbone in one forward and one backward pass; the
regular head's loss reads only its logits on the regular rows and the
balanced head's only its logits on the balanced rows, so each head is
optimized on its own batch alone while the backbone gets the sum of both
gradients. Single-stream variants run the regular rows alone. The
gradient buffer is allocated once per run, and one optimizer step
updates one vector: the parameters, then log C_FP when the cost term
trains. Model selection is by validation AUC-ROC of the inference head
(the balanced one when it is trained), with early stopping after
`early_stop_patience` epochs without improvement.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import Dataset
from .errors import NumericalError, UnsupportedTaskError, ValidationError
from .losses import CostParams, DahConfig, ce, cost_loss, current_costs, dah_softmax, focal, softmax
from .metrics import ScoredSet, auc_prc, auc_roc, macro_auc, split_report
from .nn import Gradients, ModelParams, OptState, backward, forward, init_mlp, opt_step
from .sampling import BatchPair, SamplerState, epoch_batches

VARIANTS = ("base", "decoupling", "dah", "focal", "cost", "full")


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite number that a float64 can hold (NaN fails the comparison)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# TrainConfig field annotation -> (does a value have that type, how an error message names it)
_FIELD_TYPES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (_is_int, "an integer"),
    "float": (_is_real, "a finite number"),
    "float | None": (lambda v: v is None or _is_real(v), "a finite number or null"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
}


@dataclass(frozen=True)
class TrainConfig:
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
    normalize_balanced: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            has_type, expected = _FIELD_TYPES[f.type]
            if not has_type(value):
                raise ValidationError(f"{f.name} must be {expected}, got {value!r}")
        if self.variant not in VARIANTS:
            raise ValidationError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.early_stop_patience < 0:
            raise ValidationError(f"early_stop_patience must be >= 0, got {self.early_stop_patience}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.lambda_cost >= 0:
            raise ValidationError(f"lambda_cost must be >= 0, got {self.lambda_cost}")
        if not self.theta > 0:
            raise ValidationError(f"theta must be > 0, got {self.theta}")
        if not self.offset >= 0:
            raise ValidationError(f"offset must be >= 0, got {self.offset}")
        if not self.gamma >= 0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")
        for name in ("q_regular", "q_balanced"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValidationError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.hidden < 1:
            raise ValidationError(f"hidden must be >= 1, got {self.hidden}")
        if self.depth < 2:
            raise ValidationError(f"depth must be >= 2, got {self.depth}")
        if self.margin_scale is not None and not self.margin_scale > 0:
            raise ValidationError(f"margin_scale must be > 0 or null, got {self.margin_scale}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValidationError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")


@dataclass(frozen=True)
class VariantSpec:
    """Which streams run and which loss terms feed each head."""

    dual_stream: bool
    regular_terms: tuple[str, ...]
    balanced_terms: tuple[str, ...] | None

    @property
    def uses_cost(self) -> bool:
        return "cost" in self.regular_terms or ("cost" in (self.balanced_terms or ()))

    @property
    def uses_dah(self) -> bool:
        return "dah" in self.regular_terms or ("dah" in (self.balanced_terms or ()))

    @property
    def inference_head(self) -> str:
        return "balanced" if self.dual_stream else "regular"


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
    try:
        return _VARIANT_SPECS[variant]
    except KeyError:
        raise ValidationError(f"unknown variant {variant!r}") from None


@dataclass
class TrainHistory:
    """Per-epoch trajectory; wall time is kept here and never written to report files."""

    loss_regular: list[float] = field(default_factory=list)
    loss_balanced: list[float] = field(default_factory=list)
    val_auc_roc: list[float] = field(default_factory=list)
    val_auc_prc: list[float] = field(default_factory=list)
    cost_fp: list[float] = field(default_factory=list)
    cost_fn: list[float] = field(default_factory=list)
    best_epoch: int = -1
    wall_time_s: float = 0.0
    best_cost: tuple[float, float] | None = None

    @property
    def epochs_run(self) -> int:
        return len(self.val_auc_roc)


def _head_loss(terms, z, y, cfg, dah_cfg, cost_params):
    """Sum the named loss terms on logits `z`; returns (loss, d/dz, d/dlog_cfp)."""
    total, grad, d_log_cfp = 0.0, None, 0.0
    for term in terms:
        if term == "ce":
            l, g = ce(z, y)
        elif term == "focal":
            l, g = focal(z, y, cfg.gamma)
        elif term == "dah":
            l, g = dah_softmax(z, y, dah_cfg.deltas)
        elif term == "cost":
            l, g, dc = cost_loss(z, y, cost_params)
            l, g = cfg.lambda_cost * l, cfg.lambda_cost * g
            d_log_cfp += cfg.lambda_cost * dc
        else:
            raise ValidationError(f"unknown loss term {term!r}")
        total += l
        grad = g if grad is None else np.add(grad, g, out=grad)  # the first term's fresh array
    return total, grad, d_log_cfp


def train_step(params: ModelParams, pair: BatchPair, spec: VariantSpec, cfg: TrainConfig,
               dah_cfg: DahConfig | None, cost_params: CostParams | None,
               out: Gradients | None = None) -> tuple[float, float, np.ndarray, float]:
    """Losses and gradients of one decoupled step; parameters are not updated.

    One gather, forward and backward pass: over the stacked regular and
    balanced rows for dual-stream variants, over the regular rows and the
    regular head alone otherwise. Each head's loss reads its own head's
    logits on its own rows. Returns (loss_regular, loss_balanced (NaN when
    single stream), gradient laid out like `params.vector` (the vector of
    `out` when given), d/dlog_cfp).
    """
    n_reg = pair.n_regular
    x, y = pair.rows(None if spec.dual_stream else n_reg)
    trace = forward(params, x, None if spec.dual_stream else "regular")
    loss_r, d_r, d_cost = _head_loss(
        spec.regular_terms, trace.logits_regular[:n_reg], y[:n_reg], cfg, dah_cfg, cost_params
    )
    loss_b, d_b = float("nan"), None
    if spec.dual_stream:
        loss_b, d_b, dcost_b = _head_loss(
            spec.balanced_terms, trace.logits_balanced[n_reg:], y[n_reg:], cfg, dah_cfg, cost_params
        )
        d_cost += dcost_b
    grads = backward(params, trace, d_r, d_b, out)
    return loss_r, loss_b, grads.vector, d_cost


def _val_metrics(params: ModelParams, val: Dataset, head: str) -> tuple[float, float]:
    probs = predict(params, val.features, head=head)
    if val.n_classes == 2:
        scored = ScoredSet(probs[:, 1], val.labels)
        return auc_roc(scored), auc_prc(scored)
    return macro_auc(probs, np.eye(val.n_classes)[val.labels]), float("nan")


def train(cfg: TrainConfig, splits: tuple[Dataset, Dataset]) -> tuple[ModelParams, TrainHistory]:
    """Run one training job; returns parameters from the best validation epoch."""
    train_ds, val_ds = splits
    if train_ds.has_missing or val_ds.has_missing:
        raise ValidationError("splits must be preprocessed (no missing values)")
    spec = variant_losses(cfg.variant)
    if spec.uses_cost and train_ds.n_classes != 2:
        raise UnsupportedTaskError("cost-matrix variants support binary tasks only")

    t0 = time.perf_counter()
    init = init_mlp(
        train_ds.dim, cfg.hidden, cfg.depth, train_ds.n_classes,
        seed=cfg.seed, normalize_balanced=cfg.normalize_balanced,
    )
    # the optimizer updates one vector: the parameters, then log C_FP when the cost term trains
    n = init.layout.size
    state = np.append(init.vector, 0.0) if spec.uses_cost else init.vector
    params = replace(init, vector=state[:n])
    grad = np.empty_like(state)
    grads = Gradients(grad[:n], init.layout)
    sampler = SamplerState(
        train_ds, cfg.batch_size, seed=cfg.seed,
        q_regular=cfg.q_regular, q_balanced=cfg.q_balanced,
    )
    dah_cfg = DahConfig.from_counts(train_ds.class_counts, cfg.margin_scale) if spec.uses_dah else None
    cost_params = CostParams(0.0, cfg.theta, cfg.offset) if spec.uses_cost else None
    opt = OptState.for_vector(state, cfg.optimizer, cfg.learning_rate)

    history = TrainHistory()
    best_auc = -np.inf
    best_params = None
    streak = 0
    val_head = spec.inference_head

    try:
        with np.errstate(over="raise"):  # ReLU can hide an overflow from every finite-loss check
            for epoch in range(cfg.epochs):
                sum_r = sum_b = 0.0
                for step, pair in enumerate(epoch_batches(sampler, train_ds)):
                    loss_r, loss_b, _, d_cost = train_step(params, pair, spec, cfg, dah_cfg, cost_params, grads)
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

                val_auc, val_ap = _val_metrics(params, val_ds, val_head)
                history.loss_regular.append(sum_r / (step + 1))
                history.loss_balanced.append(sum_b / (step + 1))
                history.val_auc_roc.append(val_auc)
                history.val_auc_prc.append(val_ap)
                c_fp, c_fn = current_costs(cost_params) if cost_params else (float("nan"), float("nan"))
                history.cost_fp.append(c_fp)
                history.cost_fn.append(c_fn)

                if val_auc > best_auc:
                    best_auc = val_auc
                    history.best_epoch = epoch
                    best_params = params.copy()
                    history.best_cost = current_costs(cost_params) if cost_params else None
                    streak = 0
                else:
                    streak += 1
                    if streak > cfg.early_stop_patience:
                        break
    except FloatingPointError as exc:
        raise NumericalError(f"numeric blow-up at epoch {epoch}: {exc}") from None

    best_params.trained_heads = ("regular", "balanced") if spec.dual_stream else ("regular",)
    history.wall_time_s = time.perf_counter() - t0
    return best_params, history


def logits(params: ModelParams, x: np.ndarray, head: str | None = None) -> np.ndarray:
    """Logits of the chosen head (default: balanced when trained, else regular)."""
    available = params.trained_heads if params.trained_heads is not None else ("regular", "balanced")
    if head is None:
        head = "balanced" if "balanced" in available else "regular"
    if head not in ("regular", "balanced"):
        raise ValidationError(f"unknown head {head!r}")
    if head not in available:
        raise ValidationError(f"head {head!r} was not trained for this variant")
    trace = forward(params, x, head)
    return trace.logits_balanced if head == "balanced" else trace.logits_regular


def predict(params: ModelParams, x: np.ndarray, head: str | None = None) -> np.ndarray:
    """Class probabilities: the softmax of `logits`; a non-finite one raises NumericalError."""
    probs = softmax(logits(params, x, head))
    if not np.isfinite(probs).all():
        bad = int((~np.isfinite(probs)).any(axis=1).sum())
        raise NumericalError(f"non-finite class probabilities in {bad} of {probs.shape[0]} rows")
    return probs


def _mean_ci(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        return float(arr.mean()), float("nan")
    stderr = arr.std(ddof=1) / np.sqrt(arr.size)
    return float(arr.mean()), float(1.96 * stderr)


def _run_single(job) -> dict:
    cfg, train_ds, val_ds, test_ds = job
    params, _ = train(cfg, (train_ds, val_ds))
    return split_report(predict(params, test_ds.features), test_ds.labels)


def _run_jobs(jobs, max_workers: int = 1) -> list[dict]:
    if max_workers <= 1 or len(jobs) <= 1:
        return [_run_single(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=min(max_workers, len(jobs))) as pool:
        return list(pool.map(_run_single, jobs))


def _grid(cfg: TrainConfig, splits: tuple[Dataset, Dataset, Dataset], field: str, values, seeds,
          metrics, max_workers: int) -> dict:
    """Train one job per (value of `field`, seed) on the same splits.

    Maps each value to its run count and, for each test metric, the mean,
    the 95% CI half-width and the per-seed values.
    """
    train_ds, val_ds, test_ds = splits
    jobs = [(replace(cfg, **{field: v, "seed": s}), train_ds, val_ds, test_ds) for v in values for s in seeds]
    results = _run_jobs(jobs, max_workers)
    table = {}
    for i, value in enumerate(values):
        runs = results[i * len(seeds):(i + 1) * len(seeds)]
        row = table[value] = {"n_runs": len(runs)}
        for metric in metrics:
            per_seed = [r[metric] for r in runs]
            row[f"{metric}_mean"], row[f"{metric}_ci95"] = _mean_ci(per_seed)
            row[f"{metric}_per_seed"] = per_seed
    return table


def sweep_theta(
    cfg: TrainConfig,
    splits: tuple[Dataset, Dataset, Dataset],
    theta_grid=(1.0, 5.0, 10.0, 25.0, 50.0, 100.0),
    seeds=(0, 1, 2),
    max_workers: int = 1,
) -> list[dict]:
    """Train/eval over the theta grid; one table row per theta with mean +- 95% CI."""
    if not variant_losses(cfg.variant).uses_cost:
        raise ValidationError("theta sweep requires a cost-matrix variant")
    if len(seeds) < 3:
        raise ValidationError("theta sweep needs at least 3 seeds for confidence intervals")
    grid = sorted({float(t) for t in theta_grid})
    if not grid:
        raise ValidationError("sweep.theta_grid must not be empty")
    table = _grid(cfg, splits, "theta", grid, seeds, ("auc_roc", "auc_prc"), max_workers)
    return [{"theta": t, **{k: v for k, v in row.items() if not k.endswith("_per_seed")}}
            for t, row in table.items()]


def table_metrics(n_classes: int) -> tuple[str, ...]:
    """Test metrics an ablation table aggregates: binary scores, or macro/micro AUC for multi-class."""
    return ("auc_roc", "auc_prc", "bss") if n_classes == 2 else ("macro_auc", "micro_auc")


def run_ablation(
    cfg: TrainConfig,
    splits: tuple[Dataset, Dataset, Dataset],
    variants=VARIANTS,
    seeds=(0, 1, 2, 3, 4),
    max_workers: int = 1,
) -> dict:
    """Train every variant on identical splits with shared seeds; consolidated metric table.

    On multi-class data the binary-only cost variants are skipped.
    """
    if not seeds:
        raise ValidationError("ablation.seeds must not be empty")
    n_classes = splits[0].n_classes
    if n_classes != 2:
        variants = tuple(v for v in variants if not variant_losses(v).uses_cost)
    return _grid(cfg, splits, "variant", variants, seeds, table_metrics(n_classes), max_workers)
