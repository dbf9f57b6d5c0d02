"""Which denshift functions the traced run wraps, and the per-layer metrics built from the spans.

Layers are denshift's modules: data, sampling, nn, losses, training,
metrics, cli. Each target is wrapped where it is defined and at every other
`denshift.*` module attribute that holds it, so every caller's lookup is
seen. A metric whose layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import math
from collections import defaultdict

from spans import ATTR, NAME, PARENT, SID, T0, T1, self_time


def _rows_arg0(args, kwargs, result):
    return args[0].n


def _rows_result(args, kwargs, result):
    return result.n


def _rows_matrix(args, kwargs, result):
    return len(args[0])


def _train_counts(args, kwargs, result):
    cfg, (train_ds, _) = args[0], args[1]
    epochs = result[1].epochs_run
    return [epochs, epochs * math.ceil(train_ds.n / cfg.batch_size)]


def _predict_rows(args, kwargs, result):
    return len(result)


# (where the function is defined, span name, kind, attribute extractor)
TARGETS = [
    ("denshift.cli.main", "cli.main", "call", None),
    ("denshift.training.train", "training.train", "call", _train_counts),
    ("denshift.training.predict", "training.predict", "call", _predict_rows),
    ("denshift.training._run_jobs", "training.pool", "pool", None),
    ("denshift.training._run_single", "training.job", "job", None),
    ("denshift.sampling.next_batch_pair", "sampling.next_batch_pair", "call", None),
    ("denshift.nn.forward", "nn.forward", "call", None),
    ("denshift.nn.backward", "nn.backward", "call", None),
    ("denshift.nn.opt_step", "nn.opt_step", "call", None),
    ("denshift.nn.save_checkpoint", "nn.save_checkpoint", "call", None),
    ("denshift.nn.load_checkpoint", "nn.load_checkpoint", "call", None),
    ("denshift.losses.ce", "losses.ce", "call", None),
    ("denshift.losses.focal", "losses.focal", "call", None),
    ("denshift.losses.dah_softmax", "losses.dah_softmax", "call", None),
    ("denshift.losses.cost_loss", "losses.cost_loss", "call", None),
    ("denshift.metrics.auc_roc", "metrics.auc_roc", "call", _rows_arg0),
    ("denshift.metrics.auc_prc", "metrics.auc_prc", "call", _rows_arg0),
    ("denshift.metrics.macro_micro_auc", "metrics.macro_micro_auc", "call", _rows_matrix),
    ("denshift.metrics.score_report", "metrics.score_report", "call", _rows_arg0),
    ("denshift.metrics.calibration_bins", "metrics.calibration_bins", "call", _rows_arg0),
    ("denshift.data.load_csv", "data.load_csv", "call", _rows_result),
    ("denshift.data.save_csv", "data.save_csv", "call", _rows_arg0),
    ("denshift.data.gen_synthetic", "data.gen_synthetic", "call", _rows_result),
    ("denshift.data.stratified_split", "data.stratified_split", "call", None),
    ("denshift.data.apply_preprocess", "data.apply_preprocess", "call", None),
]

STEP_LAYERS = ("sampling.next_batch_pair", "nn.forward", "nn.backward", "nn.opt_step")
LOSSES = ("losses.ce", "losses.focal", "losses.dah_softmax", "losses.cost_loss")
PER_CALL_S = ("metrics.score_report", "metrics.calibration_bins", "data.gen_synthetic",
              "data.stratified_split", "data.apply_preprocess", "nn.save_checkpoint",
              "nn.load_checkpoint")


def _dur(s) -> float:
    return s[T1] - s[T0]


def _rate(spans) -> float:
    """Rows per second over spans whose attribute is a row count."""
    spans = [s for s in spans if s[ATTR] is not None]
    busy = sum(_dur(s) for s in spans)
    return sum(s[ATTR] for s in spans) / busy if busy > 0 else 0.0


def _mean_s(spans) -> float:
    return sum(_dur(s) for s in spans) / len(spans) if spans else 0.0


def layer_metrics(spans, first_pass_end: float, absent_spans=()) -> dict:
    """Per-layer metrics from one traced run.

    Counts (`calls`, `steps`, `epochs_run`, `jobs`) are taken over the first
    pass of operations, which ended at `first_pass_end`, so they are exact
    for a seed. Times and shares use every span in the run. Shares are of
    the summed `training.train` span time; a train span's direct children
    plus its self time make up the whole span.
    """
    by_id = {s[SID]: s for s in spans}
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append(s)
        by_name[s[NAME]].append(s)

    def in_first(s):
        return s[T1] <= first_pass_end

    def under(name, parents):
        return [s for s in by_name[name] if s[PARENT] in parents]

    def ancestor_named(s, prefix):
        p = by_id.get(s[PARENT])
        while p is not None:
            if p[NAME].startswith(prefix):
                return p[NAME]
            p = by_id.get(p[PARENT])
        return None

    out = {}
    train = by_name["training.train"]
    train_ids = {s[SID] for s in train}
    train_total = sum(_dur(s) for s in train)

    def share(spans_):
        return sum(_dur(s) for s in spans_) / train_total if train_total > 0 else 0.0

    for name in STEP_LAYERS:
        step = under(name, train_ids)  # validation forwards sit under predict, not train
        out[f"{name}.calls"] = (sum(1 for s in step if in_first(s)), "count")
        out[f"{name}.us_per_call"] = (_mean_s(step) * 1e6, "us")
        out[f"{name}.share"] = (share(step), "share")
    all_losses = []
    for name in LOSSES:
        calls = by_name[name]
        all_losses += under(name, train_ids)
        out[f"{name}.calls"] = (sum(1 for s in calls if in_first(s)), "count")
        out[f"{name}.us_per_call"] = (_mean_s(calls) * 1e6, "us")
    out["losses.share"] = (share(all_losses), "share")

    train_self = sum(self_time(s, children[s[SID]]) for s in train)
    out["training.train.self_share"] = (train_self / train_total if train_total > 0 else 0.0, "share")
    first_train = [s for s in train if in_first(s) and s[ATTR]]
    out["training.train.steps"] = (sum(s[ATTR][1] for s in first_train), "count")
    out["training.train.epochs_run"] = (sum(s[ATTR][0] for s in first_train), "count")
    val = [c for s in train for c in children[s[SID]]
           if c[NAME] == "training.predict" or c[NAME].startswith("metrics.")]
    out["training.val.share"] = (share(val), "share")
    out["training.predict.rows_per_s"] = (_rate(by_name["training.predict"]), "rows/s")

    pools = by_name["training.pool"]
    jobs = by_name["training.job"]
    out["training.pool.jobs"] = (sum(1 for s in jobs if in_first(s)), "count")
    capacity, busy, tails = 0.0, 0.0, []
    for pool in pools:
        pool_jobs = children[pool[SID]]
        if not pool_jobs:
            continue
        last_end = defaultdict(float)
        for j in pool_jobs:
            last_end[j[ATTR]] = max(last_end[j[ATTR]], j[T1])
        capacity += _dur(pool) * len(last_end)
        busy += sum(_dur(j) for j in pool_jobs)
        tails.append(max(last_end.values()) - min(last_end.values()))
    out["training.pool.busy_share"] = (busy / capacity if capacity > 0 else 0.0, "share")
    out["training.pool.tail_s"] = (sum(tails) / len(tails) if tails else 0.0, "s")

    for name in ("metrics.auc_roc", "metrics.auc_prc"):
        for regime in ("untied", "tied"):
            spans_ = [s for s in by_name[name] if ancestor_named(s, f"bench.score.{regime}")]
            out[f"{name}.rows_per_s_{regime}"] = (_rate(spans_), "rows/s")
    out["metrics.macro_micro_auc.us_per_call"] = (_mean_s(by_name["metrics.macro_micro_auc"]) * 1e6, "us")
    for name in PER_CALL_S:
        out[f"{name}.s"] = (_mean_s(by_name[name]), "s")
    out["data.load_csv.rows_per_s"] = (_rate(by_name["data.load_csv"]), "rows/s")
    out["data.save_csv.rows_per_s"] = (_rate(by_name["data.save_csv"]), "rows/s")
    commands = by_name["cli.main"]
    cli_self = [self_time(s, children[s[SID]]) for s in commands]
    out["cli.self_s"] = (sum(cli_self) / len(cli_self) if cli_self else 0.0, "s")

    # a wrapped name that no longer exists drops the metrics built on it
    absent = set(absent_spans)
    return {k: v for k, v in out.items() if not absent.intersection(_sources(k))}


_SOURCES = {
    "losses.share": LOSSES,
    "cli.self_s": ("cli.main",),
    "training.val.share": ("training.predict",),
    "training.pool.jobs": ("training.job",),
    "training.pool.busy_share": ("training.pool", "training.job"),
    "training.pool.tail_s": ("training.pool", "training.job"),
}


def _sources(key: str) -> tuple:
    """The span names a metric is built from."""
    sources = _SOURCES.get(key, (key.rsplit(".", 1)[0],))
    return sources + ("training.train",) if key.endswith("share") else sources


ACCOUNTED = tuple(f"{n}.share" for n in STEP_LAYERS) + (
    "losses.share", "training.val.share", "training.train.self_share")


def train_accounting(layer: dict) -> float:
    """Named children's shares plus train's self share; 1.0 when they account for the whole span."""
    return sum(layer[k][0] for k in ACCOUNTED if k in layer)
