"""Command-line entry point.

Subcommands: gen-data, train, eval, ablate, sweep-theta, grad-check.
Every command is driven by one JSON config file (nested sections), with
individual flags taking precedence over the file, and the file over the
built-in defaults. All emitted reports embed the config hash and the
label mapping and contain no timestamps, so a rerun with the same config
produces byte-identical files.

Exit codes: 0 success, 1 validation/config error, 2 runtime/numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    SynthConfig,
    apply_preprocess,
    fit_preprocess,
    gen_synthetic,
    imbalance_ratio,
    load_csv,
    save_csv,
    stratified_split,
    write_labeled_rows,
)
from .diagnostics import gradient_report
from .errors import DenshiftError, NumericalError, SchemaError, ValidationError
from .metrics import (
    ScoredSet,
    calibration_bins,
    nll,
    score_report,
    split_report,
    temperature_apply,
    temperature_fit,
)
from .nn import load_checkpoint, save_checkpoint
from .training import (
    TrainConfig,
    logits,
    predict,
    run_ablation,
    sweep_theta,
    table_metrics,
    train,
)

DEFAULT_CONFIG = {
    "dataset": {
        "synthetic": {
            "n_majority": 900,
            "n_minority": 100,
            "n_minority_modes": 3,
            "dim": 20,
            "mode_spread": 2.25,
            "noise_scale": 1.0,
            "minority_scale": 0.8,
            "seed": 0,
        }
    },
    "split": {"fractions": [0.8, 0.1, 0.1], "seed": 0},
    "train": {
        "variant": "full",
        "epochs": 400,
        "batch_size": 64,
        "learning_rate": 1e-3,
        "optimizer": "adam",
        "seed": 0,
        "early_stop_patience": 60,
        "hidden": 28,
        "depth": 4,
        "margin_scale": None,
        "gamma": 2.0,
        "theta": 5.0,
        "offset": 0.01,
        "lambda_cost": 1.0,
        "q_regular": 1.0,
        "q_balanced": 0.0,
        "normalize_balanced": False,
    },
    "metrics": {"n_bins": 10, "temperature_scaling": False},
    "sweep": {"theta_grid": [1, 5, 10, 25, 50, 100], "seeds": [0, 1, 2]},
    "ablation": {"seeds": [0, 1, 2, 3, 4]},
    "output_dir": "denshift_out",
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Merge defaults <- config file <- flag overrides."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: invalid JSON config: {exc}") from None
        if "csv" in user.get("dataset", {}):
            cfg["dataset"].pop("synthetic", None)  # file picks the source
        cfg = _deep_merge(cfg, user)
    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        if dotted == "dataset.csv.label_column" and "csv" not in cfg["dataset"]:
            continue  # --label-column is meaningless for a synthetic source
        node = cfg
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    sources = [k for k in ("synthetic", "csv") if k in cfg["dataset"]]
    if len(sources) != 1:
        raise ValidationError(f"config must name exactly one dataset source, found {sources}")
    return cfg


def config_hash(cfg: dict) -> str:
    """Hash of the experiment-defining part of the config (output location excluded)."""
    core = {k: v for k, v in cfg.items() if k not in ("output_dir", "eval_label_column")}
    canon = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(**cfg["train"])


def _load_dataset(cfg: dict) -> Dataset:
    source = cfg["dataset"]
    if "synthetic" in source:
        return gen_synthetic(SynthConfig(**source["synthetic"]))
    spec = source["csv"]
    return load_csv(spec["path"], spec.get("label_column", "label"))


def _splits(cfg: dict):
    ds = _load_dataset(cfg)
    tr, va, te = stratified_split(ds, tuple(cfg["split"]["fractions"]), cfg["split"]["seed"])
    stats = fit_preprocess(tr)
    return ds, (apply_preprocess(tr, stats), apply_preprocess(va, stats), apply_preprocess(te, stats)), stats


def _sanitize(obj):
    """Replace non-finite floats with None so reports are strict JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_table(path: Path, rows: list[dict], columns: list[str]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row[col]
            if isinstance(v, (float, np.floating)):
                cells.append("" if not np.isfinite(v) else repr(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _label_mapping(class_names) -> dict:
    return {str(i): name for i, name in enumerate(class_names)}


def _max_workers() -> int:
    raw = os.environ.get("DENSHIFT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValidationError(f"DENSHIFT_THREADS must be an integer, got {raw!r}") from None


def cmd_gen_data(cfg: dict) -> int:
    if "synthetic" not in cfg["dataset"]:
        raise ValidationError("gen-data needs a synthetic dataset source")
    out = _out_dir(cfg)
    ds = _load_dataset(cfg)
    tr, va, te = stratified_split(ds, tuple(cfg["split"]["fractions"]), cfg["split"]["seed"])
    for name, split in (("train", tr), ("val", va), ("test", te)):
        save_csv(split, out / f"{name}.csv")
    manifest = {
        "dataset": cfg["dataset"],
        "split": cfg["split"],
        "output_dir": cfg["output_dir"],
        "config_hash": config_hash({"dataset": cfg["dataset"], "split": cfg["split"]}),
        "rows": {"train": tr.n, "val": va.n, "test": te.n},
        "label_mapping": _label_mapping(ds.class_names),
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {tr.n}/{va.n}/{te.n} rows to {out}")
    return 0


def _history_csv(path: Path, history) -> None:
    rows = []
    for e in range(history.epochs_run):
        rows.append({
            "epoch": e,
            "loss_regular": history.loss_regular[e],
            "loss_balanced": history.loss_balanced[e],
            "val_auc_roc": history.val_auc_roc[e],
            "val_auc_prc": history.val_auc_prc[e],
            "cost_fp": history.cost_fp[e],
            "cost_fn": history.cost_fn[e],
        })
    _write_table(path, rows, ["epoch", "loss_regular", "loss_balanced", "val_auc_roc",
                              "val_auc_prc", "cost_fp", "cost_fn"])


def cmd_train(cfg: dict) -> int:
    tcfg = _train_config(cfg)
    out = _out_dir(cfg)
    raw, (tr, va, te), stats = _splits(cfg)
    params, history = train(tcfg, (tr, va))

    extra = {
        "config_hash": config_hash(cfg),
        "variant": tcfg.variant,
        "theta": tcfg.theta,
        "offset": tcfg.offset,
        "cost_at_best": list(history.best_cost) if history.best_cost else None,
    }
    save_checkpoint(out / "checkpoint.npz", params, stats, raw.class_names,
                    raw.feature_names, raw.label_column, extra=extra)
    _history_csv(out / "history.csv", history)

    test_probs = predict(params, te.features)
    report = {
        "command": "train",
        "config_hash": config_hash(cfg),
        "variant": tcfg.variant,
        "seed": tcfg.seed,
        "label_mapping": _label_mapping(raw.class_names),
        "imbalance_ratio": imbalance_ratio(raw),
        "best_epoch": history.best_epoch,
        "epochs_run": history.epochs_run,
        "cost_at_best": list(history.best_cost) if history.best_cost else None,
        "val": split_report(predict(params, va.features), va.labels),
        "test": split_report(test_probs, te.labels),
    }
    if te.n_classes == 2:
        write_labeled_rows(out / "predictions_test.csv", ["score"], test_probs[:, 1:], te.labels)
        calibration_bins(ScoredSet(test_probs[:, 1], te.labels), cfg["metrics"]["n_bins"]).to_csv(
            out / "calibration_test.csv"
        )
    if cfg["metrics"]["temperature_scaling"]:
        val_logits = logits(params, va.features)
        t_fit = temperature_fit(val_logits, va.labels)
        scaled = temperature_apply(logits(params, te.features), t_fit)
        entry = {
            "temperature": t_fit,
            "val_nll_before": nll(val_logits, va.labels, 1.0),
            "val_nll_after": nll(val_logits, va.labels, t_fit),
        }
        if te.n_classes == 2:
            entry["test"] = score_report(ScoredSet(scaled[:, 1], te.labels))
        report["temperature_scaling"] = entry
    _write_json(out / "report.json", report)
    test_part = report["test"]
    if "auc_roc" in test_part:
        print(
            f"{tcfg.variant}: test auc_roc={test_part['auc_roc']:.4f} "
            f"auc_prc={test_part['auc_prc']:.4f} bss={test_part['bss']:.4f}"
        )
    else:
        print(f"{tcfg.variant}: test macro_auc={test_part['macro_auc']:.4f}")
    return 0


def cmd_eval(cfg: dict, checkpoint_path: str, csv_path: str) -> int:
    out = _out_dir(cfg)
    params, stats, meta = load_checkpoint(checkpoint_path)
    label_column = cfg.get("eval_label_column") or meta["label_column"]
    ds = load_csv(csv_path, label_column)
    if list(ds.feature_names) != list(meta["feature_names"]):
        missing = set(meta["feature_names"]) - set(ds.feature_names)
        extra = set(ds.feature_names) - set(meta["feature_names"])
        raise SchemaError(
            f"{csv_path}: feature columns do not match checkpoint "
            f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
        )
    # align the file's label indexing with the checkpoint's class order
    ckpt_classes = list(meta["class_names"])
    unknown = [c for c in ds.class_names if c not in ckpt_classes]
    if unknown:
        raise SchemaError(f"{csv_path}: label values unknown to checkpoint: {unknown}")
    remap = np.array([ckpt_classes.index(c) for c in ds.class_names], dtype=np.int64)
    labels = remap[ds.labels]
    ds = Dataset(ds.features, labels, ds.feature_names, tuple(ckpt_classes),
                 label_column=label_column, allow_empty_classes=True)

    prepared = apply_preprocess(ds, stats)
    probs = predict(params, prepared.features)
    n_bins = cfg["metrics"]["n_bins"]
    report = {
        "command": "eval",
        "train_config_hash": meta["extra"].get("config_hash"),
        "variant": meta["extra"].get("variant"),
        "label_mapping": _label_mapping(ckpt_classes),
        "n_bins": n_bins,
        "metrics": split_report(probs, prepared.labels),
    }
    if len(ckpt_classes) == 2:
        calibration_bins(ScoredSet(probs[:, 1], prepared.labels), n_bins).to_csv(out / "calibration.csv")
        write_labeled_rows(out / "predictions.csv", ["score"], probs[:, 1:], prepared.labels)
    else:
        write_labeled_rows(out / "predictions.csv", [f"p{c}" for c in range(len(ckpt_classes))],
                           probs, prepared.labels)
    _write_json(out / "report.json", report)
    print(json.dumps(_sanitize(report["metrics"])))
    return 0


def cmd_ablate(cfg: dict) -> int:
    tcfg = _train_config(cfg)
    _, splits, _ = _splits(cfg)
    table = run_ablation(tcfg, splits, seeds=tuple(cfg["ablation"]["seeds"]),
                         max_workers=_max_workers())
    out = _out_dir(cfg)
    metrics = table_metrics(splits[0].n_classes)
    columns = ["variant", "n_runs"] + [f"{m}_{stat}" for m in metrics for stat in ("mean", "ci95")]
    rows = [{"variant": v, **{k: row[k] for k in columns[1:]}} for v, row in table.items()]
    _write_table(out / "ablation.csv", rows, columns)
    _write_json(out / "ablation.json", {"config_hash": config_hash(cfg), "table": table})
    for row in rows:
        print(f"{row['variant']:<11} " + " ".join(f"{m}={row[m + '_mean']:.4f}" for m in metrics))
    return 0


def cmd_sweep_theta(cfg: dict) -> int:
    tcfg = _train_config(cfg)
    _, splits, _ = _splits(cfg)
    rows = sweep_theta(tcfg, splits, theta_grid=cfg["sweep"]["theta_grid"],
                       seeds=tuple(cfg["sweep"]["seeds"]), max_workers=_max_workers())
    out = _out_dir(cfg)
    columns = ["theta", "n_runs", "auc_roc_mean", "auc_roc_ci95", "auc_prc_mean", "auc_prc_ci95"]
    _write_table(out / "sweep_theta.csv", rows, columns)
    _write_json(out / "sweep_theta.json", {"config_hash": config_hash(cfg), "rows": rows})
    for row in rows:
        print(f"theta={row['theta']:<6g} auc_roc={row['auc_roc_mean']:.4f} auc_prc={row['auc_prc_mean']:.4f}")
    return 0


def cmd_grad_check(cfg: dict) -> int:
    seeds = range(5)
    worst = 0.0
    for seed in seeds:
        report = gradient_report(seed=seed)
        for name, err in report.items():
            worst = max(worst, err)
            print(f"seed={seed} {name:<12} max_rel_err={err:.3e}")
    print(f"worst={worst:.3e} threshold=1e-4")
    if worst >= 1e-4:
        raise NumericalError(f"gradient check failed: {worst:.3e} >= 1e-4")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="denshift",
                                     description="density-aware imbalanced-classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, theta=False, bins=False):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="training seed override")
        p.add_argument("--variant", help="training variant override")
        p.add_argument("--label-column", help="label column name for CSV sources")
        if theta:
            p.add_argument("--theta", type=float, help="cost-ratio hyperparameter override")
        if bins:
            p.add_argument("--bins", type=int, help="calibration bin count override")

    common(sub.add_parser("gen-data", help="generate synthetic train/val/test CSVs"))
    common(sub.add_parser("train", help="train and evaluate one model"), theta=True, bins=True)
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a CSV")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--csv", required=True)
    common(p_eval, bins=True)
    common(sub.add_parser("ablate", help="run the full variant grid"))
    common(sub.add_parser("sweep-theta", help="grid search the cost ratio"), theta=True)
    common(sub.add_parser("grad-check", help="finite-difference gradient verification"))
    return parser


def _overrides(args) -> dict:
    out = {
        "output_dir": getattr(args, "out", None),
        "train.seed": getattr(args, "seed", None),
        "train.variant": getattr(args, "variant", None),
        "train.theta": getattr(args, "theta", None),
        "metrics.n_bins": getattr(args, "bins", None),
    }
    label = getattr(args, "label_column", None)
    if label is not None:
        out["dataset.csv.label_column"] = label
        out["eval_label_column"] = label
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, args.csv)
        if args.command == "ablate":
            return cmd_ablate(cfg)
        if args.command == "sweep-theta":
            return cmd_sweep_theta(cfg)
        if args.command == "grad-check":
            return cmd_grad_check(cfg)
        raise ValidationError(f"unknown command {args.command!r}")
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DenshiftError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
