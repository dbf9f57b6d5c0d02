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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import (CONFIG_RULES, VARIANTS, Dataset, SynthConfig, apply_preprocess, check_config, fit_preprocess,
                   gen_synthetic, imbalance_ratio, load_csv, save_csv, stratified_split, write_table)
from .diagnostics import gradient_report
from .errors import DenshiftError, NumericalError, SchemaError, ValidationError
from .metrics import ScoredSet, calibration_bins, nll, split_report, temperature_apply, temperature_fit
from .nn import load_checkpoint, save_checkpoint
from .training import (EpochRecord, TrainConfig, logits, predict, run_ablation, sweep_theta, table_metrics, train,
                       variant_losses)

# the synthetic benchmark: the config classes' defaults with the benchmark's spread, scale and budget
DEFAULT_CONFIG = {
    "dataset": {"synthetic": {**asdict(SynthConfig()), "mode_spread": 2.25, "minority_scale": 0.8}},
    "split": {"fractions": [0.8, 0.1, 0.1], "seed": 0},
    "train": {**asdict(TrainConfig()), "epochs": 400, "early_stop_patience": 60},
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
    """Merge defaults <- config file <- flag overrides, each key and value checked by `data.CONFIG_RULES`."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: invalid JSON config: {exc}") from None
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path}: byte {exc.object[exc.start]:#04x} is not UTF-8") from None
        check_config(user)
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
        node[leaf] = CONFIG_RULES[dotted].check(dotted, value)
    sources = [k for k in ("synthetic", "csv") if k in cfg["dataset"]]
    if len(sources) != 1:
        raise ValidationError(f"config must name exactly one dataset source, found {sources}")
    return cfg


def config_hash(cfg: dict) -> str:
    """Hash of the experiment-defining part of the config (output location excluded)."""
    core = {k: v for k, v in cfg.items() if k != "output_dir"}
    canon = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _load_dataset(cfg: dict) -> Dataset:
    source = cfg["dataset"]
    if "synthetic" in source:
        return gen_synthetic(SynthConfig(**source["synthetic"]))
    spec = source["csv"]
    if "path" not in spec:
        raise ValidationError("dataset.csv needs a path")
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


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _label_mapping(class_names) -> dict:
    return {str(i): name for i, name in enumerate(class_names)}


def _write_scores(out: Path, suffix: str, probs: np.ndarray, labels: np.ndarray, n_bins: int) -> None:
    """predictions{suffix}.csv (binary: the positive score only) and, if binary, calibration{suffix}.csv."""
    if probs.shape[1] == 2:
        calibration_bins(ScoredSet(probs[:, 1], labels), n_bins).to_csv(out / f"calibration{suffix}.csv")
        columns, shown = ["score"], probs[:, 1:]
    else:
        columns, shown = [f"p{c}" for c in range(probs.shape[1])], probs
    write_table(out / f"predictions{suffix}.csv", columns + ["label"], zip(*shown.T.tolist(), labels.tolist()))


def _max_workers() -> int:
    """Worker processes for grid commands: DENSHIFT_THREADS, else the CPUs this process may run on."""
    raw = os.environ.get("DENSHIFT_THREADS")
    if raw is None:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValidationError(f"DENSHIFT_THREADS must be an integer, got {raw!r}") from None


def cmd_gen_data(cfg: dict, args) -> int:
    if "synthetic" not in cfg["dataset"]:
        raise ValidationError("gen-data needs a synthetic dataset source")
    ds = _load_dataset(cfg)
    tr, va, te = stratified_split(ds, tuple(cfg["split"]["fractions"]), cfg["split"]["seed"])
    out = _out_dir(cfg)
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


def cmd_train(cfg: dict, args) -> int:
    tcfg = TrainConfig(**cfg["train"])
    raw, (tr, va, te), stats = _splits(cfg)
    params, history = train(tcfg, (tr, va))
    test_probs = predict(params, te.features)
    chash = config_hash(cfg)
    best = history.epochs[history.best_epoch]
    cost_at_best = [best.cost_fp, best.cost_fn] if variant_losses(tcfg.variant).uses_cost else None
    report = {
        "command": "train",
        "config_hash": chash,
        "variant": tcfg.variant,
        "seed": tcfg.seed,
        "label_mapping": _label_mapping(raw.class_names),
        "imbalance_ratio": imbalance_ratio(raw),
        "best_epoch": history.best_epoch,
        "epochs_run": history.epochs_run,
        "stop_reason": history.stop_reason,
        "cost_at_best": cost_at_best,
        "val": split_report(predict(params, va.features), va.labels),
        "test": split_report(test_probs, te.labels),
    }
    if cfg["metrics"]["temperature_scaling"]:
        val_logits = logits(params, va.features)
        t_fit = temperature_fit(val_logits, va.labels)
        scaled = temperature_apply(logits(params, te.features), t_fit)
        report["temperature_scaling"] = {
            "temperature": t_fit,
            "val_nll_before": nll(val_logits, va.labels, 1.0),
            "val_nll_after": nll(val_logits, va.labels, t_fit),
            "test": split_report(scaled, te.labels),
        }

    extra = {"config_hash": chash, "variant": tcfg.variant, "theta": tcfg.theta, "offset": tcfg.offset,
             "cost_at_best": cost_at_best}
    out = _out_dir(cfg)
    save_checkpoint(out / "checkpoint.npz", params, stats, raw.class_names,
                    raw.feature_names, raw.label_column, extra=extra)
    write_table(out / "history.csv", ("epoch", *EpochRecord._fields),
                ((epoch, *record) for epoch, record in enumerate(history.epochs)))
    _write_scores(out, "_test", test_probs, te.labels, cfg["metrics"]["n_bins"])
    _write_json(out / "report.json", report)
    print(f"{tcfg.variant}: test " + " ".join(f"{m}={report['test'][m]:.4f}" for m in table_metrics(te.n_classes)))
    return 0


def _column_mismatch(names: list[str], expected: list[str]) -> str:
    """How the feature columns `names` differ from the checkpoint's `expected` ones."""
    missing, extra = sorted(set(expected) - set(names)), sorted(set(names) - set(expected))
    if missing or extra:
        return f"missing {missing}, unexpected {extra}"
    for i, (name, want) in enumerate(zip(names, expected), start=1):
        if name != want:
            return f"feature column {i} is {name!r}, the checkpoint expects {want!r}"


def cmd_eval(cfg: dict, args) -> int:
    params, stats, meta = load_checkpoint(args.checkpoint)
    label_column = args.label_column or meta["label_column"]
    ds = load_csv(args.csv, label_column)
    names, expected = list(ds.feature_names), list(meta["feature_names"])
    if names != expected:
        raise SchemaError(f"{args.csv}: feature columns do not match checkpoint ({_column_mismatch(names, expected)})")
    # align the file's label indexing with the checkpoint's class order
    ckpt_classes = list(meta["class_names"])
    unknown = [c for c in ds.class_names if c not in ckpt_classes]
    if unknown:
        raise SchemaError(f"{args.csv}: label values unknown to checkpoint: {unknown}")
    remap = np.array([ckpt_classes.index(c) for c in ds.class_names], dtype=np.int64)
    labels = remap[ds.labels]
    ds = Dataset(ds.features, labels, ds.feature_names, tuple(ckpt_classes), label_column=label_column)

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
    out = _out_dir(cfg)
    _write_scores(out, "", probs, prepared.labels, n_bins)
    _write_json(out / "report.json", report)
    print(json.dumps(_sanitize(report["metrics"])))
    return 0


def _write_grid(cfg: dict, name: str, key: str, rows: list[dict], n_classes: int, payload: dict) -> None:
    """`<name>.csv` (`key`, `n_runs`, each metric's mean and ci95), `<name>.json` and one stdout line per row."""
    metrics = table_metrics(n_classes)
    columns = [key, "n_runs"] + [f"{m}_{stat}" for m in metrics for stat in ("mean", "ci95")]
    out = _out_dir(cfg)
    write_table(out / f"{name}.csv", columns, ([row[k] for k in columns] for row in rows))
    _write_json(out / f"{name}.json", {"config_hash": config_hash(cfg), **payload})
    for row in rows:
        print(f"{key}={row[key]} " + " ".join(f"{m}={row[m + '_mean']:.4f}" for m in metrics))


def cmd_ablate(cfg: dict, args) -> int:
    tcfg = TrainConfig(**cfg["train"])
    _, splits, _ = _splits(cfg)
    table = run_ablation(tcfg, splits, seeds=tuple(cfg["ablation"]["seeds"]), max_workers=_max_workers())
    skipped = [v for v in VARIANTS if v not in table]  # the binary-only cost variants, on multi-class data
    _write_grid(cfg, "ablation", "variant", [{"variant": v, **row} for v, row in table.items()],
                splits[0].n_classes, {"skipped_variants": skipped, "table": table})
    return 0


def cmd_sweep_theta(cfg: dict, args) -> int:
    tcfg = TrainConfig(**cfg["train"])
    _, splits, _ = _splits(cfg)
    rows = sweep_theta(tcfg, splits, theta_grid=cfg["sweep"]["theta_grid"],
                       seeds=tuple(cfg["sweep"]["seeds"]), max_workers=_max_workers())
    _write_grid(cfg, "sweep_theta", "theta", rows, splits[0].n_classes, {"rows": rows})
    return 0


def cmd_grad_check(cfg: dict, args) -> int:
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is bad input: exit 1, as 2 means a numeric failure
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# flag (without --) -> (the config entry it overrides, None if the command reads it itself; argparse keywords)
_FLAGS = {
    "config": (None, {"help": "JSON experiment config"}),
    "out": ("output_dir", {"help": "output directory"}),
    "seed": ("train.seed", {"type": int, "help": "training seed override"}),
    "variant": ("train.variant", {"help": "training variant override"}),
    "label-column": ("dataset.csv.label_column", {"help": "label column name for CSV sources"}),
    "theta": ("train.theta", {"type": float, "help": "cost-ratio hyperparameter override"}),
    "bins": ("metrics.n_bins", {"type": int, "help": "calibration bin count override"}),
    "checkpoint": (None, {"required": True, "help": "checkpoint written by train"}),
    "csv": (None, {"required": True, "help": "CSV to evaluate"}),
}

# command -> (what it runs, help, the flags it reads)
_COMMANDS = {
    "gen-data": (cmd_gen_data, "generate synthetic train/val/test CSVs", "config out"),
    "train": (cmd_train, "train and evaluate one model", "config out seed variant label-column theta bins"),
    "eval": (cmd_eval, "evaluate a checkpoint on a CSV", "checkpoint csv config out label-column bins"),
    "ablate": (cmd_ablate, "run the full variant grid", "config out label-column"),
    "sweep-theta": (cmd_sweep_theta, "grid search the cost ratio", "config out variant label-column"),
    "grad-check": (cmd_grad_check, "finite-difference gradient verification", ""),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="denshift", description="density-aware imbalanced-classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag][1])
    return parser


def _overrides(args) -> dict:
    return {entry: getattr(args, flag.replace("-", "_"), None)
            for flag, (entry, _) in _FLAGS.items() if entry is not None}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(load_config(getattr(args, "config", None), _overrides(args)), args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DenshiftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
