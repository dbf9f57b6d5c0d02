"""The benchmark's workloads: set-up, one timed operation, and the correctness checks.

Every input is generated from the workload seed. Seed 0 reproduces the
frozen acceptance benchmark (data seed 0, split seed 0, training seeds
0-4); any other seed regenerates every input.

A workload object is built once per run. `setup()` is called several
times (its median is `setup_s`) and ends with any warm-up, `op(i)` is the
timed operation and returns one sample dict, `check()` verifies the
outputs, and `unit_us()` reduces the samples to the workload's cost per
unit of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from denshift import cli, data, metrics, nn, training
from spans import Tally, median, timing_summary
from speed import SMALL, TEXT, WIDE, SpeedRef

ACCEPT_SYNTH = dict(n_majority=900, n_minority=100, n_minority_modes=3, dim=20,
                    mode_spread=2.25, noise_scale=1.0, minority_scale=0.8)
ACCEPT_TRAIN = dict(epochs=400, batch_size=64, learning_rate=1e-3, optimizer="adam",
                    early_stop_patience=60, theta=5.0, offset=0.01, lambda_cost=1.0,
                    margin_scale=None)
FROZEN_SEED = 0


def acceptance_splits(seed: int):
    """The acceptance benchmark's preprocessed (train, val, test) splits for one data seed."""
    ds = data.gen_synthetic(data.SynthConfig(seed=seed, **ACCEPT_SYNTH))
    tr, va, te = data.stratified_split(ds, (0.8, 0.1, 0.1), seed)
    stats = data.fit_preprocess(tr)
    return tuple(data.apply_preprocess(s, stats) for s in (tr, va, te))


def warm_up(splits, variants) -> None:
    """Five epochs of each variant, so lazy initialisation is done before timing starts."""
    for variant in variants:
        cfg = training.TrainConfig(variant=variant, epochs=5, early_stop_patience=5)
        training.train(cfg, splits[:2])


def batches(variant: str, steps: int) -> int:
    """Training batches in `steps` optimizer steps: dual-stream variants train two per step.

    Counting batches, not steps, puts single- and dual-stream calls on one
    scale, so a median over a mix of variants does not depend on the mix.
    """
    return steps * (2 if training.variant_losses(variant).dual_stream else 1)


def run_cli(tally: Tally, label: str, argv) -> bool:
    """One `denshift` command through its entry point, with its own output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return tally.command(label, cli.main, argv)


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


# -- independent reference metrics -----------------------------------------
# These share no code with denshift.metrics; the checks compare the two.


def ref_auc_roc(scores, labels) -> float:
    """Mann-Whitney AUC from tie-averaged ranks, summed exactly with math.fsum."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    avg_rank = upper - (counts - 1) / 2.0
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    rank_sum = math.fsum(avg_rank[inverse[pos]].tolist())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def ref_average_precision(scores, labels) -> float:
    """Non-interpolated average precision, one cutoff per distinct score."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = (np.asarray(labels) == 1).astype(np.float64)
    _, inverse, counts = np.unique(-scores, return_inverse=True, return_counts=True)
    tp_group = np.bincount(inverse, weights=pos, minlength=counts.size)
    tp_cum = np.cumsum(tp_group)
    seen = np.cumsum(counts)
    n_pos = tp_cum[-1]
    terms = (tp_group / n_pos) * (tp_cum / seen)
    return math.fsum(terms[tp_group > 0].tolist())


def agree(a, b, tol: float = 1e-12) -> bool:
    return a is not None and b is not None and abs(float(a) - float(b)) <= tol


# -- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    setup_reps = 3
    ops_per_pass = 1  # per-layer counts are taken over the first pass of ops
    tracer = None  # set while a traced run measures
    kernel_shape = SMALL  # the speed reference's MLP shape, closest to the workload's own

    @staticmethod
    def cores() -> int:
        """Cores the timed operations keep busy at once."""
        return 1

    def __init__(self, seed: int, work: Path, tally: Tally, speed: SpeedRef):
        self.seed, self.work, self.tally, self.speed = seed, work, tally, speed

    def span(self, name: str):
        """A benchmark-side span around a direct call into denshift (no-op untraced)."""
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def unit_us(self, samples, key: str = "scaled_s") -> float:
        """Median time per unit of work (a training batch, or a row) over the samples."""
        return median(s[key] / s["units"] * 1e6 for s in samples)

    def extras(self, samples) -> dict:
        """Workload-specific figures printed beside the end-to-end metrics."""
        return {}


class Acceptance(Workload):
    """test_07's grid: variants base/dah/full x five training seeds, serial train -> predict -> score."""

    name = "acceptance"
    setup_reps = 5
    variants = ("base", "dah", "full")

    def setup(self) -> None:
        self.splits = acceptance_splits(self.seed)
        train_seeds = range(5 * self.seed, 5 * self.seed + 5)
        # seed-major order, so a partial second pass keeps the variant mix
        self.jobs = [(v, s) for s in train_seeds for v in self.variants]
        self.ops_per_pass = len(self.jobs)
        warm_up(self.splits, self.variants)

    def op(self, i: int) -> dict | None:
        variant, seed = self.jobs[i % len(self.jobs)]
        return self.tally.run(f"{variant} seed {seed}", self._job, variant, seed)

    def _job(self, variant: str, seed: int) -> dict:
        tr, va, te = self.splits
        cfg = training.TrainConfig(variant=variant, seed=seed, **ACCEPT_TRAIN)
        (params, history), raw, scaled = self.speed.time(training.train, cfg, (tr, va))
        scored = metrics.ScoredSet(training.predict(params, te.features)[:, 1], te.labels)
        steps = history.epochs_run * math.ceil(tr.n / cfg.batch_size)
        ap, skill = metrics.auc_prc(scored), metrics.bss(scored)
        return {"variant": variant, "op_s": raw, "scaled_s": scaled, "steps": steps,
                "units": batches(variant, steps),
                "epochs": history.epochs_run, "auc_prc": ap, "bss": skill,
                "result": (ap, skill, history.epochs_run)}

    def check(self, samples) -> None:
        t = self.tally
        for s in samples:
            t.check(f"{s['variant']} quality is valid",
                    0.0 <= s["auc_prc"] <= 1.0 and math.isfinite(s["bss"]) and s["bss"] <= 1.0,
                    f"auc_prc={s['auc_prc']} bss={s['bss']}")
        n = len(self.jobs)
        by_index = {s["i"]: s for s in samples}
        for i, s in by_index.items():
            if i >= n and i - n in by_index:
                t.check("repeated job gives identical results", s["result"] == by_index[i - n]["result"])
        first = [by_index[i] for i in range(n) if i in by_index]
        if len(first) < n:
            t.check("first grid pass completed", False, f"{len(first)}/{n} jobs")
            return
        if self.seed != FROZEN_SEED:
            return
        by = {v: np.array([(s["auc_prc"], s["bss"]) for s in first if s["variant"] == v])
              for v in self.variants}
        gap = by["full"][:, 0].mean() - by["base"][:, 0].mean()
        full_bss, base_bss = by["full"][:, 1].mean(), by["base"][:, 1].mean()
        dah_wins = int((by["dah"][:, 1] > by["base"][:, 1]).sum())
        t.check("AUC-PRC gap full-base >= 0.03", gap >= 0.03, f"gap={gap:.4f}")
        t.check("full BSS > 0 and > base BSS", full_bss > 0.0 and full_bss > base_bss,
                f"full={full_bss:.4f} base={base_bss:.4f}")
        t.check("dah beats base BSS in >= 4/5 seeds", dah_wins >= 4, f"wins={dah_wins}")

    def extras(self, samples) -> dict:
        full = [s["auc_prc"] for s in samples if s["i"] < len(self.jobs) and s["variant"] == "full"]
        out = {
            "train_run_s": (timing_summary([s["op_s"] for s in samples]), "s"),
            "train_step_us": (timing_summary([s["op_s"] / s["steps"] * 1e6 for s in samples]), "us"),
        }
        if full:
            out["test_auc_prc_full"] = (float(np.mean(full)), "auc")
        return out


WIDE_COUNTS = (6000, 2400, 960, 384, 160)
WIDE_DIM = 32
WIDE_EPOCHS = 5


class WideMulticlass(Workload):
    """`denshift train` on a 5-class imbalanced 32-d CSV: decoupling, hidden 128, batch 256."""

    name = "wide-multiclass"
    setup_reps = 5
    kernel_shape = WIDE

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        # class means at distance ~1.2 on random directions: overlapping classes,
        # so test macro-AUC stays well below 1
        means = rng.normal(size=(len(WIDE_COUNTS), WIDE_DIM))
        means *= 1.2 / np.linalg.norm(means, axis=1, keepdims=True)
        labels = np.repeat(np.arange(len(WIDE_COUNTS)), WIDE_COUNTS)
        feats = means[labels] + rng.normal(size=(labels.size, WIDE_DIM))
        order = rng.permutation(labels.size)
        ds = data.Dataset(feats[order], labels[order], tuple(f"x{j}" for j in range(WIDE_DIM)),
                          tuple(f"c{c}" for c in range(len(WIDE_COUNTS))))
        self.csv = self.work / "wide.csv"
        write_csv(self.csv, ds.features, ds.labels, ds)
        self.n_train = data.stratified_split(ds, (0.8, 0.1, 0.1), self.seed)[0].n
        self.cfg = {
            "dataset": {"csv": {"path": str(self.csv), "label_column": "label"}},
            "split": {"fractions": [0.8, 0.1, 0.1], "seed": self.seed},
            "train": {"variant": "decoupling", "epochs": WIDE_EPOCHS, "batch_size": 256,
                      "hidden": 128, "early_stop_patience": WIDE_EPOCHS, "seed": self.seed},
        }
        self.cfg_path = self.work / "wide.json"
        write_json(self.cfg_path, self.cfg)
        self.first_files = None

    def op(self, i: int) -> dict | None:
        out = self.work / "wide-run"
        ok, raw, scaled = self.speed.time(run_cli, self.tally, "denshift train",
                                          ["train", "--config", str(self.cfg_path), "--out", str(out)])
        if not ok:
            return None
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        files = tuple((out / f).read_bytes() for f in ("report.json", "history.csv"))
        if self.first_files is None:
            self.first_files = files
        else:
            self.tally.check("report.json and history.csv rerun byte-identical", files == self.first_files)
        steps = report["epochs_run"] * math.ceil(self.n_train / self.cfg["train"]["batch_size"])
        return {"op_s": raw, "scaled_s": scaled, "steps": steps,
                "units": batches(self.cfg["train"]["variant"], steps), "result": report["test"]["macro_auc"]}

    def check(self, samples) -> None:
        """Recompute the last run's reported test macro-AUC from its saved checkpoint."""
        if not samples:
            self.tally.check("at least one train run completed", False)
            return
        out = self.work / "wide-run"
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        params, stats, _ = nn.load_checkpoint(out / "checkpoint.npz")
        ds = data.load_csv(self.csv, "label")
        te = data.apply_preprocess(data.stratified_split(ds, (0.8, 0.1, 0.1), self.seed)[2], stats)
        probs = training.predict(params, te.features)
        macro = float(np.mean([ref_auc_roc(probs[:, c], te.labels == c) for c in range(te.n_classes)]))
        reported = report["test"]["macro_auc"]
        self.tally.check("report macro-AUC equals checkpoint recompute", agree(macro, reported),
                         f"{reported} vs {macro}")
        self.tally.check("test macro-AUC informative and below 1", 0.6 < reported < 0.98, f"{reported}")

    def extras(self, samples) -> dict:
        return {
            "train_run_s": (timing_summary([s["op_s"] for s in samples]), "s"),
            "train_step_us": (timing_summary([s["op_s"] / s["steps"] * 1e6 for s in samples]), "us"),
            "test_macro_auc": (samples[0]["result"], "auc"),
        }


EVAL_ROWS = 25_000
SCORE_ROWS = 200_000


class EvalCsv(Workload):
    """gen-data of 25k rows, eval of a checkpoint on a 25k-row CSV with empty cells, and
    score_report on 200k untied and 200k tied scores. No training in the timed part."""

    name = "eval-csv"
    kernel_shape = TEXT

    def setup(self) -> None:
        seed, work = self.seed, self.work
        n_maj, n_min = EVAL_ROWS * 9 // 10, EVAL_ROWS // 10
        pool = data.gen_synthetic(data.SynthConfig(
            **{**ACCEPT_SYNTH, "n_majority": n_maj + 900, "n_minority": n_min + 100}, seed=seed))
        rng = np.random.default_rng(seed)
        train_idx = np.sort(np.concatenate([
            rng.choice(n_maj + 900, 900, replace=False),
            n_maj + 900 + rng.choice(n_min + 100, 100, replace=False),
        ]))
        rest = np.setdiff1d(np.arange(pool.n), train_idx)
        train_csv = work / "ckpt-train.csv"
        write_csv(train_csv, pool.features[train_idx], pool.labels[train_idx], pool)
        feats = pool.features[rest].copy()
        feats[rng.random(feats.shape) < 0.01] = np.nan  # about 1% empty cells
        self.eval_csv = work / "eval.csv"
        write_csv(self.eval_csv, feats, pool.labels[rest], pool)
        self.eval_labels = pool.labels[rest]

        cfg = {"dataset": {"csv": {"path": str(train_csv), "label_column": "label"}},
               "split": {"fractions": [0.8, 0.1, 0.1], "seed": seed},
               "train": {"variant": "full", "epochs": 30, "early_stop_patience": 30, "seed": seed}}
        write_json(work / "ckpt.json", cfg)
        run_cli(self.tally, "denshift train (set-up)",
                ["train", "--config", str(work / "ckpt.json"), "--out", str(work / "ckpt")])
        self.ckpt = work / "ckpt" / "checkpoint.npz"

        self.gen_cfg = {"dataset": {"synthetic": {**ACCEPT_SYNTH, "n_majority": n_maj,
                                                  "n_minority": n_min, "seed": seed}},
                        "split": {"fractions": [0.8, 0.1, 0.1], "seed": seed}}
        write_json(work / "gen.json", self.gen_cfg)

        u = rng.random(SCORE_ROWS)
        y = (rng.random(SCORE_ROWS) < 0.05 + 0.4 * u).astype(np.int64)
        self.untied = metrics.ScoredSet(u, y)
        t = np.round(rng.random(SCORE_ROWS), 2)  # 101 distinct values: heavy ties
        yt = (rng.random(SCORE_ROWS) < 0.05 + 0.4 * t).astype(np.int64)
        self.tied = metrics.ScoredSet(t, yt)

    # one operation per part, in turn, so each part gets its own machine-speed readings
    ops_per_pass = 3
    parts = ("gen", "eval", "score")

    def op(self, i: int) -> dict | None:
        part, work, tally = self.parts[i % 3], self.work, self.tally
        if part == "gen":
            ok, raw, scaled = self.speed.time(
                run_cli, tally, "denshift gen-data",
                ["gen-data", "--config", str(work / "gen.json"), "--out", str(work / "gen")])
            result, rows = None, EVAL_ROWS
        elif part == "eval":
            ok, raw, scaled = self.speed.time(
                run_cli, tally, "denshift eval",
                ["eval", "--checkpoint", str(self.ckpt), "--csv", str(self.eval_csv), "--out", str(work / "eval")])
            result, rows = (self.eval_report() if ok else None), EVAL_ROWS
        else:
            reports, raw, scaled = self.speed.time(self.score_both)
            ok = None not in reports.values()
            self.reports = reports
            result, rows = json.dumps(reports, sort_keys=True), 2 * SCORE_ROWS
        if not ok:
            return None
        return {"part": part, "op_s": raw, "scaled_s": scaled, "units": rows, "result": result}

    def score_both(self) -> dict:
        reports = {}
        for regime, scored in (("untied", self.untied), ("tied", self.tied)):
            with self.span(f"bench.score.{regime}"):
                reports[regime] = self.tally.run(f"score_report {regime}", metrics.score_report, scored)
        return reports

    def eval_report(self) -> dict:
        return json.loads((self.work / "eval" / "report.json").read_text(encoding="utf-8"))["metrics"]

    def check_eval(self) -> None:
        """Recompute the last eval's AUC-ROC/AUC-PRC from its predictions.csv."""
        t = self.tally
        report = self.eval_report()
        pred = np.loadtxt(self.work / "eval" / "predictions.csv", delimiter=",", skiprows=1)
        t.check("eval AUC-ROC recomputes from predictions.csv",
                agree(report["auc_roc"], ref_auc_roc(pred[:, 0], pred[:, 1])))
        t.check("eval AUC-PRC recomputes from predictions.csv",
                agree(report["auc_prc"], ref_average_precision(pred[:, 0], pred[:, 1])))
        t.check("predictions.csv labels match the eval CSV",
                np.array_equal(pred[:, 1].astype(np.int64), self.eval_labels))

    def check_scores(self) -> None:
        """Recompute the last score_report AUCs with the reference implementation."""
        t = self.tally
        for regime, scored in (("untied", self.untied), ("tied", self.tied)):
            rep = self.reports[regime]
            t.check(f"score_report AUC-ROC {regime}",
                    agree(rep["auc_roc"], ref_auc_roc(scored.scores, scored.labels)))
            t.check(f"score_report AUC-PRC {regime}",
                    agree(rep["auc_prc"], ref_average_precision(scored.scores, scored.labels)))

    def unit_us(self, samples, key: str = "scaled_s") -> float:
        """Time per row over one cycle of the three parts, each part at its median."""
        total_s = total_rows = 0.0
        for part in self.parts:
            mine = [s for s in samples if s["part"] == part]
            if mine:
                total_s += median(s[key] for s in mine)
                total_rows += mine[0]["units"]
        return total_s / total_rows * 1e6

    def check(self, samples) -> None:
        """The last outputs of each part, and every repeat of a part equal to its first run.

        save_csv -> load_csv must round-trip gen-data's val and test files exactly.
        """
        t = self.tally
        done = {s["part"] for s in samples}
        t.check("every part completed", done == set(self.parts), f"{sorted(done)}")
        for part in ("eval", "score"):
            mine = [s["result"] for s in samples if s["part"] == part]
            t.check(f"repeated {part} gives identical results", all(r == mine[0] for r in mine))
        if "eval" in done:
            self.check_eval()
        if "score" in done:
            self.check_scores()
        if "gen" not in done:
            return
        ds = data.gen_synthetic(data.SynthConfig(**self.gen_cfg["dataset"]["synthetic"]))
        _, va, te = data.stratified_split(ds, tuple(self.gen_cfg["split"]["fractions"]), self.seed)
        for name, split in (("val", va), ("test", te)):
            back = data.load_csv(self.work / "gen" / f"{name}.csv", split.label_column)
            t.check(f"gen-data {name}.csv round-trips exactly",
                    np.array_equal(back.features, split.features)
                    and np.array_equal(back.labels, split.labels)
                    and back.class_names == split.class_names)

    def extras(self, samples) -> dict:
        out = {}
        for part, name in (("gen", "gen_data_rows_per_s"), ("eval", "eval_rows_per_s"),
                           ("score", "score_rows_per_s")):
            rates = [s["units"] / s["op_s"] for s in samples if s["part"] == part]
            if rates:
                out[name] = (timing_summary(rates), "rows/s")
        return out


def write_csv(path: Path, features: np.ndarray, labels: np.ndarray, like: data.Dataset) -> None:
    """Write an input CSV in load_csv's dialect; NaN becomes an empty cell.

    The benchmark writes its own inputs, so set-up does not time denshift's writer.
    """
    names = [like.class_names[c] for c in labels]
    fmt = ",".join(["%r"] * features.shape[1]) + ",%s"
    lines = [",".join(list(like.feature_names) + [like.label_column])]
    lines.extend(fmt % (*row, name) for row, name in zip(features.tolist(), names))
    path.write_text("\n".join(lines).replace("nan", "") + "\n", encoding="utf-8")


ABLATE_EPOCHS = 20


class AblateParallel(Workload):
    """run_ablation on the acceptance splits: six variants x two seeds, max_workers = nproc."""

    name = "ablate-parallel"
    setup_reps = 5

    @staticmethod
    def cores() -> int:
        return len(os.sched_getaffinity(0))

    def setup(self) -> None:
        self.splits = acceptance_splits(self.seed)
        # patience >= epochs: every job runs the same number of steps on every seed
        self.cfg = training.TrainConfig(**{**ACCEPT_TRAIN, "epochs": ABLATE_EPOCHS,
                                           "early_stop_patience": ABLATE_EPOCHS})
        self.seeds = (2 * self.seed, 2 * self.seed + 1)
        self.workers = self.cores()
        job_steps = ABLATE_EPOCHS * math.ceil(self.splits[0].n / self.cfg.batch_size)
        self.batches = len(self.seeds) * sum(batches(v, job_steps) for v in training.VARIANTS)
        warm_up(self.splits, training.VARIANTS)
        self.first_table = None

    def op(self, i: int) -> dict | None:
        table, raw, scaled = self.speed.time(self.tally.run, "run_ablation", training.run_ablation,
                                             self.cfg, self.splits, seeds=self.seeds,
                                             max_workers=self.workers)
        if table is None:
            return None
        dump = json.dumps(table, sort_keys=True)
        if self.first_table is None:
            self.first_table = dump
        else:
            self.tally.check("repeated ablation gives an identical table", dump == self.first_table)
        return {"op_s": raw, "scaled_s": scaled, "units": self.batches, "table": table, "result": dump}

    def check(self, samples) -> None:
        t = self.tally
        if not samples:
            t.check("at least one ablation completed", False)
            return
        serial = t.run("run_ablation serial", training.run_ablation, self.cfg, self.splits,
                       seeds=self.seeds, max_workers=1)
        t.check("parallel table equals serial table bit for bit",
                serial is not None and json.dumps(serial, sort_keys=True) == self.first_table)
        for variant, row in samples[0]["table"].items():
            vals = row["auc_roc_per_seed"] + row["auc_prc_per_seed"]
            t.check(f"{variant} AUCs are valid", all(0.0 <= v <= 1.0 for v in vals), f"{vals}")

    def extras(self, samples) -> dict:
        return {"ablate_s": (timing_summary([s["op_s"] for s in samples]), "s"),
                "workers": (self.workers, "count")}


WORKLOADS = {w.name: w for w in (Acceptance, WideMulticlass, EvalCsv, AblateParallel)}
