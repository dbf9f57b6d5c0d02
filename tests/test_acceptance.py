"""Acceptance gate: every criterion prints one PASS/FAIL line and asserts.

The synthetic benchmark is frozen (majority 900 / minority 100, 3 minority
modes, 20 features, fixed data and split seeds, training seeds 0-4) so the
whole module is deterministic on a given platform.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from denshift.cli import main as cli_main
from denshift.data import Dataset, SynthConfig, apply_preprocess, fit_preprocess, gen_synthetic, stratified_split
from denshift.diagnostics import gradient_report
from denshift.losses import CostParams, ce, cost_loss, dah_softmax, delta_margins, focal
from denshift.metrics import ScoredSet, auc_prc, auc_roc, bss, nll, temperature_apply, temperature_fit
from denshift.nn import backward, forward, init_mlp
from denshift.sampling import SamplerState, class_probs, next_batch_pair
from denshift.training import TrainConfig, predict, train

from oracles import cutoff_average_precision, pairwise_auc

BENCH_SYNTH = SynthConfig(
    n_majority=900, n_minority=100, n_minority_modes=3, dim=20,
    mode_spread=2.25, noise_scale=1.0, minority_scale=0.8, seed=0,
)
BENCH_TRAIN = dict(
    epochs=400, batch_size=64, learning_rate=1e-3, optimizer="adam",
    early_stop_patience=60, theta=5.0, offset=0.01, lambda_cost=1.0, margin_scale=None,
)
BENCH_SEEDS = (0, 1, 2, 3, 4)


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def bench_splits():
    ds = gen_synthetic(BENCH_SYNTH)
    tr, va, te = stratified_split(ds, (0.8, 0.1, 0.1), seed=0)
    norm = fit_preprocess(tr)
    return tuple(apply_preprocess(s, norm) for s in (tr, va, te))


def test_01_gradient_exactness():
    t0 = time.perf_counter()
    worst = {}
    for seed in range(5):
        for name, err in gradient_report(seed=seed).items():
            worst[name] = max(worst.get(name, 0.0), err)
    elapsed = time.perf_counter() - t0
    ok = all(err < 1e-4 for err in worst.values()) and elapsed < 30.0
    detail = (
        "finite-difference max rel errors "
        + " ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f" (< 1e-4), runtime {elapsed:.1f}s (< 30s)"
    )
    announce(1, ok, detail)


def test_02_reduction_identities():
    rng = np.random.default_rng(42)
    worst = {"dah_zero_margin": 0.0, "focal_gamma_zero": 0.0, "cost_unit": 0.0}
    unit_cost = CostParams(0.0, 1.0, 0.0)
    for _ in range(1000):
        z = rng.normal(0.0, 4.0, size=(4, 3))
        y = rng.integers(0, 3, size=4)
        worst["dah_zero_margin"] = max(
            worst["dah_zero_margin"], abs(dah_softmax(z, y, np.zeros(3))[0] - ce(z, y)[0])
        )
        worst["focal_gamma_zero"] = max(
            worst["focal_gamma_zero"], abs(focal(z, y, 0.0)[0] - ce(z, y)[0])
        )
        z2 = rng.normal(0.0, 4.0, size=(4, 2))
        y2 = rng.integers(0, 2, size=4)
        zmax = z2.max(axis=1)
        # binary CE on sigmoid(z_max): -log sigma(z) = logaddexp(0, -z), exact for any z
        bce = float(np.where(y2 == 1, np.logaddexp(0.0, -zmax), np.logaddexp(0.0, zmax)).mean())
        worst["cost_unit"] = max(worst["cost_unit"], abs(cost_loss(z2, y2, unit_cost)[0] - bce))
    ok = all(v < 1e-12 for v in worst.values())
    announce(2, ok, "identity gaps " + " ".join(f"{k}={v:.1e}" for k, v in worst.items()) + " (< 1e-12)")


def test_03_sampler_correctness():
    exact = (
        np.array_equal(class_probs([90, 10], 1.0), np.array([0.9, 0.1]))
        and np.array_equal(class_probs([90, 10], 0.0), np.array([0.5, 0.5]))
        and np.array_equal(class_probs([400, 100, 50, 25], 1.0),
                           np.array([400, 100, 50, 25]) / 575.0)
        and np.array_equal(class_probs([400, 100, 50, 25], 0.0), np.full(4, 0.25))
    )
    counts = [400, 100, 50, 25]
    labels = np.repeat(np.arange(4), counts)
    ds = Dataset(np.zeros((len(labels), 1)), labels, ("a",), ("c0", "c1", "c2", "c3"))
    critical = scipy_stats.chi2.ppf(0.99, df=3)
    passes, statistics = 0, []
    for seed in (0, 1, 2):
        sampler = SamplerState(ds, batch_size=10_000, seed=seed)
        pair = next_batch_pair(sampler)
        drawn = pair.rows()[1][pair.n_regular:]
        observed = np.bincount(drawn, minlength=4)
        statistic = float(((observed - 2500.0) ** 2 / 2500.0).sum())
        statistics.append(statistic)
        passes += statistic < critical
    ok = exact and passes >= 2
    announce(3, ok, f"analytic q=0/1 probabilities exact; chi-square {np.round(statistics, 2)} "
                    f"vs critical {critical:.2f}, {passes}/3 seeds below (need >= 2)")


def test_04_metric_oracles():
    rng = np.random.default_rng(7)
    worst_roc, worst_prc = 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 101))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[rng.integers(0, n)] = 1
        if labels.sum() == n:
            labels[rng.integers(0, n)] = 0
        s = ScoredSet(scores, labels)
        worst_roc = max(worst_roc, abs(auc_roc(s) - pairwise_auc(scores, labels)))
        worst_prc = max(worst_prc, abs(auc_prc(s) - cutoff_average_precision(scores, labels)))
    labels = rng.integers(0, 2, size=500)
    labels[:2] = [0, 1]
    prevalence_bss = bss(ScoredSet(np.full(500, labels.mean()), labels))
    ok = worst_roc < 1e-12 and worst_prc < 1e-12 and prevalence_bss == 0.0
    announce(4, ok, f"1000 trials: |auc_roc - pairwise oracle| <= {worst_roc:.1e}, "
                    f"|auc_prc - cutoff oracle| <= {worst_prc:.1e} (< 1e-12); "
                    f"prevalence-predictor BSS = {prevalence_bss} (exactly 0)")


def test_05_constraint_safety(bench_splits):
    tr, va, _ = bench_splits
    cfg = TrainConfig(variant="cost", epochs=200, batch_size=64, learning_rate=1e-3,
                      seed=0, early_stop_patience=200, theta=5.0, offset=0.01)
    _, history = train(cfg, (tr, va))
    floor = min(
        e.cost_fn - (5.0 * e.cost_fp + 0.01 * (1 - 1e-12))
        for e in history.epochs
    )
    positive = min(min(e.cost_fp, e.cost_fn) for e in history.epochs)
    ok = history.epochs_run == 200 and positive > 0.0 and floor >= 0.0
    announce(5, ok, f"{history.epochs_run} recorded epochs: min(C_FP, C_FN) = {positive:.4f} > 0, "
                    f"min(C_FN - theta*C_FP - D*(1-1e-12)) = {floor:.2e} >= 0")


def test_06_decoupling_isolation(bench_splits):
    tr, _, _ = bench_splits
    params = init_mlp(tr.dim, 28, 4, 2, seed=0)
    sampler = SamplerState(tr, batch_size=64, seed=0)
    deltas = delta_margins(tr.class_counts, 1.0)
    worst_balanced = worst_regular = 0.0
    backbone_gap = 0.0
    for _ in range(10):
        pair = next_batch_pair(sampler)
        x, y = pair.rows()
        xr, yr = x[:pair.n_regular], y[:pair.n_regular]
        trace = forward(params, xr)  # every row through the regular head
        _, d_r = dah_softmax(trace.logits, yr, deltas)
        only_regular = backward(params, trace, d_r)
        worst_balanced = max(worst_balanced, np.abs(only_regular.head_balanced.W).max(),
                             np.abs(only_regular.head_balanced.b).max())
        xb, yb = x[pair.n_regular:], y[pair.n_regular:]
        trace_b = forward(params, xb, 0)  # every row through the balanced head
        _, d_b = dah_softmax(trace_b.logits, yb, deltas)
        only_balanced = backward(params, trace_b, d_b)
        worst_regular = max(worst_regular, np.abs(only_balanced.head_regular.W).max(),
                            np.abs(only_balanced.head_regular.b).max())
        # the stacked [xr; xb] pass with a zero balanced block gives the regular-only gradients exactly
        both = backward(params, forward(params, x, pair.n_regular), np.vstack([d_r, np.zeros_like(d_b)]))
        for g_both, g_one in zip(both.flat(), only_regular.flat()):
            backbone_gap = max(backbone_gap, np.abs(g_both - g_one).max())
    ok = worst_balanced == 0.0 and worst_regular == 0.0 and backbone_gap == 0.0
    announce(6, ok, f"10-step probe: regular-batch loss -> balanced-head grad max |g| = {worst_balanced}, "
                    f"balanced-batch loss -> regular-head grad max |g| = {worst_regular} (both exactly 0)")


def test_07_directional_benchmark(bench_splits):
    t0 = time.perf_counter()
    results = {}
    for variant in ("base", "dah", "full"):
        rows = []
        for seed in BENCH_SEEDS:
            cfg = TrainConfig(variant=variant, seed=seed, **BENCH_TRAIN)
            params, _ = train(cfg, bench_splits[:2])
            test_ds = bench_splits[2]
            scored = ScoredSet(predict(params, test_ds.features)[:, 1], test_ds.labels)
            rows.append((auc_prc(scored), bss(scored)))
        results[variant] = np.array(rows)
    elapsed = time.perf_counter() - t0
    base, dah, full = results["base"], results["dah"], results["full"]
    ap_gap = full[:, 0].mean() - base[:, 0].mean()
    full_bss = full[:, 1].mean()
    base_bss = base[:, 1].mean()
    dah_wins = int((dah[:, 1] > base[:, 1]).sum())
    ok_a = ap_gap >= 0.03
    ok_b = full_bss > 0.0 and base_bss < full_bss
    ok_c = dah_wins >= 4
    ok = ok_a and ok_b and ok_c and elapsed < 900.0
    announce(7, ok, f"(a) AUC-PRC gap full-base = {ap_gap:+.4f} (>= +0.03 {ok_a}); "
                    f"(b) full BSS {full_bss:+.4f} > 0 and base BSS {base_bss:+.4f} < full ({ok_b}); "
                    f"(c) dah BSS > base BSS in {dah_wins}/5 seeds (>= 4 {ok_c}); "
                    f"runtime {elapsed:.0f}s (< 900s)")


def test_08_temperature_scaling(bench_splits):
    tr, va, te = bench_splits
    cfg = TrainConfig(variant="base", epochs=40, batch_size=64, learning_rate=1e-3,
                      seed=0, early_stop_patience=40)
    params, _ = train(cfg, (tr, va))
    val_logits = forward(params, va.features).logits
    fitted = temperature_fit(val_logits, va.labels)
    nll_before = nll(val_logits, va.labels, 1.0)
    nll_after = nll(val_logits, va.labels, fitted)
    test_logits = forward(params, te.features).logits
    before = auc_roc(ScoredSet(temperature_apply(test_logits, 1.0)[:, 1], te.labels))
    after = auc_roc(ScoredSet(temperature_apply(test_logits, fitted)[:, 1], te.labels))
    ok = before == after and nll_after <= nll_before + 1e-12
    announce(8, ok, f"T={fitted:.3f}: AUC-ROC {before:.6f} -> {after:.6f} (exactly equal); "
                    f"val NLL {nll_before:.6f} -> {nll_after:.6f} (weakly improved)")


def test_09_margin_formula():
    d16 = delta_margins([16], 1.0)[0]
    d625 = delta_margins([625], 0.5)[0]
    ok = d16 == 0.5 and d625 == 0.1
    announce(9, ok, f"margin(count=16, scale=1) = {d16} (exactly 0.5); "
                    f"margin(count=625, scale=0.5) = {d625} (exactly 0.1)")


def test_10_end_to_end_determinism(tmp_path):
    cfg = {
        "dataset": {"synthetic": {"n_majority": 450, "n_minority": 50, "n_minority_modes": 3,
                                  "dim": 10, "mode_spread": 2.25, "minority_scale": 0.8, "seed": 3}},
        "train": {"epochs": 40, "batch_size": 64, "early_stop_patience": 40},
        "metrics": {"temperature_scaling": True},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    outs = [tmp_path / "r1", tmp_path / "r2"]
    codes = [cli_main(["train", "--config", str(path), "--out", str(o)]) for o in outs]
    report_match = (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    history_match = (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()
    preds_match = (outs[0] / "predictions_test.csv").read_bytes() == (outs[1] / "predictions_test.csv").read_bytes()
    ok = codes == [0, 0] and report_match and history_match and preds_match
    announce(10, ok, f"two cmd_train runs, identical config: report bytes equal = {report_match}, "
                     f"history bytes equal = {history_match}, predictions bytes equal = {preds_match}")
