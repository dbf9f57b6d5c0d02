"""Decoupled dual-batch training on the synthetic benchmark.

One shared backbone feeds two classifier heads. Per step, the regular
head trains on an instance-uniform batch and the balanced head on a
class-balanced batch; the backbone accumulates both gradients. The
balanced head (with the density-aware margin loss plus the trainable
cost term) is the inference head. Early stopping tracks validation
AUC-ROC and the best-epoch parameters are returned.
"""

import numpy as np

from denshift import (
    ScoredSet,
    SynthConfig,
    TrainConfig,
    apply_preprocess,
    calibration_bins,
    fit_preprocess,
    forward,
    gen_synthetic,
    predict,
    score_report,
    stratified_split,
    train,
)

ds = gen_synthetic(SynthConfig(n_majority=900, n_minority=100, n_minority_modes=3,
                               dim=20, mode_spread=2.25, minority_scale=0.8, seed=0))
tr, va, te = stratified_split(ds, seed=0)
stats = fit_preprocess(tr)
tr, va, te = (apply_preprocess(s, stats) for s in (tr, va, te))

cfg = TrainConfig(variant="full", epochs=400, batch_size=64, learning_rate=1e-3,
                  seed=0, early_stop_patience=60, theta=5.0)
params, history = train(cfg, (tr, va))
print(f"trained {history.epochs_run} epochs, best validation epoch {history.best_epoch}")
best = history.epochs[history.best_epoch]
print(f"learned costs at best epoch: C_FP={best.cost_fp:.3f}, C_FN={best.cost_fn:.3f}")

probs = predict(params, te.features)  # balanced head by default for dual-stream variants
report = score_report(ScoredSet(probs[:, 1], te.labels))
print("\ntest metrics (balanced head):")
for key in ("auc_roc", "auc_prc", "brier", "bss"):
    print(f"  {key:8s} {report[key]:+.4f}")

reg_probs = predict(params, te.features, head="regular")
reg_report = score_report(ScoredSet(reg_probs[:, 1], te.labels))
print(f"for comparison, the regular head: auc_prc={reg_report['auc_prc']:+.4f} bss={reg_report['bss']:+.4f}")

print("\ncalibration table (10 equal-width bins):")
table = calibration_bins(ScoredSet(probs[:, 1], te.labels), 10)
print("  bin        mean_pred  frac_pos  count")
for i in range(10):
    if table.count[i] == 0:
        print(f"  [{table.bin_lo[i]:.1f},{table.bin_hi[i]:.1f}]      -         -     {0:5d}")
    else:
        print(f"  [{table.bin_lo[i]:.1f},{table.bin_hi[i]:.1f}]    {table.mean_pred[i]:.3f}     {table.frac_pos[i]:.3f}  {int(table.count[i]):5d}")

emb = forward(params, te.features).hidden  # the last hidden representation, the heads' input


def spread(block):
    return np.linalg.norm(block - block.mean(0), axis=1).mean()


print(f"\nmean distance to class centroid in the {emb.shape[1]}-d embedding space: "
      f"majority {spread(emb[te.labels == 0]):.2f}, minority {spread(emb[te.labels == 1]):.2f}")
