"""Component ablation, the cost-ratio sweep, and post-hoc temperature scaling.

The variant grid isolates each component: plain cross-entropy (base),
focal loss, the density-aware margin loss alone (dah), the trainable
cost matrix alone (cost), dual-stream decoupling with plain CE, and the
full combination. All variants share seeds and byte-identical splits.

Temperature scaling is the post-hoc calibration baseline: it divides
logits by a scalar fitted on validation likelihood, which can only
soften or sharpen probabilities, never reorder them.
"""

from dataclasses import replace


from denshift import (
    ScoredSet,
    SynthConfig,
    TrainConfig,
    apply_preprocess,
    auc_roc,
    bss,
    fit_preprocess,
    forward,
    gen_synthetic,
    nll,
    predict,
    run_ablation,
    stratified_split,
    sweep_theta,
    temperature_apply,
    temperature_fit,
    train,
)

ds = gen_synthetic(SynthConfig(n_majority=900, n_minority=100, n_minority_modes=3,
                               dim=20, mode_spread=2.25, minority_scale=0.8, seed=0))
tr, va, te = stratified_split(ds, seed=0)
stats = fit_preprocess(tr)
splits = tuple(apply_preprocess(s, stats) for s in (tr, va, te))

# Reduced budget so the demo stays quick; the acceptance suite runs the full setting.
cfg = TrainConfig(epochs=120, batch_size=64, learning_rate=1e-3, early_stop_patience=20, theta=5.0)

print("ablation over the variant grid (2 seeds each, test-split means):")
table = run_ablation(cfg, splits, seeds=(0, 1))
print(f"  {'variant':<11} {'auc_roc':>8} {'auc_prc':>8} {'bss':>8}")
for variant, row in table.items():
    print(f"  {variant:<11} {row['auc_roc_mean']:8.4f} {row['auc_prc_mean']:8.4f} {row['bss_mean']:+8.4f}")

print("\ncost-ratio sweep for the cost variant (3 seeds, mean +- 95% Student t CI):")
rows = sweep_theta(replace(cfg, variant="cost"), splits,
                   theta_grid=(1, 5, 10, 25, 50, 100), seeds=(0, 1, 2))
for row in rows:
    print(f"  theta={row['theta']:>5.0f}  auc_roc={row['auc_roc_mean']:.4f}+-{row['auc_roc_ci95']:.4f}"
          f"  auc_prc={row['auc_prc_mean']:.4f}+-{row['auc_prc_ci95']:.4f}")

print("\ntemperature scaling on the base variant:")
params, _ = train(replace(cfg, variant="base"), splits[:2])
val_logits = forward(params, splits[1].features).logits
fitted = temperature_fit(val_logits, splits[1].labels)
test_logits = forward(params, splits[2].features).logits
raw = ScoredSet(predict(params, splits[2].features)[:, 1], splits[2].labels)
scaled = ScoredSet(temperature_apply(test_logits, fitted)[:, 1], splits[2].labels)
print(f"  fitted T = {fitted:.3f}; validation NLL {nll(val_logits, splits[1].labels, 1.0):.4f}"
      f" -> {nll(val_logits, splits[1].labels, fitted):.4f}")
print(f"  test AUC-ROC unchanged: {auc_roc(raw):.4f} -> {auc_roc(scaled):.4f}")
print(f"  test BSS:               {bss(raw):+.4f} -> {bss(scaled):+.4f}")
