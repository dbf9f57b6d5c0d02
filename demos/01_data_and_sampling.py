"""Synthetic imbalanced data and density-parameterized sampling.

The generator mimics the density structure this toolkit targets: low-risk
majority instances form one condensed Gaussian cluster, while high-risk
minority instances arrive from several distinct causes and therefore form
multiple smaller clusters scattered around it.

The sampler draws class j with probability proportional to count_j**q:
q=1 is plain instance-uniform sampling, q=0 gives every class equal
probability, so minority instances are heavily oversampled per batch.
"""

import numpy as np

from denshift import (
    SamplerState,
    SynthConfig,
    apply_preprocess,
    class_probs,
    fit_preprocess,
    gen_synthetic,
    imbalance_ratio,
    next_batch_pair,
    stratified_split,
)

cfg = SynthConfig(n_majority=900, n_minority=100, n_minority_modes=3,
                  dim=20, mode_spread=2.25, minority_scale=0.8, seed=0)
ds = gen_synthetic(cfg)
print(f"dataset: {ds.n} rows, {ds.dim} features, classes {ds.class_names}")
print(f"class counts {ds.class_counts.tolist()}, imbalance ratio {imbalance_ratio(ds):.2f}")

train, val, test = stratified_split(ds, (0.8, 0.1, 0.1), seed=0)
print(f"\nstratified 80/10/10 split -> train {train.class_counts.tolist()},",
      f"val {val.class_counts.tolist()}, test {test.class_counts.tolist()}")

stats = fit_preprocess(train)
train_p = apply_preprocess(train, stats)
print(f"after z-scoring on train stats: |mean| <= {np.abs(train_p.features.mean(0)).max():.2e},",
      f"|std - 1| <= {np.abs(train_p.features.std(0) - 1).max():.2e}")

print("\nclass sampling probabilities as the density exponent q varies:")
for q in (1.0, 0.5, 0.25, 0.0):
    p = class_probs(train.class_counts, q)
    print(f"  q={q:.2f} -> majority {p[0]:.3f}, minority {p[1]:.3f}")

sampler = SamplerState(train_p, batch_size=64, seed=0)
pair = next_batch_pair(sampler)
labels, n_reg = pair.rows()[1], pair.n_regular
print("\none batch pair (batch size 64):")
print(f"  regular stream  (q=1): {int((labels[:n_reg] == 1).sum())} minority rows")
print(f"  balanced stream (q=0): {int((labels[n_reg:] == 1).sum())} minority rows")


def balanced_minority_fraction():
    pair = next_batch_pair(sampler)
    return (pair.rows()[1][pair.n_regular:] == 1).mean()


fractions = [balanced_minority_fraction() for _ in range(200)]
print(f"  minority fraction in 200 balanced batches: {np.mean(fractions):.3f} (target 0.5)")
