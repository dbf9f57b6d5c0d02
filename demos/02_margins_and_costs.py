"""Density-aware margins and the trainable misclassification-cost matrix.

Rarer classes receive wider margins (margin = scale / count**(1/4)), so
the decision boundary is pushed away from the sparse class. The hinge
form is exact but non-smooth; the relaxed form shifts the true-class
logit inside a softmax and recovers the hinge in the large-scale limit.

The cost matrix keeps false negatives at least theta times as expensive
as false positives by construction: the only trainable degree of freedom
is log C_FP, and C_FN = theta * C_FP + offset.
"""

import numpy as np

from denshift import (
    CostParams,
    ce,
    cost_loss,
    current_costs,
    dah_softmax,
    delta_margins,
    focal,
)

print("margins shrink as the class grows (scale 1.0):")
for count in (16, 80, 625, 10_000):
    print(f"  count {count:>6d} -> margin {delta_margins([count], 1.0)[0]:.4f}")

deltas = delta_margins([720, 80], 1.0)
rng = np.random.default_rng(0)
z = rng.normal(0.0, 1.0, size=(6, 2))
y = rng.integers(0, 2, size=6)
# the hinge max(max_{j != y} z_j - z_y + delta_y, 0); with two classes the rival is the other logit
rows = np.arange(len(y))
hinge = np.maximum(z[rows, 1 - y] - z[rows, y] + deltas[y], 0.0).mean()
print(f"\nhinge loss on a random batch:           {hinge:.4f}")
for t in (1.0, 10.0, 100.0):
    relaxed, _ = dah_softmax(t * z, y, t * deltas)
    print(f"relaxed form, logits and margins x{t:>5.0f}: {relaxed / t:.4f}")

print("\nfocal loss concentrates on hard examples (cross-entropy as reference):")
for label, logits in (("easy", np.array([[6.0, -6.0]])), ("hard", np.array([[0.2, -0.2]]))):
    ce_val = ce(logits, [0])[0]
    focal_val = focal(logits, [0], 2.0)[0]
    print(f"  {label}: ce={ce_val:.5f}  focal(gamma=2)={focal_val:.5f}")

print("\ncost parameterization keeps the constraint set satisfied while both costs are positive finite floats:")
cp = CostParams(log_cfp=0.0, theta=5.0, offset=0.01)
walk = np.random.default_rng(1)
for step in range(5):
    cp.log_cfp += 0.8 * walk.normal()
    c_fp, c_fn = current_costs(cp)
    print(f"  log_cfp={cp.log_cfp:+.3f} -> C_FP={c_fp:.4f}, C_FN={c_fn:.4f}, ratio={c_fn / c_fp:.2f} (>= 5)")

loss, d_logits, d_log_cfp = cost_loss(np.array([[1.2, -0.3], [0.4, 0.9]]), [0, 1], cp)
print(f"\ncost loss on a tiny batch: value={loss:.4f}, d/dlog_cfp={d_log_cfp:+.4f}")
print(f"logit gradient routes to the arg-max entry of each row:\n{d_logits}")
