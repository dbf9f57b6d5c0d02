"""Finite-difference verification of the training step, one probe per loss wiring."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import Dataset
from .losses import CostParams, delta_margins
from .nn import grad_check, init_mlp
from .sampling import BatchPair
from .training import TrainConfig, VariantSpec, train_step, variant_losses

# report entry -> the step wiring it probes; "cost_loss" puts the cost term alone on the regular head
_PROBES = {
    "ce": variant_losses("base"),
    "focal": variant_losses("focal"),
    "dah_softmax": variant_losses("dah"),
    "cost_loss": VariantSpec(False, ("cost",), None),
    "decoupling": variant_losses("decoupling"),
    "full": variant_losses("full"),
}


def gradient_report(n_classes: int = 2, seed: int = 0) -> dict[str, float]:
    """Max relative FD error of `training.train_step` for each probed wiring (see `nn.grad_check`).

    Each probe differentiates the summed step loss with respect to one flat
    vector: the model parameters, followed by the trainable log cost when
    the wiring uses the cost term. Loss settings are the `TrainConfig`
    defaults. Cost probes are skipped for multi-class tasks.
    """
    input_dim, batch_size = 12, 24  # each stream's random batch: 24 rows of 12 features
    rng = np.random.default_rng(seed)
    draws = [(rng.normal(size=(batch_size, input_dim)), rng.integers(0, n_classes, size=batch_size)) for _ in range(2)]
    x, y = (np.concatenate(part) for part in zip(*draws))  # the regular stream's rows, then the balanced one's
    pair = BatchPair(Dataset(x, y, tuple(map(str, range(input_dim))), tuple(map(str, range(n_classes)))),
                     np.arange(2 * batch_size), batch_size)
    init = init_mlp(input_dim, hidden=28, depth=4, n_classes=n_classes, seed=seed + 1)
    n = init.vector.size
    vector = np.append(init.vector, 0.3)  # log cost away from 0 so its gradient is exercised off-init
    params = replace(init, vector=vector[:n])
    cfg = TrainConfig()
    deltas = delta_margins(np.linspace(900, 100, n_classes), 1.0)

    def probe(spec: VariantSpec) -> float:
        cost_params = CostParams(0.0, cfg.theta, cfg.offset) if spec.uses_cost else None

        def loss_fn(vec, batch):
            if cost_params is not None:
                cost_params.log_cfp = float(vec[-1])
            loss_r, loss_b, grad, d_cost = train_step(params, batch, spec, cfg, deltas, cost_params)
            loss = loss_r + loss_b if spec.dual_stream else loss_r
            return loss, (np.append(grad, d_cost) if cost_params is not None else grad)

        probed = vector if spec.uses_cost else vector[:n]
        return grad_check(loss_fn, probed, pair, seed)

    return {
        name: probe(spec) for name, spec in _PROBES.items()
        if n_classes == 2 or not spec.uses_cost
    }
