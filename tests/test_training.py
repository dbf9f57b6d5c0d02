import math

import numpy as np
import pytest

import denshift.training as training
from denshift.data import Dataset, SynthConfig, apply_preprocess, fit_preprocess, gen_synthetic, stratified_split
from denshift.diagnostics import gradient_report
from denshift.errors import NumericalError, UnsupportedTaskError, ValidationError
from denshift.losses import CostParams, delta_margins
from denshift.nn import ForwardTrace, Gradients, OptState, backward, forward, init_mlp, opt_step
from denshift.sampling import BatchPair, SamplerState, epoch_batches, next_batch_pair
from denshift.training import (
    TrainConfig,
    VARIANTS,
    VariantSpec,
    predict,
    run_ablation,
    sweep_theta,
    train,
    train_step,
    variant_losses,
)

from oracles import ref_draw_block
from test_acceptance import BENCH_SYNTH, BENCH_TRAIN


def prepared_splits(n_maj=300, n_min=60, dim=6, modes=2, spread=3.0, seed=0):
    ds = gen_synthetic(SynthConfig(
        n_majority=n_maj, n_minority=n_min, n_minority_modes=modes,
        dim=dim, mode_spread=spread, seed=seed,
    ))
    tr, va, te = stratified_split(ds, seed=seed)
    stats = fit_preprocess(tr)
    return tuple(apply_preprocess(s, stats) for s in (tr, va, te))


def same_records(a, b):
    """Two lists of epoch records equal field by field, a NaN equal to a NaN (`==` on records says NaN != NaN)."""
    return len(a) == len(b) and all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b))


@pytest.fixture(scope="module")
def splits():
    return prepared_splits()


class TestConfigValidation:
    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValidationError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("lam", [-0.5, float("nan")])
    def test_lambda_cost_must_be_non_negative(self, lam):
        with pytest.raises(ValidationError, match="lambda_cost"):
            TrainConfig(lambda_cost=lam)

    @pytest.mark.parametrize("field, value", [
        ("theta", 0.0), ("theta", -1.0), ("theta", float("nan")),
        ("offset", -0.01), ("offset", float("nan")),
        ("gamma", -0.5), ("gamma", float("nan")),
        ("q_regular", -0.1), ("q_regular", 2.0), ("q_regular", float("nan")),
        ("q_balanced", -0.1), ("q_balanced", 1.5),
        ("hidden", 0), ("hidden", -3),
        ("depth", 1), ("depth", 0),
        ("margin_scale", 0.0), ("margin_scale", -0.5), ("margin_scale", float("nan")),
    ])
    def test_bad_value_names_its_field(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("hidden", "28"), ("hidden", 28.0), ("epochs", 2.5), ("seed", True), ("batch_size", None),
        ("theta", "5"), ("theta", True),
        ("theta", float("inf")), ("learning_rate", 10**400), ("gamma", [2.0]), ("margin_scale", "1"), ("variant", 3),
        ("seed", -1), ("optimizer", "rmsprop"),
    ])
    def test_wrong_type_names_its_field(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrainConfig(**{field: value})

    def test_integers_accepted_for_float_fields(self):
        cfg = TrainConfig(theta=5, learning_rate=1, margin_scale=2, seed=np.int64(3), hidden=np.int32(8))
        assert cfg.theta == 5.0 and cfg.seed == 3

    def test_boundary_values_accepted(self):
        TrainConfig(learning_rate=1e-12, lambda_cost=0.0, offset=0.0, gamma=0.0,
                    q_regular=0.0, q_balanced=1.0, hidden=1, depth=2, margin_scale=1e-9)
        TrainConfig(q_regular=1.0, q_balanced=0.0, margin_scale=None)


class TestVariantWiring:
    def test_dah_is_single_stream_margin_loss(self):
        spec = variant_losses("dah")
        assert not spec.dual_stream
        assert spec.regular_terms == ("dah",)
        assert not spec.uses_cost

    def test_full_is_dual_stream_with_cost(self):
        spec = variant_losses("full")
        assert spec.dual_stream
        assert spec.regular_terms == ("dah",)
        assert spec.balanced_terms == ("dah", "cost")
        assert spec.uses_cost

    def test_decoupling_is_plain_ce_on_both_heads(self):
        spec = variant_losses("decoupling")
        assert spec.dual_stream
        assert spec.regular_terms == ("ce",) and spec.balanced_terms == ("ce",)

    def test_base_focal_cost(self):
        assert variant_losses("base").regular_terms == ("ce",)
        assert variant_losses("focal").regular_terms == ("focal",)
        assert variant_losses("cost").regular_terms == ("ce", "cost")

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            variant_losses("bogus")
        with pytest.raises(ValidationError):
            TrainConfig(variant="bogus")


class TestTrainLoop:
    def test_base_degenerates_to_single_head(self, splits):
        tr, va, _ = splits
        params, history = train(TrainConfig(variant="base", epochs=3, seed=0), (tr, va))
        assert params.trained_heads == ("regular",)
        assert history.epochs_run == 3 and all(math.isnan(e.loss_balanced) for e in history.epochs)
        with pytest.raises(ValidationError):
            predict(params, va.features, head="balanced")

    def test_full_trains_both_heads(self, splits):
        tr, va, _ = splits
        params, history = train(TrainConfig(variant="full", epochs=3, seed=0), (tr, va))
        assert params.trained_heads == ("regular", "balanced")
        assert history.epochs_run == 3 and all(math.isfinite(e.loss_balanced) for e in history.epochs)

    def test_determinism(self, splits):
        tr, va, _ = splits
        cfg = TrainConfig(variant="full", epochs=4, seed=11)
        p1, h1 = train(cfg, (tr, va))
        p2, h2 = train(cfg, (tr, va))
        assert same_records(h1.epochs, h2.epochs) and h1.best_epoch == h2.best_epoch
        for a, b in zip(p1.flat(), p2.flat()):
            assert np.array_equal(a, b)

    def test_best_epoch_is_argmax_val_auc(self, splits):
        tr, va, _ = splits
        _, history = train(TrainConfig(variant="decoupling", epochs=10, seed=3,
                                       early_stop_patience=10), (tr, va))
        aucs = [e.val_auc_roc for e in history.epochs]
        assert aucs[history.best_epoch] == max(aucs)
        assert history.best_epoch == aucs.index(max(aucs))  # a tie does not move the best epoch

    def test_patience_zero_stops_at_first_plateau(self, splits):
        tr, va, _ = splits
        _, history = train(TrainConfig(variant="base", epochs=50, seed=4,
                                       early_stop_patience=0), (tr, va))
        aucs = [e.val_auc_roc for e in history.epochs]
        best = -np.inf
        expected = len(aucs)
        for i, a in enumerate(aucs):
            if a > best:
                best = a
            else:
                expected = i + 1
                break
        assert history.epochs_run == expected

    def test_patience_counts_epochs_without_gain(self, splits):
        tr, va, _ = splits
        _, history = train(TrainConfig(variant="base", epochs=60, seed=4,
                                       early_stop_patience=3), (tr, va))
        if history.epochs_run < 60:  # stopped early: the last 4 epochs gained nothing
            tail = history.epochs[history.best_epoch + 1 :]
            assert len(tail) >= 4

    def test_cost_constraints_every_epoch(self, splits):
        tr, va, _ = splits
        cfg = TrainConfig(variant="cost", epochs=12, seed=5, theta=5.0, offset=0.01,
                          early_stop_patience=12)
        _, history = train(cfg, (tr, va))
        for e in history.epochs:
            assert e.cost_fp > 0.0 and e.cost_fn > 0.0
            assert e.cost_fn >= 5.0 * e.cost_fp + 0.01 * (1 - 1e-12)

    def test_cost_variant_needs_binary(self):
        from denshift.data import Dataset

        rng = np.random.default_rng(0)
        feats = rng.normal(size=(90, 4))
        labels = np.repeat([0, 1, 2], 30)
        ds = Dataset(feats, labels, tuple("abcd"), ("x", "y", "z"))
        tr, va, _ = stratified_split(ds, seed=0)
        with pytest.raises(UnsupportedTaskError):
            train(TrainConfig(variant="cost", epochs=1), (tr, va))

    def test_multiclass_supported_without_cost(self):
        from denshift.data import Dataset

        rng = np.random.default_rng(1)
        centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        labels = np.repeat([0, 1, 2], 40)
        feats = centers[labels] + rng.normal(0, 0.7, size=(120, 2))
        ds = Dataset(feats, labels, ("a", "b"), ("x", "y", "z"))
        tr, va, _ = stratified_split(ds, seed=0)
        params, history = train(TrainConfig(variant="decoupling", epochs=20, seed=0,
                                            early_stop_patience=20), (tr, va))
        probs = predict(params, va.features)
        assert probs.shape == (va.n, 3)
        assert max(e.val_auc_roc for e in history.epochs) > 0.9

    def test_multiclass_validation_ranks_each_class_once(self, monkeypatch):
        import denshift.metrics as metrics
        from denshift.data import Dataset

        lengths = []
        rank_auc = metrics._rank_auc

        def recording(scores, positives):
            lengths.append(scores.size)
            return rank_auc(scores, positives)

        monkeypatch.setattr(metrics, "_rank_auc", recording)
        rng = np.random.default_rng(2)
        labels = np.repeat([0, 1, 2], 30)
        ds = Dataset(rng.normal(size=(90, 2)) + labels[:, None], labels, ("a", "b"), ("x", "y", "z"))
        tr, va, _ = stratified_split(ds, seed=0)
        _, history = train(TrainConfig(variant="base", epochs=3, early_stop_patience=3), (tr, va))
        # one AUC per class per epoch, each over the validation rows; no micro AUC over N*C scores
        assert lengths == [va.n] * (3 * history.epochs_run)

    def test_missing_values_rejected(self):
        from denshift.data import Dataset

        feats = np.array([[1.0], [np.nan], [2.0], [0.5]])
        ds = Dataset(feats, np.array([0, 1, 0, 1]), ("a",), ("x", "y"))
        with pytest.raises(ValidationError):
            train(TrainConfig(epochs=1), (ds, ds))

    def test_nonfinite_loss_aborts_with_diagnostics(self, splits, monkeypatch):
        tr, va, _ = splits

        def poisoned(logits, y, checked):
            return float("nan"), np.zeros_like(logits)

        monkeypatch.setattr(training, "ce", poisoned)
        with pytest.raises(NumericalError, match="epoch 0 step 0"):
            train(TrainConfig(variant="base", epochs=1), (tr, va))

    def test_train_calls_train_step_once_per_step(self, splits, monkeypatch):
        tr, va, _ = splits
        real, calls = training.train_step, []

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(training, "train_step", counting)
        cfg = TrainConfig(variant="full", epochs=3, batch_size=32)
        _, history = train(cfg, (tr, va))
        assert len(calls) == history.epochs_run * math.ceil(tr.n / cfg.batch_size)
        assert all(spec == variant_losses("full") for spec in calls)

    def test_every_variant_fits_separable_toy(self):
        tr, va, _ = prepared_splits(n_maj=160, n_min=40, dim=5, modes=1, spread=10.0, seed=1)
        for variant in VARIANTS:
            cfg = TrainConfig(variant=variant, epochs=200, batch_size=32, seed=0,
                              early_stop_patience=200)
            _, history = train(cfg, (tr, va))
            floor = min(e.loss_regular for e in history.epochs)
            assert floor < 0.1, f"{variant} stalled at train loss {floor:.3f}"


# The two-pass step the stacked one replaced: each stream is forwarded and
# backpropagated on its own and the two gradients are added. The stacked
# step changes only the summation order of the backbone gradient.


def head_loss(terms, z, y, cfg, deltas, cost_params):
    """One head's summed loss terms on its own 2-D logits: (loss, d/dz, d/dlog_cfp)."""
    return training._step_loss(VariantSpec(False, terms, None).loss_calls, z, y, cfg, deltas, cost_params)


def two_pass_step(params, pair, spec, cfg, deltas, cost_params):
    x, y = pair.rows()
    xr, yr = x[:pair.n_regular], y[:pair.n_regular]
    trace_r = forward(params, xr)
    loss_r, d_r, d_cost = head_loss(spec.regular_terms, trace_r.logits, yr, cfg, deltas, cost_params)
    grad = backward(params, trace_r, d_r).vector
    loss_b = float("nan")
    if spec.dual_stream:
        xb, yb = x[pair.n_regular:], y[pair.n_regular:]
        trace_b = forward(params, xb, 0)
        loss_b, d_b, dcost_b = head_loss(spec.balanced_terms, trace_b.logits, yb, cfg, deltas, cost_params)
        grad = grad + backward(params, trace_b, d_b).vector
        d_cost += dcost_b
    return loss_r, loss_b, grad, d_cost


def step_inputs(cfg, train_ds):
    spec = variant_losses(cfg.variant)
    params = init_mlp(train_ds.dim, cfg.hidden, cfg.depth, train_ds.n_classes, seed=cfg.seed)
    sampler = SamplerState(train_ds, cfg.batch_size, seed=cfg.seed,
                           q_regular=cfg.q_regular, q_balanced=cfg.q_balanced)
    deltas = delta_margins(train_ds.class_counts, cfg.margin_scale)
    cost_params = CostParams(0.0, cfg.theta, cfg.offset) if spec.uses_cost else None
    return spec, params, sampler, deltas, cost_params


def reference_train(cfg, train_ds, epochs):
    """Parameters and mean regular losses after `epochs` epochs of two-pass steps.

    The optimizer is written out here over two arrays (the parameters, then
    log C_FP), independent of `nn.opt_step`.
    """
    spec, params, sampler, deltas, cost_params = step_inputs(cfg, train_ds)
    cost_arr = np.zeros(1)
    arrays = [params.vector, cost_arr] if cost_params else [params.vector]
    moments = [(np.zeros_like(a), np.zeros_like(a)) for a in arrays]
    lr, b1, b2, eps = cfg.learning_rate, 0.9, 0.999, 1e-8
    losses, t = [], 0
    for _ in range(epochs):
        total = 0.0
        for step, pair in enumerate(epoch_batches(sampler)):
            loss_r, _, grad, d_cost = two_pass_step(params, pair, spec, cfg, deltas, cost_params)
            t += 1
            for p, g, (m, v) in zip(arrays, [grad, np.array([d_cost])], moments):
                if cfg.optimizer == "sgd":
                    p -= lr * g
                    continue
                m[:] = b1 * m + (1 - b1) * g
                v[:] = b2 * v + (1 - b2) * g * g
                p -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            if cost_params:
                cost_params.log_cfp = float(cost_arr[0])
            total += loss_r
        losses.append(total / (step + 1))
    return params, losses


class TestStackedStep:
    @pytest.mark.parametrize("variant", ["decoupling", "full"])
    def test_dual_stream_gradient_matches_two_pass_reference(self, splits, variant):
        cfg = TrainConfig(variant=variant, seed=3)
        spec, params, sampler, deltas, cost_params = step_inputs(cfg, splits[0])
        if cost_params:
            cost_params.log_cfp = 0.3
        for _ in range(5):
            pair = next_batch_pair(sampler)
            loss_r, loss_b, grad, d_cost = train_step(params, pair, spec, cfg, deltas, cost_params)
            ref_r, ref_b, ref_grad, ref_cost = two_pass_step(params, pair, spec, cfg, deltas, cost_params)
            assert loss_r == pytest.approx(ref_r, rel=1e-12)
            assert loss_b == pytest.approx(ref_b, rel=1e-12)
            assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
            assert d_cost == pytest.approx(ref_cost, rel=1e-12, abs=0.0)
            params.vector -= 1e-2 * grad  # move off the initial point between probes

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_step_gathers_and_computes_only_what_it_reads(self, splits, monkeypatch, variant):
        # single-stream steps gather the regular draw's rows alone and route none to the balanced head
        cfg = TrainConfig(variant=variant)
        spec, params, sampler, deltas, cost_params = step_inputs(cfg, splits[0])
        pair = next_batch_pair(sampler)
        seen = []

        def recording_forward(params, x, n_regular=None, trace=None, _real=training.forward):
            seen.append((x, _real(params, x, n_regular, trace)))
            return seen[-1][1]

        monkeypatch.setattr(training, "forward", recording_forward)
        train_step(params, pair, spec, cfg, deltas, cost_params)
        [(x, trace)] = seen
        rows = pair.idx if spec.dual_stream else pair.idx[:pair.n_regular]
        assert np.array_equal(x, splits[0].features[rows])
        assert trace.logits.shape[0] == rows.size
        assert trace.n_regular == pair.n_regular

    def test_each_head_ignores_the_other_block_exactly(self, splits):
        tr = splits[0]
        params = init_mlp(tr.dim, n_classes=2, seed=4)
        pair = next_batch_pair(SamplerState(tr, batch_size=32, seed=4))
        n = pair.n_regular
        rng = np.random.default_rng(0)
        pair_x = pair.rows()[0]
        trace = forward(params, pair_x, n)
        d = rng.normal(size=(2 * n, 2))
        fused = backward(params, trace, d)
        zero = np.zeros((n, 2))
        regular_only = backward(params, trace, np.vstack([d[:n], zero]))
        balanced_only = backward(params, trace, np.vstack([zero, d[n:]]))
        assert not regular_only.head_balanced.W.any() and not regular_only.head_balanced.b.any()
        assert not balanced_only.head_regular.W.any() and not balanced_only.head_regular.b.any()
        # new data and upstream gradients in one block leave the other head's gradient bit-equal
        x = pair_x.copy()
        x[n:] = rng.normal(size=(n, tr.dim))
        other_b = backward(params, forward(params, x, n), np.vstack([d[:n], rng.normal(size=(n, 2))]))
        assert np.array_equal(other_b.head_regular.W, fused.head_regular.W)
        assert np.array_equal(other_b.head_regular.b, fused.head_regular.b)
        x = pair_x.copy()
        x[:n] = rng.normal(size=(n, tr.dim))
        other_r = backward(params, forward(params, x, n), np.vstack([rng.normal(size=(n, 2)), d[n:]]))
        assert np.array_equal(other_r.head_balanced.W, fused.head_balanced.W)
        assert np.array_equal(other_r.head_balanced.b, fused.head_balanced.b)

    def test_backward_into_reused_buffer_equals_fresh(self):
        rng = np.random.default_rng(1)
        params = init_mlp(5, hidden=9, depth=5, n_classes=3, seed=1)
        x = rng.normal(size=(12, 5))
        buffer = Gradients(np.empty(params.vector.size), params.widths)
        for n_regular in (12, 0, 5):
            trace, d = forward(params, x, n_regular), rng.normal(size=(12, 3))
            buffer.vector[:] = rng.normal(size=buffer.vector.size)  # stale values from an earlier step
            assert backward(params, trace, d, buffer) is buffer
            assert np.array_equal(buffer.vector, backward(params, trace, d).vector)

    @pytest.mark.parametrize("variant, n_classes", [(v, 2) for v in VARIANTS] + [
        (v, 3) for v in VARIANTS if not variant_losses(v).uses_cost])
    def test_reused_step_buffers_equal_fresh(self, splits, variant, n_classes):
        # consecutive steps through one run's trace and gradient buffer equal fresh steps bit for bit
        if n_classes == 2:
            ds = splits[0]
        else:
            from denshift.data import Dataset

            rng = np.random.default_rng(7)
            labels = np.repeat([0, 1, 2], [90, 40, 20])
            feats = rng.normal(size=(labels.size, 4)) + labels[:, None]
            ds = Dataset(feats, labels, tuple("abcd"), ("x", "y", "z"))
        cfg = TrainConfig(variant=variant, batch_size=16, seed=5)
        spec, params, sampler, deltas, cost_params = step_inputs(cfg, ds)
        if cost_params:
            cost_params.log_cfp = 0.3
        trace = ForwardTrace(params, 2 * cfg.batch_size if spec.dual_stream else cfg.batch_size)
        out = Gradients(np.random.default_rng(0).normal(size=params.vector.size), params.widths)
        for _ in range(4):
            pair = next_batch_pair(sampler)
            loss_r, loss_b, grad, d_cost = train_step(params, pair, spec, cfg, deltas, cost_params, out, trace)
            fresh_r, fresh_b, fresh_grad, fresh_cost = train_step(params, pair, spec, cfg, deltas, cost_params)
            assert grad is out.vector
            assert loss_r == fresh_r
            assert loss_b == fresh_b or (math.isnan(loss_b) and math.isnan(fresh_b) and not spec.dual_stream)
            assert np.array_equal(grad, fresh_grad)
            assert d_cost == fresh_cost
            params.vector -= 1e-2 * fresh_grad  # move off the current point between steps

    def test_one_trace_follows_n_regular_like_fresh_traces(self, splits):
        # the trace makes its head views once per n_regular: each pass over the reused trace, at any
        # sequence of n_regular, for predict and for a step, equals a pass over a fresh one bit for bit
        tr = splits[0]
        params = init_mlp(tr.dim, hidden=9, depth=5, n_classes=2, seed=2)  # depth 5 has a residual block
        params.trained_heads = ("regular", "balanced")
        rng = np.random.default_rng(2)
        rows, k = 16, 5
        x, d = rng.normal(size=(rows, tr.dim)), rng.normal(size=(rows, 2))
        trace = ForwardTrace(params, rows)
        for n in (rows, 0, k, rows):
            assert forward(params, x, n, trace) is trace
            fresh = forward(params, x, n)
            assert np.array_equal(trace.logits, fresh.logits), n
            assert np.array_equal(backward(params, trace, d).vector, backward(params, fresh, d).vector), n
        assert np.array_equal(predict(params, x, "balanced", trace), predict(params, x, "balanced"))
        assert np.array_equal(backward(params, trace, d).vector, backward(params, forward(params, x, 0), d).vector)
        cfg = TrainConfig(variant="full")
        ds = Dataset(x, rng.integers(0, 2, size=rows), tr.feature_names, tr.class_names)
        pair = BatchPair(ds, np.arange(rows), rows // 2)
        args = (variant_losses("full"), cfg, delta_margins(tr.class_counts), CostParams(0.3, cfg.theta, cfg.offset))
        got, want = train_step(params, pair, *args, None, trace), train_step(params, pair, *args)
        assert got[:2] + got[3:] == want[:2] + want[3:] and np.array_equal(got[2], want[2])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_hand_built_pair_with_an_out_of_range_label_is_refused(self, variant):
        # the step's losses skip their label checks: a pair's labels are those its Dataset checked when built
        params = init_mlp(3, n_classes=2, seed=0)
        cfg = TrainConfig(variant=variant)
        cost_params = CostParams(0.0, cfg.theta, cfg.offset) if variant_losses(variant).uses_cost else None
        with pytest.raises(ValidationError, match="^label out of range: labels must be whole numbers 0/1$"):
            ds = Dataset(np.zeros((8, 3)), np.array([0, 1, 2, 0, 1, 0, 1, 0]), ("a", "b", "c"), ("x", "y"))
            train_step(params, BatchPair(ds, np.arange(8), 4), variant_losses(variant), cfg, delta_margins([5, 3]),
                       cost_params)

    @pytest.mark.parametrize("model_classes, n_margins, variant, error, message", [
        pytest.param(2, 2, "base", ValidationError, "label out of range: labels must be whole numbers 0/1",
                     id="a-3-class-pair-on-a-2-class-model"),
        pytest.param(3, 2, "dah", ValidationError, "need one margin per class", id="margins-of-the-wrong-length"),
        pytest.param(3, 3, "cost", UnsupportedTaskError, "cost matrix loss applies to binary prediction only",
                     id="a-cost-variant-on-3-classes"),
    ])
    def test_the_step_refuses_what_its_unchecked_losses_would_misread(self, model_classes, n_margins, variant,
                                                                       error, message):
        # a pair of more classes than the model is the step's one refusal; margins of the wrong length and a cost
        # term on 3 classes are refused inside the losses, whose O(1) checks run with the label scan skipped
        ds = Dataset(np.zeros((9, 3)), np.arange(9) % 3, ("a", "b", "c"), ("x", "y", "z"))
        params = init_mlp(3, n_classes=model_classes, seed=0)
        cfg = TrainConfig(variant=variant)
        with pytest.raises(error, match=f"^{message}$"):
            train_step(params, BatchPair(ds, np.arange(8), 4), variant_losses(variant), cfg,
                       delta_margins(np.arange(1, n_margins + 1)), CostParams(0.0, cfg.theta, cfg.offset))

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if not variant_losses(v).uses_cost])
    def test_a_split_with_fewer_classes_than_the_model_steps(self, variant):
        # every label of a 2-class split lies below a 3-class model's class count, so the losses read it as it is
        ds = Dataset(np.zeros((8, 3)), np.arange(8) % 2, ("a", "b", "c"), ("x", "y"))
        params, spec = init_mlp(3, n_classes=3, seed=0), variant_losses(variant)
        loss_r, loss_b, grad, _ = train_step(params, BatchPair(ds, np.arange(8), 4), spec, TrainConfig(variant=variant),
                                             delta_margins([4, 4, 4]), None)
        assert math.isfinite(loss_r) and (math.isfinite(loss_b) or not spec.dual_stream)
        assert grad.shape == params.vector.shape

    @pytest.mark.parametrize("variant", ["dah", "full"])
    def test_margins_as_a_list_step_as_margins_as_an_array(self, variant):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(8, 3)), np.arange(8) % 2, ("a", "b", "c"), ("x", "y"))
        params, cfg = init_mlp(3, n_classes=2, seed=0), TrainConfig(variant=variant)
        args = (BatchPair(ds, np.arange(8), 4), variant_losses(variant), cfg)
        cost_params = CostParams(0.3, cfg.theta, cfg.offset)
        got = train_step(params, *args, [0.1, 0.2], cost_params)
        want = train_step(params, *args, np.array([0.1, 0.2]), cost_params)
        assert [float(v).hex() for v in got[:2] + got[3:]] == [float(v).hex() for v in want[:2] + want[3:]]
        assert np.array_equal(got[2], want[2])

    def test_an_unknown_loss_term_is_refused_naming_it(self):
        ds = Dataset(np.zeros((8, 3)), np.arange(8) % 2, ("a", "b", "c"), ("x", "y"))
        with pytest.raises(ValidationError, match="^unknown loss term 'nope'$"):
            train_step(init_mlp(3, n_classes=2, seed=0), BatchPair(ds, np.arange(8), 4),
                       VariantSpec(False, ("nope",), None), TrainConfig(), delta_margins([4, 4]), None)

    def test_steady_state_step_allocates_less_than_one_activation(self):
        # dual stream, hidden 128, batch 256: after warm-up, K steps of sample, train_step and Adam
        # through the run's buffers raise the traced peak by less than one (256 x 129) activation
        import tracemalloc

        tr = prepared_splits(n_maj=900, n_min=100, dim=20)[0]
        cfg = TrainConfig(variant="full", hidden=128, batch_size=256, seed=0)
        spec, params, sampler, deltas, cost_params = step_inputs(cfg, tr)
        trace = ForwardTrace(params, 2 * cfg.batch_size)
        out = Gradients(np.zeros(params.vector.size), params.widths)
        opt = OptState.for_vector(params.vector, cfg.optimizer, cfg.learning_rate)
        budget = 256 * 129 * 8

        def peak_rise(steps, *buffers):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for _ in range(steps):
                    pair = next_batch_pair(sampler)
                    _, _, grad, _ = train_step(params, pair, spec, cfg, deltas, cost_params, *buffers)
                    opt_step(params.vector, grad, opt)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        for _ in range(2):  # warm-up
            train_step(params, next_batch_pair(sampler), spec, cfg, deltas, cost_params, out, trace)
        assert peak_rise(5, out, trace) < budget
        assert peak_rise(5) > budget  # the same steps with fresh buffers exceed it

    @pytest.mark.parametrize("extra", [{}, {"optimizer": "sgd", "learning_rate": 0.05}])
    @pytest.mark.parametrize("variant", ["base", "dah", "focal", "cost"])
    def test_single_stream_training_equals_two_pass_reference(self, splits, variant, extra):
        cfg = TrainConfig(variant=variant, epochs=30, early_stop_patience=30, seed=2, **extra)
        params, history = train(cfg, splits[:2])
        ref_params, ref_losses = reference_train(cfg, splits[0], history.best_epoch + 1)
        assert np.array_equal(params.vector, ref_params.vector)
        assert [e.loss_regular for e in history.epochs[:history.best_epoch + 1]] == ref_losses

    def test_one_forward_backward_and_adam_array_per_step(self, splits, monkeypatch):
        tr, va, _ = splits
        for variant in VARIANTS:
            calls = {"forward": 0, "backward": [], "opt_step": []}

            def counting_forward(*args, _real=training.forward):
                calls["forward"] += 1
                return _real(*args)

            def counting_backward(*args, _real=training.backward):
                calls["backward"].append(args[3])
                return _real(*args)

            def counting_opt_step(vector, grad, opt, _real=training.opt_step):
                calls["opt_step"].append(vector)
                return _real(vector, grad, opt)

            monkeypatch.setattr(training, "forward", counting_forward)
            monkeypatch.setattr(training, "backward", counting_backward)
            monkeypatch.setattr(training, "opt_step", counting_opt_step)
            cfg = TrainConfig(variant=variant, epochs=2, batch_size=32, early_stop_patience=2)
            _, history = train(cfg, (tr, va))
            monkeypatch.undo()
            steps = history.epochs_run * math.ceil(tr.n / cfg.batch_size)
            assert calls["forward"] == steps + history.epochs_run, variant  # plus one validation pass per epoch
            assert len(calls["backward"]) == steps, variant
            assert calls["backward"][0] is not None, variant
            assert all(out is calls["backward"][0] for out in calls["backward"]), variant  # one buffer per run
            assert len(calls["opt_step"]) == steps, variant
            assert all(v is calls["opt_step"][0] for v in calls["opt_step"]), variant  # one Adam vector


class TestLossHooks:
    # the step calls each loss through the name `training` imports, once per term per step, covering
    # every head that has the term, so a wrapper on those names (the benchmark's trace, a poisoned loss)
    # sees every call
    EXPECTED = {
        "base": {"ce": 1},
        "decoupling": {"ce": 1},
        "dah": {"dah_softmax": 1},
        "focal": {"focal": 1},
        "cost": {"ce": 1, "cost_loss": 1},
        "full": {"dah_softmax": 1, "cost_loss": 1},
    }

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_step_calls_its_losses_through_training_names(self, splits, monkeypatch, variant):
        tr, va, _ = splits
        counts = dict.fromkeys(("ce", "focal", "dah_softmax", "cost_loss"), 0)
        for name in counts:
            def counting(*args, _name=name, _real=getattr(training, name)):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(training, name, counting)
        cfg = TrainConfig(variant=variant, epochs=2, batch_size=32, early_stop_patience=2)
        _, history = train(cfg, (tr, va))
        steps = history.epochs_run * math.ceil(tr.n / cfg.batch_size)
        expected = {name: steps * self.EXPECTED[variant].get(name, 0) for name in counts}
        assert counts == expected


class TestGradientReport:
    def test_multiclass_probes_every_wiring_without_cost(self):
        report = gradient_report(n_classes=3)
        assert list(report) == ["ce", "focal", "dah_softmax", "decoupling"]
        assert all(err < 1e-4 for err in report.values())


class TestPredict:
    def test_zero_weight_model_is_uniform(self):
        params = init_mlp(4, n_classes=3, seed=0)
        for arr in params.flat():
            arr[:] = 0.0
        probs = predict(params, np.ones((5, 4)))
        assert np.abs(probs - 1.0 / 3.0).max() < 1e-15

    def test_rows_sum_to_one(self):
        params = init_mlp(4, n_classes=3, seed=1)
        probs = predict(params, np.random.default_rng(0).normal(size=(50, 4)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12

    def test_binary_positive_prob_is_sigmoid_of_logit_gap(self):
        params = init_mlp(4, n_classes=2, seed=2)
        x = np.random.default_rng(1).normal(size=(30, 4))
        probs = predict(params, x, head="regular")
        logits = forward(params, x).logits
        assert np.array_equal(training.logits(params, x, head="regular"), logits)
        expected = 1.0 / (1.0 + np.exp(-(logits[:, 1] - logits[:, 0])))
        assert np.abs(probs[:, 1] - expected).max() < 1e-12

    def test_unknown_head(self):
        params = init_mlp(4, seed=3)
        with pytest.raises(ValidationError):
            predict(params, np.ones((1, 4)), head="middle")


class TestBlockSamplerPin:
    """`train()` with the block sampler equals `train()` with every pair drawn through the per-draw oracle."""

    @staticmethod
    def both_ways(cfg, splits, monkeypatch):
        block = train(cfg, splits)
        with monkeypatch.context() as m:
            m.setattr(SamplerState, "_draw_block", ref_draw_block)
            reference = train(cfg, splits)
        return block, reference

    @staticmethod
    def assert_same_run(got, expected):
        (params, history), (ref_params, ref_history) = got, expected
        assert np.array_equal(params.vector, ref_params.vector)
        assert repr(history.epochs) == repr(ref_history.epochs)  # NaN cost columns are not ==
        assert history.best_epoch == ref_history.best_epoch

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_acceptance_splits_every_variant(self, variant, monkeypatch):
        ds = gen_synthetic(BENCH_SYNTH)
        tr, va, _ = stratified_split(ds, (0.8, 0.1, 0.1), seed=0)
        norm = fit_preprocess(tr)
        splits = (apply_preprocess(tr, norm), apply_preprocess(va, norm))
        cfg = TrainConfig(variant=variant, seed=0, **dict(BENCH_TRAIN, epochs=100))
        self.assert_same_run(*self.both_ways(cfg, splits, monkeypatch))

    def test_five_class_decoupling(self, monkeypatch):
        from denshift.data import Dataset

        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(5), [300, 120, 60, 30, 14])
        ds = Dataset(rng.normal(size=(labels.size, 4)) + labels[:, None], labels, tuple("abcd"),
                     tuple(f"k{i}" for i in range(5)))
        tr, va, _ = stratified_split(ds, seed=0)
        cfg = TrainConfig(variant="decoupling", epochs=15, early_stop_patience=15, batch_size=32, seed=1)
        self.assert_same_run(*self.both_ways(cfg, (tr, va), monkeypatch))


class TestSweepAndAblation:
    def test_sweep_counts_and_order(self, splits):
        cfg = TrainConfig(variant="cost", epochs=2, seed=0)
        rows = sweep_theta(cfg, splits, theta_grid=(10.0, 1.0), seeds=(0, 1, 2))
        assert [r["theta"] for r in rows] == [1.0, 10.0]
        assert all(r["n_runs"] == 3 for r in rows)
        assert {"auc_roc_mean", "auc_roc_ci95", "auc_prc_mean", "auc_prc_ci95"} <= set(rows[0])

    def test_sweep_requires_cost_variant(self, splits):
        with pytest.raises(ValidationError):
            sweep_theta(TrainConfig(variant="base"), splits)

    def test_t_quantile_matches_scipy(self):
        from scipy.stats import t

        for df in range(1, 201):
            assert training._t975(df) == pytest.approx(t.ppf(0.975, df), rel=1e-12, abs=0.0), df

    def test_two_seed_sweep_interval_is_the_student_t_half_width(self, splits):
        # two seeds are enough: the interval is t(0.975, 1 df) = 12.706... standard errors wide
        from dataclasses import replace

        cfg = TrainConfig(variant="cost", epochs=2, seed=0)
        [row] = sweep_theta(cfg, splits, theta_grid=(5.0,), seeds=(0, 1))
        runs = [training._run_single((replace(cfg, theta=5.0, seed=s), *splits)) for s in (0, 1)]
        assert row["n_runs"] == 2
        for metric in ("auc_roc", "auc_prc"):
            values = np.array([r[metric] for r in runs])
            half_width = 12.706204736174707 * values.std(ddof=1) / np.sqrt(2)
            assert row[f"{metric}_mean"] == values.mean()
            assert half_width > 0.0 and row[f"{metric}_ci95"] == pytest.approx(half_width, rel=1e-12)

    def test_ablation_covers_all_variants(self, splits):
        cfg = TrainConfig(epochs=2, seed=0)
        table = run_ablation(cfg, splits, seeds=(0, 1))
        assert set(table) == set(VARIANTS)
        for row in table.values():
            assert row["n_runs"] == 2
            assert len(row["auc_prc_per_seed"]) == 2

    def test_ablation_deterministic_across_workers(self, splits):
        cfg = TrainConfig(epochs=2, seed=0)
        serial = run_ablation(cfg, splits, seeds=(0, 1))
        parallel = run_ablation(cfg, splits, seeds=(0, 1), max_workers=2)
        assert list(serial) == list(parallel) == list(VARIANTS)
        assert serial == parallel
