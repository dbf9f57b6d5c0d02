import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denshift.data import NormStats
from denshift.errors import ValidationError
from denshift.losses import ce, dah_softmax
from denshift.nn import (
    ForwardTrace,
    Gradients,
    ModelParams,
    OptState,
    _CHECKPOINT_META,
    backward,
    forward,
    grad_check,
    init_mlp,
    load_checkpoint,
    opt_step,
    save_checkpoint,
)
from oracles import ref_forward, ref_gradients


def zero_params(params):
    for arr in params.flat():
        arr[:] = 0.0
    return params


class TestInit:
    def test_shapes_match_backbone_contract(self):
        p = init_mlp(86, hidden=28, depth=4, n_classes=2, seed=0)
        assert p.backbone[0].W.shape == (86, 28)
        assert len(p.backbone) == 3  # 3 backbone matrices + 1 head matrix per path
        assert p.head_regular.W.shape == (28, 2)
        assert p.head_balanced.W.shape == (28, 2)
        assert p.resid_span == (1, 2)

    def test_seeded_determinism(self):
        a = init_mlp(10, seed=42)
        b = init_mlp(10, seed=42)
        for x, y in zip(a.flat(), b.flat()):
            assert np.array_equal(x, y)

    def test_init_scale_and_zero_biases(self):
        p = init_mlp(100, hidden=28, seed=1)
        assert np.abs(p.backbone[0].W).max() <= 1.0 / np.sqrt(100)
        assert np.array_equal(p.backbone[0].b, np.zeros(28))

    @pytest.mark.parametrize("kwargs, message", [
        ({"input_dim": 0}, "input_dim must be an integer >= 1, got 0"),
        ({"input_dim": True}, "input_dim must be an integer >= 1, got True"),
        ({"input_dim": 4, "hidden": 0}, "hidden must be an integer >= 1, got 0"),
        ({"input_dim": 4, "n_classes": 0}, "n_classes must be an integer >= 1, got 0"),
        ({"input_dim": 4, "depth": 1}, "depth must be an integer >= 2, got 1"),
        ({"input_dim": 4, "depth": 3.0}, "depth must be an integer >= 2, got 3.0"),
    ])
    def test_bad_dims_are_refused_by_name(self, kwargs, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            init_mlp(**kwargs)

    @pytest.mark.parametrize("input_dim, hidden, depth, n_classes", [
        (5, 28, 4, 2), (3, 4, 2, 2), (7, 9, 5, 3), (2, 3, 7, 4), (20, 28, 4, 2),
    ])
    def test_init_draws_each_weight_matrix_in_layer_order(self, input_dim, hidden, depth, n_classes):
        # reference: the backbone's W then b, then each head's, concatenated; each W one uniform draw
        rng = np.random.default_rng(11)
        shapes = [(input_dim, hidden)] + [(hidden, hidden)] * (depth - 2) + [(hidden, n_classes)] * 2
        parts = []
        for d_in, d_out in shapes:
            bound = 1.0 / np.sqrt(d_in)
            parts += [rng.uniform(-bound, bound, size=(d_in, d_out)).ravel(), np.zeros(d_out)]
        p = init_mlp(input_dim, hidden, depth, n_classes, seed=11)
        assert p.widths == (input_dim, *[hidden] * (depth - 1), n_classes)
        assert np.array_equal(p.vector, np.concatenate(parts))

    @pytest.mark.parametrize("size", [149, 151])
    def test_a_vector_of_another_size_than_the_widths_need_is_refused(self, size):
        # widths 5 -> 7 -> 7 -> 4, then two 2-class heads: 6*7 + 8*7 + 8*4 + 2 * 5*2 = 150 entries
        assert ModelParams(np.zeros(150), (5, 7, 7, 4, 2)).head_balanced.Wb.shape == (5, 2)
        with pytest.raises(ValidationError, match=rf"the vector has shape \({size},\), the layer widths need \(150,\)"):
            ModelParams(np.zeros(size), (5, 7, 7, 4, 2))
        with pytest.raises(ValidationError, match=r"the vector has shape \(1, 150\)"):
            Gradients(np.zeros((1, 150)), (5, 7, 7, 4, 2))


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        p = zero_params(init_mlp(6, seed=0))
        x = np.random.default_rng(0).normal(size=(5, 6))
        for n_regular in (None, 0, 2):
            assert np.array_equal(forward(p, x, n_regular).logits, np.zeros((5, 2)))

    def test_hand_computed_single_hidden_layer(self):
        # depth=2: one backbone matrix + one head matrix, no residual block
        p = init_mlp(2, hidden=3, depth=2, n_classes=2, seed=0)
        assert p.resid_span is None
        w0 = np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 1.0]])
        b0 = np.array([0.1, -0.2, 0.0])
        wr = np.array([[1.0, -1.0], [0.5, 0.5], [2.0, 0.0]])
        br = np.array([0.0, 1.0])
        p.backbone[0].W[:] = w0
        p.backbone[0].b[:] = b0
        p.head_regular.W[:] = wr
        p.head_regular.b[:] = br
        x = np.array([[1.0, 2.0]])
        hidden = np.maximum(x @ w0 + b0, 0.0)
        expected = hidden @ wr + br
        trace = forward(p, x)
        assert np.abs(trace.logits - expected).max() < 1e-12

    def test_batch_shapes(self):
        p = init_mlp(7, n_classes=3, seed=0)
        trace = forward(p, np.zeros((128, 7)))
        assert trace.logits.shape == (128, 3) and trace.n_regular == 128
        trace = forward(p, np.zeros((128, 7)), 50)
        assert trace.logits.shape == (128, 3) and trace.n_regular == 50

    @pytest.mark.parametrize("n_regular, message", [
        (-1, "n_regular must be an integer >= 0, got -1"),
        (True, "n_regular must be an integer >= 0, got True"),
        (2.0, "n_regular must be an integer >= 0, got 2.0"),
        ("3", "n_regular must be an integer >= 0, got '3'"),
        (13, "n_regular must be at most the batch's 12 rows, got 13"),
    ])
    def test_n_regular_outside_the_batch_is_refused_by_name(self, n_regular, message):
        p = init_mlp(7, seed=0)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            forward(p, np.zeros((12, 7)), n_regular)

    def test_numpy_integer_n_regular_is_the_plain_int(self):
        p = init_mlp(7, seed=0)
        x = np.random.default_rng(0).normal(size=(12, 7))
        plain = forward(p, x, 3)
        assert np.array_equal(forward(p, x, np.int64(3)).logits, plain.logits)
        assert plain.n_regular == 3

    def test_shape_mismatch(self):
        p = init_mlp(7, seed=0)
        with pytest.raises(ValidationError):
            forward(p, np.zeros((4, 5)))

    def test_residual_block_identity_when_inner_weights_zero(self):
        p = init_mlp(6, hidden=5, depth=4, seed=3)
        for l in p.resid_span:
            p.backbone[l].W[:] = 0.0
            p.backbone[l].b[:] = 0.0
        x = np.random.default_rng(1).normal(size=(9, 6))
        trace = forward(p, x)
        first = np.maximum(x @ p.backbone[0].W + p.backbone[0].b, 0.0)
        assert np.array_equal(trace.hidden, first)

    def test_forward_reproducible(self):
        p = init_mlp(6, seed=5)
        x = np.random.default_rng(2).normal(size=(4, 6))
        for n_regular in (None, 0, 2):
            assert np.array_equal(forward(p, x, n_regular).logits, forward(p, x, n_regular).logits)

    def test_forward_into_reused_trace_equals_fresh(self):
        rng = np.random.default_rng(3)
        p = init_mlp(5, hidden=9, depth=5, n_classes=3, seed=3)
        trace = ForwardTrace(p, 12)
        buffers = [id(a) for a in trace.act]
        for n_regular in (None, 12, 0, 5, None):
            x = rng.normal(size=(12, 5))
            fresh = forward(p, x, n_regular)
            assert forward(p, x, n_regular, trace) is trace
            assert [id(a) for a in trace.act] == buffers
            assert np.array_equal(trace.hidden, fresh.hidden)
            assert np.array_equal(trace.logits, fresh.logits) and trace.n_regular == fresh.n_regular
        with pytest.raises(ValidationError, match="trace holds 12 rows, the batch has 4"):
            forward(p, rng.normal(size=(4, 5)), None, trace)

    def test_hidden_is_both_heads_input(self):
        # trace.hidden is the representation read out for embedding plots: each head is one affine map of it
        p = init_mlp(6, hidden=28, depth=4, n_classes=3, seed=0)
        p.vector[:] = np.random.default_rng(7).normal(scale=0.3, size=p.vector.size)
        x = np.random.default_rng(0).normal(size=(100, 6))
        trace = forward(p, x)
        assert trace.hidden.shape == (100, 28)
        assert np.array_equal(trace.hidden, forward(p, x).hidden)
        for n in (100, 0, 37):
            logits = forward(p, x, n).logits
            for head, rows in ((p.head_regular, slice(None, n)), (p.head_balanced, slice(n, None))):
                assert np.abs(trace.hidden[rows] @ head.W + head.b - logits[rows]).max(initial=0.0) < 1e-12

    def test_zero_weights_give_zero_hidden(self):
        p = zero_params(init_mlp(4, seed=0))
        trace = forward(p, np.ones((3, 4)))
        assert np.array_equal(trace.hidden, np.zeros((3, p.backbone[-1].W.shape[1])))


class TestFoldedBiasAgainstUnfoldedOracle:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 130), hidden=st.integers(1, 40), depth=st.integers(2, 6),
           seed=st.integers(0, 2**16), data=st.data())
    def test_logits_and_gradients_match(self, rows, hidden, depth, seed, data):
        rng = np.random.default_rng(seed)
        p = init_mlp(5, hidden=hidden, depth=depth, n_classes=3, seed=seed)
        p.vector[:] = rng.normal(scale=0.5, size=p.vector.size)  # nonzero biases, so the fold is exercised
        x = rng.normal(size=(rows, 5))
        _, _, ref_r, ref_b = ref_forward(p, x)
        # rows [:n] go through the regular head, the rest through the balanced head (all regular for None)
        n_regular = data.draw(st.none() | st.integers(0, rows))
        n = rows if n_regular is None else n_regular
        trace = forward(p, x, n_regular)
        ref = np.vstack([ref_r[:n], ref_b[n:]])
        assert np.abs(trace.logits - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)

        # the oracle takes full-height per-head upstreams: each head's is zero outside its rows
        d = rng.normal(size=(rows, 3))
        ref = np.concatenate([g.ravel() for g in ref_gradients(p, x, *split_by_head(d, n))])
        got = backward(p, trace, d).vector
        assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)


def assert_affine_views_write_through(model):
    rng = np.random.default_rng(0)
    for layer in model.backbone + [model.head_regular, model.head_balanced]:
        d_in, d_out = layer.W.shape
        assert layer.Wb.shape == (d_in + 1, d_out)
        new = rng.normal(size=layer.Wb.shape)
        layer.Wb[:] = new
        assert np.array_equal(layer.W, new[:-1]) and np.array_equal(layer.b, new[-1])
    assert np.array_equal(np.concatenate([a.ravel() for a in model.flat()]), model.vector)


def test_affine_views_write_through_after_every_construction(tmp_path):
    import pickle

    p = init_mlp(4, hidden=6, depth=5, n_classes=3, seed=2)
    stats = NormStats(mean=np.zeros(4), std=np.ones(4))
    save_checkpoint(tmp_path / "c.npz", p, stats, ("a", "b", "c"), tuple("wxyz"))
    loaded, _, _ = load_checkpoint(tmp_path / "c.npz")
    for model in (p, p.copy(), loaded, pickle.loads(pickle.dumps(p)),
                  Gradients(np.zeros(p.vector.size), p.widths)):
        assert_affine_views_write_through(model)


def split_by_head(d, n):
    """A full-height upstream `d` as (regular head's, balanced head's): each zero outside its head's rows."""
    d_r, d_b = d.copy(), d.copy()
    d_r[n:], d_b[:n] = 0.0, 0.0
    return d_r, d_b


def model_loss(params, x, y, head="regular", deltas=None):
    trace = forward(params, x, 0 if head == "balanced" else None)
    if deltas is None:
        loss, d = ce(trace.logits, y)
    else:
        loss, d = dah_softmax(trace.logits, y, deltas)
    return loss, backward(params, trace, d)


def poison_empty_like(monkeypatch):
    """Make np.empty_like return NaN-filled arrays, so a scratch row backward never writes shows up."""
    real = np.empty_like

    def nan_filled(*args, **kwargs):
        out = real(*args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty_like", nan_filled)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        p = init_mlp(5, seed=0)
        x = np.random.default_rng(0).normal(size=(3, 5))
        trace = forward(p, x)
        grads = backward(p, trace, np.zeros((3, 2)))
        for g in grads.flat():
            assert np.array_equal(g, np.zeros_like(g))

    @pytest.mark.parametrize("n_regular, idle", [(0, "head_regular"), (6, "head_balanced")])
    def test_head_with_no_rows_gets_exact_zero(self, n_regular, idle):
        p = init_mlp(5, seed=1)
        x = np.random.default_rng(1).normal(size=(6, 5))
        y = np.array([0, 1, 0, 1, 0, 1])
        trace = forward(p, x, n_regular)
        _, d = ce(trace.logits, y)
        grads = backward(p, trace, d)
        busy = "head_balanced" if idle == "head_regular" else "head_regular"
        assert np.array_equal(getattr(grads, idle).Wb, np.zeros_like(getattr(grads, idle).Wb))
        assert np.abs(getattr(grads, busy).W).max() > 0

    def test_backbone_gradient_is_sum_of_heads(self):
        p = init_mlp(5, seed=2)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 5))
        trace = forward(p, x, 3)
        d = rng.normal(size=(6, 2))
        both = backward(p, trace, d)
        only_r, only_b = (backward(p, trace, part) for part in split_by_head(d, 3))
        for g, gr, gb in zip(both.flat(), only_r.flat(), only_b.flat()):
            assert np.abs(g - (gr + gb)).max() < 1e-12

    def test_backward_through_reused_trace_buffers_equals_fresh(self, monkeypatch):
        # consecutive passes leave stale masks and upstream gradients in the trace; none shows,
        # and with NaN-filled fresh buffers, a row backward never writes would show as well
        poison_empty_like(monkeypatch)
        rng = np.random.default_rng(6)
        p = init_mlp(5, hidden=9, depth=5, n_classes=3, seed=6)
        trace = ForwardTrace(p, 12)
        for n_regular in [12, 5, 0, 4, 8, 6]:
            x, d = rng.normal(size=(12, 5)), rng.normal(size=(12, 3))
            got = backward(p, forward(p, x, n_regular, trace), d).vector
            assert np.array_equal(got, backward(p, forward(p, x, n_regular), d).vector)

    @pytest.mark.parametrize("head", ["regular", "balanced"])
    def test_single_head_pass_overwrites_a_stale_buffer(self, head):
        # the head no row went through gets an exact zero gradient, whatever the buffer held
        rng = np.random.default_rng(8)
        p = init_mlp(5, hidden=9, depth=5, n_classes=3, seed=8)
        x, d = rng.normal(size=(12, 5)), rng.normal(size=(12, 3))
        n_regular = 12 if head == "regular" else 0
        buffer = Gradients(rng.normal(size=p.vector.size), p.widths)
        got = backward(p, forward(p, x, n_regular), d, buffer)
        assert np.array_equal(got.vector, backward(p, forward(p, x, n_regular), d).vector)
        other = got.head_balanced if head == "regular" else got.head_regular
        assert not other.Wb.any()

    @pytest.mark.parametrize("shape", [(7, 2), (5, 2), (6, 3), (6,)])
    def test_an_upstream_of_another_shape_than_the_logits_is_refused(self, shape):
        p = init_mlp(5, seed=4)
        trace = forward(p, np.zeros((6, 5)), 2)
        with pytest.raises(ValidationError, match=rf"^d_logits has shape {re.escape(str(shape))}, "
                                                  r"the trace's logits \(6, 2\)$"):
            backward(p, trace, np.zeros(shape))

    def test_gradcheck_through_full_model(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = init_mlp(6, hidden=10, depth=4, n_classes=3, seed=seed)
            x = rng.normal(size=(8, 6))
            y = rng.integers(0, 3, size=8)
            deltas = rng.uniform(0.1, 0.6, size=3)

            def fn(vector, batch, _p=p, _d=deltas):
                loss, grads = model_loss(_p, batch[0], batch[1], head="balanced", deltas=_d)
                return loss, grads.vector

            err = grad_check(fn, p.vector, (x, y), seed=seed)
            assert err < 1e-4

    def test_gradcheck_through_regular_head(self):
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            p = init_mlp(6, hidden=10, depth=4, n_classes=2, seed=seed)
            x = rng.normal(size=(8, 6)) + 0.5
            y = rng.integers(0, 2, size=8)

            def fn(vector, batch, _p=p):
                loss, grads = model_loss(_p, batch[0], batch[1], head="regular")
                return loss, grads.vector

            err = grad_check(fn, p.vector, (x, y), seed=seed)
            assert err < 1e-4

    def test_linear_model_squared_loss_is_exact(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=4)
        x = rng.normal(size=(10, 4))
        t = rng.normal(size=10)

        def fn(vector, batch):
            pred = batch[0] @ vector
            resid = pred - batch[1]
            return float((resid**2).sum()), 2.0 * batch[0].T @ resid

        err = grad_check(fn, w, (x, t), seed=0)
        assert err < 1e-9
        with pytest.raises(ValidationError, match="1-D"):
            grad_check(fn, w.reshape(4, 1), (x, t))


class TestOptimizers:
    def test_sgd_step(self):
        p = np.array([1.0])
        opt = OptState.for_vector(p, "sgd", lr=0.1)
        assert opt_step(p, np.array([2.0]), opt) is p
        assert p[0] == pytest.approx(0.8)

    def test_adam_first_step_magnitude_is_lr(self):
        for g in (1e-4, 1.0, 1e4):
            p = np.array([0.0])
            opt = OptState.for_vector(p, "adam", lr=0.01)
            opt_step(p, np.array([g]), opt)
            assert abs(p[0]) == pytest.approx(0.01, rel=1e-3)

    def test_zero_gradient_keeps_parameters(self):
        for kind in ("sgd", "adam"):
            p = np.array([1.5, -2.0])
            opt = OptState.for_vector(p, kind, lr=0.1)
            opt_step(p, np.zeros(2), opt)
            assert np.array_equal(p, np.array([1.5, -2.0]))

    def test_adam_bias_correction_reference(self):
        # two constant-gradient steps, checked against the textbook update rule
        p = np.array([0.0])
        opt = OptState.for_vector(p, "adam", lr=0.1)
        g = np.array([3.0])
        m = v = 0.0
        ref = 0.0
        for t in (1, 2):
            m = 0.9 * m + 0.1 * 3.0
            v = 0.999 * v + 0.001 * 9.0
            ref -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            opt_step(p, g, opt)
        assert p[0] == pytest.approx(ref, abs=1e-15)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_fifty_steps_bit_equal_to_textbook_update(self, kind):
        rng = np.random.default_rng(11)
        p = rng.normal(size=300)
        ref = p.copy()
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        m, v = np.zeros_like(p), np.zeros_like(p)
        opt = OptState.for_vector(p, kind, lr=lr)
        for t in range(1, 51):
            g = rng.normal(size=p.size) * 10.0 ** rng.uniform(-6, 2, size=p.size)
            if t % 7 == 0:
                g[::3] = 0.0
            assert opt_step(p, g, opt) is p
            if kind == "sgd":
                ref = ref - lr * g
            else:
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert np.array_equal(p, ref), (kind, t)

    def test_unknown_kind_and_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="optimizer"):
            OptState.for_vector(np.zeros(3), "rmsprop")
        opt = OptState.for_vector(np.zeros(3), "adam")
        with pytest.raises(ValidationError, match="shape"):
            opt_step(np.zeros(3), np.zeros(4), opt)

    def test_one_step_over_the_vector_equals_the_per_array_step(self):
        # every update is elementwise, so one optimizer over the packed vector equals
        # one optimizer per layer array
        x = np.random.default_rng(0).normal(size=(8, 5))
        y = np.array([0, 1, 0, 0, 1, 0, 1, 0])
        for kind in ("sgd", "adam"):
            packed, split = init_mlp(5, seed=3), init_mlp(5, seed=3)
            opt_packed = OptState.for_vector(packed.vector, kind, lr=1e-2)
            opt_split = [OptState.for_vector(a, kind, lr=1e-2) for a in split.flat()]
            for _ in range(3):
                trace = forward(packed, x)
                _, d = ce(trace.logits, y)
                opt_step(packed.vector, backward(packed, trace, d).vector, opt_packed)
                _, grads = model_loss(split, x, y)
                for a, g, opt in zip(split.flat(), grads.flat(), opt_split):
                    opt_step(a, g, opt)
            assert np.array_equal(packed.vector, split.vector), kind

    def test_deterministic_trajectory(self):
        histories = []
        for _ in range(2):
            p = init_mlp(5, seed=3)
            opt = OptState.for_vector(p.vector, "adam", lr=1e-3)
            rng = np.random.default_rng(0)
            x = rng.normal(size=(8, 5))
            y = rng.integers(0, 2, size=8)
            for _ in range(3):
                _, grads = model_loss(p, x, y)
                opt_step(p.vector, grads.vector, opt)
            histories.append(p.vector.copy())
        assert np.array_equal(*histories)


def assert_views_of_vector(params):
    arrays = params.flat()
    assert sum(a.size for a in arrays) == params.vector.size
    for arr in arrays:
        assert np.shares_memory(arr, params.vector)


class TestParameterVector:
    def test_flat_arrays_are_views_in_order(self):
        p = init_mlp(5, hidden=7, depth=4, n_classes=3, seed=2)
        assert_views_of_vector(p)
        assert np.array_equal(np.concatenate([a.ravel() for a in p.flat()]), p.vector)
        p.vector[:] = 0.0
        assert all(not a.any() for a in p.flat())

    def test_copy_is_independent_of_its_source(self):
        p = init_mlp(5, seed=2)
        q = p.copy()
        assert_views_of_vector(q)
        assert not np.shares_memory(p.vector, q.vector)
        assert np.array_equal(p.vector, q.vector)
        q.head_balanced.W[:] += 1.0
        p.backbone[0].b[:] -= 1.0
        assert np.array_equal(p.head_balanced.W + 1.0, q.head_balanced.W)
        assert np.array_equal(q.backbone[0].b - 1.0, p.backbone[0].b)

    def test_pickle_and_deepcopy_keep_the_views(self):
        import copy
        import pickle

        p = init_mlp(4, seed=6)
        p.trained_heads = ("regular",)
        for q in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert_views_of_vector(q)
            assert np.array_equal(q.vector, p.vector)
            assert q.resid_span == p.resid_span and q.trained_heads == ("regular",)

    def test_gradients_are_views_of_one_vector(self):
        p = init_mlp(4, seed=1)
        x = np.random.default_rng(0).normal(size=(6, 4))
        _, d = ce(forward(p, x).logits, np.array([0, 1, 1, 0, 0, 1]))
        grads = backward(p, forward(p, x), d)
        assert grads.vector.shape == p.vector.shape
        assert_views_of_vector(grads)
        assert not grads.head_balanced.W.any()

    def test_views_after_load_checkpoint_and_train(self, tmp_path):
        from denshift.data import SynthConfig, gen_synthetic, stratified_split
        from denshift.training import TrainConfig, train

        p = init_mlp(3, seed=4)
        stats = NormStats(mean=np.zeros(3), std=np.ones(3))
        save_checkpoint(tmp_path / "c.npz", p, stats, ("a", "b"), ("x", "y", "z"))
        loaded, _, _ = load_checkpoint(tmp_path / "c.npz")
        assert_views_of_vector(loaded)
        assert np.array_equal(loaded.vector, p.vector)

        ds = gen_synthetic(SynthConfig(n_majority=80, n_minority=20, dim=3, seed=0))
        tr, va, _ = stratified_split(ds, seed=0)
        trained, _ = train(TrainConfig(variant="full", epochs=3, batch_size=16), (tr, va))
        assert_views_of_vector(trained)


class TestCheckpoints:
    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        p = init_mlp(5, seed=9)
        p.trained_heads = ("regular", "balanced")
        stats = NormStats(mean=np.arange(5.0), std=np.ones(5) * 2.0)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, p, stats, ("no", "yes"), tuple("abcde"), "outcome",
                        extra={"variant": "full"})
        p2, stats2, meta = load_checkpoint(path)
        x = np.random.default_rng(4).normal(size=(7, 5))
        for n_regular in (None, 0, 3):
            assert np.array_equal(forward(p, x, n_regular).logits, forward(p2, x, n_regular).logits)
        assert meta["class_names"] == ["no", "yes"]
        assert meta["extra"]["variant"] == "full"
        assert p2.trained_heads == ("regular", "balanced")
        assert np.array_equal(stats2.mean, stats.mean)

    def test_checkpoint_version_guard(self, tmp_path):
        path = tmp_path / "bad.npz"
        import json

        meta = np.frombuffer(json.dumps({"version": "other"}).encode(), dtype=np.uint8)
        np.savez(path, __meta__=meta)
        with pytest.raises(ValidationError, match=r"bad\.npz: unsupported checkpoint version 'other'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("flag", [False, True])
    def test_an_unknown_metadata_key_is_refused_by_name(self, tmp_path, flag):
        # format 1 recorded normalize_balanced; formats 2 and 3 have no such key, so even false is refused
        p = init_mlp(5, seed=9)
        stats = NormStats(mean=np.zeros(5), std=np.ones(5))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, p, stats, ("no", "yes"), tuple("abcde"))
        rewrite_checkpoint(path, lambda meta: meta.update(normalize_balanced=flag))
        with pytest.raises(ValidationError, match=r"ckpt\.npz: unknown metadata key 'normalize_balanced'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_a_format_1_or_2_checkpoint_is_refused_by_its_version(self, tmp_path, version):
        # format 1 stored each layer's W and b as its own array and counted the backbone layers; format 2 stored
        # the parameter vector and its widths, and norm_impute and norm_constant beside norm_mean and norm_std
        import json

        p = init_mlp(5, seed=9)
        meta = {"version": f"denshift-checkpoint-{version}", "resid_span": [1, 2], "trained_heads": None,
                "class_names": ["no", "yes"], "feature_names": list("abcde"), "label_column": "label", "extra": {}}
        arrays = dict(norm_mean=np.zeros(5), norm_std=np.ones(5), norm_impute=np.zeros(5),
                      norm_constant=np.zeros(5, dtype=bool))
        if version == 1:
            layers = [f"backbone_{i}" for i in range(len(p.backbone))] + ["head_regular", "head_balanced"]
            arrays.update(zip([f"{layer}_{k}" for layer in layers for k in "Wb"], p.flat()))
            meta["n_backbone"] = len(p.backbone)
        else:
            arrays["params"] = p.vector
            meta["widths"] = list(p.widths)
        path = tmp_path / f"v{version}.npz"
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays)
        with pytest.raises(ValidationError, match=rf"v{version}\.npz: unsupported checkpoint version "
                                                  rf"'denshift-checkpoint-{version}'$"):
            load_checkpoint(path)


def rewrite_checkpoint(path, meta_edit=None, **arrays_edit):
    """Rewrite a saved checkpoint with `meta_edit(meta)` applied and arrays replaced (None drops one)."""
    import json

    with np.load(path) as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    if meta_edit is not None:
        meta_edit(meta)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    for key, value in arrays_edit.items():
        if value is None:
            del arrays[key]
        else:
            arrays[key] = value
    np.savez(path, **arrays)


class TestCheckpointValidation:
    @pytest.fixture
    def saved(self, tmp_path):
        p = init_mlp(5, hidden=7, depth=5, n_classes=3, seed=2)  # 4 backbone layers, resid_span (1, 2)
        stats = NormStats(mean=np.zeros(5), std=np.ones(5))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, p, stats, ("a", "b", "c"), tuple("vwxyz"))
        return path, p

    def test_saved_checkpoint_loads(self, saved):
        path, p = saved
        loaded = load_checkpoint(path)[0]
        assert np.array_equal(loaded.vector, p.vector) and loaded.resid_span == (1, 2)

    @pytest.mark.parametrize("key", ["widths", "resid_span", "trained_heads", "class_names", "feature_names",
                                     "label_column", "extra"])
    def test_missing_meta_key_names_file_and_key(self, saved, key):
        path, _ = saved
        rewrite_checkpoint(path, lambda meta: meta.pop(key))
        with pytest.raises(ValidationError, match=rf"ckpt\.npz.*'{key}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, expected", [
        ("extra", ["config_hash"], "a JSON object"),
        ("class_names", "abc", "a non-empty list, each a string"),
        ("feature_names", ["v", "w", 3, "y", "z"], "a non-empty list, each a string"),
        ("label_column", 7, "a string"),
    ])
    def test_meta_value_of_wrong_type_names_file_and_key(self, saved, key, value, expected):
        path, _ = saved
        rewrite_checkpoint(path, lambda meta: meta.update({key: value}))
        with pytest.raises(ValidationError, match=rf"ckpt\.npz: metadata key '{key}' must be {expected}, got"):
            load_checkpoint(path)

    @pytest.mark.parametrize("arrays, message", [
        # widths (5, 7, 7, 7, 7, 3): 6*7 + 3 * 8*7 backbone entries, then 2 * 8*3 for the heads
        ({"params": np.zeros(257)}, r"the array 'params': the vector has shape \(257,\), the layer widths need "
                                    r"\(258,\)$"),
        ({"params": np.zeros(259)}, r"the array 'params': the vector has shape \(259,\), the layer widths need "
                                    r"\(258,\)$"),
        ({"params": np.zeros((2, 129))}, r"the array 'params': the vector has shape \(2, 129\), the layer widths need"),
        ({"params": np.zeros(())}, r"the array 'params': the vector has shape \(\), the layer widths need"),
        ({"params": None}, r"missing the array 'params'"),
        ({"__meta__": None}, r"missing the array '__meta__'"),
        ({"__meta__": np.frombuffer(b"{oops", dtype=np.uint8)}, r"the array '__meta__' is not a JSON object"),
        ({"__meta__": np.frombuffer(b"\xff", dtype=np.uint8)}, r"the array '__meta__' is not a JSON object"),
        ({"__meta__": np.frombuffer(b"[1]", dtype=np.uint8)}, r"the array '__meta__' is not a JSON object"),
        # a 0-d integer array is read as its bytes, not as a length: bytes() of it would ask for 2**40 zeros
        ({"__meta__": np.asarray(2**40)}, r"the array '__meta__' is not a JSON object"),
        ({"params": np.zeros(258, dtype=complex)}, r"the array 'params' holds complex128, not bool"),
        ({"norm_std": np.array(["1"] * 5)}, r"the array 'norm_std' holds <U1, not bool, integer or float"),
        ({"junk": np.zeros(3)}, r"unknown array 'junk'"),
        ({"norm_std": np.ones(3)}, r"the array 'norm_std' holds float64 of shape \(3,\), need shape \(5,\)"),
        ({"norm_impute": np.zeros(5)}, r"unknown array 'norm_impute'"),  # a member of format 2 only
        ({"norm_mean": np.zeros((1, 5))}, r"the array 'norm_mean' holds float64 of shape \(1, 5\), need shape"),
        ({"norm_std": np.array([1.0, np.nan, 1.0, 1.0, 1.0])}, r"the array 'norm_std' holds a NaN or an inf"),
        ({"params": np.full(258, np.nan)}, r"the array 'params' holds a NaN or an inf"),
        ({"params": np.where(np.arange(258) == 200, -np.inf, 0.0)}, r"the array 'params' holds a NaN or an inf"),
        ({"norm_mean": np.array([0.0, 0.0, -np.inf, 0.0, 0.0])}, r"the array 'norm_mean' holds a NaN or an inf"),
        ({"norm_std": np.array([1.0, 0.0, 1.0, 1.0, 1.0])}, r"the array 'norm_std': stddev entries must be > 0"),
        ({"norm_std": np.array([1, 1, -2, 1, 1])}, r"the array 'norm_std': stddev entries must be > 0$"),
    ])
    def test_bad_arrays_are_refused(self, saved, arrays, message):
        path, _ = saved
        rewrite_checkpoint(path, **arrays)
        with pytest.raises(ValidationError, match=r"ckpt\.npz: " + message):
            load_checkpoint(path)

    @pytest.mark.parametrize("content", [b"", b"hello\n", b"PK\x03\x04 truncated", b"\x93NUMPY"])
    def test_a_file_that_is_no_npz_archive_is_refused(self, tmp_path, content):
        path = tmp_path / "ckpt.npz"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match=r"ckpt\.npz: not a readable \.npz archive"):
            load_checkpoint(path)

    def test_a_single_npy_array_is_refused(self, tmp_path):
        np.save(tmp_path / "ckpt.npy", np.zeros(3))
        with pytest.raises(ValidationError, match=r"ckpt\.npy: not a readable \.npz archive"):
            load_checkpoint(tmp_path / "ckpt.npy")

    def test_a_damaged_member_is_refused(self, saved):
        path, _ = saved
        raw = bytearray(path.read_bytes())
        raw[raw.find(b"params.npy") + 200] ^= 0xFF  # a byte of the stored array, after its header
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match=r"ckpt\.npz: not a readable \.npz archive \(Bad CRC-32"):
            load_checkpoint(path)

    @pytest.mark.parametrize("meta_edit, message", [
        (lambda m: m.update(resid_span=[0, 1]), "does not lie inside the 4-layer backbone"),
        (lambda m: m.update(resid_span=[2, 4]), "does not lie inside the 4-layer backbone"),
        (lambda m: m.update(resid_span=[2, 1]), "does not lie inside the 4-layer backbone"),
        (lambda m: m.update(resid_span="1-2"), r"ckpt\.npz: metadata key 'resid_span' must be a list of 2 items"),
        (lambda m: m.update(widths=[5, 7, "7", 7, 7, 3]),
         r"ckpt\.npz: metadata key 'widths' must be a non-empty list, each an integer >= 1, got \[5, 7, '7'"),
        (lambda m: m.update(widths=[5, 7, 0, 7, 7, 3]), r"metadata key 'widths' must be a non-empty list, each an int"),
        (lambda m: m.update(widths=[5, 7, True, 7, 7, 3]), r"metadata key 'widths' must be a non-empty list, each an"),
        (lambda m: m.update(widths=[]), r"metadata key 'widths' must be a non-empty list"),
        (lambda m: m.update(widths=[5, 3]), r"ckpt\.npz: metadata key 'widths' must be \[5, one or more widths, 3\], "
                                            r"got \[5, 3\]$"),
        (lambda m: m.update(widths=[4, 7, 7, 7, 7, 3]), r"metadata key 'widths' must be \[5, one or more widths, 3\]"),
        (lambda m: m.update(widths=[5, 7, 7, 7, 7, 2]), r"metadata key 'widths' must be \[5, one or more widths, 3\]"),
        (lambda m: m.update(widths=[5, 7, 7, 7, 7, 7, 3]), r"the array 'params': the vector has shape \(258,\), "
                                                            r"the layer widths need \(314,\)"),
        (lambda m: m.update(feature_names=["v", "w"]), r"metadata key 'widths' must be \[2, one or more widths, 3\]"),
    ])
    def test_bad_metadata_is_refused(self, saved, meta_edit, message):
        path, _ = saved
        rewrite_checkpoint(path, meta_edit)
        with pytest.raises(ValidationError, match=message):
            load_checkpoint(path)

    def test_every_written_metadata_key_has_a_rule_it_keeps(self, saved):
        import json

        path, p = saved
        stats = load_checkpoint(path)[1]
        for heads in (None, ("regular",), ("regular", "balanced")):
            p.trained_heads = heads
            save_checkpoint(path, p, stats, ("a", "b", "c"), tuple("vwxyz"))
            with np.load(path) as blob:
                written = json.loads(bytes(blob["__meta__"]).decode("utf-8"))
            assert set(written) - {"version"} == set(_CHECKPOINT_META)
            for key, rule in _CHECKPOINT_META.items():
                assert rule is not None and rule.test(written[key]), key

    def test_skip_between_unequal_widths_is_refused(self, tmp_path):
        # backbone widths 5 -> 7 -> 7 -> 4: a skip from act[1] (width 7) onto layer 2's output (width 4)
        p = ModelParams(np.random.default_rng(0).normal(size=6 * 7 + 8 * 7 + 8 * 4 + 2 * 5 * 2), (5, 7, 7, 4, 2),
                        resid_span=(1, 2))
        stats = NormStats(mean=np.zeros(5), std=np.ones(5))
        save_checkpoint(tmp_path / "c.npz", p, stats, ("a", "b"), tuple("vwxyz"))
        with pytest.raises(ValidationError, match="adds a width-7 activation to a width-4 layer output"):
            load_checkpoint(tmp_path / "c.npz")
