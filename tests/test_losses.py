import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denshift.errors import NumericalError, UnsupportedTaskError, ValidationError
from denshift.losses import (
    CostParams,
    ce,
    cost_loss,
    current_costs,
    dah_softmax,
    delta_margins,
    focal,
)

from denshift import training
from denshift.metrics import nll, split_report, temperature_fit
from denshift.training import TrainConfig, variant_losses, VARIANTS
from oracles import central_difference, ref_ce, ref_cost_loss, ref_dah_hinge, ref_dah_softmax, ref_focal


def rand_logits(rng, b=16, c=3, scale=3.0):
    return rng.normal(0.0, scale, size=(b, c))


def numeric_logit_grad(loss_of_logits, logits, eps=1e-6):
    """Central differences of a scalar loss over every logit entry."""
    g = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            zp = logits.copy()
            zp[i, j] += eps
            zm = logits.copy()
            zm[i, j] -= eps
            g[i, j] = (loss_of_logits(zp) - loss_of_logits(zm)) / (2 * eps)
    return g


class TestDeltaMargins:
    def test_analytic_cases(self):
        assert delta_margins([16], 1.0)[0] == 0.5
        assert delta_margins([1], 1.0)[0] == 1.0
        np.testing.assert_array_equal(delta_margins([625, 16], 0.5), [0.1, 0.25])

    def test_smaller_class_gets_strictly_larger_margin(self):
        d = delta_margins([900, 100, 25], 1.0)
        assert d[0] < d[1] < d[2]

    def test_default_scale_caps_max_margin(self):
        counts = [900, 100]
        deltas = delta_margins(counts)
        assert deltas.max() == pytest.approx(0.5)
        np.testing.assert_array_equal(deltas, delta_margins(counts, 0.5 * min(counts) ** 0.25))

    def test_validation(self):
        with pytest.raises(ValidationError):
            delta_margins([0, 5], 1.0)
        with pytest.raises(ValidationError):
            delta_margins([5], 0.0)
        with pytest.raises(ValidationError, match="margin_scale"):
            delta_margins([5], float("nan"))


class TestDahHinge:
    # hand values of the hinge oracle that `test_limit_recovers_hinge` holds `dah_softmax` to
    def test_zero_when_margin_satisfied(self):
        assert ref_dah_hinge(np.array([[2.0, 1.0]]), [0], [0.5, 0.5]) == 0.0

    def test_violated_margin(self):
        assert ref_dah_hinge(np.array([[1.0, 2.0]]), [0], [0.5, 0.5]) == pytest.approx(1.5)

    def test_all_equal_logits(self):
        assert ref_dah_hinge(np.array([[0.0, 0.0, 0.0]]), [2], [0.1, 0.2, 0.3]) == pytest.approx(0.3)

    def test_batch_mean(self):
        z = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert ref_dah_hinge(z, [0, 0], [0.5, 0.5]) == pytest.approx(0.75)


class TestDahSoftmax:
    def test_zero_margin_reduces_to_ce(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            z = rand_logits(rng, b=4, c=3)
            y = rng.integers(0, 3, size=4)
            l1, g1 = dah_softmax(z, y, np.zeros(3))
            l2, g2 = ce(z, y)
            assert abs(l1 - l2) < 1e-12
            assert np.abs(g1 - g2).max() < 1e-12

    def test_hand_value(self):
        # margin ln 2 on the true class of a two-way tie: sigma = (1/2)/(3/2) = 1/3
        loss, _ = dah_softmax(np.array([[0.0, 0.0]]), [0], [np.log(2.0), 0.0])
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        z = rand_logits(rng)
        y = rng.integers(0, 3, size=len(z))
        d = np.array([0.3, 0.1, 0.7])
        l1, _ = dah_softmax(z, y, d)
        l2, _ = dah_softmax(z + 13.7, y, d)
        assert l1 == pytest.approx(l2, abs=1e-9)

    def test_loss_strictly_increases_with_true_class_margin(self):
        rng = np.random.default_rng(2)
        z = rand_logits(rng, b=1, c=3)
        losses = []
        for delta in (0.0, 0.5, 1.0, 2.0):
            d = np.array([0.1, delta, 0.1])
            losses.append(dah_softmax(z, [1], d)[0])
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        z = rand_logits(rng, b=6, c=4)
        y = rng.integers(0, 4, size=6)
        d = rng.uniform(0.05, 0.8, size=4)
        _, grad = dah_softmax(z, y, d)
        fd = numeric_logit_grad(lambda zz: dah_softmax(zz, y, d)[0], z)
        assert np.abs(grad - fd).max() < 1e-8

    def test_limit_recovers_hinge(self):
        rng = np.random.default_rng(4)
        z = rand_logits(rng, b=10, c=3, scale=1.0)
        y = rng.integers(0, 3, size=10)
        d = rng.uniform(0.2, 0.8, size=3)
        t = 100.0
        relaxed, _ = dah_softmax(t * z, y, t * d)
        hinge = ref_dah_hinge(z, y, d)
        assert relaxed / t == pytest.approx(hinge, rel=0.05)


class TestCeAndFocal:
    def test_ce_tie(self):
        loss, _ = ce(np.array([[0.0, 0.0]]), [0])
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_focal_gamma_zero_is_ce(self):
        # bit for bit, zero signs included, for float, integer and column-major logits
        rng = np.random.default_rng(5)
        bits = lambda v: np.asarray(v, dtype=np.float64).tobytes()
        for i in range(1000):
            z = rand_logits(rng, b=3, c=4, scale=(3.0, 800.0)[i % 2])
            z = (z, z.round().astype(np.int64), np.asfortranarray(z))[i % 3]
            y = rng.integers(0, 4, size=3)
            lf, gf = focal(z, y, 0.0)
            lc, gc = ce(z, y)
            assert bits(lf) == bits(lc)
            assert bits(gf) == bits(gc)

    def test_focal_vanishes_on_easy_examples(self):
        loss, _ = focal(np.array([[10.0, -10.0]]), [0], 2.0)
        assert loss < 1e-8

    def test_focal_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        z = rand_logits(rng, b=5, c=3)
        y = rng.integers(0, 3, size=5)
        for gamma in (0.5, 1.0, 2.0, 3.0):
            _, grad = focal(z, y, gamma)
            fd = numeric_logit_grad(lambda zz: focal(zz, y, gamma)[0], z)
            assert np.abs(grad - fd).max() < 1e-7

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            ce(np.zeros((1, 2)), [2])
        for gamma in (-1.0, float("nan"), float("inf"), True):
            with pytest.raises(ValidationError, match="gamma"):
                focal(np.zeros((1, 2)), [0], gamma)


class TestLabelChecks:
    LOSSES = {
        "ce": lambda z, y: ce(z, y),
        "focal": lambda z, y: focal(z, y, 2.0),
        "dah_softmax": lambda z, y: dah_softmax(z, y, [0.1, 0.2]),
        "cost_loss": lambda z, y: cost_loss(z, y, CostParams()),
    }

    @pytest.mark.parametrize("name", LOSSES)
    def test_every_loss_checks_its_labels(self, name):
        loss = self.LOSSES[name]
        for y in ([-1, 0], [0, 2], [np.iinfo(np.int64).min, 1], [1, np.iinfo(np.int64).max]):
            with pytest.raises(ValidationError, match="label out of range"):
                loss(np.zeros((2, 2)), y)
        with pytest.raises(ValidationError, match="one per logit row"):
            loss(np.zeros((2, 2)), [0, 1, 1])
        loss(np.zeros((2, 2)), np.array([1, 7, 0, 7])[::2])  # strided labels in range

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: dah_softmax(np.zeros((2, 3)), np.array([0, 1]), [0.1, 0.2], True), ValidationError,
                     "need one margin per class", id="dah_softmax-margins-of-the-wrong-length"),
        pytest.param(lambda: cost_loss(np.zeros((2, 3)), np.array([0, 1]), CostParams(), True),
                     UnsupportedTaskError, "cost matrix loss applies to binary prediction only",
                     id="cost_loss-on-3-columns"),
        pytest.param(lambda: focal(np.zeros((2, 2)), np.array([0, 1]), -1.0, True), ValidationError,
                     re.escape("gamma must be a finite number >= 0, got -1.0"), id="focal-negative-gamma"),
    ])
    def test_skipping_the_label_scan_keeps_the_other_checks(self, call, error, message):
        # `checked` vouches for the labels only; the O(1) argument checks run on every call
        with pytest.raises(error, match=f"^{message}$"):
            call()


class TestCostParams:
    def test_current_costs(self):
        assert current_costs(CostParams(0.0, 5.0, 0.01)) == pytest.approx((1.0, 5.01))

    def test_positivity_for_extreme_log_cfp(self):
        c_fp, c_fn = current_costs(CostParams(-100.0, 5.0, 0.01))
        assert 0.0 < c_fp < 1e-40
        assert c_fn > 0.0

    def test_ratio_bound(self):
        for log_cfp in (-3.0, 0.0, 2.5):
            c_fp, c_fn = current_costs(CostParams(log_cfp, 5.0, 0.01))
            assert c_fn / c_fp >= 5.0

    def test_constraints_hold_along_any_trajectory(self):
        # random gradient walk over log_cfp, the reparameterized free variable
        rng = np.random.default_rng(7)
        cp = CostParams(0.0, 5.0, 0.01)
        for _ in range(1000):
            cp.log_cfp -= 0.1 * rng.normal()
            c_fp, c_fn = current_costs(cp)
            assert c_fp > 0.0
            assert c_fn > 0.0
            assert c_fn >= 5.0 * c_fp + 0.01 * (1 - 1e-12)

    @pytest.mark.parametrize("log_cfp", [-746.0, 709.0, 800.0, float("nan")])
    def test_costs_outside_the_positive_finite_floats_raise(self, log_cfp):
        # exp(-746) underflows to 0.0; 5 * exp(709) and exp(800) overflow to inf
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="log_cfp"):
            current_costs(CostParams(log_cfp, 5.0, 0.01))

    def test_hyperparameter_validation(self):
        with pytest.raises(ValidationError):
            CostParams(0.0, 0.0, 0.01)
        with pytest.raises(ValidationError):
            CostParams(0.0, 5.0, -0.1)
        with pytest.raises(ValidationError, match="theta"):
            CostParams(theta=float("nan"))
        with pytest.raises(ValidationError, match="offset"):
            CostParams(offset=float("nan"))


class TestCostLoss:
    def test_unit_costs_reduce_to_binary_ce_on_zmax(self):
        rng = np.random.default_rng(8)
        cp = CostParams(0.0, 1.0, 0.0)
        for _ in range(1000):
            z = rand_logits(rng, b=4, c=2)
            y = rng.integers(0, 2, size=4)
            loss, _, _ = cost_loss(z, y, cp)
            zmax = z.max(axis=1)
            p = 1.0 / (1.0 + np.exp(-zmax))
            expected = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
            assert abs(loss - expected) < 1e-12

    def test_zero_logit_gives_ln2_for_any_cost(self):
        for theta in (1.0, 5.0, 50.0):
            loss, _, _ = cost_loss(np.array([[0.0, 0.0]]), [1], CostParams(0.7, theta, 0.01))
            assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_log_cfp_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            z = rand_logits(rng, b=8, c=2)
            y = rng.integers(0, 2, size=8)
            lc = rng.normal(0.0, 1.0)
            _, _, d_log = cost_loss(z, y, CostParams(lc, 5.0, 0.01))

            def loss_at(v):
                return cost_loss(z, y, CostParams(v, 5.0, 0.01))[0]

            fd = central_difference(loss_at, lc)
            assert abs(d_log - fd) / max(abs(fd), 1e-8) < 1e-6

    def test_logit_gradient_routed_to_first_argmax(self):
        z = np.array([[1.5, 1.5]])  # exact tie: subgradient goes to index 0
        _, grad, _ = cost_loss(z, [1], CostParams(0.0, 5.0, 0.01))
        assert grad[0, 0] != 0.0
        assert grad[0, 1] == 0.0

    def test_logit_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        z = rand_logits(rng, b=6, c=2)
        y = rng.integers(0, 2, size=6)
        cp = CostParams(0.4, 5.0, 0.01)
        _, grad, _ = cost_loss(z, y, cp)
        fd = numeric_logit_grad(lambda zz: cost_loss(zz, y, cp)[0], z)
        assert np.abs(grad - fd).max() < 1e-7

    def test_multiclass_rejected(self):
        with pytest.raises(UnsupportedTaskError):
            cost_loss(np.zeros((1, 3)), [0], CostParams())


@given(
    b=st.integers(1, 8),
    c=st.integers(2, 5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=50, deadline=None)
def test_all_losses_finite_on_random_inputs(b, c, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 10.0, size=(b, c))
    y = rng.integers(0, c, size=b)
    d = rng.uniform(0.0, 1.0, size=c)
    for value in (
        ce(z, y)[0],
        focal(z, y, 2.0)[0],
        dah_softmax(z, y, d)[0],
        ref_dah_hinge(z, y, d),
    ):
        assert np.isfinite(value)
    if c == 2:
        assert np.isfinite(cost_loss(z, y, CostParams(0.0, 5.0, 0.01))[0])


@st.composite
def head_axis_batches(draw):
    h, b, c = draw(st.integers(1, 3)), draw(st.integers(1, 300)), draw(st.integers(2, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(0.0, draw(st.floats(1e-2, 400.0)), size=(h, b, c))
    if draw(st.booleans()):
        z = np.round(z).astype(np.int64)
    if draw(st.booleans()):
        z = np.asfortranarray(z)
    return z, rng.integers(0, c, size=(h, b)), rng.uniform(0.0, 2.0, size=c)


def assert_same_bits(got, ref):
    # equal values with equal sign bits, so a -0.0 that a per-head call gives is -0.0 here too
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype == np.float64
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


@given(head_axis_batches())
@settings(max_examples=150, deadline=None)
def test_head_axis_losses_equal_one_call_per_head(batch):
    z, y, deltas = batch
    for loss in (ce, lambda z, y: dah_softmax(z, y, deltas)):
        losses, grad = loss(z, y)
        assert grad.shape == z.shape
        per_head = [loss(z[h], y[h]) for h in range(z.shape[0])]
        assert_same_bits(losses, [l for l, _ in per_head])
        assert_same_bits(grad, np.stack([g for _, g in per_head]))


class TestHeadAxisRefusals:
    def test_labels_of_another_shape_are_refused_naming_it(self):
        z = np.zeros((2, 3, 4))
        for y in (np.zeros((2, 4), int), np.zeros(6, int), np.zeros(3, int), np.zeros((3, 2), int)):
            for loss in (ce, lambda z, y: dah_softmax(z, y, np.ones(4))):
                with pytest.raises(ValidationError, match=re.escape(f"shaped (2, 3), got {y.shape}")):
                    loss(z, y)

    def test_four_dimensional_logits_are_refused_naming_the_shape(self):
        z = np.zeros((1, 2, 3, 4))
        for loss in (ce, lambda z, y: dah_softmax(z, y, np.ones(4))):
            with pytest.raises(ValidationError, match=r"logits must be 2-D or 3-D, got shape \(1, 2, 3, 4\)"):
                loss(z, np.zeros((1, 2, 3), int))

    @pytest.mark.parametrize("name", ["focal", "cost_loss", "nll", "temperature_fit", "split_report"])
    def test_two_dimensional_only_losses_refuse_a_head_axis(self, name):
        loss = {"focal": lambda z, y: focal(z, y, 2.0), "cost_loss": lambda z, y: cost_loss(z, y, CostParams()),
                "nll": nll, "temperature_fit": temperature_fit, "split_report": split_report}[name]
        argument = "probs" if name == "split_report" else "logits"
        for shape in ((2, 3, 2), (3, 2, 2)):  # (3, 2, 2): two entries on the second axis, like binary probs
            with pytest.raises(ValidationError, match=re.escape(f"{argument} must be 2-D, got shape {shape}")):
                loss(np.full(shape, 0.5), np.zeros(shape[:-1], int))


# The losses against the reference copies in oracles.py: equal with ==, not
# within a tolerance, so every variant trains on the same numbers.

REFERENCES = {
    "ce": lambda z, y, cfg, deltas, cp: ref_ce(z, y),
    "focal": lambda z, y, cfg, deltas, cp: ref_focal(z, y, cfg.gamma),
    "dah": lambda z, y, cfg, deltas, cp: ref_dah_softmax(z, y, deltas),
    "cost": lambda z, y, cfg, deltas, cp: ref_cost_loss(z, y, cp),
}


@st.composite
def loss_batches(draw):
    b = draw(st.integers(1, 130))
    c = draw(st.sampled_from([2, 3, 5, 8, 9, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(0.0, draw(st.floats(1e-2, 400.0)), size=(b, c))
    if draw(st.booleans()):  # rows whose largest logit is tied
        ties = rng.random(b) < 0.5
        z[ties, 1] = z[ties].max(axis=1)
        z[ties, 0] = z[ties, 1]
    y = rng.integers(0, c, size=b)
    deltas = rng.uniform(0.0, 2.0, size=c)
    cp = CostParams(float(rng.normal(0.0, 2.0)), float(rng.uniform(0.1, 50.0)), float(rng.uniform(0.0, 1.0)))
    cfg = TrainConfig(gamma=float(rng.choice([0.0, 0.5, 2.0, 3.5])), lambda_cost=float(rng.uniform(0.0, 3.0)))
    return z, y, deltas, cp, cfg


def assert_same(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r) if isinstance(r, np.ndarray) else g == r


@given(loss_batches())
@settings(max_examples=300, deadline=None)
def test_losses_equal_reference_copies(batch):
    z, y, deltas, cp, cfg = batch
    assert_same(ce(z, y), ref_ce(z, y))
    assert_same(focal(z, y, cfg.gamma), ref_focal(z, y, cfg.gamma))
    assert_same(dah_softmax(z, y, deltas), ref_dah_softmax(z, y, deltas))
    if z.shape[1] == 2:
        assert_same(cost_loss(z, y, cp), ref_cost_loss(z, y, cp))
    zi = np.round(z).astype(np.int64)  # integer logits are accepted as before
    assert_same(ce(zi, y), ref_ce(zi, y))
    assert_same(focal(zi, y, cfg.gamma), ref_focal(zi, y, cfg.gamma))
    assert_same(dah_softmax(zi, y, deltas), ref_dah_softmax(zi, y, deltas))


@given(loss_batches())
@settings(max_examples=100, deadline=None)
def test_skipping_the_checks_changes_no_bit(batch):
    # the training step calls every loss with `checked=True`; on labels and margins that pass the checks,
    # each call gives the checked call's bits, on 2-D logits and, for the losses that take one, a head axis
    z, y, deltas, cp, cfg = batch
    calls = {"ce": (ce, ()), "focal": (focal, (cfg.gamma,)), "dah_softmax": (dah_softmax, (deltas,))}
    if z.shape[1] == 2:
        calls["cost_loss"] = (cost_loss, (cp,))
    zs, ys = np.stack((z, z[::-1])), np.stack((y, y[::-1]))
    for name, (loss, args) in calls.items():
        for logits, labels in ((z, y), (zs, ys)) if name in ("ce", "dah_softmax") else ((z, y),):
            got, want = loss(logits, labels, *args, True), loss(logits, labels, *args)
            assert len(got) == len(want), name
            for g, w in zip(got, want):
                assert_same_bits(g, w)


@given(loss_batches())
@settings(max_examples=100, deadline=None)
def test_column_major_logits_give_the_row_major_results(batch):
    # logits laid out column-major (z.T, DataFrame.to_numpy()) give the same bits as a C-ordered copy
    z, y, deltas, cp, cfg = batch
    for zc in (z, np.round(z).astype(np.int64)):
        zf = np.asfortranarray(zc)
        assert_same(ce(zf, y), ce(zc, y))
        assert_same(focal(zf, y, cfg.gamma), focal(zc, y, cfg.gamma))
        assert_same(dah_softmax(zf, y, deltas), dah_softmax(zc, y, deltas))
        assert ref_dah_hinge(zf, y, deltas) == ref_dah_hinge(zc, y, deltas)
        for t in (1.0, cp.theta):  # nll is the cross-entropy of the scaled logits, bit for bit
            assert nll(zf, y, t) == ce(zc / t, y)[0]
        if z.shape[1] == 2:
            assert_same(cost_loss(zf, y, cp), cost_loss(zc, y, cp))


@given(loss_batches())
@settings(max_examples=100, deadline=None)
def test_step_loss_equals_summed_references(batch):
    # each head's terms summed on its own rows; the second head gets the rows reversed
    z, y, deltas, cp, cfg = batch
    for variant in VARIANTS:
        spec = variant_losses(variant)
        if spec.uses_cost and z.shape[1] != 2:
            continue
        heads = (spec.regular_terms, spec.balanced_terms) if spec.dual_stream else (spec.regular_terms,)
        zs, ys = np.stack((z, z[::-1])), np.stack((y, y[::-1]))
        losses, grad, d_log_cfp = np.zeros(len(heads)), np.zeros_like(zs[:len(heads)]), 0.0
        for h, terms in enumerate(heads):
            for term in terms:
                l, g, *dc = REFERENCES[term](zs[h], ys[h], cfg, deltas, cp)
                if term == "cost":
                    l, g = cfg.lambda_cost * l, cfg.lambda_cost * g
                    d_log_cfp += cfg.lambda_cost * dc[0]
                losses[h] += l
                grad[h] += g
        if spec.dual_stream:
            got = training._step_loss(spec.loss_calls, zs, ys, cfg, deltas, cp)
            assert_same(got, (losses, grad, d_log_cfp))
        else:  # one head: 2-D logits, a float loss
            got = training._step_loss(spec.loss_calls, z, y, cfg, deltas, cp)
            assert_same(got, (losses[0], grad[0], d_log_cfp))
