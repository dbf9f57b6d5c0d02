import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denshift.errors import ValidationError
from denshift.losses import softmax
from denshift.metrics import (
    ScoredSet,
    auc_prc,
    auc_roc,
    brier,
    bss,
    calibration_bins,
    macro_auc,
    macro_micro_auc,
    nll,
    score_report,
    temperature_apply,
    temperature_fit,
)

from oracles import cutoff_average_precision, pairwise_auc

scored_sets = st.integers(0, 10_000).map(
    lambda seed: _random_scored(seed)
)


def _random_scored(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 100))
    scores = np.round(rng.random(n), 2)  # coarse grid forces plenty of ties
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    return ScoredSet(scores, labels)


# The element-at-a-time tie loops the vectorised metrics replaced. The
# arithmetic is unchanged, so the two must agree bit for bit.


def loop_rank_auc(scores, positives):
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def loop_average_precision(s):
    n_pos = int(s.labels.sum())
    order = np.argsort(-s.scores, kind="stable")
    scores, labels = s.scores[order], s.labels[order]
    ap, tp, i = 0.0, 0, 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and scores[j + 1] == scores[i]:
            j += 1
        tp_group = int(labels[i : j + 1].sum())
        tp += tp_group
        if tp_group:
            ap += (tp_group / n_pos) * (tp / (j + 1))
        i = j + 1
    return float(ap)


def _large_scored(seed, tied):
    rng = np.random.default_rng(seed)
    scores = rng.random(20_000)
    if tied:
        scores = np.round(scores, 2)
    return ScoredSet(scores, (rng.random(scores.size) < 0.05 + 0.4 * scores).astype(np.int64))


class TestScoredSet:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ScoredSet(np.array([0.5, 1.2]), np.array([0, 1]))
        with pytest.raises(ValidationError):
            ScoredSet(np.array([0.5, 0.2]), np.array([0, 2]))
        with pytest.raises(ValidationError):
            ScoredSet(np.array([]), np.array([]))

    def test_fractional_labels_rejected(self):
        with pytest.raises(ValidationError, match="0/1"):
            ScoredSet([0.2, 0.9, 0.4], [0.5, 1.7, 0.0])
        whole = ScoredSet([0.2, 0.9, 0.4], [0.0, 1.0, 0.0])
        assert whole.labels.dtype == np.int64 and whole.labels.tolist() == [0, 1, 0]


class TestAucRoc:
    def test_perfect_separation(self):
        s = ScoredSet(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
        assert auc_roc(s) == 1.0

    def test_all_ties(self):
        s = ScoredSet(np.full(6, 0.3), np.array([1, 0, 1, 0, 0, 0]))
        assert auc_roc(s) == 0.5

    def test_hand_example(self):
        s = ScoredSet(np.array([0.9, 0.8, 0.4, 0.3]), np.array([1, 0, 1, 0]))
        assert auc_roc(s) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            auc_roc(ScoredSet(np.array([0.5, 0.6]), np.array([1, 1])))

    @given(scored_sets)
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_oracle(self, s):
        assert abs(auc_roc(s) - pairwise_auc(s.scores, s.labels)) < 1e-12

    @given(scored_sets)
    @settings(max_examples=80, deadline=None)
    def test_bit_equal_to_loop_reference(self, s):
        assert auc_roc(s) == loop_rank_auc(s.scores, s.labels == 1)

    @pytest.mark.parametrize("tied", [False, True])
    def test_bit_equal_to_loop_reference_on_large_sets(self, tied):
        s = _large_scored(3, tied)
        assert auc_roc(s) == loop_rank_auc(s.scores, s.labels == 1)

    @given(scored_sets)
    @settings(max_examples=80, deadline=None)
    def test_monotone_transform_invariance(self, s):
        squashed = ScoredSet(0.25 + s.scores / 2.0, s.labels)
        assert auc_roc(squashed) == pytest.approx(auc_roc(s), abs=1e-12)

    @given(scored_sets)
    @settings(max_examples=80, deadline=None)
    def test_label_flip_with_reversed_scores(self, s):
        flipped = ScoredSet(1.0 - s.scores, 1 - s.labels)
        assert auc_roc(flipped) == pytest.approx(auc_roc(s), abs=1e-12)


class TestAucPrc:
    def test_perfect_ranking(self):
        s = ScoredSet(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
        assert auc_prc(s) == 1.0

    def test_hand_example(self):
        s = ScoredSet(np.array([0.9, 0.8, 0.4, 0.3]), np.array([1, 0, 1, 0]))
        assert auc_prc(s) == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0), abs=1e-12)

    def test_random_scores_approach_prevalence(self):
        rng = np.random.default_rng(0)
        n = 10_000
        labels = (rng.random(n) < 0.15).astype(int)
        s = ScoredSet(rng.random(n), labels)
        assert abs(auc_prc(s) - labels.mean()) < 0.05

    def test_needs_a_positive(self):
        with pytest.raises(ValidationError):
            auc_prc(ScoredSet(np.array([0.1, 0.2]), np.array([0, 0])))

    @given(scored_sets)
    @settings(max_examples=150, deadline=None)
    def test_matches_cutoff_oracle(self, s):
        assert abs(auc_prc(s) - cutoff_average_precision(s.scores, s.labels)) < 1e-12

    @given(scored_sets)
    @settings(max_examples=80, deadline=None)
    def test_bit_equal_to_loop_reference(self, s):
        assert auc_prc(s) == loop_average_precision(s)

    @pytest.mark.parametrize("tied", [False, True])
    def test_bit_equal_to_loop_reference_on_large_sets(self, tied):
        s = _large_scored(4, tied)
        assert auc_prc(s) == loop_average_precision(s)


class TestBrierSkill:
    def test_perfect_probabilities(self):
        s = ScoredSet(np.array([1.0, 0.0, 0.0, 1.0]), np.array([1, 0, 0, 1]))
        assert brier(s) == 0.0
        assert bss(s) == 1.0

    def test_prevalence_predictor_scores_zero(self):
        labels = np.array([1, 0, 0, 0, 1, 0])
        s = ScoredSet(np.full(6, labels.mean()), labels)
        assert bss(s) == 0.0

    def test_hand_example(self):
        s = ScoredSet(np.full(4, 0.25), np.array([1, 0, 0, 0]))
        assert brier(s) == pytest.approx(0.1875, abs=1e-15)
        assert bss(s) == 0.0

    def test_worse_than_prevalence_is_negative(self):
        labels = np.array([1, 0, 0, 0])
        s = ScoredSet(np.array([0.0, 1.0, 1.0, 1.0]), labels)
        assert bss(s) < 0.0

    def test_single_class_undefined(self):
        with pytest.raises(ValidationError):
            bss(ScoredSet(np.array([0.2, 0.4]), np.array([1, 1])))

    @given(scored_sets)
    @settings(max_examples=80, deadline=None)
    def test_ranges(self, s):
        assert 0.0 <= brier(s) <= 1.0
        assert bss(s) <= 1.0

    def test_report_fields(self):
        s = _random_scored(3)
        report = score_report(s)
        assert set(report) == {"auc_roc", "auc_prc", "brier", "bss", "n", "prevalence"}


class TestCalibration:
    def test_low_scores_fill_first_bin(self):
        s = ScoredSet(np.full(50, 0.05), np.zeros(50, dtype=int))
        table = calibration_bins(s, 10)
        assert table.count[0] == 50
        assert table.frac_pos[0] == 0.0
        assert table.count[1:].sum() == 0

    def test_counts_partition_n(self):
        s = _random_scored(17)
        table = calibration_bins(s, 10)
        assert table.count.sum() == s.n

    def test_empty_bins_marked_nan(self):
        s = ScoredSet(np.array([0.95, 0.99]), np.array([1, 0]))
        table = calibration_bins(s, 10)
        assert np.isnan(table.mean_pred[0])
        assert table.count[-1] == 2

    def test_score_one_lands_in_last_bin(self):
        s = ScoredSet(np.array([1.0, 0.0]), np.array([1, 0]))
        table = calibration_bins(s, 10)
        assert table.count[-1] == 1
        assert table.count[0] == 1

    def test_calibrated_draw_matches_diagonal(self):
        # 40k per bin puts the 0.01 tolerance at ~4 binomial sigmas
        rng = np.random.default_rng(1)
        f = rng.random(400_000)
        o = (rng.random(400_000) < f).astype(int)
        table = calibration_bins(ScoredSet(f, o), 10)
        mask = table.count > 0
        assert np.abs(table.mean_pred[mask] - table.frac_pos[mask]).max() < 0.01

    def test_bad_bins(self):
        with pytest.raises(ValidationError):
            calibration_bins(_random_scored(0), 0)

    def test_csv_has_header_and_rows(self, tmp_path):
        table = calibration_bins(_random_scored(5), 10)
        path = tmp_path / "cal.csv"
        table.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,mean_pred,frac_pos,count"
        assert len(lines) == 11

    def test_csv_exact_bytes_with_empty_bin(self, tmp_path):
        table = calibration_bins(ScoredSet(np.array([0.1, 0.2, 0.9]), np.array([0, 1, 1])), 2)
        path = tmp_path / "cal.csv"
        table.to_csv(path)
        assert path.read_bytes() == (
            b"bin_lo,bin_hi,mean_pred,frac_pos,count\n"
            b"0.0,0.5,0.15000000000000002,0.5,2\n0.5,1.0,0.9,1.0,1\n"
        )
        empty = calibration_bins(ScoredSet(np.array([0.1, 0.3]), np.array([0, 1])), 2)
        empty.to_csv(path)
        assert path.read_text().splitlines()[2] == "0.5,1.0,,,0"


class TestMacroMicro:
    def test_binary_macro_equals_positive_auc(self):
        s = _random_scored(23)
        scores = np.column_stack([1.0 - s.scores, s.scores])
        onehot = np.eye(2)[s.labels]
        macro, micro = macro_micro_auc(scores, onehot)
        assert macro == pytest.approx(auc_roc(s), abs=1e-12)

    def test_equal_per_class_aucs(self):
        # block-diagonal scores: every class is ranked perfectly one-vs-rest
        scores = np.array([
            [0.8, 0.1, 0.1],
            [0.7, 0.2, 0.1],
            [0.1, 0.8, 0.1],
            [0.2, 0.7, 0.1],
            [0.1, 0.1, 0.8],
            [0.1, 0.2, 0.7],
        ])
        onehot = np.eye(3)[np.array([0, 0, 1, 1, 2, 2])]
        macro, micro = macro_micro_auc(scores, onehot)
        assert macro == 1.0
        assert micro == 1.0

    def test_three_class_matches_pairwise_oracle(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(40, 3))
        scores = softmax(raw)
        y = rng.integers(0, 3, size=40)
        onehot = np.eye(3)[y]
        macro, micro = macro_micro_auc(scores, onehot)
        per_class = [pairwise_auc(scores[:, c], onehot[:, c]) for c in range(3)]
        assert macro == pytest.approx(np.mean(per_class), abs=1e-12)
        assert micro == pytest.approx(
            pairwise_auc(scores.reshape(-1), onehot.reshape(-1)), abs=1e-12
        )

    def test_absent_class_rejected(self):
        scores = softmax(np.random.default_rng(0).normal(size=(5, 3)))
        onehot = np.eye(3)[np.array([0, 0, 1, 1, 0])]  # class 2 unseen
        with pytest.raises(ValidationError):
            macro_micro_auc(scores, onehot)
        with pytest.raises(ValidationError):
            macro_auc(scores, onehot)

    def test_macro_auc_is_the_macro_half(self):
        rng = np.random.default_rng(11)
        scores = np.round(softmax(rng.normal(size=(300, 4))), 2)
        onehot = np.eye(4)[rng.integers(0, 4, size=300)]
        assert macro_auc(scores, onehot) == macro_micro_auc(scores, onehot)[0]


class TestTemperature:
    def test_identity_at_one(self):
        z = np.random.default_rng(0).normal(size=(20, 3))
        assert np.abs(temperature_apply(z, 1.0) - softmax(z)).max() < 1e-15

    def test_high_temperature_flattens(self):
        z = np.random.default_rng(1).normal(size=(20, 4))
        p = temperature_apply(z, 10_000.0)
        assert (p.max(axis=1) - p.min(axis=1)).max() < 1e-3

    def test_fit_recovers_unit_temperature_on_self_consistent_logits(self):
        rng = np.random.default_rng(2)
        z = rng.normal(0.0, 2.0, size=(20_000, 2))
        p = softmax(z)
        labels = (rng.random(len(z)) < p[:, 1]).astype(int)
        t = temperature_fit(z, labels)
        assert 0.9 <= t <= 1.1

    def test_fit_shrinks_overconfident_logits(self):
        rng = np.random.default_rng(3)
        z = rng.normal(0.0, 2.0, size=(20_000, 2))
        p = softmax(z)
        labels = (rng.random(len(z)) < p[:, 1]).astype(int)
        t = temperature_fit(z * 4.0, labels)  # logits blown up 4x: ideal T is 4
        assert 3.5 <= t <= 4.5

    def test_ranking_preserved_exactly(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(200, 2))
        labels = rng.integers(0, 2, size=200)
        labels[0], labels[1] = 0, 1
        t = temperature_fit(z, labels)
        before = auc_roc(ScoredSet(softmax(z)[:, 1], labels))
        after = auc_roc(ScoredSet(temperature_apply(z, t)[:, 1], labels))
        assert before == after

    def test_never_worse_than_unit_temperature(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            z = rng.normal(size=(500, 2)) * rng.uniform(0.2, 5.0)
            labels = rng.integers(0, 2, size=500)
            labels[:2] = [0, 1]
            t = temperature_fit(z, labels)
            assert nll(z, labels, t) <= nll(z, labels, 1.0) + 1e-12

    def test_degenerate_labels_rejected(self):
        with pytest.raises(ValidationError):
            temperature_fit(np.zeros((4, 2)), [1, 1, 1, 1])
