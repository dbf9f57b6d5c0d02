import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denshift.data import Dataset
from denshift.errors import ValidationError
from denshift.sampling import SamplerState, class_probs, epoch_batches, next_batch_pair


def make_ds(counts):
    labels = np.repeat(np.arange(len(counts)), counts)
    feats = np.arange(labels.size, dtype=np.float64).reshape(-1, 1)
    return Dataset(feats, labels, ("a",), tuple(f"c{i}" for i in range(len(counts))))


class TestClassProbs:
    def test_regular_is_proportional(self):
        assert class_probs([90, 10], 1.0).tolist() == [0.9, 0.1]

    def test_balanced_is_uniform(self):
        assert class_probs([90, 10], 0.0).tolist() == [0.5, 0.5]

    def test_intermediate_exponent(self):
        np.testing.assert_allclose(class_probs([100, 25], 0.5), [10 / 15, 5 / 15], atol=1e-12)

    def test_errors(self):
        with pytest.raises(ValidationError):
            class_probs([], 0.5)
        with pytest.raises(ValidationError):
            class_probs([10, 10], 1.5)
        with pytest.raises(ValidationError):
            class_probs([10, 0], 0.5)

    @given(
        counts=st.lists(st.integers(1, 10_000), min_size=1, max_size=8),
        q=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_simplex_and_monotonicity(self, counts, q):
        p = class_probs(counts, q)
        assert (p > 0).all()
        assert abs(p.sum() - 1.0) < 1e-12
        bumped = list(counts)
        bumped[0] += 1
        assert class_probs(bumped, q)[0] >= p[0] - 1e-15

    def test_endpoints_exact(self):
        counts = np.array([123, 7, 55])
        assert np.array_equal(class_probs(counts, 0.0), np.full(3, 1 / 3))
        assert np.array_equal(class_probs(counts, 1.0), counts / counts.sum())


class TestBatchPairs:
    def test_balanced_minority_fraction(self):
        ds = make_ds([900, 100])
        sampler = SamplerState(ds, batch_size=10_000, seed=0)
        pair = next_batch_pair(sampler)
        frac = (pair.rows()[1][pair.n_regular:] == 1).mean()
        assert abs(frac - 0.5) <= 0.015  # 3 sigma of binomial(10000, 0.5)

    def test_regular_minority_fraction(self):
        ds = make_ds([900, 100])
        sampler = SamplerState(ds, batch_size=10_000, seed=1)
        pair = next_batch_pair(sampler)
        frac = (pair.rows()[1][:pair.n_regular] == 1).mean()
        assert abs(frac - 0.1) <= 0.009  # 3 sigma of binomial(10000, 0.1)

    def test_within_class_selection_uniform(self):
        ds = make_ds([10, 10])
        sampler = SamplerState(ds, batch_size=20_000, seed=2)
        pair = next_batch_pair(sampler)
        idx = pair.idx[pair.n_regular:]
        first_class = idx[idx < 10]  # ~10000 draws land in the 10-instance class
        hits = np.bincount(first_class, minlength=10)
        assert np.abs(hits - 1000).max() <= 150

    def test_batches_index_the_bound_split(self):
        ds = make_ds([30, 10])
        sampler = SamplerState(ds, batch_size=8, seed=3)
        pair = next_batch_pair(sampler)
        x_reg = pair.rows()[0][:pair.n_regular]
        assert x_reg.shape == (8, 1)
        assert np.array_equal(x_reg[:, 0], pair.idx[:pair.n_regular].astype(float))
        assert pair.features is ds.features and pair.labels is ds.labels  # the sampler's own split

    def test_one_stacked_draw_gathered_whole_or_regular_only(self):
        ds = make_ds([30, 10])
        sampler = SamplerState(ds, batch_size=8, seed=5)
        pair = next_batch_pair(sampler)
        ref = SamplerState(ds, batch_size=8, seed=5)
        reg_idx, bal_idx = ref._draw(ref.cdf_regular), ref._draw(ref.cdf_balanced)
        assert pair.n_regular == 8
        assert np.array_equal(pair.idx, np.concatenate((reg_idx, bal_idx)))
        x, y = pair.rows()
        assert np.array_equal(x[:, 0], pair.idx.astype(float))
        assert np.array_equal(y, ds.labels[pair.idx])
        for half, idx in ((slice(None, 8), reg_idx), (slice(8, None), bal_idx)):
            assert np.array_equal(y[half], ds.labels[idx])
            assert np.array_equal(pair.idx[half], idx)
        x_reg, y_reg = pair.rows(pair.n_regular)
        assert np.array_equal(x_reg, x[:8]) and np.array_equal(y_reg, y[:8])

    def test_missing_class_in_split_rejected(self):
        ds = make_ds([6, 6]).subset(np.arange(6))  # drops class 1 entirely
        with pytest.raises(ValidationError):
            SamplerState(ds, batch_size=4)


class TestDrawReference:
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("counts", [[37, 9], [20, 5, 13]])
    def test_matches_one_element_at_a_time_reference(self, q, counts):
        labels = np.random.default_rng(7).permutation(np.repeat(np.arange(len(counts)), counts))
        ds = Dataset(np.zeros((labels.size, 1)), labels, ("a",), tuple(f"c{i}" for i in range(len(counts))))
        sampler = SamplerState(ds, batch_size=33, seed=11, q_regular=q)
        ref_rng = np.random.default_rng(11)
        probs = class_probs(ds.class_counts, q)
        class_indices = [np.flatnonzero(labels == c) for c in range(len(counts))]
        for _ in range(4):
            classes = ref_rng.choice(len(counts), size=33, p=probs)
            within = ref_rng.integers(0, ds.class_counts[classes])
            expected = np.array([class_indices[c][w] for c, w in zip(classes, within)], dtype=np.int64)
            drawn = sampler._draw(sampler.cdf_regular)
            assert drawn.dtype == np.int64
            assert np.array_equal(drawn, expected)


class TestEpochBatches:
    def test_pair_count_is_ceil(self):
        ds = make_ds([800, 200])
        sampler = SamplerState(ds, batch_size=128, seed=0)
        assert sum(1 for _ in epoch_batches(sampler)) == 8

    def test_single_pair_when_batch_covers_n(self):
        ds = make_ds([100, 28])
        sampler = SamplerState(ds, batch_size=128, seed=0)
        assert sum(1 for _ in epoch_batches(sampler)) == 1

    def test_same_seed_identical_sequence(self):
        ds = make_ds([50, 20])
        seqs = []
        for _ in range(2):
            sampler = SamplerState(ds, batch_size=16, seed=9)
            seqs.append([
                (p.idx[:p.n_regular].tolist(), p.idx[p.n_regular:].tolist())
                for _ in range(2)
                for p in epoch_batches(sampler)
            ])
        assert seqs[0] == seqs[1]
