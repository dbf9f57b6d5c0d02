import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import denshift.sampling as sampling
from denshift.data import Dataset
from denshift.errors import ValidationError
from denshift.sampling import SamplerState, _BlockDraws, class_probs, epoch_batches, next_batch_pair

from oracles import ref_class_draw, ref_draw, ref_pair


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
        assert pair.ds is ds  # the sampler's own split

    def test_one_stacked_draw_gathered_whole_or_regular_only(self):
        ds = make_ds([30, 10])
        sampler = SamplerState(ds, batch_size=8, seed=5)
        pair = next_batch_pair(sampler)
        ref = SamplerState(ds, batch_size=8, seed=5)
        reg_idx, bal_idx = ref_draw(ref, ref.cdf_regular), ref_draw(ref, ref.cdf_balanced)
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
    """The stream reference in `oracles` is `rng.choice` of a class, then a uniform row within it."""

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
            drawn = ref_draw(sampler, sampler.cdf_regular)
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


def shuffled_ds(counts, seed=7):
    labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(counts)), counts))
    return Dataset(np.zeros((labels.size, 1)), labels, ("a",), tuple(f"c{i}" for i in range(len(counts))))


def buffer_half_word(rng, half):
    """Leave `half` in the bit generator's one-half-word buffer, as an odd run of bounded draws does."""
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, half
    rng.bit_generator.state = state


class TestBlockStream:
    """The block sampler hands out the pairs of the per-draw reference, bit for bit, however it is called."""

    @pytest.mark.parametrize("counts", [[37, 9], [20, 5, 13], [30, 12, 7, 5, 3]])
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("batch", [8, 7])
    def test_pairs_and_state_match_reference_every_epoch(self, counts, q, batch):
        ds = shuffled_ds(counts)
        sampler = SamplerState(ds, batch_size=batch, seed=3, q_regular=q, q_balanced=1.0 - q)
        ref = SamplerState(ds, batch_size=batch, seed=3, q_regular=q, q_balanced=1.0 - q)
        for _ in range(4):
            for pair in epoch_batches(sampler):
                assert pair.n_regular == batch
                assert pair.idx.dtype == np.int64
                assert np.array_equal(pair.idx, ref_pair(ref))
            assert sampler.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_sequence_independent_of_call_pattern_and_block_size(self, monkeypatch):
        ds = shuffled_ds([41, 11, 6])
        n_pairs = 5 * math.ceil(ds.n / 6)
        ref = SamplerState(ds, batch_size=6, seed=8)
        expected = [ref_pair(ref) for _ in range(n_pairs)]
        one_at_a_time = SamplerState(ds, batch_size=6, seed=8)
        by_epoch = SamplerState(ds, batch_size=6, seed=8)
        monkeypatch.setattr(sampling, "_BLOCK_DRAWS", 4 * 2 * 6)
        straddling = SamplerState(ds, batch_size=6, seed=8)  # 4-pair blocks straddle the 10-pair epochs
        assert (one_at_a_time.block_pairs, straddling.block_pairs) == (10, 4)
        sequences = [
            [next_batch_pair(one_at_a_time).idx for _ in range(n_pairs)],
            [p.idx for _ in range(5) for p in epoch_batches(by_epoch)],
            [next_batch_pair(straddling).idx for _ in range(n_pairs)],
        ]
        for seq in sequences:
            assert len(seq) == n_pairs
            assert all(np.array_equal(a, b) for a, b in zip(seq, expected))

    def test_block_is_one_epoch_capped_at_block_draws(self):
        assert SamplerState(shuffled_ds([800, 200]), batch_size=128).block_pairs == 8
        assert SamplerState(shuffled_ds([800, 200]), batch_size=40_000).block_pairs == 1
        big = SamplerState(shuffled_ds([90_000, 10_000]), batch_size=64)
        assert big.block_pairs == sampling._BLOCK_DRAWS // 128

    def test_handed_out_pairs_survive_the_next_block(self):
        sampler = SamplerState(shuffled_ds([9, 5]), batch_size=4, seed=1)
        first = next_batch_pair(sampler)
        kept = first.idx.copy()
        for _ in range(10):
            next_batch_pair(sampler)
        assert np.array_equal(first.idx, kept)


class TestRarePaths:
    """Blocks the raw-word decode cannot cover go through the per-draw path with the same stream."""

    def test_class_of_count_one(self):
        ds = shuffled_ds([20, 1, 6])
        sampler = SamplerState(ds, batch_size=8, seed=4)
        ref = SamplerState(ds, batch_size=8, seed=4)
        for _ in range(4):
            for pair in epoch_batches(sampler):
                assert np.array_equal(pair.idx, ref_pair(ref))
            assert sampler.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("batch", [8, 7])
    def test_bit_generator_starting_with_a_buffered_half_word(self, batch):
        ds = shuffled_ds([37, 9, 4])
        sampler = SamplerState(ds, batch_size=batch, seed=5, q_regular=0.5)
        ref = SamplerState(ds, batch_size=batch, seed=5, q_regular=0.5)
        for rng in (sampler.rng, ref.rng):
            buffer_half_word(rng, 0x9E3779B9)
        for _ in range(4):
            for pair in epoch_batches(sampler):
                assert np.array_equal(pair.idx, ref_pair(ref))
            assert sampler.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("buffered", [False, True])
    def test_lemire_rejection_restores_the_block(self, buffered):
        # counts above 2**31 make numpy redraw about half of the bounded ints
        counts = np.array([2**31 + 12345, 7, 2**31 + 1])
        cdfs = (np.array([0.25, 0.5, 1.0]), np.array([1 / 3, 2 / 3, 1.0]))
        draws = _BlockDraws(cdfs, counts)
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        if buffered:
            buffer_half_word(rng, 12345)
            buffer_half_word(ref_rng, 12345)
        probe = np.random.default_rng()
        probe.bit_generator.state = rng.bit_generator.state
        assert draws._decode(probe.bit_generator, probe.bit_generator.state, 3, 8) is None
        for _ in range(3):
            classes, within = draws.draw(rng, 3, 8)
            for pair in range(3):
                for s, cdf in enumerate(cdfs):
                    ref_classes, ref_within = ref_class_draw(ref_rng, cdf, counts, 8)
                    assert np.array_equal(classes[pair, s], ref_classes)
                    assert np.array_equal(within[pair, s], ref_within)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_a_count_of_2_to_the_32_takes_the_per_draw_path(self):
        # the raw-word decode reads bounded ints from 32-bit half-words, so it covers counts below 2**32 only
        counts = np.array([2**32, 3])
        cdfs = (np.array([0.5, 1.0]), np.array([0.75, 1.0]))
        draws = _BlockDraws(cdfs, counts)
        assert not draws.decodable
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        classes, within = draws.draw(rng, 2, 8)
        for pair in range(2):
            for s, cdf in enumerate(cdfs):
                ref_classes, ref_within = ref_class_draw(ref_rng, cdf, counts, 8)
                assert np.array_equal(classes[pair, s], ref_classes)
                assert np.array_equal(within[pair, s], ref_within)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_class_bounds_next_to_a_drawn_double(self, step):
        # seed 3's first double is below 1/2, where doubles are finer than the 2**-53 grid of
        # `random()`: a bound half a grid step above it must keep it in the lower class
        u = np.random.default_rng(3).random()
        bound = {-1: np.nextafter(u, 0.0), 0: u, 1: np.nextafter(u, 1.0)}[step]
        cdfs = (np.array([bound, 1.0]), np.array([0.5, 1.0]))
        counts = np.array([10, 12])
        classes, within = _BlockDraws(cdfs, counts).draw(np.random.default_rng(3), 1, 2)
        ref_rng = np.random.default_rng(3)
        for s, cdf in enumerate(cdfs):
            ref_classes, ref_within = ref_class_draw(ref_rng, cdf, counts, 2)
            assert np.array_equal(classes[0, s], ref_classes)
            assert np.array_equal(within[0, s], ref_within)
        assert classes[0, 0, 0] == (0 if step == 1 else 1)

    @given(
        counts=st.lists(st.integers(1, 5000), min_size=2, max_size=6),
        weights=st.lists(st.floats(0.01, 1.0), min_size=12, max_size=12),
        batch=st.integers(1, 24),
        n_pairs=st.integers(1, 5),
        half=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_counts_cdfs_and_batch(self, counts, weights, batch, n_pairs, half, seed):
        c = len(counts)
        cdfs = tuple(np.cumsum(w) / np.sum(w) for w in (weights[:c], weights[6:6 + c]))
        for cdf in cdfs:
            cdf /= cdf[-1]
        counts = np.array(counts)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if half is not None:
            buffer_half_word(rng, half)
            buffer_half_word(ref_rng, half)
        draws = _BlockDraws(cdfs, counts)
        for _ in range(2):
            classes, within = draws.draw(rng, n_pairs, batch)
            for pair in range(n_pairs):
                for s, cdf in enumerate(cdfs):
                    ref_classes, ref_within = ref_class_draw(ref_rng, cdf, counts, batch)
                    assert np.array_equal(classes[pair, s], ref_classes)
                    assert np.array_equal(within[pair, s], ref_within)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
