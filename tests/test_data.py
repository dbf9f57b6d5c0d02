import math
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from denshift.data import (
    Dataset,
    NormStats,
    SynthConfig,
    apply_preprocess,
    fit_preprocess,
    gen_synthetic,
    imbalance_ratio,
    load_csv,
    save_csv,
    stratified_split,
    write_table,
)
from denshift.errors import ParseError, SchemaError, ValidationError
from denshift.losses import CostParams, ce, cost_loss, dah_softmax, focal
from denshift.metrics import ScoredSet, macro_auc, nll, split_report, temperature_fit
from denshift.training import TrainConfig, train

from oracles import logistic_regression_auc

# feature cells save_csv must round-trip: any finite float, the extremes, and missing (NaN)
CSV_CELLS = st.one_of(
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, -0.0, 0.0, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_first_appearance_mapping_and_counts(self, tmp_path):
        p = write(tmp_path, "a,b,label\n1,2,yes\n3,4,no\n5,6,no\n7,8,no\n")
        ds = load_csv(p, "label")
        assert ds.n == 4
        assert ds.class_names == ("yes", "no")
        assert ds.class_counts.tolist() == [1, 3]
        assert ds.labels.tolist() == [0, 1, 1, 1]

    def test_missing_label_column_is_schema_error(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(SchemaError):
            load_csv(p, "label")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = write(tmp_path, "a,b,label\n1,2,x\n1,oops,y\n")
        with pytest.raises(ParseError, match="row 2.*'b'"):
            load_csv(p, "label")

    def test_single_class_rejected(self, tmp_path):
        p = write(tmp_path, "a,label\n1,x\n2,x\n")
        with pytest.raises(ValidationError):
            load_csv(p, "label")

    def test_too_many_label_values_rejected(self, tmp_path):
        rows = "\n".join(f"1,c{i}" for i in range(65))
        p = write(tmp_path, "a,label\n" + rows + "\n")
        with pytest.raises(ValidationError):
            load_csv(p, "label")

    def test_empty_cells_become_missing(self, tmp_path):
        p = write(tmp_path, "a,b,label\n1,,x\n2,3,y\n")
        ds = load_csv(p, "label")
        assert np.isnan(ds.features[0, 1])
        assert ds.has_missing

    def test_infinite_cell_rejected(self, tmp_path):
        p = write(tmp_path, "a,label\ninf,x\n1,y\n")
        with pytest.raises(ParseError):
            load_csv(p, "label")


    def test_nan_text_rejected(self, tmp_path):
        p = write(tmp_path, "a,label\n1,x\nnan,y\n")
        with pytest.raises(ParseError, match="row 2, column 'a': non-finite value 'nan'"):
            load_csv(p, "label")

    @pytest.mark.parametrize("cell", ["-inf", "1e999"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        p = write(tmp_path, f"a,b,label\n1,{cell},x\n1,2,y\n")
        with pytest.raises(ParseError, match=f"row 1, column 'b': non-finite value '{cell}'"):
            load_csv(p, "label")

    def test_whitespace_only_cell_is_missing(self, tmp_path):
        p = write(tmp_path, "a,b,label\n1,   ,x\n2,3,y\n")
        ds = load_csv(p, "label")
        assert np.isnan(ds.features[0, 1])
        assert ds.features[1].tolist() == [2.0, 3.0]

    def test_padded_number_parses(self, tmp_path):
        p = write(tmp_path, "a,label\n 1.5 ,x\n2,y\n")
        assert load_csv(p, "label").features[:, 0].tolist() == [1.5, 2.0]

    def test_finite_cells_whose_sum_overflows_are_kept(self, tmp_path):
        p = write(tmp_path, "a,b,label\n1e308,1e308,x\n-1e308,-1e308,y\n")
        assert load_csv(p, "label").features.tolist() == [[1e308, 1e308], [-1e308, -1e308]]

    def test_bad_cell_after_many_good_rows_names_row_and_column(self, tmp_path):
        good = "".join(f"{i},{i % 2},{0.5 * i}\n" for i in range(500))
        p = write(tmp_path, "a,label,b\n" + good + "1,0,2x\n")
        with pytest.raises(ParseError, match="row 501, column 'b': non-numeric cell '2x'"):
            load_csv(p, "label")

    def test_blank_line_mid_file_rejected(self, tmp_path):
        p = write(tmp_path, "a,label\n1,x\n\n2,y\n")
        with pytest.raises(ParseError, match="row 2 has 0 cells"):
            load_csv(p, "label")


class TestDataset:
    def test_labels_must_be_whole_numbers(self):
        with pytest.raises(ValidationError, match="whole numbers"):
            Dataset(np.zeros((4, 1)), [0.5, 1.7, 0.0, 1.2], ("a",), ("x", "y"))
        ds = Dataset(np.zeros((4, 1)), [0.0, 1.0, 0.0, 1.0], ("a",), ("x", "y"))
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 0, 1]

    def test_a_class_with_no_instances_is_refused_by_training(self):
        # a split or an eval file may lack a class; training on one refuses it, naming the class
        ds = Dataset(np.zeros((4, 1)), [0, 1, 0, 1], ("a",), ("x", "y", "z"))
        assert ds.class_counts.tolist() == [2, 2, 0]
        with pytest.raises(ValidationError, match=r"training split is missing classes: \['z'\]"):
            train(TrainConfig(variant="base", epochs=1, batch_size=2), (ds, ds))


FROZEN_HOLDERS = {
    "Dataset": lambda: Dataset(np.zeros((4, 2)), [0, 1, 0, 1], ["a", "b"], ["x", "y"]),
    "NormStats": lambda: NormStats(np.zeros(2), np.ones(2), np.zeros(2), np.zeros(2, dtype=bool)),
    "ScoredSet": lambda: ScoredSet([0.2, 0.9], [0, 1]),
}


@pytest.mark.parametrize("holder", FROZEN_HOLDERS)
def test_frozen_holders_refuse_writes_to_every_array(holder):
    obj = FROZEN_HOLDERS[holder]()
    arrays = {f.name: getattr(obj, f.name) for f in fields(obj) if isinstance(getattr(obj, f.name), np.ndarray)}
    assert len(arrays) == {"Dataset": 3, "NormStats": 4, "ScoredSet": 2}[holder]
    for arr in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    if holder == "Dataset":  # the names given as lists are kept as tuples; the counts as int64
        assert obj.feature_names == ("a", "b") and obj.class_names == ("x", "y")
        assert obj.class_counts.dtype == np.int64 and obj.class_counts.tolist() == [2, 2]


# every function that reads class labels, with its class count: each validates them through `class_labels`
LABEL_READERS = {
    "Dataset": (2, lambda y: Dataset(np.zeros((3, 1)), y, ("a",), ("x", "y"))),
    "ScoredSet": (2, lambda y: ScoredSet([0.2, 0.9, 0.4], y)),
    "ce": (2, lambda y: ce(np.zeros((3, 2)), y)),
    "focal": (2, lambda y: focal(np.zeros((3, 2)), y, 2.0)),
    "dah_softmax": (2, lambda y: dah_softmax(np.zeros((3, 2)), y, [0.1, 0.2])),
    "cost_loss": (2, lambda y: cost_loss(np.zeros((3, 2)), y, CostParams())),
    "nll": (2, lambda y: nll(np.zeros((3, 2)), y)),
    "temperature_fit": (2, lambda y: temperature_fit(np.zeros((3, 2)), y)),
    "split_report binary": (2, lambda y: split_report(np.full((3, 2), 0.5), y)),
    "split_report 3-class": (3, lambda y: split_report(np.full((3, 3), 1 / 3), y)),
    "macro_auc": (3, lambda y: macro_auc(np.full((3, 3), 1 / 3), y)),
}
BAD_LABELS = {"fractional": lambda c: [0.5, 1.7, 0.0], "negative": lambda c: [0, 1, -1],
              "n_classes": lambda c: [0, 1, c]}


@pytest.mark.parametrize("reader", LABEL_READERS)
@pytest.mark.parametrize("bad", BAD_LABELS)
def test_every_label_reader_rejects_labels_outside_its_classes(reader, bad):
    n_classes, read = LABEL_READERS[reader]
    with pytest.raises(ValidationError, match="label out of range"):
        read(BAD_LABELS[bad](n_classes))


class TestWriteTable:
    def test_exact_bytes(self, tmp_path):
        extremes = [1e308, -1e308, 5e-324, -0.0, np.float64(0.1)]
        rows = [(v, i, f"r{i}") for i, v in enumerate(extremes)]
        rows += [(math.nan, np.int64(5), "nan"), (math.inf, -6, 'a "b"'), (-math.inf, True, "")]
        path = tmp_path / "t.csv"
        write_table(path, ("x", "n", "s"), rows)
        assert path.read_bytes() == (
            b'x,n,s\n1e+308,0,r0\n-1e+308,1,r1\n5e-324,2,r2\n-0.0,3,r3\n0.1,4,r4\n'
            b',5,nan\n,-6,a "b"\n,True,\n'
        )
        back = [line.split(",")[0] for line in path.read_text().splitlines()[1:6]]
        assert [float(cell).hex() for cell in back] == [float(v).hex() for v in extremes]


class TestSaveCsv:
    def test_exact_bytes(self, tmp_path):
        feats = np.array([[1.5, np.nan], [-0.0, 1e-300], [np.nan, np.nan]])
        ds = Dataset(feats, np.array([0, 1, 0]), ("a", "b"), ("x,y", 'say "hi"'), label_column="out")
        path = tmp_path / "s.csv"
        save_csv(ds, path)
        assert path.read_bytes() == (
            b'a,b,out\r\n1.5,,"x,y"\r\n-0.0,1e-300,"say ""hi"""\r\n,,"x,y"\r\n'
        )
        back = load_csv(path, "out")
        assert back.class_names == ("x,y", 'say "hi"')
        assert back.labels.tolist() == [0, 1, 0]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(CSV_CELLS, min_size=d, max_size=d), min_size=2, max_size=8)))
    @example([[1e308, math.nan], [5e-324, -0.0]])
    def test_round_trip_is_bit_exact(self, rows):
        feats = np.array(rows, dtype=np.float64)
        labels = np.arange(len(rows)) % 2
        ds = Dataset(feats, labels, tuple(f"f{j}" for j in range(feats.shape[1])), ("neg", "pos"))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            save_csv(ds, path)
            back = load_csv(path, "label")
        assert back.features.tobytes() == feats.tobytes()  # NaN, -0.0 and subnormals included
        assert back.labels.tolist() == labels.tolist()

    @pytest.mark.parametrize("names", [(" yes", "no"), ("yes", "no "), ("yes", "\tno")])
    def test_class_name_that_would_not_round_trip_is_rejected(self, tmp_path, names):
        ds = Dataset(np.zeros((2, 1)), np.array([0, 1]), ("a",), names)
        path = tmp_path / "w.csv"
        bad = next(n for n in names if n != n.strip())
        with pytest.raises(ValidationError, match=re.escape(repr(bad))):
            save_csv(ds, path)
        assert not path.exists()


class TestPreprocess:
    def make(self, column):
        feats = np.array(column, dtype=np.float64).reshape(-1, 1)
        labels = np.arange(len(column)) % 2
        return Dataset(feats, labels, ("a",), ("x", "y"))

    def test_population_convention(self):
        stats = fit_preprocess(self.make([1.0, 2.0, 3.0]))
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.std[0] == pytest.approx(np.sqrt(2.0 / 3.0))

    def test_constant_column_flagged_with_unit_std(self):
        stats = fit_preprocess(self.make([5.0, 5.0, 5.0]))
        assert stats.std[0] == 1.0
        assert stats.constant_mask[0]

    def test_missing_ignored_when_fitting(self):
        stats = fit_preprocess(self.make([1.0, np.nan, 3.0]))
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.impute[0] == pytest.approx(2.0)

    def test_all_missing_column_named(self):
        feats = np.array([[1.0, np.nan], [2.0, np.nan]])
        ds = Dataset(feats, np.array([0, 1]), ("a", "b"), ("x", "y"))
        with pytest.raises(ValidationError, match="'b'"):
            fit_preprocess(ds)

    def test_apply_zscores_and_imputes(self):
        train = self.make([1.0, 2.0, 3.0])
        stats = fit_preprocess(train)
        test = self.make([2.0, np.nan, 4.0])
        out = apply_preprocess(test, stats)
        assert out.features[0, 0] == pytest.approx(0.0)
        # the missing cell lands exactly on the imputed-then-normalized value
        assert out.features[1, 0] == pytest.approx((stats.impute[0] - stats.mean[0]) / stats.std[0])
        assert not out.has_missing

    def test_train_split_is_standardized_after_apply(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(3.0, 2.5, size=(200, 4))
        ds = Dataset(feats, rng.integers(0, 2, 200), tuple("abcd"), ("x", "y"))
        stats = fit_preprocess(ds)
        out = apply_preprocess(ds, stats)
        assert np.abs(out.features.mean(axis=0)).max() < 1e-9
        assert np.abs(out.features.std(axis=0) - 1.0).max() < 1e-9

    def test_dimension_mismatch(self):
        stats = fit_preprocess(self.make([1.0, 2.0]))
        two_col = Dataset(np.ones((2, 2)), np.array([0, 1]), ("a", "b"), ("x", "y"))
        with pytest.raises(ValidationError):
            apply_preprocess(two_col, stats)

    @pytest.mark.parametrize("field, bad, message", [
        ("mean", np.nan, "mean: entries must be finite"), ("mean", -np.inf, "mean: entries must be finite"),
        ("std", np.nan, "std: entries must be finite"), ("std", np.inf, "std: entries must be finite"),
        ("impute", np.nan, "impute: entries must be finite"), ("impute", np.inf, "impute: entries must be finite"),
        ("std", 0.0, "std: stddev entries must be > 0"), ("std", -1.0, "std: stddev entries must be > 0"),
    ])
    def test_stats_refuse_bad_entries_naming_the_field(self, field, bad, message):
        # a NaN std would turn a whole column into NaN, which the preprocessed Dataset reads as missing
        arrays = {"mean": np.zeros(2), "std": np.ones(2), "impute": np.zeros(2), "constant_mask": np.zeros(2, bool)}
        arrays[field] = np.array([bad, 1.0])
        with pytest.raises(ValidationError, match=f"^{message}$"):
            NormStats(**arrays)


class TestStratifiedSplit:
    def make(self, counts):
        labels = np.repeat(np.arange(len(counts)), counts)
        feats = np.arange(labels.size, dtype=np.float64).reshape(-1, 1)
        return Dataset(feats, labels, ("a",), tuple(f"c{i}" for i in range(len(counts))))

    def test_exact_allocation(self):
        tr, va, te = stratified_split(self.make([80, 20]), (0.8, 0.1, 0.1), seed=0)
        assert tr.class_counts.tolist() == [64, 16]
        assert va.class_counts.tolist() == [8, 2]
        assert te.class_counts.tolist() == [8, 2]

    def test_same_seed_identical(self):
        ds = self.make([50, 30])
        a = stratified_split(ds, seed=7)
        b = stratified_split(ds, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.labels, y.labels)

    @pytest.mark.parametrize("fractions", [(0.5, 0.5, 0.5), (0.8, 0.1, 0.0999), (1.0, 0.0), (0.9, 0.1, 0.0)])
    def test_fractions_that_are_not_three_summing_to_one_are_refused(self, fractions):
        with pytest.raises(ValidationError, match=r"fractions must be a list of 3 items, .*, summing to 1"):
            stratified_split(self.make([10, 10]), fractions)

    def test_class_of_two_rejected(self):
        with pytest.raises(ValidationError):
            stratified_split(self.make([10, 2]))

    @given(
        counts=st.lists(st.integers(3, 60), min_size=2, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_proportions_within_one_disjoint_exhaustive(self, counts, seed):
        ds = self.make(counts)
        parts = stratified_split(ds, (0.8, 0.1, 0.1), seed=seed)
        all_rows = np.concatenate([p.features[:, 0] for p in parts])
        assert sorted(all_rows.tolist()) == ds.features[:, 0].tolist()
        for frac, part in zip((0.8, 0.1, 0.1), parts):
            for c, n_c in enumerate(counts):
                assert abs(part.class_counts[c] - n_c * frac) <= 1.0


class TestSynthetic:
    def test_counts_and_ratio(self):
        ds = gen_synthetic(SynthConfig(n_majority=900, n_minority=100, n_minority_modes=3, seed=0))
        assert ds.class_counts.tolist() == [900, 100]
        assert imbalance_ratio(ds) == 9.0

    def test_deterministic(self):
        cfg = SynthConfig(seed=123)
        a, b = gen_synthetic(cfg), gen_synthetic(cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_majority_center_concentration(self):
        cfg = SynthConfig(n_majority=2000, n_minority=100, dim=6, noise_scale=1.5, seed=5)
        ds = gen_synthetic(cfg)
        maj = ds.features[ds.labels == 0]
        tol = 3.0 * cfg.noise_scale / np.sqrt(cfg.n_majority)
        assert np.abs(maj.mean(axis=0)).max() < tol

    def test_far_modes_are_linearly_separable(self):
        cfg = SynthConfig(
            n_majority=400, n_minority=60, n_minority_modes=1, dim=8,
            mode_spread=10.0, noise_scale=1.0, seed=11,
        )
        ds = gen_synthetic(cfg)
        assert logistic_regression_auc(ds.features, ds.labels) > 0.99

    def test_bad_config_rejected(self):
        with pytest.raises(ValidationError, match=r"dataset\.synthetic needs n_majority >= n_minority >= "
                                                  r"n_minority_modes, got 10, 20, 3"):
            SynthConfig(n_majority=10, n_minority=20)
        with pytest.raises(ValidationError):
            SynthConfig(mode_spread=0.0)
        with pytest.raises(ValidationError, match="mode_spread"):
            SynthConfig(mode_spread=float("nan"))
        with pytest.raises(ValidationError, match="dim"):
            SynthConfig(dim="20")


class TestImbalanceRatio:
    def test_values(self):
        labels = np.repeat([0, 1], [50, 50])
        ds = Dataset(np.zeros((100, 1)), labels, ("a",), ("x", "y"))
        assert imbalance_ratio(ds) == 1.0

    def test_large_cohort_ratio(self):
        labels = np.repeat([0, 1], [18672, 2467])
        ds = Dataset(np.zeros((21139, 1)), labels, ("a",), ("x", "y"))
        assert imbalance_ratio(ds) == pytest.approx(7.57, abs=0.005)


class TestRoundTrip:
    def test_csv_round_trip(self, tmp_path):
        ds = gen_synthetic(SynthConfig(n_majority=120, n_minority=30, dim=5, seed=3))
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path, "label")
        assert np.array_equal(back.labels, ds.labels)
        assert np.abs(back.features - ds.features).max() < 1e-12
        stats = fit_preprocess(ds)
        a = apply_preprocess(ds, stats).features
        b = apply_preprocess(back, stats).features
        assert np.abs(a - b).max() < 1e-12

    def test_round_trip_preserves_missing(self, tmp_path):
        feats = np.array([[1.0, np.nan], [2.0, 3.0], [0.5, 1.0]])
        ds = Dataset(feats, np.array([0, 1, 1]), ("a", "b"), ("x", "y"))
        path = tmp_path / "m.csv"
        save_csv(ds, path)
        back = load_csv(path, "label")
        assert np.isnan(back.features[0, 1])
        assert back.class_names == ("x", "y")
