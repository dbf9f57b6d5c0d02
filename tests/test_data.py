import csv
import math
import random
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from denshift.data import (
    MAX_LABEL_VALUES,
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
from denshift.data import _read_plain, _read_rows
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
    p.write_bytes(text) if isinstance(text, bytes) else p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_first_appearance_mapping_and_counts(self, tmp_path):
        p = write(tmp_path, "a,b,label\n1,2,yes\n3,4,no\n5,6,no\n7,8,no\n")
        ds = load_csv(p, "label")
        assert ds.n == 4
        assert ds.class_names == ("yes", "no")
        assert ds.class_counts.tolist() == [1, 3]
        assert ds.labels.tolist() == [0, 1, 1, 1]

    def test_empty_file_is_schema_error(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(p))}: empty file$"):
            load_csv(p, "label")

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

    @pytest.mark.parametrize("text, name", [
        ("x0,x0,label\n1,2,a\n3,,b\n", "x0"),
        ("label,x0,label\na,1,a\nb,2,b\n", "label"),
        ("x0,x1,x1,x0,label\n1,2,3,4,a\n5,6,7,8,b\n", "x0"),
    ])
    def test_a_repeated_column_name_is_refused(self, tmp_path, text, name):
        p = write(tmp_path, text)
        assert _read_plain(p, "label") is None
        with pytest.raises(SchemaError, match=re.escape(f"column {name!r} appears more than once in the header")):
            load_csv(p, "label")

    @pytest.mark.parametrize("text, message", [
        ("x0,label\n1." + "0" * 131072 + ",a\n2,b\n", "row 1: field larger than field limit (131072)"),
        ("x0,label\n2,b\n1." + "0" * 131072 + ",a\n", "row 2: field larger than field limit (131072)"),
        ("x0,label" + "0" * 131072 + "\n1,a\n", "header: field larger than field limit (131072)"),
    ])
    def test_a_cell_over_the_field_limit_names_its_row(self, tmp_path, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            load_csv(write(tmp_path, text), "label")

    @pytest.mark.parametrize("text, row", [
        (b"x0,label\n1,a\n2,\xe9\n", "row 2"),
        (b"\xef\xbb\xbfx0,label\r\n1,a\r\n2,b\r\n3,\xe9\r\n", "row 3"),
        (b"x0,label\r1,a\r2,b\r\xff,c\r", "row 3"),
        # the text layer decodes 8 KiB blocks, so the reader is rows short of the bad byte when it surfaces
        (b"x0,label\n" + b"".join(b"%d,%s\n" % (i, b"ab"[i % 2:i % 2 + 1]) for i in range(1, 5000))
         + b"5000,\xe9\n", "row 5000"),
        (b"x\xe90,label\n1,a\n2,b\n", "header"),
        (b'x0,label\n1,"a\nb"\n2,"c""\r\n"\n3,\xe9\n', "row 3"),  # line breaks in quoted cells
    ])
    def test_a_byte_that_is_not_utf8_names_its_row(self, tmp_path, text, row):
        p = tmp_path / "latin1.csv"
        p.write_bytes(text)
        with pytest.raises(ParseError, match=re.escape(f"{p}: {row}: byte 0x") + ".. is not UTF-8"):
            load_csv(p, "label")


# cells of every kind load_csv meets: plain numbers, which numpy's reader parses, missing
# (empty) and quoted cells, which the row reader reads, and odd cells, which it refuses
PLAIN_CELLS = ("0", "-3", "1e308", "5e-324", "-0.0", " 1.5 ", "+.5", "7.", "\u20032")
ODD_CELLS = ("nan", "inf", "-inf", "1e999", "1_0", "\u0661", "\uff11", '"1"', '"1,5"', "1d5", "0x10",
             "abc", "\x00", "\ufeff1", '"')
ODD_LABELS = (" c0 ", "", "  ", '"c0"', "c0\x00", "\u0661")
LINE_ENDINGS = ("\n", "\r\n", "\r")


@st.composite
def csv_texts(draw):
    """A CSV text with a `label` column and mostly plain numeric cells.

    Hypothesis draws its shape; a seeded generator fills the cells, as one draw per cell is slow.
    """
    dim, at = draw(st.integers(0, 3).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d))))
    n_classes = draw(st.sampled_from([1, 2, 2, 2, 3, MAX_LABEL_VALUES + 1]))
    n_rows = draw(st.sampled_from([0, 2, 3, 5, 8])) + (n_classes if n_classes > 3 else 0)
    missing, odd = draw(st.sampled_from([0.0, 0.1])), draw(st.sampled_from([0.0, 0.0, 0.03]))
    quoted = draw(st.sampled_from([0.0, 0.0, 0.2]))
    ragged, blank = draw(st.integers(0, 7)) == 0, draw(st.integers(0, 7)) == 0
    names = [draw(st.sampled_from(ODD_LABELS)) if draw(st.integers(0, 5)) == 0 else "c0"]
    names += [f"c{k}" for k in range(1, n_classes)]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def cell():
        if rng.random() < odd:
            return rng.choice(ODD_CELLS)
        if rng.random() < missing:
            text = "   " if rng.random() < 0.1 else ""  # whitespace-only, or empty: numpy reads that
        elif rng.random() < 0.2:
            text = rng.choice(PLAIN_CELLS)
        else:
            text = repr(rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300))
        return f'"{text}"' if rng.random() < quoted else text  # the row reader unquotes it

    header = [f"x{j}" for j in range(dim)]
    header.insert(at, "label")
    lines = [",".join(header)]
    for i in range(n_rows):
        cells = [cell() for _ in range(dim)]
        cells.insert(at, names[i % n_classes])
        if ragged and rng.random() < 0.2:
            cells = cells[:-1] if rng.random() < 0.5 else cells + ["1"]
        lines.append(",".join(cells))
        if blank and rng.random() < 0.2:
            lines.append(rng.choice(["", " "]))
    end = draw(st.sampled_from(LINE_ENDINGS))
    return end.join(lines) + (end if draw(st.booleans()) else "")


def dataset_fields(ds):
    """Every field of a loaded Dataset, its features as bytes: NaN positions and -0.0 compare exactly."""
    return ds.features.shape, ds.features.tobytes(), ds.labels.tolist(), ds.class_names, ds.feature_names


def read_outcome(read, path):
    """What `read` makes of `path`: the Dataset's fields, or the exception's type and message."""
    try:
        return dataset_fields(read(path, "label"))
    except Exception as exc:  # noqa: BLE001 - the type and the message are the outcome compared
        return type(exc), str(exc)


class TestPlainReader:
    @pytest.mark.filterwarnings("error")  # numpy warns on a file with no rows; load_csv must not
    @settings(max_examples=200, deadline=None)
    @given(csv_texts())
    @example("x0,label\n1,a\n2,b\n")
    @example("label\r\na\r\nb")
    @example("x0,label\n")
    @example("x0,label,x1\r1,a,2\r\r3,b,4\r")
    @example("label\n" + "".join(f"c{k}\n" for k in range(MAX_LABEL_VALUES + 1)))
    @example("x0,label,x1\n,a,\n1,b,2\n3,a,\n")  # empty cells, first and last row, leading and trailing
    @example(",,,label\n1,,,a\n,,,b\n")  # runs of empty cells
    @example("x0,label\n1,a\n,\n")  # an empty label beside an empty cell
    @example("x0,label\n,nan\n1,b\n")  # a class named nan
    @example("x0,x1,label\n,nan,a\n1,2,b\n")  # an empty cell and a nan cell
    @example("x0,x1,label\n,1,a\n1,inf,b\n")  # an empty cell and an inf cell
    @example("x0,x1,label\n,1,a\n1, ,b\n")  # an empty cell and a whitespace-only one
    def test_load_csv_matches_the_row_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(text.encode("utf-8"))
            expected = read_outcome(_read_rows, path)
            assert read_outcome(load_csv, path) == expected
            plain = _read_plain(path, "label")
        assert plain is None or dataset_fields(plain) == expected

    @pytest.mark.parametrize("end", LINE_ENDINGS)
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_plain_numeric_file_takes_numpys_reader(self, tmp_path, end, at):
        rows = [["x0", "x1"], ["0.1", "-2e-3"], ["1e308", " 5 "], ["7", "8"]]
        labels = ["label", "b", " a\t", "b "]
        text = end.join(",".join(row[:at] + [label] + row[at:]) for row, label in zip(rows, labels))
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        ds = _read_plain(path, "label")
        assert dataset_fields(ds) == read_outcome(_read_rows, path)
        assert ds.features.tolist() == [[0.1, -2e-3], [1e308, 5.0], [7.0, 8.0]]
        assert ds.class_names == ("b", "a") and ds.feature_names == ("x0", "x1")

    def test_a_table_of_many_blocks_packs_every_row(self, tmp_path):
        feats = np.arange(150_000.0).reshape(1500, 100)  # about 650 rows a block; every cell differs
        lines = [[f"x{j}" for j in range(100)]] + [[str(int(v)) for v in row] for row in feats.tolist()]
        for i, cells in enumerate(lines):
            cells.insert(50, "label" if i == 0 else "abc"[i % 3])
        path = write(tmp_path, "".join(",".join(cells) + "\n" for cells in lines))
        ds = _read_plain(path, "label")
        assert dataset_fields(ds) == read_outcome(_read_rows, path)
        assert ds.features.tobytes() == feats.tobytes()

    @pytest.mark.parametrize("text", [
        'x0,label\n1,"a"\n2,b\n',  # a quote
        '"x0",label\n1,a\n2,b\n',  # a quote in the header
        "x0,label\n1,a\n\n2,b\n",  # a blank line
        "x0,label\n1,a\n2\n",  # a ragged row
        "label,x0,x1\na,1\nb,2\n",  # every row shorter than the header
        "x0,label\n1,a,2\n3,b,4\n",  # every row longer than the header
        "x0,label\n1_0,a\n2,b\n",  # an underscore, which float() reads
        "x0,label\nnan,a\n2,b\n",  # a non-finite number, which numpy reads
        "x0,label\n1,a\n2,\n",  # an empty label
        "x0,label\n1,a\n,\n",  # an empty label beside an empty feature cell
        "x0,x1,label\n,nan,a\n1,2,b\n",  # an empty cell and a nan cell
        "x0,x1,label\n,1,a\n1,inf,b\n",  # an empty cell and an inf cell
        "x0,x1,label\n,1e999,a\n1,2,b\n",  # an empty cell and a number over float's range
        "x0,x1,label\n,1,a\n1, ,b\n",  # an empty cell and a whitespace-only cell
        "x0,x1,label\n,1,a\n1_0,2,b\n",  # an empty cell, then an underscore
        "x0,label\n1,a\n2,a\n",  # one class
        "x0,label\n",  # no rows
        "x0,label\n" + "1." + "0" * 131072 + ",a\n2,b\n",  # a cell over the csv module's field limit
    ])
    def test_file_that_is_not_plain_takes_the_row_reader(self, tmp_path, recwarn, text):
        path = write(tmp_path, text)
        assert _read_plain(path, "label") is None
        assert read_outcome(load_csv, path) == read_outcome(_read_rows, path)
        assert not recwarn.list  # numpy's warning on a file with no rows stays inside

    @pytest.mark.parametrize("text", [
        "x0,label\n1,a\n,b\n",  # the last row
        "x0,label\n,a\n1,b\n2,a\n",  # the first row
        "x0,x1,label\n1,2,a\n,3,b\n4,5,a\n",  # a middle row
        "label,x0,x1\na,,1\nb,2,\n",  # the label first
        "x0,label,x1\n,a,\n1,b,2\n",  # the label in the middle, leading and trailing empty cells
        "x0,x1,label\n,,a\n1,2,b\n",  # the label last, a leading run
        "x0,x1,x2,x3,label\n1,,,,a\n,,,,b\n,,,4,a\n",  # runs of empty cells
        "label,x0,x1,x2\r\na,,,\r\nb,1,,2\r\n",  # a trailing run, CRLF line ends
        "x0,label\r,a\r1,b",  # CR line ends, no line end after the last row
        "label,x0\na,1\nb,",  # an empty last cell, no line end after it
        "x0,label\n,nan\n1,b\n",  # a class named nan
    ])
    def test_empty_feature_cells_take_numpys_reader(self, tmp_path, text):
        path = write(tmp_path, text)
        ds = _read_plain(path, "label")
        assert dataset_fields(ds) == read_outcome(_read_rows, path) == read_outcome(load_csv, path)
        assert np.isnan(ds.features).any()

    @pytest.mark.parametrize("last_only", [False, True])
    def test_a_file_with_missing_values_stays_on_numpys_reader(self, tmp_path, last_only):
        rng = np.random.default_rng(0)
        rows = [[repr(v) for v in row] for row in rng.normal(size=(2000, 10)).tolist()]
        if last_only:
            rows[-1][3] = ""
        else:
            for i, j in zip(*np.nonzero(rng.random((2000, 10)) < 0.01)):
                rows[i][j] = ""
        lines = [[f"x{j}" for j in range(10)] + ["label"]] + [cells + ["ab"[i % 2]] for i, cells in enumerate(rows)]
        path = write(tmp_path, "".join(",".join(cells) + "\n" for cells in lines))
        ds = _read_plain(path, "label")
        assert ds is not None  # a missing value must not send the file to the row reader
        assert dataset_fields(ds) == read_outcome(_read_rows, path)
        assert np.isnan(ds.features).sum() == sum(cells.count("") for cells in rows)

    @pytest.mark.parametrize("text", ["x0,label\n1,a\n2,b\n", "x0,label\n1,a\n2, \n",
                                      "x0,label\n1,\u00e9\n2,b\n"])
    def test_labels_are_text_under_numpy_1s_default_encoding(self, tmp_path, monkeypatch, text):
        # before NumPy 2, loadtxt's default encoding "bytes" handed converters latin-1 bytes
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: loadtxt(*args, **{"encoding": "bytes", **kw}))
        path = write(tmp_path, text)
        assert read_outcome(load_csv, path) == read_outcome(_read_rows, path)

    @pytest.mark.parametrize("text, passes, outcome", [
        ("x0,x1,label\n1,2,a\n3,4,b\n", 1, [[1.0, 2.0], [3.0, 4.0]]),  # plain
        ("x0,x1,label\n,2,a\n3,4,b\n", 2, [[math.nan, 2.0], [3.0, 4.0]]),  # an empty cell in the first row
        ("x0,x1,label\n1,2,a\n3,,b\n", 2, [[1.0, 2.0], [3.0, math.nan]]),  # and in the last row
        ("x0,x1,label\n,nan,a\n1,2,b\n", 2, "row 1, column 'x1': non-finite value 'nan'"),
        ("x0,x1,label\n,1,a\n1_0,2,b\n", 2, [[math.nan, 1.0], [10.0, 2.0]]),  # the row reader reads 1_0
        ('"x0",label\n1,a\n2,b\n', 0, [[1.0], [2.0]]),  # a quoted header
        ('x0,label\n1,a\n2,b\n3,"c"\n', 1, [[1.0], [2.0], [3.0]]),  # a quote in the last row: no retry
        ("x0,label\n1,a\n" + "2" * (csv.field_size_limit() + 1) + ",b\n", 1,  # a line over the csv field limit
         f"row 2: field larger than field limit ({csv.field_size_limit()})"),
        # a label the converter refuses: the second pass rewrites no label cell, so it is not run
        ("x0,label\n1,a\n2,b\n3,\n", 1, "row 3 has an empty label cell"),
        pytest.param("x0,label\n" + "".join(f"{i},c{i}\n" for i in range(MAX_LABEL_VALUES + 1)), 1,
                     ValidationError(f"label column has more than {MAX_LABEL_VALUES} distinct values"),
                     id="one-label-too-many"),
        # a byte that is not UTF-8 past the text layer's first 8 KiB chunk: numpy meets it, not the header read,
        # and a second pass would decode the same bytes
        pytest.param(b"x0,label\n" + b"1,a\n2,b\n" * 1023 + b"3,\xe9\n", 1, "row 2047: byte 0xe9 is not UTF-8",
                     id="a-byte-not-utf-8-past-8-KiB"),
    ])
    def test_numpy_parses_once_and_once_more_after_a_cell_it_cannot_read(self, tmp_path, monkeypatch, text,
                                                                         passes, outcome):
        loadtxt, calls = np.loadtxt, []
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: calls.append(1) or loadtxt(*args, **kw))
        path = write(tmp_path, text)
        if not isinstance(outcome, list):  # a refusal: a ParseError's message, or the error itself
            error = ParseError(outcome) if isinstance(outcome, str) else outcome
            with pytest.raises(type(error)) as refused:
                load_csv(path, "label")
            assert str(refused.value) == f"{path}: {error}"
        else:
            assert np.array_equal(load_csv(path, "label").features, outcome, equal_nan=True)
        assert len(calls) == passes

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_the_dataset_holds_no_label_column(self, tmp_path, at):
        header = ["x0", "x1"]
        header.insert(at, "label")
        rows = [[str(i), str(-i)] for i in range(300)]
        for i, row in enumerate(rows):
            row.insert(at, "ab"[i % 2])
        path = write(tmp_path, "".join(",".join(cells) + "\n" for cells in [header] + rows))
        features = _read_plain(path, "label").features
        owner = features
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == features.nbytes == 300 * 2 * 8
        assert features.tolist() == [[float(i), float(-i)] for i in range(300)]

    def test_a_blank_header_line_names_no_column(self, tmp_path):
        path = write(tmp_path, "\na\nb\n")
        assert _read_plain(path, "") is None
        with pytest.raises(SchemaError, match=re.escape("label column '' not in header []")):
            load_csv(path, "")

    @pytest.mark.parametrize("text", ["label,x0,x1\na,1,2\nb,3,4\n", "x0,x1,label\n1,2,a\n3,4,b\n",
                                      "label,x0,x1\na,1,2\nb,3,\n", "x0,x1,label\n1,2,a\n3,,b\n"])
    def test_a_byte_order_mark_is_skipped(self, tmp_path, text):
        ds = load_csv(write(tmp_path, "\ufeff" + text, "bom.csv"), "label")
        assert dataset_fields(ds) == dataset_fields(load_csv(write(tmp_path, text), "label"))
        assert ds.feature_names == ("x0", "x1") and ds.class_names == ("a", "b")


class TestDataset:
    def test_labels_must_be_whole_numbers(self):
        with pytest.raises(ValidationError, match="whole numbers"):
            Dataset(np.zeros((4, 1)), [0.5, 1.7, 0.0, 1.2], ("a",), ("x", "y"))
        ds = Dataset(np.zeros((4, 1)), [0.0, 1.0, 0.0, 1.0], ("a",), ("x", "y"))
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("features, labels, feature_names, class_names, message", [
        pytest.param(np.zeros(4), [0, 1, 0, 1], ("a",), ("x", "y"), r"features must be 2-D, got shape \(4,\)",
                     id="features-not-2-d"),
        pytest.param(np.zeros((4, 1)), [0, 1, 0], ("a",), ("x", "y"), r"labels shape \(3,\) does not match 4 rows",
                     id="labels-of-another-length"),
        pytest.param(np.zeros((4, 1)), [0, 1, 0, 1], ("a", "b"), ("x", "y"), "2 feature names for 1 columns",
                     id="feature-names-of-another-count"),
        pytest.param(np.zeros((4, 1)), [0, 0, 0, 0], ("a",), ("x",), "need at least 2 classes", id="one-class-name"),
        pytest.param(np.array([[0.0], [np.inf], [1.0], [2.0]]), [0, 1, 0, 1], ("a",), ("x", "y"),
                     "features contain Inf", id="an-inf-feature"),
    ])
    def test_refusals_name_the_problem(self, features, labels, feature_names, class_names, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Dataset(features, labels, feature_names, class_names)

    def test_a_class_with_no_instances_is_refused_by_training(self):
        # a split or an eval file may lack a class; training on one refuses it, naming the class
        ds = Dataset(np.zeros((4, 1)), [0, 1, 0, 1], ("a",), ("x", "y", "z"))
        assert ds.class_counts.tolist() == [2, 2, 0]
        with pytest.raises(ValidationError, match=r"training split is missing classes: \['z'\]"):
            train(TrainConfig(variant="base", epochs=1, batch_size=2), (ds, ds))


FROZEN_HOLDERS = {
    "Dataset": lambda: Dataset(np.zeros((4, 2)), [0, 1, 0, 1], ["a", "b"], ["x", "y"]),
    "NormStats": lambda: NormStats(np.zeros(2), np.ones(2)),
    "ScoredSet": lambda: ScoredSet([0.2, 0.9], [0, 1]),
}


@pytest.mark.parametrize("holder", FROZEN_HOLDERS)
def test_frozen_holders_refuse_writes_to_every_array(holder):
    obj = FROZEN_HOLDERS[holder]()
    arrays = {f.name: getattr(obj, f.name) for f in fields(obj) if isinstance(getattr(obj, f.name), np.ndarray)}
    assert len(arrays) == {"Dataset": 3, "NormStats": 2, "ScoredSet": 2}[holder]
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

    def test_missing_ignored_when_fitting(self):
        stats = fit_preprocess(self.make([1.0, np.nan, 3.0]))
        assert stats.mean[0] == pytest.approx(2.0)

    def test_empty_split_refused(self):
        with pytest.raises(ValidationError, match="^cannot fit preprocessing on an empty split$"):
            fit_preprocess(self.make([]))

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
        # the missing cell takes the training mean, so it lands exactly on +0.0, sign bit included
        assert out.features[1, 0] == 0.0 and not np.signbit(out.features[1, 0])
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
        ("std", 0.0, "std: stddev entries must be > 0"), ("std", -1.0, "std: stddev entries must be > 0"),
    ])
    def test_stats_refuse_bad_entries_naming_the_field(self, field, bad, message):
        # a NaN std would turn a whole column into NaN, which the preprocessed Dataset reads as missing
        arrays = {"mean": np.zeros(2), "std": np.ones(2)}
        arrays[field] = np.array([bad, 1.0])
        with pytest.raises(ValidationError, match=f"^{message}$"):
            NormStats(**arrays)

    @pytest.mark.parametrize("mean, std, message", [
        (np.zeros((2, 3)), np.ones((2, 3)), r"mean: must be 1-D, got shape \(2, 3\)"),
        (0.0, 1.0, r"mean: must be 1-D, got shape \(\)"),
        (np.zeros(3), np.ones(2), r"std: shape \(2,\) does not match mean's \(3,\)"),
    ])
    def test_stats_refuse_arrays_of_another_shape_naming_the_field(self, mean, std, message):
        # such stats reached apply_preprocess, which ended in numpy's broadcast error or a wrong `dim`
        with pytest.raises(ValidationError, match=f"^{message}$"):
            NormStats(mean, std)


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

    def test_a_class_with_no_rows_is_refused_naming_it(self):
        ds = Dataset(np.zeros((20, 1)), np.arange(20) % 2, ("a",), ("c0", "c1", "c2"))
        with pytest.raises(ValidationError, match=r"^class 'c2' has 0 rows: the train split gets none of them"):
            stratified_split(ds)

    @given(
        counts=st.lists(st.integers(3, 60), min_size=2, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_proportions_within_one_disjoint_exhaustive(self, counts, seed):
        # at (0.8, 0.1, 0.1) largest remainder gives a class of 3 rows 3/0/0 and one of 4 to 6 rows no test
        # row (4 -> 3/1/0, 6 -> 5/1/0); from 7 rows (5/1/1) on every split gets one, so only then does it split
        ds = self.make(counts)
        small = [(c, n_c) for c, n_c in enumerate(counts) if n_c < 7]
        if small:
            c, n_c = small[0]
            message = (f"class 'c{c}' has {n_c} rows: the {'val' if n_c == 3 else 'test'} split gets none of them "
                       "at fractions [0.8, 0.1, 0.1]")
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                stratified_split(ds, (0.8, 0.1, 0.1), seed=seed)
            return
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

    def test_more_modes_than_dimensions_sit_at_the_mode_spread(self):
        # 5 modes in 3 dimensions cannot be orthonormal: each centre is a unit direction scaled by
        # mode_spread * noise_scale; a minority spread near 0 puts every minority row on its mode's centre
        cfg = SynthConfig(n_majority=20, n_minority=10, n_minority_modes=5, dim=3, mode_spread=2.5,
                          noise_scale=1.5, minority_scale=1e-9, seed=1)
        minority = gen_synthetic(cfg).features[20:]
        assert np.abs(np.linalg.norm(minority, axis=1) - 2.5 * 1.5).max() < 1e-6
        centres = minority[::2]  # rows are ordered mode by mode, 2 rows each
        assert np.abs(minority[1::2] - centres).max() < 1e-6
        assert np.linalg.matrix_rank(centres) == 3 and len(np.unique(centres.round(6), axis=0)) == 5

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
