import contextlib
import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from denshift.cli import DEFAULT_CONFIG, build_parser, config_hash, load_config, main
from denshift.data import CONFIG_RULES, check_config
from denshift.errors import ValidationError
from denshift.metrics import ScoredSet, auc_prc, auc_roc, bss, split_report
from denshift.nn import init_mlp, load_checkpoint
from denshift.training import VARIANTS

TINY = {
    "dataset": {"synthetic": {"n_majority": 270, "n_minority": 30, "n_minority_modes": 2,
                              "dim": 6, "mode_spread": 3.0, "noise_scale": 1.0, "seed": 4}},
    "train": {"epochs": 6, "batch_size": 32, "early_stop_patience": 6},
}


HISTORY_HEADER = "epoch,loss_regular,loss_balanced,val_auc_roc,val_auc_prc,cost_fp,cost_fn"


def write_multiclass_csv(path, n_rows=90, label_column="label", dim=2):
    """Three classes x/y/z over `dim` features; y is shifted along the first feature, z the second."""
    rng = np.random.default_rng(0)
    rows = [",".join("abcdefgh"[:dim]) + f",{label_column}"]
    for i in range(n_rows):
        k = i % 3
        rows.append(",".join(str(rng.normal() + 2 * (k == j + 1)) for j in range(dim)) + f",{'xyz'[k]}")
    path.write_text("\n".join(rows) + "\n")
    return path


def read_table(path):
    """Header line and split rows of a result CSV, after checking it ends every line with LF alone."""
    text = path.read_bytes().decode("utf-8")
    assert text.endswith("\n") and "\r" not in text
    header, *rows = text[:-1].split("\n")
    return header, [row.split(",") for row in rows]


def assert_cells_match(path, header, expected_rows):
    """Each cell of a result CSV reads back bit-exactly as its JSON value; JSON null is an empty cell."""
    got_header, rows = read_table(path)
    assert got_header == header
    assert len(rows) == len(expected_rows)
    for row, expected in zip(rows, expected_rows):
        for column, cell in zip(header.split(","), row):
            value = expected[column]
            if value is None:
                assert cell == "", (column, cell)
            elif isinstance(value, float):
                assert float(cell).hex() == value.hex(), (column, cell, value)
            else:
                assert cell == str(value), (column, cell, value)


def write_cfg(tmp_path, extra=None, name="cfg.json"):
    cfg = json.loads(json.dumps(TINY))
    for key, value in (extra or {}).items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A `full` checkpoint trained on TINY, and the test split that gen-data writes for the same config."""
    tmp = tmp_path_factory.mktemp("trained")
    path = write_cfg(tmp)
    assert main(["train", "--config", str(path), "--out", str(tmp / "run")]) == 0
    assert main(["gen-data", "--config", str(path), "--out", str(tmp / "gen")]) == 0
    return tmp / "run" / "checkpoint.npz", tmp / "gen" / "test.csv"


class TestConfig:
    def test_defaults_then_file_then_flags(self, tmp_path):
        path = write_cfg(tmp_path)
        cfg = load_config(path, {"train.variant": "base", "train.seed": 9})
        assert cfg["train"]["epochs"] == 6          # from file
        assert cfg["train"]["batch_size"] == 32     # from file
        assert cfg["train"]["optimizer"] == "adam"  # default
        assert cfg["train"]["variant"] == "base"    # flag wins
        assert cfg["train"]["seed"] == 9

    def test_exactly_one_source(self, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"dataset": {"synthetic": {}, "csv": {"path": "x"}}}))
        with pytest.raises(ValidationError):
            load_config(path)

    def test_csv_source_replaces_synthetic_default(self, tmp_path):
        path = tmp_path / "csv.json"
        path.write_text(json.dumps({"dataset": {"csv": {"path": "d.csv", "label_column": "y"}}}))
        cfg = load_config(path)
        assert "synthetic" not in cfg["dataset"]

    def test_hash_ignores_output_dir(self):
        a = json.loads(json.dumps(DEFAULT_CONFIG))
        b = json.loads(json.dumps(DEFAULT_CONFIG))
        b["output_dir"] = "elsewhere"
        assert config_hash(a) == config_hash(b)
        b["train"]["seed"] = 123
        assert config_hash(a) != config_hash(b)

    def test_default_config_hash_is_pinned(self):
        # reports embed this hash, so the defaults' keys and values are part of the output contract
        assert config_hash(load_config()) == "f180c9aa2efd6ab7"

    def test_rule_table_names_exactly_the_config_keys(self):
        def leaves(node, prefix=""):
            for key, value in node.items():
                yield from leaves(value, f"{prefix}{key}.") if isinstance(value, dict) else [prefix + key]

        manifest = {"config_hash", "rows", "label_mapping"}
        expected = set(leaves(DEFAULT_CONFIG)) | {"dataset.csv.path", "dataset.csv.label_column"} | manifest
        assert set(CONFIG_RULES) == expected
        check_config(DEFAULT_CONFIG)

    @pytest.mark.parametrize("error", [KeyError, TypeError])
    def test_a_bug_inside_a_command_is_a_traceback_not_exit_one(self, tmp_path, monkeypatch, error):
        import denshift.cli as cli

        def broken(*args, **kwargs):
            raise error("bug")

        monkeypatch.setattr(cli, "train", broken)
        with pytest.raises(error, match="bug"):
            main(["train", "--config", str(write_cfg(tmp_path)), "--out", str(tmp_path / "o")])


class TestGenData:
    def test_split_proportions_and_manifest_regeneration(self, tmp_path):
        out1 = tmp_path / "g1"
        path = write_cfg(tmp_path, {"dataset": {"synthetic": {"n_majority": 900, "n_minority": 100,
                                                              "n_minority_modes": 3, "dim": 5, "seed": 0}},
                                    "output_dir": str(out1)})
        assert main(["gen-data", "--config", str(path)]) == 0
        rows = {name: len((out1 / f"{name}.csv").read_text().strip().splitlines()) - 1
                for name in ("train", "val", "test")}
        assert rows == {"train": 800, "val": 100, "test": 100}

        out2 = tmp_path / "g2"
        assert main(["gen-data", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        for name in ("train.csv", "val.csv", "test.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_output_dir_created(self, tmp_path):
        out = tmp_path / "deep" / "nested"
        path = write_cfg(tmp_path, {"output_dir": str(out)})
        assert main(["gen-data", "--config", str(path)]) == 0
        assert (out / "manifest.json").exists()


class TestTrain:
    def test_report_metrics_recompute_from_predictions(self, tmp_path):
        out = tmp_path / "run"
        path = write_cfg(tmp_path, {"output_dir": str(out)})
        assert main(["train", "--config", str(path)]) == 0
        report = json.loads((out / "report.json").read_text())
        for key in ("auc_roc", "auc_prc", "brier", "bss"):
            assert key in report["test"]
        assert report["label_mapping"] == {"0": "majority", "1": "minority"}

        rows = (out / "predictions_test.csv").read_text().strip().splitlines()[1:]
        scores = np.array([float(r.split(",")[0]) for r in rows])
        labels = np.array([int(r.split(",")[1]) for r in rows])
        scored = ScoredSet(scores, labels)
        assert auc_roc(scored) == pytest.approx(report["test"]["auc_roc"], abs=1e-12)
        assert auc_prc(scored) == pytest.approx(report["test"]["auc_prc"], abs=1e-12)
        assert bss(scored) == pytest.approx(report["test"]["bss"], abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        path = write_cfg(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(path), "--out", str(out2)]) == 0
        for name in ("report.json", "history.csv", "checkpoint.npz"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_stop_reason_names_what_ended_the_run(self, tmp_path):
        def run(name, epochs, patience):
            out = tmp_path / name
            path = write_cfg(tmp_path, {"train": {"epochs": epochs, "early_stop_patience": patience},
                                        "output_dir": str(out)}, name=f"{name}.json")
            assert main(["train", "--config", str(path)]) == 0
            return json.loads((out / "report.json").read_text())

        full = run("full", 6, 6)
        assert (full["stop_reason"], full["epochs_run"]) == ("epochs", 6)
        early = run("early", 40, 0)
        assert early["stop_reason"] == "patience" and early["epochs_run"] < 40
        # stopped by patience in its last epoch: epochs_run alone would read as every epoch run
        last = run("last", early["epochs_run"], 0)
        assert (last["stop_reason"], last["epochs_run"]) == ("patience", early["epochs_run"])

    def test_variant_flag_changes_run(self, tmp_path):
        out = tmp_path / "b"
        path = write_cfg(tmp_path, {"output_dir": str(out)})
        assert main(["train", "--config", str(path), "--variant", "base"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["variant"] == "base"
        assert report["cost_at_best"] is None

    def test_temperature_section(self, tmp_path):
        out = tmp_path / "t"
        path = write_cfg(tmp_path, {"metrics": {"temperature_scaling": True}, "output_dir": str(out)})
        assert main(["train", "--config", str(path)]) == 0
        report = json.loads((out / "report.json").read_text())
        entry = report["temperature_scaling"]
        assert entry["val_nll_after"] <= entry["val_nll_before"] + 1e-12
        assert set(entry["test"]) == set(report["test"]) and "auc_roc" in entry["test"]

    def test_temperature_section_on_multiclass_data_scores_the_test_split(self, tmp_path):
        # the scaled test probabilities get the same one-vs-rest report as the unscaled ones
        out = tmp_path / "t"
        cfg = {"dataset": {"csv": {"path": str(write_multiclass_csv(tmp_path / "d.csv", n_rows=300, dim=4))}},
               "train": {"epochs": 3, "batch_size": 16, "variant": "decoupling"},
               "metrics": {"temperature_scaling": True},
               "output_dir": str(out)}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "c.json")]) == 0
        report = json.loads((out / "report.json").read_text())
        entry = report["temperature_scaling"]
        assert set(entry) == {"temperature", "val_nll_before", "val_nll_after", "test"}
        assert set(entry["test"]) == {"macro_auc", "micro_auc", "n"} and entry["test"]["n"] == report["test"]["n"]

    def test_a_zero_split_fraction_exits_one_before_training(self, tmp_path, capsys, monkeypatch):
        # an empty test split used to train every epoch and then fail on its empty scored set, naming no key
        monkeypatch.setattr("denshift.cli.train", lambda *args: pytest.fail("training ran"))
        out = tmp_path / "zero"
        path = write_cfg(tmp_path, {"split": {"fractions": [0.9, 0.1, 0.0]}, "output_dir": str(out)})
        assert main(["train", "--config", str(path)]) == 1
        assert "split.fractions must be a list of 3 items, each a finite number > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_source_end_to_end(self, tmp_path):
        gen = tmp_path / "gen"
        gen_cfg = write_cfg(tmp_path, {"output_dir": str(gen)})
        assert main(["gen-data", "--config", str(gen_cfg)]) == 0
        # concatenate splits back into one file for CSV ingestion
        header, *rows = (gen / "train.csv").read_text().strip().splitlines()
        for name in ("val", "test"):
            rows += (gen / f"{name}.csv").read_text().strip().splitlines()[1:]
        src = tmp_path / "all.csv"
        src.write_text("\n".join([header] + rows) + "\n")
        out = tmp_path / "csvrun"
        cfg = {"dataset": {"csv": {"path": str(src), "label_column": "label"}},
               "train": TINY["train"], "output_dir": str(out)}
        cfg_path = tmp_path / "csvcfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (out / "report.json").exists()


class TestEval:
    def test_eval_closes_loop_with_train(self, tmp_path):
        run = tmp_path / "run"
        path = write_cfg(tmp_path, {"output_dir": str(run)})
        assert main(["train", "--config", str(path)]) == 0
        gen = tmp_path / "gen"
        assert main(["gen-data", "--config", str(path), "--out", str(gen)]) == 0

        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                     "--csv", str(gen / "test.csv"), "--out", str(out), "--bins", "7"]) == 0
        report = json.loads((out / "report.json").read_text())
        train_report = json.loads((run / "report.json").read_text())
        for key in ("auc_roc", "auc_prc", "brier", "bss"):
            assert report["metrics"][key] == pytest.approx(train_report["test"][key], abs=1e-12)

        pred_rows = (out / "predictions.csv").read_text().strip().splitlines()
        n_csv = len((gen / "test.csv").read_text().strip().splitlines()) - 1
        assert len(pred_rows) - 1 == n_csv
        cal_rows = (out / "calibration.csv").read_text().strip().splitlines()
        assert len(cal_rows) - 1 == 7

        # the dump closes the loop: recomputing from it reproduces the report exactly
        scores = np.array([float(r.split(",")[0]) for r in pred_rows[1:]])
        labels = np.array([int(r.split(",")[1]) for r in pred_rows[1:]])
        scored = ScoredSet(scores, labels)
        assert auc_roc(scored) == report["metrics"]["auc_roc"]
        assert bss(scored) == pytest.approx(report["metrics"]["bss"], abs=1e-15)

    def test_a_format_1_or_2_checkpoint_or_an_unknown_metadata_key_exits_one(self, trained_run, tmp_path, capsys):
        # format 1 stored one array per layer and recorded n_backbone and normalize_balanced; format 2 stored
        # norm_impute and norm_constant beside norm_mean and norm_std; format 3 reads none of them
        checkpoint, csv = trained_run
        with np.load(checkpoint) as blob:
            arrays = {k: blob[k] for k in blob.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        views = init_mlp(6, seed=0)  # the TINY layer widths, whose views name format 1's arrays
        views.vector[:] = arrays.pop("params")
        layers = [f"backbone_{i}" for i in range(len(views.backbone))] + ["head_regular", "head_balanced"]
        version_1 = dict(arrays, **dict(zip([f"{layer}_{k}" for layer in layers for k in "Wb"], views.flat())))
        version_2 = dict(arrays, params=views.vector, norm_impute=arrays["norm_mean"],
                         norm_constant=arrays["norm_std"] == 1.0)
        cases = {  # name -> (metadata, arrays, the message that refuses it)
            "version_1": ({k: v for k, v in meta.items() if k != "widths"} | {
                "version": "denshift-checkpoint-1", "n_backbone": 3, "normalize_balanced": False}, version_1,
                "unsupported checkpoint version 'denshift-checkpoint-1'"),
            "version_2": (dict(meta, version="denshift-checkpoint-2"), version_2,
                          "unsupported checkpoint version 'denshift-checkpoint-2'"),
            "normalize_balanced": (dict(meta, normalize_balanced=True), dict(arrays, params=views.vector),
                                   "unknown metadata key 'normalize_balanced'"),
        }
        for name, (edited, members, message) in cases.items():
            bad, out = tmp_path / f"{name}.npz", tmp_path / f"eval_{name}"
            np.savez(bad, **dict(members, __meta__=np.frombuffer(json.dumps(edited).encode("utf-8"), dtype=np.uint8)))
            assert main(["eval", "--checkpoint", str(bad), "--csv", str(csv), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert f"checkpoint {bad}: {message}" in err and err.count("\n") == 1
            assert "Traceback" not in err
            assert not out.exists()

    def test_checkpoint_with_a_missing_key_or_a_bad_array_exits_one(self, tmp_path, capsys):
        run, gen = tmp_path / "run", tmp_path / "gen"
        path = write_cfg(tmp_path, {"output_dir": str(run)})
        assert main(["train", "--config", str(path)]) == 0
        assert main(["gen-data", "--config", str(path), "--out", str(gen)]) == 0
        with np.load(run / "checkpoint.npz") as blob:
            arrays = {k: blob[k] for k in blob.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        del meta["resid_span"]
        no_span = dict(arrays, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8))
        np.savez(tmp_path / "no_span.npz", **no_span)
        np.savez(tmp_path / "short_params.npz", **dict(arrays, params=arrays["params"][:-1]))
        np.savez(tmp_path / "no_params.npz", **{k: v for k, v in arrays.items() if k != "params"})
        (tmp_path / "text.npz").write_text("hello\n")  # 6 bytes, no archive
        np.savez(tmp_path / "meta_not_json.npz", **dict(arrays, __meta__=np.frombuffer(b"{oops", dtype=np.uint8)))
        meta = dict(meta, resid_span=None, extra=["variant"])
        np.savez(tmp_path / "extra_list.npz",
                 **dict(arrays, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)))
        np.savez(tmp_path / "complex_params.npz", **dict(arrays, params=arrays["params"] + 0j))
        np.savez(tmp_path / "text_std.npz", **dict(arrays, norm_std=arrays["norm_std"].astype(str)))
        blob = (run / "checkpoint.npz").read_bytes()
        central = blob.index(b"PK\x01\x02")
        header_dict = blob.index(b"\x93NUMPY", blob.index(b"params.npy")) + 10
        assert blob[:4] == b"PK\x03\x04" and blob[header_dict:header_dict + 1] == b"{"
        byte_edits = {  # name -> {offset: the byte written there}
            "zip_version_85": {central + 6: 85},  # the first central-directory header's "version needed"
            "method_99": {8: 99, central + 10: 99},  # the first member's compression method, local and central
            "extra_length": {28: 255, 29: 255},  # the first local header's extra-field length: its data runs off
            "header_quote": {header_dict: ord("'")},  # the quote opens a string the .npy header never closes
        }
        for name, edits in byte_edits.items():
            edited = bytearray(blob)
            for offset, value in edits.items():
                edited[offset] = value
            (tmp_path / f"{name}.npz").write_bytes(bytes(edited))
        first = np.arange(arrays["norm_std"].size) == 0  # the first of 6 features
        bad_norm = {  # name -> (the arrays it replaces, the message that refuses it)
            "std_3": ({"norm_std": arrays["norm_std"][:3]}, "the array 'norm_std' holds float64 of shape (3,), "
                      "need shape (6,)"),
            "impute_member": ({"norm_impute": arrays["norm_mean"]}, "unknown array 'norm_impute'"),
            "mean_2d": ({"norm_mean": arrays["norm_mean"][None]}, "the array 'norm_mean' holds float64 of shape "
                        "(1, 6), need shape (6,)"),
            "std_nan": ({"norm_std": np.where(first, np.nan, arrays["norm_std"])},
                        "the array 'norm_std' holds a NaN or an inf"),
            "params_nan": ({"params": np.full_like(arrays["params"], np.nan)},
                           "the array 'params' holds a NaN or an inf"),
            "params_inf": ({"params": np.where(np.arange(arrays["params"].size) == 0, np.inf, arrays["params"])},
                           "the array 'params' holds a NaN or an inf"),
            "mean_inf": ({"norm_mean": np.where(first, np.inf, arrays["norm_mean"])},
                         "the array 'norm_mean' holds a NaN or an inf"),
            "std_zero": ({"norm_std": np.where(first, 0.0, arrays["norm_std"])},
                         "the array 'norm_std': stddev entries must be > 0"),
        }
        for name, (edit, _) in bad_norm.items():
            np.savez(tmp_path / f"{name}.npz", **dict(arrays, **edit))
        for name, message in (*((name, message) for name, (_, message) in bad_norm.items()),
                              ("no_span", "metadata lacks the key 'resid_span'"),
                              ("short_params", f"the array 'params': the vector has shape "
                                                f"({arrays['params'].size - 1},), the layer widths need "
                                                f"({arrays['params'].size},)"),
                              ("no_params", "missing the array 'params'"), ("text", "not a readable .npz archive"),
                              ("meta_not_json", "the array '__meta__' is not a JSON object"),
                              ("extra_list", "metadata key 'extra' must be a JSON object, got ['variant']"),
                              ("complex_params", "the array 'params' holds complex128"),
                              ("text_std", "the array 'norm_std' holds <U"),
                              ("zip_version_85", "not a readable .npz archive (zip file version 8.5)"),
                              ("method_99", "not a readable .npz archive (That compression method is not supported)"),
                              ("extra_length", "not a readable .npz archive (a member ends early)"),
                              ("header_quote", "not a readable .npz archive (")):
            out = tmp_path / f"eval_{name}"
            code = main(["eval", "--checkpoint", str(tmp_path / f"{name}.npz"), "--csv", str(gen / "test.csv"),
                         "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert f"checkpoint {tmp_path / name}.npz: {message}" in err and err.count("\n") == 1
            assert "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("trained_heads", 5), ("trained_heads", "balanced"), ("trained_heads", ["regular", "oops"]),
        ("trained_heads", ["regular", "regular"]), ("trained_heads", []),
        ("widths", [6, 28, 0, 28, 2]), ("widths", [6, 28, True, 28, 2]), ("widths", [6, 28, "28", 28, 2]),
        ("widths", [6, 2]), ("widths", [5, 28, 28, 28, 2]), ("widths", [6, 28, 28, 28, 3]), ("resid_span", [1.5, 2]),
    ])
    def test_bad_metadata_value_exits_one_naming_file_and_key(self, trained_run, tmp_path, capsys, key, value):
        checkpoint, csv = trained_run
        with np.load(checkpoint) as blob:
            arrays = {k: blob[k] for k in blob.files}
        meta = dict(json.loads(bytes(arrays["__meta__"]).decode("utf-8")), **{key: value})
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        bad, out = tmp_path / "bad.npz", tmp_path / "eval"
        np.savez(bad, **arrays)
        assert main(["eval", "--checkpoint", str(bad), "--csv", str(csv), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"checkpoint {bad}: metadata key '{key}' must be " in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_huge_layer_width_is_refused_by_arithmetic(self, trained_run, tmp_path, capsys):
        # a 2**40-wide layer would need terabytes; the size check sums the widths' products and builds no layer
        checkpoint, csv = trained_run
        with np.load(checkpoint) as blob:
            arrays = {k: blob[k] for k in blob.files}
        meta = dict(json.loads(bytes(arrays["__meta__"]).decode("utf-8")), widths=[6, 28, 2**40, 28, 2])
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        bad, out = tmp_path / "bad.npz", tmp_path / "eval"
        np.savez(bad, **arrays)
        need = 7 * 28 + 29 * 2**40 + (2**40 + 1) * 28 + 2 * 29 * 2
        message = f"checkpoint {bad}: the array 'params': the vector has shape ({arrays['params'].size},), " \
                  f"the layer widths need ({need},)"
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=re.escape(message)):
                load_checkpoint(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert main(["eval", "--checkpoint", str(bad), "--csv", str(csv), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_an_unknown_member_is_refused_unread(self, trained_run, tmp_path, capsys):
        # 100 MB of zeros deflate to about 100 KB; the reader must refuse the member without inflating it
        checkpoint, csv = trained_run
        with np.load(checkpoint) as blob:
            arrays = {k: blob[k] for k in blob.files}
        bad, out = tmp_path / "bad.npz", tmp_path / "eval"
        np.savez_compressed(bad, junk=np.zeros(100_000_000, dtype=np.uint8), **arrays)
        assert bad.stat().st_size < 200_000
        message = f"checkpoint {bad}: unknown array 'junk'"
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=re.escape(message)):
                load_checkpoint(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert main(["eval", "--checkpoint", str(bad), "--csv", str(csv), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_eval_on_separable_toy_training_split(self, tmp_path):
        cfg = {
            "dataset": {"synthetic": {"n_majority": 270, "n_minority": 30, "n_minority_modes": 1,
                                      "dim": 6, "mode_spread": 10.0, "minority_scale": 1.0, "seed": 1}},
            "train": {"epochs": 60, "batch_size": 32, "early_stop_patience": 60},
            "output_dir": str(tmp_path / "run"),
        }
        path = tmp_path / "sep.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 0
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "gen")]) == 0
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                     "--csv", str(tmp_path / "gen" / "train.csv"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["auc_roc"] > 0.99

    def test_eval_schema_mismatch_names_columns(self, tmp_path, capsys):
        run = tmp_path / "run"
        path = write_cfg(tmp_path, {"output_dir": str(run)})
        assert main(["train", "--config", str(path)]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,label\n1.0,majority\n2.0,minority\n")
        code = main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                     "--csv", str(bad), "--out", str(tmp_path / "e")])
        assert code == 1
        assert "wrong" in capsys.readouterr().err

    @pytest.mark.parametrize("order, fresh, message", [
        ([5, 0, 1, 2, 3, 4, 6], True,
         "feature columns do not match checkpoint (feature column 1 is 'f5', the checkpoint expects 'f0')"),
        ([0, 1, 2, 3, 4, 5, 5, 6], True,
         "feature columns do not match checkpoint (missing [], unexpected ['f5_copy'])"),
        ([0, 1, 2, 3, 4, 5, 5, 6], False, "column 'f5' appears more than once in the header"),
    ])
    def test_reordered_columns_name_the_first_position_that_differs(self, trained_run, tmp_path, capsys,
                                                                    order, fresh, message):
        checkpoint, test_csv = trained_run
        rows = [[line.split(",")[i] for i in order] for line in test_csv.read_text(encoding="utf-8").splitlines()]
        if fresh:  # a column added under a name of its own
            rows[0] = [f"{name}_copy" if name in rows[0][:k] else name for k, name in enumerate(rows[0])]
        moved, out = tmp_path / "moved.csv", tmp_path / "e"
        moved.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        assert main(["eval", "--checkpoint", str(checkpoint), "--csv", str(moved), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {moved}: {message}\n"
        assert not out.exists()

    def test_a_checkpoint_that_repeats_a_feature_name_exits_one_naming_the_file(self, trained_run, tmp_path, capsys):
        # load_csv refuses a repeated column name, and load_checkpoint a repeated feature name
        checkpoint, csv = trained_run
        with np.load(checkpoint) as blob:
            arrays = {k: blob[k] for k in blob.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        meta["feature_names"][2] = meta["feature_names"][4]
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        bad, out = tmp_path / "bad.npz", tmp_path / "eval"
        np.savez(bad, **arrays)
        assert main(["eval", "--checkpoint", str(bad), "--csv", str(csv), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: checkpoint {bad}: metadata key 'feature_names' repeats the name " \
                                          f"'{meta['feature_names'][4]}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("mutated, count", [("checkpoint", 1000), ("csv", 400)])
    def test_mutated_bytes_exit_zero_one_or_two_with_at_most_one_stderr_line(self, trained_run, tmp_path,
                                                                              mutated, count):
        # 1-3 random bytes of a trained checkpoint or of its test CSV, at a fixed seed: eval raises nothing
        checkpoint, csv = trained_run
        files = {"checkpoint": checkpoint, "csv": csv}
        original, files[mutated] = files[mutated].read_bytes(), tmp_path / files[mutated].name
        argv = ["eval", "--checkpoint", str(files["checkpoint"]), "--csv", str(files["csv"]),
                "--out", str(tmp_path / "eval")]
        rng = np.random.default_rng(3)
        for i in range(count):
            edited = bytearray(original)
            for _ in range(rng.integers(1, 4)):
                edited[rng.integers(len(edited))] = rng.integers(256)
            files[mutated].write_bytes(bytes(edited))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2) and err.getvalue().count("\n") <= 1, (i, code, err.getvalue())

    @pytest.mark.parametrize("bad_row, message", [
        (b"1." + b"0" * 131072 + b",0,0,0,0,0,majority", "row 2: field larger than field limit (131072)"),
        (b"1,0,0,0,0,0,minorit\xe9", "row 2: byte 0xe9 is not UTF-8"),
    ], ids=["field-limit", "latin-1"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_csv_the_csv_module_cannot_read_exits_one_naming_the_row(self, trained_run, tmp_path, capsys,
                                                                       command, bad_row, message):
        checkpoint, test_csv = trained_run
        lines = test_csv.read_bytes().splitlines()
        lines[2] = bad_row
        bad, out = tmp_path / "bad.csv", tmp_path / "out"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        if command == "train":
            (tmp_path / "c.json").write_text(json.dumps({"dataset": {"csv": {"path": str(bad)}}}))
            argv = ["train", "--config", str(tmp_path / "c.json")]
        else:
            argv = ["eval", "--checkpoint", str(checkpoint), "--csv", str(bad)]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    def test_label_column_flag_names_the_eval_files_label(self, tmp_path, capsys):
        run = tmp_path / "run"
        cfg = {"dataset": {"csv": {"path": str(write_multiclass_csv(tmp_path / "d.csv", label_column="outcome")),
                                   "label_column": "outcome"}},
               "train": {"epochs": 2, "batch_size": 16}, "output_dir": str(run)}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "c.json"), "--variant", "base"]) == 0
        renamed = write_multiclass_csv(tmp_path / "e.csv", label_column="y")
        argv = ["eval", "--checkpoint", str(run / "checkpoint.npz"), "--csv", str(renamed)]
        assert main(argv + ["--out", str(tmp_path / "ok"), "--label-column", "y"]) == 0
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "missing")]) == 1
        assert "'outcome'" in capsys.readouterr().err

    def test_non_finite_multiclass_predictions_exit_two_and_write_nothing(self, tmp_path, capsys):
        src = write_multiclass_csv(tmp_path / "d.csv", n_rows=300, dim=4)
        run, out = tmp_path / "run", tmp_path / "eval"
        cfg = {"dataset": {"csv": {"path": str(src)}}, "train": {"epochs": 3, "batch_size": 16},
               "output_dir": str(run)}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "c.json"), "--variant", "decoupling"]) == 0
        header, *rows = src.read_text().splitlines()
        huge = tmp_path / "huge.csv"
        huge.write_text("\n".join([header, "1.7e308,-1.7e308,1.7e308,-1.7e308,x"] + rows) + "\n")
        with np.errstate(all="ignore"):
            code = main(["eval", "--checkpoint", str(run / "checkpoint.npz"), "--csv", str(huge),
                         "--out", str(out)])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert list(out.glob("*")) == []

    def test_a_csv_without_rows_of_a_checkpoint_class_is_exit_one_naming_file_and_class(self, tmp_path, capsys):
        src = write_multiclass_csv(tmp_path / "d.csv")
        run, out = tmp_path / "run", tmp_path / "eval"
        (tmp_path / "c.json").write_text(json.dumps({"dataset": {"csv": {"path": str(src)}},
                                                     "train": {"epochs": 1, "batch_size": 16},
                                                     "output_dir": str(run)}))
        assert main(["train", "--config", str(tmp_path / "c.json"), "--variant", "decoupling"]) == 0
        lines = src.read_text().splitlines()
        no_z = tmp_path / "no_z.csv"
        no_z.write_text("\n".join(line for line in lines if not line.endswith(",z")) + "\n")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint.npz"), "--csv", str(no_z),
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {no_z}: no rows of checkpoint classes ['z']\n")
        assert not out.exists()


class TestResultFiles:
    def test_binary_history_and_predictions_read_back_as_the_report(self, tmp_path):
        for variant, empty in (("base", [False, True, False, False, True, True]),
                               ("cost", [False, True, False, False, False, False]), ("full", [False] * 6)):
            out = tmp_path / variant
            path = write_cfg(tmp_path, {"output_dir": str(out)})
            assert main(["train", "--config", str(path), "--variant", variant]) == 0
            report = json.loads((out / "report.json").read_text())
            header, rows = read_table(out / "history.csv")
            assert header == HISTORY_HEADER
            assert [row[0] for row in rows] == [str(e) for e in range(report["epochs_run"])]
            assert all([cell == "" for cell in row[1:]] == empty for row in rows), variant
            if variant == "base":
                assert report["cost_at_best"] is None
            else:
                best = rows[report["best_epoch"]]
                assert [float(c).hex() for c in best[5:]] == [c.hex() for c in report["cost_at_best"]]

            header, rows = read_table(out / "predictions_test.csv")
            assert header == "score,label"
            scored = ScoredSet([float(r[0]) for r in rows], [int(r[1]) for r in rows])
            for key, metric in (("auc_roc", auc_roc), ("auc_prc", auc_prc), ("bss", bss)):
                assert metric(scored) == report["test"][key], (variant, key)

    def test_multiclass_history_and_predictions(self, tmp_path):
        src = write_multiclass_csv(tmp_path / "d.csv")
        run, out = tmp_path / "run", tmp_path / "eval"
        cfg = {"dataset": {"csv": {"path": str(src)}}, "train": {"epochs": 3, "batch_size": 16},
               "output_dir": str(run)}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "c.json"), "--variant", "decoupling"]) == 0
        header, rows = read_table(run / "history.csv")
        assert header == HISTORY_HEADER and len(rows) == 3
        assert all([cell == "" for cell in row[1:]] == [False, False, False, True, True, True] for row in rows)
        header, rows = read_table(run / "predictions_test.csv")  # written as eval writes predictions.csv
        assert header == "p0,p1,p2,label" and len(rows) == 9  # 3 of each class's 30 rows are test rows
        probs = np.array([[float(c) for c in row[:3]] for row in rows])
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        report = json.loads((run / "report.json").read_text())
        assert split_report(probs, [int(row[3]) for row in rows]) == report["test"]

        assert main(["eval", "--checkpoint", str(run / "checkpoint.npz"), "--csv", str(src),
                     "--out", str(out)]) == 0
        header, rows = read_table(out / "predictions.csv")
        assert header == "p0,p1,p2,label" and len(rows) == 90
        probs = np.array([[float(c) for c in row[:3]] for row in rows])
        labels = [int(row[3]) for row in rows]
        assert split_report(probs, labels) == json.loads((out / "report.json").read_text())["metrics"]

    def test_multiclass_train_prints_the_grid_table_metrics(self, tmp_path, capsys):
        src = write_multiclass_csv(tmp_path / "d.csv")
        (tmp_path / "c.json").write_text(json.dumps({"dataset": {"csv": {"path": str(src)}},
                                                     "train": {"epochs": 2, "batch_size": 16},
                                                     "output_dir": str(tmp_path / "run")}))
        assert main(["train", "--config", str(tmp_path / "c.json"), "--variant", "decoupling"]) == 0
        test = json.loads((tmp_path / "run" / "report.json").read_text())["test"]
        assert capsys.readouterr().out == \
            f"decoupling: test macro_auc={test['macro_auc']:.4f} micro_auc={test['micro_auc']:.4f}\n"


class TestOtherCommands:
    def test_ablate_table_shape(self, tmp_path):
        out = tmp_path / "abl"
        path = write_cfg(tmp_path, {"train": {"epochs": 2, "batch_size": 32},
                                    "ablation": {"seeds": [0, 1]}, "output_dir": str(out)})
        assert main(["ablate", "--config", str(path)]) == 0
        report = json.loads((out / "ablation.json").read_text())
        table = report["table"]
        assert report["skipped_variants"] == []
        assert_cells_match(out / "ablation.csv",
                           "variant,n_runs,auc_roc_mean,auc_roc_ci95,auc_prc_mean,auc_prc_ci95,bss_mean,bss_ci95",
                           [{"variant": v, **table[v]} for v in VARIANTS])

    def test_ablate_on_multiclass_csv_skips_cost_variants(self, tmp_path):
        write_multiclass_csv(tmp_path / "d.csv")
        out = tmp_path / "abl"
        cfg = {"dataset": {"csv": {"path": str(tmp_path / "d.csv")}},
               "train": {"epochs": 2, "batch_size": 16}, "ablation": {"seeds": [0, 1]},
               "output_dir": str(out)}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["ablate", "--config", str(tmp_path / "c.json")]) == 0
        report = json.loads((out / "ablation.json").read_text())
        table = report["table"]
        assert sorted(table) == ["base", "dah", "decoupling", "focal"]
        assert report["skipped_variants"] == ["cost", "full"]
        for row in table.values():
            assert not any(key.startswith("auc_roc") for key in row)
            assert row["n_runs"] == 2 and len(row["macro_auc_per_seed"]) == 2
            assert 0.0 <= row["micro_auc_mean"] <= 1.0
        assert_cells_match(out / "ablation.csv",
                           "variant,n_runs,macro_auc_mean,macro_auc_ci95,micro_auc_mean,micro_auc_ci95",
                           [{"variant": v, **table[v]} for v in ("base", "decoupling", "dah", "focal")])

    def test_sweep_table_rows(self, tmp_path):
        out = tmp_path / "sw"
        path = write_cfg(tmp_path, {"train": {"epochs": 2, "batch_size": 32, "variant": "cost"},
                                    "sweep": {"theta_grid": [1, 5, 10, 25, 50, 100],
                                              "seeds": [0, 1, 2]},
                                    "output_dir": str(out)})
        assert main(["sweep-theta", "--config", str(path)]) == 0
        rows = json.loads((out / "sweep_theta.json").read_text())["rows"]
        assert [row["theta"] for row in rows] == [1.0, 5.0, 10.0, 25.0, 50.0, 100.0]
        assert_cells_match(out / "sweep_theta.csv",
                           "theta,n_runs,auc_roc_mean,auc_roc_ci95,auc_prc_mean,auc_prc_ci95,bss_mean,bss_ci95", rows)
        for row in rows:  # the per-seed values each mean is taken over, as ablation.json keeps them
            for metric in ("auc_roc", "auc_prc", "bss"):
                assert len(row[f"{metric}_per_seed"]) == 3
                assert row[f"{metric}_mean"] == np.mean(row[f"{metric}_per_seed"])

    def test_one_seed_sweep_writes_null_intervals(self, tmp_path):
        out = tmp_path / "sw"
        path = write_cfg(tmp_path, {"train": {"epochs": 2, "batch_size": 32, "variant": "cost"},
                                    "sweep": {"theta_grid": [1, 5], "seeds": [0]}, "output_dir": str(out)})
        assert main(["sweep-theta", "--config", str(path)]) == 0
        rows = json.loads((out / "sweep_theta.json").read_text())["rows"]
        assert [(row["n_runs"], row["auc_roc_ci95"], row["auc_prc_ci95"], row["bss_ci95"])
                for row in rows] == [(1, None, None, None)] * 2
        assert_cells_match(out / "sweep_theta.csv",
                           "theta,n_runs,auc_roc_mean,auc_roc_ci95,auc_prc_mean,auc_prc_ci95,bss_mean,bss_ci95", rows)

    @pytest.mark.parametrize("command, key, rows", [
        ("ablate", "variant", lambda report: [{"variant": v, **report["table"][v]} for v in VARIANTS]),
        ("sweep-theta", "theta", lambda report: report["rows"])])
    def test_grid_commands_print_one_line_per_row(self, tmp_path, capsys, command, key, rows):
        out = tmp_path / "grid"
        path = write_cfg(tmp_path, {"train": {"epochs": 1, "batch_size": 32, "variant": "cost"},
                                    "ablation": {"seeds": [0]}, "sweep": {"theta_grid": [1, 5], "seeds": [0]},
                                    "output_dir": str(out)})
        assert main([command, "--config", str(path)]) == 0
        report = json.loads(next(out.glob("*.json")).read_text())
        expected = [f"{key}={row[key]} auc_roc={row['auc_roc_mean']:.4f} auc_prc={row['auc_prc_mean']:.4f} "
                    f"bss={row['bss_mean']:.4f}" for row in rows(report)]
        assert capsys.readouterr().out.splitlines() == expected
        assert len(expected) == {"ablate": len(VARIANTS), "sweep-theta": 2}[command]

    @pytest.mark.parametrize("command, section, key", [("ablate", "ablation", "seeds"),
                                                      ("sweep-theta", "sweep", "theta_grid")])
    def test_empty_seed_or_grid_list_is_exit_one_and_writes_nothing(self, tmp_path, capsys,
                                                                    command, section, key):
        out = tmp_path / "empty"
        path = write_cfg(tmp_path, {"train": {"epochs": 1, "variant": "cost"}, section: {key: []},
                                    "output_dir": str(out)})
        assert main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert f"{section}.{key}" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, section, seeds", [("ablate", "ablation", [0, 0]),
                                                        ("sweep-theta", "sweep", [0, 1, 0])])
    def test_repeated_seed_is_exit_one_and_writes_nothing(self, tmp_path, capsys, command, section, seeds):
        out = tmp_path / "repeat"
        path = write_cfg(tmp_path, {"train": {"epochs": 1, "variant": "cost"}, section: {"seeds": seeds},
                                    "output_dir": str(out)})
        assert main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert "seed 0 appears more than once" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "gen-data", "ablate", "sweep-theta"])
    @pytest.mark.parametrize("section, value, message", [
        ("split", {"fractions": [0.5, 0.5, 0.5]}, "split.fractions must be a list of 3 items"),
        ("dataset", {"synthetic": {"n_majority": 10, "n_minority": 20}},
         "dataset.synthetic needs n_majority >= n_minority >= n_minority_modes, got 10, 20, 3")])
    def test_keys_that_conflict_are_exit_one_naming_their_key(self, tmp_path, capsys, command, section, value,
                                                                message):
        out = tmp_path / "conflict"
        path = write_cfg(tmp_path, {"train": {"epochs": 1, "variant": "cost"}, section: value,
                                    "output_dir": str(out)})
        assert main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "gen-data"])
    def test_a_class_too_small_to_reach_every_split_is_exit_one_and_writes_nothing(self, tmp_path, capsys, command):
        # 5 minority rows at (0.8, 0.1, 0.1) allocate 4/1/0: the test split would hold no minority row
        out = tmp_path / "small"
        path = write_cfg(tmp_path, {"dataset": {"synthetic": dict(TINY["dataset"]["synthetic"], n_minority=5)},
                                    "output_dir": str(out)})
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: class 'minority' has 5 rows: the test split gets none of them "
                                           "at fractions [0.8, 0.1, 0.1]\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, csv, message", [
        ("train", {"label_column": "label"}, "error: dataset.csv needs a path"),
        ("gen-data", {"path": "data.csv"}, "error: gen-data needs a synthetic dataset source"),
    ])
    def test_a_csv_source_the_command_cannot_read_is_exit_one_naming_it(self, tmp_path, capsys, command, csv,
                                                                       message):
        out = tmp_path / "csv_source"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": {"csv": csv}, "output_dir": str(out)}), encoding="utf-8")
        assert main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == message + "\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate", "sweep-theta"])
    def test_removed_normalize_balanced_key_is_exit_one(self, tmp_path, capsys, command):
        out = tmp_path / "norm"
        path = write_cfg(tmp_path, {"train": {"epochs": 1, "variant": "cost", "normalize_balanced": False},
                                    "output_dir": str(out)})
        assert main([command, "--config", str(path)]) == 1
        assert "unknown config key 'train.normalize_balanced'" in capsys.readouterr().err
        assert not out.exists()

    def test_grad_check_exits_zero(self, capsys):
        assert main(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert "worst=" in out
        for probe in ("ce", "focal", "dah_softmax", "cost_loss", "decoupling", "full"):
            assert f" {probe} " in out, probe

    def test_missing_config_is_exit_one(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 1

    def test_default_benchmark_config_trains_within_budget(self, tmp_path):
        import time

        t0 = time.perf_counter()
        assert main(["train", "--out", str(tmp_path / "bench")]) == 0
        assert time.perf_counter() - t0 < 300.0
        report = json.loads((tmp_path / "bench" / "report.json").read_text())
        assert report["variant"] == "full"
        assert report["test"]["auc_roc"] > 0.7

    def test_bad_variant_is_exit_one(self, tmp_path):
        path = write_cfg(tmp_path)
        assert main(["train", "--config", str(path), "--variant", "nonsense"]) == 1

    def test_nonpositive_learning_rate_is_exit_one(self, tmp_path, capsys):
        out = tmp_path / "neg"
        path = write_cfg(tmp_path, {"train": {"learning_rate": -1}, "output_dir": str(out)})
        assert main(["train", "--config", str(path)]) == 1
        assert "learning_rate" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("field, value", [("theta", 0), ("q_regular", 2), ("hidden", 0)])
    def test_bad_train_field_is_exit_one_naming_it(self, tmp_path, capsys, field, value):
        out = tmp_path / "bad"
        path = write_cfg(tmp_path, {"train": {field: value}, "output_dir": str(out)})
        assert main(["train", "--config", str(path), "--variant", "base"]) == 1
        assert field in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_numeric_overflow_is_exit_two(self, tmp_path, capsys):
        out = tmp_path / "blowup"
        path = write_cfg(tmp_path, {"train": {"optimizer": "sgd", "learning_rate": 1000},
                                    "output_dir": str(out)})
        assert main(["train", "--config", str(path), "--variant", "full"]) == 2
        err = capsys.readouterr().err
        assert "overflow" in err and "epoch" in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("learning_rate, code", [(10, 2), (1, 0)])
    def test_a_model_that_saturates_every_validation_row_is_exit_two(self, tmp_path, capsys, learning_rate, code):
        # adam at learning rate 10 is certain of every validation row at its best epoch; at 1 only of some
        out = tmp_path / "run"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"epochs": 30, "early_stop_patience": 5, "learning_rate": learning_rate},
                                    "output_dir": str(out)}))
        assert main(["train", "--config", str(path)]) == code
        assert ("saturates every validation row: a top probability of 1" in capsys.readouterr().err) == (code == 2)
        assert (out / "report.json").exists() == (code == 0)

    def test_cost_underflow_is_exit_two(self, tmp_path, capsys):
        # plain SGD at learning rate 30 drives log_cfp below -745, where exp(log_cfp) is 0.0
        out = tmp_path / "underflow"
        path = write_cfg(tmp_path, {"train": {"optimizer": "sgd", "learning_rate": 30}, "output_dir": str(out)})
        assert main(["train", "--config", str(path), "--variant", "full"]) == 2
        err = capsys.readouterr().err
        assert "log_cfp=" in err and "c_fp=0.0" in err
        assert not (out / "report.json").exists()

    def test_invalid_thread_count_is_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DENSHIFT_THREADS", "abc")
        path = write_cfg(tmp_path, {"train": {"epochs": 1}, "ablation": {"seeds": [0]},
                                    "output_dir": str(tmp_path / "abl")})
        assert main(["ablate", "--config", str(path)]) == 1
        assert "DENSHIFT_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("env, expected", [(None, "cpus"), ("3", 3), ("0", 1)])
    def test_thread_count_defaults_to_usable_cpus(self, tmp_path, monkeypatch, env, expected):
        import os

        import denshift.cli as cli

        if env is None:
            monkeypatch.delenv("DENSHIFT_THREADS", raising=False)
            expected = len(os.sched_getaffinity(0))
        else:
            monkeypatch.setenv("DENSHIFT_THREADS", env)
        seen = []

        def recording(*args, max_workers=1, **kwargs):
            seen.append(max_workers)
            return {}

        monkeypatch.setattr(cli, "run_ablation", recording)
        path = write_cfg(tmp_path, {"ablation": {"seeds": [0]}, "output_dir": str(tmp_path / "abl")})
        assert main(["ablate", "--config", str(path)]) == 0
        assert seen == [expected]

    def test_label_column_flag_for_csv(self, tmp_path):
        src = tmp_path / "d.csv"
        rows = ["a,b,outcome"]
        rng = np.random.default_rng(0)
        for i in range(60):
            rows.append(f"{rng.normal()},{rng.normal() + (i % 3 == 0)},{'y' if i % 3 == 0 else 'n'}")
        src.write_text("\n".join(rows) + "\n")
        cfg = {"dataset": {"csv": {"path": str(src), "label_column": "WRONG"}},
               "train": {"epochs": 2, "batch_size": 16},
               "output_dir": str(tmp_path / "o")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 1  # wrong column: schema error
        assert main(["train", "--config", str(path), "--label-column", "outcome"]) == 0


# the values each config key refuses, key by key, as its rule is documented; the manifest keys refuse nothing
_INTS = {"dataset.synthetic.n_majority": 1, "dataset.synthetic.n_minority": 1, "dataset.synthetic.n_minority_modes": 1,
         "dataset.synthetic.dim": 1, "dataset.synthetic.seed": 0, "split.seed": 0, "train.epochs": 1,
         "train.batch_size": 1, "train.early_stop_patience": 0, "train.hidden": 1, "train.depth": 2, "train.seed": 0,
         "metrics.n_bins": 1}
_POSITIVE = ("dataset.synthetic.mode_spread", "dataset.synthetic.noise_scale", "dataset.synthetic.minority_scale",
             "train.learning_rate", "train.theta", "train.margin_scale")
_NON_NEGATIVE = ("train.offset", "train.gamma", "train.lambda_cost")
_PROBABILITIES = ("train.q_regular", "train.q_balanced")
_CHOICES = {"train.variant": VARIANTS, "train.optimizer": ("sgd", "adam"), "metrics.temperature_scaling": (False, True)}
_STRINGS = ("output_dir", "dataset.csv.path", "dataset.csv.label_column")
_SECTIONS = ("dataset", "dataset.synthetic", "dataset.csv", "split", "train", "metrics", "sweep", "ablation")
_WRONG_TYPE = st.one_of(st.text(max_size=4), st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_NON_FINITE = st.one_of(st.sampled_from([float("nan"), float("inf"), float("-inf")]),
                        st.integers(min_value=2**1024))  # an integer no float64 can hold
_NOT_INT = st.one_of(_WRONG_TYPE, st.booleans(), st.none(), st.floats())
_NEGATIVE = st.one_of(_WRONG_TYPE, st.booleans(), st.none(), st.floats(max_value=-1e-300), _NON_FINITE)
_NOT_POSITIVE = st.one_of(_WRONG_TYPE, st.booleans(), st.floats(max_value=0.0), _NON_FINITE)
_NOT_A_LIST = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


def _bad(keys, values):
    return st.tuples(st.sampled_from([tuple(k.split(".")) for k in keys]), values, st.just("{} must be"))


def _lookup(cfg: dict, dotted: str):
    for part in dotted.split("."):
        cfg = cfg[part]
    return cfg


def _unknown_key(section: str):
    known = {"": set(DEFAULT_CONFIG) | {"config_hash", "rows", "label_mapping"}, "dataset": {"synthetic", "csv"},
             "dataset.csv": {"path", "label_column"}}.get(section) or set(_lookup(DEFAULT_CONFIG, section))
    return st.text("abcdefghijklmnopqrstuvwxyz_.", min_size=1, max_size=8).filter(lambda k: k not in known).map(
        lambda k: ((*section.split("."), k) if section else (k,), 1, "unknown config key {!r}"))


_BAD_CONFIG = st.one_of(
    *[_bad([key], st.one_of(_NOT_INT, st.integers(max_value=low - 1))) for key, low in _INTS.items()],
    _bad(_POSITIVE, _NOT_POSITIVE),
    _bad(_NON_NEGATIVE, _NEGATIVE),
    _bad(_PROBABILITIES, st.one_of(_NEGATIVE, st.floats(min_value=1.0 + 1e-12))),
    *[_bad([key], st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=6), st.booleans()).filter(
        lambda v, ok=ok: not any(type(v) is type(c) and v == c for c in ok))) for key, ok in _CHOICES.items()],
    _bad(_STRINGS, st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.lists(st.text(), max_size=2))),
    _bad(["split.fractions"], st.one_of(
        _NOT_A_LIST, st.lists(st.just(0.5), min_size=0, max_size=5).filter(lambda v: len(v) != 3),
        st.tuples(_NEGATIVE, st.just(0.5), st.just(0.5)).map(list),
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda v: abs(sum(v) - 1.0) > 1e-9))),
    _bad(["sweep.theta_grid"], st.one_of(_NOT_A_LIST, st.just([]), st.lists(_NOT_POSITIVE, min_size=1, max_size=3))),
    _bad(["sweep.seeds", "ablation.seeds"], st.one_of(
        _NOT_A_LIST, st.just([]), st.lists(st.one_of(_NOT_INT, st.integers(max_value=-1)), min_size=1, max_size=3))),
    _bad(_SECTIONS, st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4), st.lists(st.integers()))),
    st.sampled_from(("",) + _SECTIONS).flatmap(_unknown_key),
)


@settings(max_examples=300, deadline=None)
@given(_BAD_CONFIG)
@example((("trian",), {"epochs": 1}, "unknown config key {!r}"))
@example((("metrics", "bins"), 3, "unknown config key {!r}"))
@example((("split", "sed"), 4, "unknown config key {!r}"))
@example((("dataset", "synthetic", "n_rows"), 300, "unknown config key {!r}"))
@example(((), {"train.epochs": 1}, "unknown config key 'train.epochs'"))  # the file nests sections, keys hold no dots
@example((("metrics", "temperature_scaling"), "yes", "{} must be"))
@example((("split", "seed"), -1, "{} must be"))
@example((("dataset", "synthetic", "dim"), "20", "{} must be"))
@example((("dataset", "synthetic", "mode_spread"), float("nan"), "{} must be"))
@example((("metrics", "n_bins"), 0, "{} must be"))
@example((("metrics", "n_bins"), 2.5, "{} must be"))
@example((("ablation", "seeds"), 3, "{} must be"))
@example((("split", "fractions"), ["a", 0.5, 0.5], "{} must be"))
@example((("split", "fractions"), [0.5, 0.5, 0.5], "{} must be"))
@example((("split", "fractions"), [0.0, 0.5, 0.5], "{} must be"))
@example((("dataset", "synthetic"), {"n_majority": 10, "n_minority": 20},
          "{} needs n_majority >= n_minority >= n_minority_modes, got 10, 20, 3"))
@example((("sweep", "theta_grid"), ["a"], "{} must be"))
@example((("dataset",), 5, "{} must be an object"))
@example((("train",), 5, "{} must be an object"))
@example(((), [1, 2], "a config must be an object"))
def test_bad_config_key_or_value_exits_one_naming_its_path(bad):
    parts, value, message = bad  # the key's path, one part per nested object
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = json.loads(json.dumps(TINY))
        cfg["output_dir"] = str(out)
        if not parts:
            cfg = value
        else:
            *parents, leaf = parts
            node = cfg
            for part in parents:
                node = node.setdefault(part, {})
            node[leaf] = value
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--config", str(config)])
        assert code == 1, (parts, value)
        assert message.format(".".join(parts)) in err.getvalue(), (parts, value, err.getvalue())
        assert not out.exists()


# each command's argv without optional flags, and the flags it reads or does not read, with a value
_ARGV = {"gen-data": ["gen-data"], "train": ["train"], "eval": ["eval", "--checkpoint", "c.npz", "--csv", "d.csv"],
         "ablate": ["ablate"], "sweep-theta": ["sweep-theta"], "grad-check": ["grad-check"]}
_VALUES = {"--config": "c.json", "--out": "o", "--seed": "3", "--variant": "base", "--label-column": "y",
           "--theta": "2.5", "--bins": "7"}
_READ = {"gen-data": ("--config", "--out"),
         "train": ("--config", "--out", "--seed", "--variant", "--label-column", "--theta", "--bins"),
         "eval": ("--config", "--out", "--label-column", "--bins"),
         "ablate": ("--config", "--out", "--label-column"),
         "sweep-theta": ("--config", "--out", "--variant", "--label-column"),
         "grad-check": ()}


class TestFlags:
    @pytest.mark.parametrize("command, flag", [(c, f) for c, flags in _READ.items() for f in flags])
    def test_a_flag_the_command_reads_is_accepted(self, command, flag):
        args = build_parser().parse_args(_ARGV[command] + [flag, _VALUES[flag]])
        assert str(getattr(args, flag[2:].replace("-", "_"))) == _VALUES[flag]

    @pytest.mark.parametrize("command, flag", [(c, f) for c in _READ for f in _VALUES if f not in _READ[c]])
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_ARGV[command] + [flag, _VALUES[flag]])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["train", "--bogus"], ["train", "--seed", "x"], ["eval"], ["nonsense"], []])
    def test_usage_error_exits_one_not_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage: denshift" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"], ["grad-check", "-h"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: denshift" in capsys.readouterr().out

    def test_the_benchmark_command_lines_parse(self):
        for argv in (["train", "--config", "c.json", "--out", "o"], ["gen-data", "--config", "c.json", "--out", "o"],
                     ["eval", "--checkpoint", "c.npz", "--csv", "d.csv", "--out", "o"]):
            assert build_parser().parse_args(argv).out == "o"


class TestConfigBytes:
    @pytest.mark.parametrize("command", [c for c, flags in _READ.items() if "--config" in flags])
    def test_a_config_byte_that_is_not_utf8_exits_one_naming_file_and_byte(self, tmp_path, capsys, command):
        bad, out = tmp_path / "bad.json", tmp_path / "out"
        bad.write_bytes(b'{"train": {"epochs": 2\xe9}}')
        assert main(_ARGV[command] + ["--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: byte 0xe9 is not UTF-8\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, seed", [("train", 0), ("ablate", 1), ("sweep-theta", 2), ("gen-data", 3)])
    def test_mutated_config_bytes_exit_zero_one_or_two_with_at_most_one_stderr_line(self, tmp_path, monkeypatch,
                                                                                    command, seed):
        # 1-3 random bytes of a tiny config at a fixed seed, as the checkpoint and CSV mutations do
        monkeypatch.setenv("DENSHIFT_THREADS", "1")
        original = json.dumps({
            "dataset": {"synthetic": {"n_majority": 40, "n_minority": 8, "n_minority_modes": 2, "dim": 3}},
            "train": {"epochs": 2, "batch_size": 8, "hidden": 4},
            "ablation": {"seeds": [0]}, "sweep": {"theta_grid": [1, 5], "seeds": [0]},
        }, separators=(",", ":")).encode()  # no spaces: a byte set to a digit cannot lengthen a number
        config = tmp_path / "cfg.json"
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        rng = np.random.default_rng(seed)
        for i in range(200):
            edited = bytearray(original)
            for _ in range(rng.integers(1, 4)):
                edited[rng.integers(len(edited))] = rng.integers(256)
            config.write_bytes(bytes(edited))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2) and err.getvalue().count("\n") <= 1, (i, code, err.getvalue())
