import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denshift.cli import DEFAULT_CONFIG, config_hash, load_config, main
from denshift.metrics import ScoredSet, auc_prc, auc_roc, bss, split_report
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
        from denshift.errors import ValidationError

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
        assert config_hash(load_config()) == "f6835e391cc8bb94"


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
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()

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
        entry = json.loads((out / "report.json").read_text())["temperature_scaling"]
        assert entry["val_nll_after"] <= entry["val_nll_before"] + 1e-12

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


class TestResultFiles:
    def test_binary_history_and_predictions_read_back_as_the_report(self, tmp_path):
        for variant, empty in (("base", [False, True, False, False, True, True]), ("full", [False] * 6)):
            out = tmp_path / variant
            path = write_cfg(tmp_path, {"output_dir": str(out)})
            assert main(["train", "--config", str(path), "--variant", variant]) == 0
            report = json.loads((out / "report.json").read_text())
            header, rows = read_table(out / "history.csv")
            assert header == HISTORY_HEADER
            assert [row[0] for row in rows] == [str(e) for e in range(report["epochs_run"])]
            assert all([cell == "" for cell in row[1:]] == empty for row in rows), variant
            if variant == "full":
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
        assert not (run / "predictions_test.csv").exists()

        assert main(["eval", "--checkpoint", str(run / "checkpoint.npz"), "--csv", str(src),
                     "--out", str(out)]) == 0
        header, rows = read_table(out / "predictions.csv")
        assert header == "p0,p1,p2,label" and len(rows) == 90
        probs = np.array([[float(c) for c in row[:3]] for row in rows])
        labels = [int(row[3]) for row in rows]
        assert split_report(probs, labels) == json.loads((out / "report.json").read_text())["metrics"]


class TestOtherCommands:
    def test_ablate_table_shape(self, tmp_path):
        out = tmp_path / "abl"
        path = write_cfg(tmp_path, {"train": {"epochs": 2, "batch_size": 32},
                                    "ablation": {"seeds": [0, 1]}, "output_dir": str(out)})
        assert main(["ablate", "--config", str(path)]) == 0
        table = json.loads((out / "ablation.json").read_text())["table"]
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
        table = json.loads((out / "ablation.json").read_text())["table"]
        assert sorted(table) == ["base", "dah", "decoupling", "focal"]
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
                           "theta,n_runs,auc_roc_mean,auc_roc_ci95,auc_prc_mean,auc_prc_ci95", rows)

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

    def test_invalid_thread_count_is_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DENSHIFT_THREADS", "abc")
        path = write_cfg(tmp_path, {"train": {"epochs": 1}, "ablation": {"seeds": [0]},
                                    "output_dir": str(tmp_path / "abl")})
        assert main(["ablate", "--config", str(path)]) == 1
        assert "DENSHIFT_THREADS" in capsys.readouterr().err

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


# (field, a value of the wrong type or out of range) for every `train` field
_INTS = {"epochs": 1, "batch_size": 1, "early_stop_patience": 0, "hidden": 1, "depth": 2, "seed": 0}
_POSITIVE = ("learning_rate", "theta", "margin_scale")
_NON_NEGATIVE = ("offset", "gamma", "lambda_cost")
_PROBABILITIES = ("q_regular", "q_balanced")
_WRONG_TYPE = st.one_of(st.text(max_size=4), st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_NON_FINITE = st.one_of(st.sampled_from([float("nan"), float("inf"), float("-inf")]),
                        st.integers(min_value=2**1024))  # an integer no float64 can hold
_BAD_TRAIN_FIELDS = st.one_of(
    *[st.tuples(st.just(f), st.one_of(_WRONG_TYPE, st.booleans(), st.none(),
                                      st.floats().filter(lambda v: v != int(v) if np.isfinite(v) else True),
                                      st.integers(max_value=low - 1)))
      for f, low in _INTS.items()],
    *[st.tuples(st.just(f), st.one_of(_WRONG_TYPE, st.booleans(), st.floats(max_value=0.0), _NON_FINITE))
      for f in _POSITIVE],
    *[st.tuples(st.just(f), st.one_of(_WRONG_TYPE, st.booleans(), st.none(),
                                      st.floats(max_value=-1e-300), st.just(float("nan"))))
      for f in _NON_NEGATIVE],
    *[st.tuples(st.just(f), st.one_of(_WRONG_TYPE, st.booleans(), st.none(), _NON_FINITE,
                                      st.floats(max_value=-1e-300), st.floats(min_value=1.0 + 1e-12)))
      for f in _PROBABILITIES],
    st.tuples(st.just("normalize_balanced"), st.one_of(_WRONG_TYPE, st.none(), st.integers(), st.floats())),
    *[st.tuples(st.just(f), st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                                      st.text(max_size=6).filter(lambda v: v not in ok)))
      for f, ok in (("variant", VARIANTS), ("optimizer", ("sgd", "adam")))],
)


@settings(max_examples=150, deadline=None)
@given(_BAD_TRAIN_FIELDS)
def test_bad_train_field_of_any_kind_exits_one_naming_it(bad):
    field, value = bad
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = json.loads(json.dumps(TINY))
        cfg["train"][field] = value
        cfg["output_dir"] = str(out)
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--config", str(path)])
        assert code == 1, (field, value)
        assert field in err.getvalue(), (field, value, err.getvalue())
        assert not out.exists()
