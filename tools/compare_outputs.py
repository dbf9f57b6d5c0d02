"""Run one fixed set of denshift commands on two source trees and list every output that differs.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE [--work DIR]

Each tree is a checkout of this repository; its `src/` is put on PYTHONPATH
and every command runs as `python -m denshift.cli ...` in the same working
directory, `DIR/run` (a CSV path enters `config_hash`, so both trees must
see the same paths). The command set covers `gen-data`; `train` of all six
variants with temperature scaling; a `full` `train` with the SGD
optimizer; a `focal` `train` at `gamma` 0.5, whose focal gradient factor
w**(gamma-1) diverges as p_y -> 1; a 3-class `train` and `eval`; `eval` on
a plain CSV, on one with empty cells, on one whose only empty cell is in
its last row, on one with quoted labels and on one with a whitespace-only
cell; `ablate` on binary and 3-class data; `sweep-theta`; `grad-check`; one
refusal for each nonzero exit code; the refusal of a `nan` text cell; the
refusal of a `cost` `train` on 3-class data; the refusal of a `train`
whose 5 minority rows leave the test split none (`refuse-empty-split`);
and the refusal of a 3-class `eval` on a CSV without one class's rows
(`refuse-missing-class`).
Each command's stdout, stderr and exit code are kept as files under
`_cmd/`, beside the files the commands write.

The script then lists each file that exists in one tree's outputs only or
differs between them: a CSV by the columns whose cells differ, a JSON file
by the key paths added, removed or changed, an `.npz` archive by the
members added, removed, changed or unchanged and by the key paths of its
`__meta__` JSON added, removed or changed, anything else by its first
differing lines. Last, it runs NEW_TREE a second time and checks that
every file is byte-identical to its first run. It exits 0 when that rerun
matches, and 1 when it does not. Outputs are kept in `DIR/old`, `DIR/new`
and `DIR/rerun`. It takes about 20 s on a 2-vCPU x86_64 machine.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

SYNTHETIC = {"n_majority": 270, "n_minority": 30, "n_minority_modes": 2, "dim": 6, "mode_spread": 3.0,
             "noise_scale": 1.0, "seed": 4}
TRAIN = {"epochs": 12, "batch_size": 32, "early_stop_patience": 12}
VARIANTS = ("base", "focal", "dah", "cost", "decoupling", "full")


def _configs() -> dict[str, dict]:
    """Each config file the command set reads, by file name; paths are relative to the working directory."""
    synthetic = {"dataset": {"synthetic": SYNTHETIC}, "train": TRAIN}
    multiclass = {"dataset": {"csv": {"path": "inputs/three_class.csv"}}, "train": dict(TRAIN, batch_size=16)}
    return {
        "binary.json": dict(synthetic, metrics={"temperature_scaling": True, "n_bins": 7}),
        "multiclass.json": dict(multiclass, metrics={"temperature_scaling": True}),
        "ablate.json": dict(synthetic, train=dict(TRAIN, epochs=4), ablation={"seeds": [0, 1]}),
        "ablate_multiclass.json": dict(multiclass, train=dict(multiclass["train"], epochs=4),
                                       ablation={"seeds": [0, 1]}),
        "sweep.json": dict(synthetic, train=dict(TRAIN, epochs=4, variant="cost"),
                           sweep={"theta_grid": [1, 10, 100], "seeds": [0, 1]}),
        "sgd.json": dict(synthetic, train=dict(TRAIN, optimizer="sgd", learning_rate=0.05)),
        "focal_gamma.json": dict(synthetic, train=dict(TRAIN, gamma=0.5)),
        "small_minority.json": dict(synthetic, dataset={"synthetic": dict(SYNTHETIC, n_minority=5)}),
        "overflow.json": dict(synthetic, train=dict(TRAIN, optimizer="sgd", learning_rate=1000)),
    }


def _commands() -> list[tuple[str, list[str]]]:
    """(name, argv after `denshift`) in run order; later commands read files that earlier ones wrote."""
    commands = [("gen-data", ["gen-data", "--config", "inputs/binary.json", "--out", "data"])]
    commands += [(f"train-{v}", ["train", "--config", "inputs/binary.json", "--variant", v, "--out", f"train_{v}"])
                 for v in VARIANTS]
    commands += [
        ("train-sgd", ["train", "--config", "inputs/sgd.json", "--variant", "full", "--out", "train_sgd"]),
        ("train-focal-gamma", ["train", "--config", "inputs/focal_gamma.json", "--variant", "focal",
                               "--out", "train_focal_gamma"]),
        ("train-3class", ["train", "--config", "inputs/multiclass.json", "--variant", "decoupling",
                          "--out", "train_3class"]),
        ("eval-3class", ["eval", "--checkpoint", "train_3class/checkpoint.npz", "--csv", "inputs/three_class.csv",
                         "--out", "eval_3class"]),
        ("eval-plain", ["eval", "--checkpoint", "train_full/checkpoint.npz", "--csv", "data/test.csv",
                        "--out", "eval_plain"]),
        ("eval-empty-cells", ["eval", "--checkpoint", "train_full/checkpoint.npz", "--csv", "inputs/empty_cells.csv",
                              "--bins", "5", "--out", "eval_empty_cells"]),
        ("eval-last-row-empty", ["eval", "--checkpoint", "train_full/checkpoint.npz",
                                 "--csv", "inputs/last_row_empty.csv", "--out", "eval_last_row_empty"]),
        ("eval-quoted-labels", ["eval", "--checkpoint", "train_full/checkpoint.npz",
                                "--csv", "inputs/quoted_labels.csv", "--out", "eval_quoted_labels"]),
        ("eval-whitespace-cell", ["eval", "--checkpoint", "train_full/checkpoint.npz",
                                  "--csv", "inputs/whitespace_cell.csv", "--out", "eval_whitespace_cell"]),
        ("ablate", ["ablate", "--config", "inputs/ablate.json", "--out", "ablate"]),
        ("ablate-3class", ["ablate", "--config", "inputs/ablate_multiclass.json", "--out", "ablate_3class"]),
        ("sweep-theta", ["sweep-theta", "--config", "inputs/sweep.json", "--out", "sweep"]),
        ("grad-check", ["grad-check"]),
        ("refuse-exit-1", ["eval", "--checkpoint", "train_full/checkpoint.npz", "--csv", "inputs/three_class.csv",
                           "--out", "refused_1"]),
        ("refuse-nan-cell", ["eval", "--checkpoint", "train_full/checkpoint.npz", "--csv", "inputs/nan_cell.csv",
                             "--out", "refused_nan"]),
        ("refuse-exit-2", ["train", "--config", "inputs/overflow.json", "--variant", "full", "--out", "refused_2"]),
        ("refuse-cost-3class", ["train", "--config", "inputs/multiclass.json", "--variant", "cost",
                                "--out", "refused_cost"]),
        ("refuse-empty-split", ["train", "--config", "inputs/small_minority.json", "--out", "refused_split"]),
        ("refuse-missing-class", ["eval", "--checkpoint", "train_3class/checkpoint.npz",
                                  "--csv", "inputs/two_of_three_class.csv", "--out", "refused_class"]),
    ]
    return commands


def _write_inputs(inputs: Path) -> None:
    """The config files, two 3-class CSVs (one without its `z` rows) and five binary CSVs for `train_full`'s
    checkpoint, the same bytes each call."""
    inputs.mkdir(parents=True)
    for name, cfg in _configs().items():
        (inputs / name).write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    rng = random.Random(0)
    lines = ["a,b,c,label"]
    for i in range(150):
        k = i % 3
        lines.append(",".join(repr(rng.gauss(1.5 * (k == j), 1.0)) for j in range(3)) + f",{'xyz'[k]}")
    (inputs / "three_class.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (inputs / "two_of_three_class.csv").write_text("\n".join(line for line in lines if not line.endswith(",z")) + "\n",
                                                   encoding="utf-8")

    def write_binary(name: str, rows: list[list[str]]) -> None:
        lines = [",".join(f"f{j}" for j in range(SYNTHETIC["dim"])) + ",label"] + [",".join(row) for row in rows]
        (inputs / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    labels = ["minority" if i % 6 == 0 else "majority" for i in range(120)]
    write_binary("empty_cells.csv", [["" if (i + j) % 9 == 0 else repr(rng.gauss(1.0 * (label == "minority"), 1.0))
                                      for j in range(SYNTHETIC["dim"])] + [label] for i, label in enumerate(labels)])
    rows = [[repr(rng.gauss(1.0 * (label == "minority"), 1.0)) for _ in range(SYNTHETIC["dim"])] + [label]
            for label in labels]
    write_binary("quoted_labels.csv", [row[:-1] + [f'"{row[-1]}"'] for row in rows])
    # one edited cell each: numpy's first pass stops at the last row's empty cell; the row reader reads
    # a whitespace-only cell as missing; the text nan is refused
    for name, (i, j, text) in {"last_row_empty.csv": (119, 3, ""), "whitespace_cell.csv": (40, 2, "  "),
                               "nan_cell.csv": (60, 1, "nan")}.items():
        edited = [list(row) for row in rows]
        edited[i][j] = text
        write_binary(name, edited)


def run_tree(tree: Path, run: Path) -> None:
    """Run the command set with `tree`'s package in the empty directory `run`."""
    if run.exists():
        shutil.rmtree(run)
    _write_inputs(run / "inputs")
    kept = run / "_cmd"
    kept.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), DENSHIFT_THREADS="2", PYTHONHASHSEED="0")
    for name, argv in _commands():
        done = subprocess.run([sys.executable, "-m", "denshift.cli", *argv], cwd=run, env=env,
                              capture_output=True, text=True)
        (kept / f"{name}.stdout").write_text(done.stdout, encoding="utf-8")
        (kept / f"{name}.stderr").write_text(done.stderr, encoding="utf-8")
        (kept / f"{name}.exit").write_text(f"{done.returncode}\n", encoding="utf-8")


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _leaves(obj, path: str = "") -> dict[str, object]:
    """Each scalar of a JSON value by its key path: `table.base.auc_roc_mean`, `rows.0.theta`."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {path: obj}
    return {k: v for key, value in items for k, v in _leaves(value, f"{path}.{key}" if path else str(key)).items()}


def _csv_columns(text: str) -> dict[str, list[str]]:
    header, *rows = list(csv.reader(text.splitlines())) or [[]]
    return {name: [row[i] if i < len(row) else None for row in rows] for i, name in enumerate(header)}


def _changes(kind: str, a: dict, b: dict) -> list[str]:
    """The keys of `b` not in `a`, of `a` not in `b`, and in both with other values, one indented line each."""
    added, removed = [k for k in b if k not in a], [k for k in a if k not in b]
    changed = [k for k in a if k in b and a[k] != b[k]]
    return [f"    {kind} {what} ({len(keys)}): {', '.join(keys)}"
            for what, keys in (("added", added), ("removed", removed), ("changed", changed)) if keys]


def _npz_members(blob: bytes) -> dict[str, bytes]:
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def _npz_meta(member: bytes) -> dict[str, object]:
    """The key paths of a checkpoint's `__meta__.npy`, a uint8 array of JSON text."""
    return _leaves(json.loads(np.load(io.BytesIO(member)).tobytes().decode("utf-8")))


def _describe(name: str, old: bytes, new: bytes) -> list[str]:
    """How one file differs, as indented lines."""
    if name.endswith(".npz"):
        a, b = _npz_members(old), _npz_members(new)
        unchanged = [k for k in a if b.get(k) == a[k]]
        lines = _changes("members", a, b)
        if unchanged:
            lines.append(f"    members unchanged ({len(unchanged)}): {', '.join(unchanged)}")
        if "__meta__.npy" in a and "__meta__.npy" in b:
            lines += _changes("__meta__ keys", _npz_meta(a["__meta__.npy"]), _npz_meta(b["__meta__.npy"]))
        return lines
    try:
        old_text, new_text = old.decode("utf-8"), new.decode("utf-8")
    except UnicodeDecodeError:
        return [f"    binary: {len(old)} -> {len(new)} bytes"]
    if name.endswith(".json"):
        return _changes("keys", _leaves(json.loads(old_text)), _leaves(json.loads(new_text)))
    if name.endswith(".csv"):
        return _changes("columns", _csv_columns(old_text), _csv_columns(new_text))
    diff = difflib.unified_diff(old_text.splitlines(), new_text.splitlines(), lineterm="", n=0)
    return [f"    {line}" for line in list(diff)[2:]]


def compare(old_dir: Path, new_dir: Path) -> list[str]:
    """One report line per output file in one directory only, or with other bytes, then how it differs."""
    old, new = _files(old_dir), _files(new_dir)
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            lines.append(f"only in old: {name}")
        elif name not in old:
            lines.append(f"only in new: {name}")
        elif old[name] != new[name]:
            lines += [f"differs: {name}", *_describe(name, old[name], new[name])]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    parser.add_argument("--work", type=Path, default=Path(tempfile.gettempdir()) / "denshift-compare-outputs")
    args = parser.parse_args(argv)
    work = args.work.resolve()
    run = work / "run"
    kept = {}
    for label, tree in (("old", args.old_tree), ("new", args.new_tree), ("rerun", args.new_tree)):
        run_tree(tree, run)
        kept[label] = work / label
        if kept[label].exists():
            shutil.rmtree(kept[label])
        run.rename(kept[label])
    n_files = len(_files(kept["new"]))
    report = compare(kept["old"], kept["new"])
    print(f"old {args.old_tree} -> new {args.new_tree}: {n_files} files in new, "
          f"{sum(not line.startswith(' ') for line in report)} differ or exist in one tree only")
    print(*report, sep="\n")
    rerun = compare(kept["new"], kept["rerun"])
    print(f"rerun of new: {'byte-identical' if not rerun else 'DIFFERS'}")
    print(*rerun, sep="\n")
    return 1 if rerun else 0


if __name__ == "__main__":
    sys.exit(main())
