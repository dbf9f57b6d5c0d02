"""The traced benchmark wraps functions by dotted name; a name that no longer resolves would only read "absent"."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_trace_target_names_a_function_of_its_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    targets = importlib.import_module("layers").TARGETS
    assert targets
    for dotted, *_ in targets:
        module_name, _, attr = dotted.rpartition(".")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{dotted} does not resolve"
