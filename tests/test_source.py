"""Checks on the package source itself, run under pytest alone (no lint tool is required)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "denshift"


def _private_binds(node: ast.stmt) -> set[str]:
    """Names with one leading underscore that a top-level statement binds: a def, a class or an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {node.name}
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    else:
        names = set()
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _reads(node: ast.AST) -> set[str]:
    """Every name a statement loads, bare (`_x`) or as an attribute (`module._x`)."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_private_module_level_name_is_read_beyond_its_definition():
    # a deletion can leave behind a helper, constant or table that nothing in src/ reads any more
    statements = [(path.name, node) for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [_reads(node) for _, node in statements]
    defined = [(module, name, i) for i, (module, node) in enumerate(statements) for name in _private_binds(node)]
    dead = [f"{module}: {name}" for module, name, i in defined
            if not any(name in r for j, r in enumerate(reads) if j != i)]
    assert len(defined) >= 40  # the walk found the package's private names
    assert not dead, f"private module-level names that no other statement in src/ reads: {dead}"


def test_only_data_freeze_sets_frozen_fields_or_marks_arrays_read_only():
    # frozen dataclasses set their fields, and make their arrays read-only, through the one helper
    tree = ast.parse((SRC / "data.py").read_text(encoding="utf-8"))
    freeze = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "freeze"]
    inside = {("data.py", i) for node in freeze for i in range(node.lineno, node.end_lineno + 1)}
    sites = {(path.name, i) for path in sorted(SRC.glob("*.py"))
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
             if "object.__setattr__" in line or ".flags.writeable" in line}
    assert len(sites & inside) == 2, "data.freeze sets each field and marks each array read-only"
    assert not sites - inside, f"outside data.freeze: {sorted(sites - inside)}"


def _argsort_kinds(module: str) -> list:
    """The `kind=` of each `np.argsort` call in a module of src/, None where the call passes none."""
    calls = [n for n in ast.walk(ast.parse((SRC / module).read_text(encoding="utf-8")))
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "argsort"]
    return [next((ast.literal_eval(k.value) for k in call.keywords if k.arg == "kind"), None) for call in calls]


def test_rank_metrics_use_the_default_sort_and_the_sampler_a_stable_one():
    # both AUCs read only tie groups, and numpy's default sort is the fast (SIMD) one; the sampler's
    # class order fixes which row each draw picks, so it must keep rows in ascending order within a class
    assert _argsort_kinds("metrics.py") == [None, None]
    assert _argsort_kinds("sampling.py") == ["stable"]


def test_only_the_four_losses_take_a_checked_flag():
    # the training step has one form: it calls each loss with its checks skipped and takes no such flag itself
    takers = sorted(f"{path.name}: {node.name}" for path in sorted(SRC.glob("*.py"))
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and "checked" in {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs})
    assert takers == ["losses.py: ce", "losses.py: cost_loss", "losses.py: dah_softmax", "losses.py: focal"]


def test_only_the_cross_entropy_core_and_softmax_call_log_softmax():
    # `ce`, `dah_softmax`, `focal` and `metrics.nll` share `_softmax_ce`; a loss that calls `_log_softmax`
    # itself holds a second copy of the cross-entropy arithmetic
    callers = sorted(f"{path.name}: {node.name}" for path in sorted(SRC.glob("*.py"))
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and "_log_softmax" in {n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
                                            for n in ast.walk(node) if isinstance(n, ast.Call)})
    assert callers == ["losses.py: _softmax_ce", "losses.py: softmax"], f"callers of _log_softmax: {callers}"


def _raised_messages(tree: ast.AST) -> list[str]:
    """The first argument of each `raise X(...)` that is a string or f-string literal, as its source text."""
    firsts = [node.exc.args[0] for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args]
    return [ast.unparse(a) if isinstance(a, ast.JoinedStr) else a.value for a in firsts
            if isinstance(a, ast.JoinedStr) or isinstance(a, ast.Constant) and isinstance(a.value, str)]


def test_each_refusal_message_is_raised_at_one_site():
    # a rule checked at two sites drifts: one copy changes its message, its type or its condition, the other not
    messages = [m for path in sorted(SRC.glob("*.py"))
                for m in _raised_messages(ast.parse(path.read_text(encoding="utf-8")))]
    repeated = sorted({m for m in messages if messages.count(m) > 1})
    assert len(messages) >= 80  # the walk found the package's refusals
    assert not repeated, f"messages raised at more than one site in src/: {repeated}"
