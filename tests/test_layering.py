"""riskflow's modules form one order of layers, and every import points down it:
a module imports only from modules before it, at module level, and no
private name crosses a module boundary.  No module imports a name it never
uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "riskflow"
ORDER = ("errors", "grids", "generator", "forward", "risk", "solve", "validate", "cli")
# the package and its entry point sit above every layer
ENTRY = ("__init__", "__main__")


def riskflow_imports(tree: ast.Module):
    """(node, imported module, imported names, inside a function) of every
    import of a riskflow module in ``tree``."""
    inside = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inside.update(id(n) for n in ast.walk(fn) if n is not fn)
    for node in ast.walk(tree):
        names = [alias.name for alias in getattr(node, "names", ())]
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [(node.module, names)] if node.module else [(n, []) for n in names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("riskflow."):
            targets = [(node.module.split(".", 1)[1], names)]
        elif isinstance(node, ast.Import):
            targets = [(n.split(".", 1)[1], []) for n in names if n.startswith("riskflow.")]
        else:
            continue
        for module, imported in targets:
            yield node, module, imported, id(node) in inside


def violations(src: Path = SRC) -> list:
    rank = {name: i for i, name in enumerate(ORDER)}
    rank.update((name, len(ORDER)) for name in ENTRY)
    found = []
    for path in sorted(src.glob("*.py")):
        me = path.stem
        for node, module, names, in_function in riskflow_imports(ast.parse(path.read_text())):
            where = f"{me}:{node.lineno}"
            if in_function:
                found.append(f"{where} imports {module} inside a function")
            if rank.get(module, len(ORDER)) >= rank.get(me, len(ORDER)):
                found.append(f"{where} imports {module}, which is not below it")
            found += [f"{where} imports the private {module}.{n}" for n in names
                      if n.startswith("_")]
    return found


# names a module imports and never uses, kept because bench/tracing.py
# patches them there by name
PATCHED = {"validate": {"propagate_forward", "augment_generator", "evaluate", "wasserstein1"}}


def unused_imports(src: Path = SRC) -> list:
    """Every name a module imports and never reads, but the package's
    ``__init__``, whose imports are its public names, and ``PATCHED``."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                found += [f"{path.stem}:{node.lineno} imports {name}, never used"
                          for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                          if name not in read | PATCHED.get(path.stem, set())]
    return found


def test_every_module_is_placed_in_the_order():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(ORDER + ENTRY)


def test_every_import_points_down_the_order():
    assert violations() == []


def test_each_kind_of_crossing_is_found(tmp_path):
    (tmp_path / "forward.py").write_text("from .grids import UniformGrid\n")
    (tmp_path / "solve.py").write_text(
        "from .forward import _helper, implicit_step\n\n"
        "def report():\n    from .validate import wasserstein1\n")
    (tmp_path / "risk.py").write_text("import riskflow.cli\n")
    assert violations(tmp_path) == [
        "risk:1 imports cli, which is not below it",
        "solve:1 imports the private forward._helper",
        "solve:4 imports validate inside a function",
        "solve:4 imports validate, which is not below it",
    ]


def test_every_imported_name_is_used():
    assert unused_imports() == []


def test_an_unused_import_is_found(tmp_path):
    (tmp_path / "__init__.py").write_text("from .grids import UniformGrid\n")
    (tmp_path / "grids.py").write_text(
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .errors import InvalidGridError as Bad, RiskflowError\n\n"
        "def f():\n    import math\n    return np.ones(1), RiskflowError\n")
    (tmp_path / "validate.py").write_text("from .risk import evaluate, wasserstein1\n")
    assert unused_imports(tmp_path) == [
        "grids:2 imports os, never used",
        "grids:4 imports Bad, never used",
        "grids:7 imports math, never used",
    ]
