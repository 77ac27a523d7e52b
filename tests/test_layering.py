"""riskflow's modules form one order of layers, and every import points down it:
a module imports only from modules before it, at module level, and no
private name crosses a module boundary."""

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
