"""No module-level import or private module-level name of the package goes unused.

A name counts as used where its module loads it, where another module of
the package imports it from there, or, in `__init__`, where `__all__` lists
it.  Three imports exist only for the benchmark tracer, which rebinds them
(`REBOUND` in bench/tracer.py); they alone are allowed, and each must still
be rebound there.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fracstirling"
TRACER_ONLY = {("cycle", "summarize"), ("solver", "evaluate"), ("thermo", "energy_levels")}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def module_level_names(tree: ast.Module):
    """The names a module imports and the private names it defines, at module level."""
    imported, defined = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Store)}
    return imported, {name for name in defined if name.startswith("_") and not name.startswith("__")}


def used_names(tree: ast.Module) -> set[str]:
    """The names a module loads, and those its `__all__` lists."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_names() -> set[tuple[str, str]]:
    trees = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    imported_from = {name: set() for name in trees}  # by the other modules of the package
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
                imported_from[node.module] |= {alias.name for alias in node.names}
    unused = set()
    for module, tree in trees.items():
        imported, private = module_level_names(tree)
        unused |= {(module, name) for name in imported | private
                   if name not in used_names(tree) | imported_from[module]}
    return unused


def test_every_import_and_private_name_is_used():
    assert unused_names() == TRACER_ONLY


def test_tracer_only_imports_are_still_rebound():
    tree = parse(ROOT / "bench" / "tracer.py")
    (rebound,) = (ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "REBOUND" for t in node.targets))
    assert TRACER_ONLY <= {(module, name) for module, name, _ in rebound}
