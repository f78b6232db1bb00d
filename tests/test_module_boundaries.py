"""Each weylfit module uses only the public names of the others.

An underscore-prefixed name is private to the module that defines it, so
that module alone owns the rule behind it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "weylfit"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(path: Path) -> list[str]:
    """Each `from .x import _y`, and each `x._y` on a sibling module x, in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith(
                "weylfit")):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                elif node.module in (None, "weylfit"):  # `from . import x` binds a module
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
    return found


def test_the_check_finds_both_forms(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import sampler as sp, series\n"
                    "from .sampler import Design, _fmt_column\n"
                    "x = sp._fmt(series.__name__)\n")
    assert private_uses(path) == ["mod.py:2 imports _fmt_column", "mod.py:3 uses sp._fmt"]


def test_no_module_uses_another_modules_private_names():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 8
    assert [use for path in paths for use in private_uses(path)] == []


def test_estimator_reads_exact_chi_through_the_sampler():
    # every exact chi of a fit, bias or sweep comes from `sampler.analytic_chi_grid`
    tree = ast.parse((SRC / "estimator.py").read_text())
    imported = {alias.name.split(".")[-1] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    imported |= {node.module.split(".")[-1] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert "charfunc" not in imported


def test_only_the_exact_builder_and_the_sweep_apply_the_born_rule():
    # one path from a design to exact frequencies: the sweep slices its lattice's instead
    tree = ast.parse((SRC / "estimator.py").read_text())
    callers = {top.name for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "sampler"
               and node.attr in ("analytic_chi_grid", "born_probabilities")}
    assert callers == {"_exact_subproblems", "rmse_sweep"}
