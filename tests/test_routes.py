"""The routes each identity compares stay independent, read from the source.

The identity sweep checks something only while its two sides are computed
by different code. These checks walk the ``ast`` of each route, without
importing or running it, and pin what must not be shared:

* ``series`` (the EGF route) imports nothing of the package but the leaf
  ``_args`` and the ``_EXPORTS`` table, so no builder reaches a direct kernel;
* the integer sweep reaches neither the shared Stirling memo, its reader
  nor its held entries, and the modules behind the CLI name none of them;
* the enumeration oracles reach no Stirling kernel, memo or row sum;
* the benchmark oracle and the fixture generator import nothing from fubini;
* the fixture tests' ``independent_stirling`` calls nothing from fubini;
* every report comes from the one check loop: ``VerificationReport`` is
  built only in ``_report``, and ``_report`` is called only from ``_sweep``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fubini"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _fubini_imports(tree: ast.AST) -> set[tuple[str, str]]:
    """``(module, name)`` for each name any import in ``tree`` takes from the
    package; ``import fubini.x`` gives ``("fubini.x", "")``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {(a.name, "") for a in node.names if a.name.split(".")[0] == "fubini"}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "fubini":
                found |= {(module, a.name) for a in node.names}
    return found


def test_series_imports_only_the_leaf_and_the_export_table():
    imports = _fubini_imports(_tree(PACKAGE / "series.py"))
    assert {module for module, _ in imports} <= {"fubini", "fubini._args"}
    assert {name for module, name in imports if module == "fubini"} <= {"_EXPORTS"}


class _Module:
    """A package module's top-level definitions and the package names it binds."""

    def __init__(self, name: str):
        tree = _tree(PACKAGE / f"{name}.py")
        self.defs = {}  # top-level function, class or assigned name -> its node
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            self.defs[leaf.id] = node
        # every import anywhere in the module, function-level ones too
        self.modules = {}  # local name -> package module it binds
        self.names = {}  # local name -> (package module, name there)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "fubini":
                for alias in node.names:
                    if (PACKAGE / f"{alias.name}.py").exists():
                        self.modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fubini."):
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (node.module[7:], alias.name)


def _reached(start: list[tuple[str, str]]) -> set[tuple[str, str]]:
    """Every ``(module, name)`` of the package's top-level definitions that the
    given ones name, directly or through the definitions they name in turn."""
    modules = {}
    seen, todo = set(), list(start)
    while todo:
        module, name = todo.pop()
        if (module, name) in seen:
            continue
        seen.add((module, name))
        if module not in modules:
            modules[module] = _Module(module)
        here = modules[module]
        node = here.defs.get(name)
        if node is None:  # bound by an import: follow it into the package, if there
            if name in here.names:
                todo.append(here.names[name])
            continue
        for leaf in ast.walk(node):
            if isinstance(leaf, ast.Name):
                if leaf.id in here.defs:
                    todo.append((module, leaf.id))
                elif leaf.id in here.names:
                    todo.append(here.names[leaf.id])
            elif (
                isinstance(leaf, ast.Attribute)
                and isinstance(leaf.value, ast.Name)
                and leaf.value.id in here.modules
            ):
                todo.append((here.modules[leaf.value.id], leaf.attr))
    return seen


def test_the_integer_sweep_reaches_no_memo():
    checks = _Module("identities").defs["_INTEGER_CHECKS"].value
    start = [("identities", "_sweep_integers")]
    start += [("identities", value.id) for value in checks.values]
    assert len(start) == 8
    reached = _reached(start)
    # the walk does follow the sweep into its kernels ...
    assert {
        ("sequences", "_stirling_rows"),
        ("sequences", "_next_stirling_row"),
        ("sequences", "_row_sum"),
        ("_args", "_require_at_least"),
    } <= reached
    # ... and none of them reads the shared memo or steps down as only it does
    assert not reached & {
        ("sequences", "_read_row"),
        ("sequences", "_shared_triangle"),
        ("sequences", "_prev_stirling_row"),
    }


def test_only_the_library_point_reads_name_the_memo():
    # the same walk from a public sum finds the memo reader, so the integer
    # sweep's result above is not an artefact of the walk ...
    reached = _reached([("sequences", "ordered_bell")])
    assert {
        ("sequences", "_read_row"),
        ("sequences", "_prev_stirling_row"),
    } <= reached
    # ... while the modules behind the CLI name neither the memo nor its
    # reader: they hand each route its row's entry off the stream
    for module in ("identities", "registry", "bfiles", "cli"):
        tree = _tree(PACKAGE / f"{module}.py")
        names = {getattr(leaf, "attr", getattr(leaf, "id", None)) for leaf in ast.walk(tree)}
        memo = {"_read_row", "_shared_triangle", "_StirlingTriangle"}
        assert not names & memo, module


def test_the_enumeration_oracles_reach_no_stirling_kernel():
    start = [
        ("sequences", name)
        for name in (
            "set_partitions",
            "ordered_set_partitions",
            "count_partitions_exhaustive",
            "count_ordered_partitions_exhaustive",
        )
    ]
    reached = _reached(start)
    # the walk does follow the counts into their shared histogram ...
    assert ("sequences", "_block_count_histogram") in reached
    # ... and nothing they reach computes or reads a Stirling number
    assert not reached & {
        ("sequences", name)
        for name in (
            "_next_stirling_row",
            "_prev_stirling_row",
            "_stirling_rows",
            "_row_sum",
            "_RowSums",
            "_read_row",
            "_shared_triangle",
            "_StirlingTriangle",
            "stirling2",
        )
    }


def test_the_oracle_and_the_fixture_generator_import_nothing_from_fubini():
    for path in (ROOT / "perfbench" / "oracle.py", ROOT / "scripts" / "generate_fixtures.py"):
        assert _fubini_imports(_tree(path)) == set(), path


def test_independent_stirling_calls_nothing_from_fubini():
    tree = _tree(ROOT / "tests" / "test_fixtures.py")
    from_fubini = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _fubini_imports(node)
        for alias in node.names
    }
    assert "load_fixture" in from_fubini
    (function,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "independent_stirling"
    ]
    used = {leaf.id for leaf in ast.walk(function) if isinstance(leaf, ast.Name)}
    assert {"comb", "factorial"} <= used and not used & from_fubini


def _callers(name: str) -> set[tuple[str, str]]:
    """``(module, top-level definition)`` for each call of ``name``, bare or
    as an attribute, anywhere in the package."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in _tree(path).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called == name:
                        found.add((path.stem, getattr(top, "name", None)))
    return found


def test_every_report_comes_from_the_one_check_loop():
    assert _callers("VerificationReport") == {("identities", "_report")}
    assert _callers("_report") == {("identities", "_sweep")}
