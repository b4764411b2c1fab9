"""Every module under ``src/repro`` is reached by something that runs.

Pure AST — nothing under ``repro`` is imported.  The roots are what
defines this reproduction's traffic: the ``digruber`` CLI and the
benchmark scripts (``benchmarks/*.py``, ``benchmarks/ledger/*.py``).
A package ``__init__`` does not keep its re-exports alive:
``from repro.grid import Site`` is an edge to ``repro.grid.site`` (the
module that defines ``Site``), not to everything ``repro.grid`` imports.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Modules only tests import, each with the reason it stays.
TEST_ONLY = {
    # Closed-form machine-repairman model: the reference the tests
    # compare the DES against (tests/test_analysis_queueing.py).
    "repro.analysis.queueing",
    # Runs the DES on the model's configurations and reports the gap
    # (tests/test_experiments_validation.py); same reference role.
    "repro.experiments.validation",
}


def _modules():
    """Dotted name -> path for every module under ``src/repro``."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _modules()


def _is_package(name):
    return MODULES[name].name == "__init__.py"


def _imports(path):
    """``(module, imported_name_or_None)`` for every import in *path*."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            # The tree imports absolutely; a relative import would be an
            # edge this scan cannot see.
            assert not node.level, "%s:%d: relative import" % (path, node.lineno)
            for alias in node.names:
                yield node.module, alias.name


def _resolve(module, attr, seen=()):
    """The module that defines ``module.attr`` (or *module* itself)."""
    if module not in MODULES:
        return None
    if attr is None or attr == "*":
        return module
    if module + "." + attr in MODULES:
        return module + "." + attr
    if not _is_package(module) or (module, attr) in seen:
        return module
    for base, imported in _imports(MODULES[module]):
        if imported == attr and base in MODULES:
            return _resolve(base, attr, seen + ((module, attr),))
    return module


def _edges(path):
    for base, attr in _imports(path):
        target = _resolve(base, attr)
        if target is not None:
            yield target


def _reachable(root_paths, root_modules):
    reached, todo = set(), list(root_modules)
    for path in root_paths:
        todo.extend(_edges(path))
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        reached.add(module)
        if not _is_package(module):
            todo.extend(_edges(MODULES[module]))
    return reached


def _roots():
    bench = REPO / "benchmarks"
    return sorted(bench.glob("*.py")) + sorted((bench / "ledger").glob("*.py"))


def test_every_module_is_reached_from_cli_or_benchmarks():
    alive = _reachable(_roots(), ["repro.cli"]) | TEST_ONLY
    # A package is alive when any module inside it is.
    for module in list(alive):
        parts = module.split(".")
        alive.update(".".join(parts[:i]) for i in range(1, len(parts)))
    unreached = sorted(set(MODULES) - alive)
    assert not unreached, (
        "not imported by repro.cli, benchmarks/*.py or "
        "benchmarks/ledger/*.py (directly or transitively): %s" % unreached)


def test_allowlist_is_current():
    """An allowlisted module exists and is still test-only."""
    assert TEST_ONLY <= set(MODULES)
    reached = _reachable(_roots(), ["repro.cli"])
    assert not TEST_ONLY & reached, sorted(TEST_ONLY & reached)


def test_package_inits_only_reexport():
    """The rule above is sound only if no ``__init__`` does real work:
    each holds a docstring, imports and ``__all__``/``__version__``."""
    for name, path in MODULES.items():
        if not _is_package(name):
            continue
        for node in ast.parse(path.read_text()).body:
            ok = isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)) or (
                isinstance(node, ast.Assign)
                and all(isinstance(t, ast.Name) and t.id.startswith("__")
                        for t in node.targets))
            assert ok, "%s: line %d is not a re-export" % (path, node.lineno)
