"""Every name a package module imports is used in that module, every
module-level private name is read somewhere in the package, every error
class is raised somewhere in the package, and every name `__init__.py`
re-exports is read by a package module or by the benchmark.

A stdlib `ast` scan, so no linter is needed: an import binding that no
`Name` node in the module reads is a leftover of a deleted caller, and so
is a private function, class or constant (`_x`) that no module reads, or
an error class in `errors.py` that no `raise` names (a base class of other
errors excepted).  `__init__.py` re-exports names on purpose and is
skipped by the import scan; a re-export that neither the package nor
`bench/*.py` reads is a public name with no caller, allowed only where
TEST_ONLY_EXPORTS lists it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jumpfolio"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# public names that only the tests call: closed-form references the tests
# compare against, the Monte Carlo constraint profile, and the cost estimate
# over a stored ensemble, which `verify` streams instead
TEST_ONLY_EXPORTS = {"constraint_profile", "es_stoch_exp", "estimate_cost",
                     "expected_jump_exponential", "quantile_stoch_exp"}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def read_names(source: str) -> set:
    """Every name source reads, as a name or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_exports(init_source: str, sources: dict) -> list:
    """The names init_source imports (its re-exports) that no source in
    sources, a {module: source} dict, reads."""
    exported = {alias.asname or alias.name
                for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set().union(*map(read_names, sources.values()))
    return sorted(exported - read)


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each module-level `_x` definition in
    sources, a {module: source} dict, that no module reads as a name or an
    attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                targets = [getattr(node.target, "id", "")]
            else:
                continue
            defined += [(module, node.lineno, name) for name in targets
                        if name.startswith("_") and not name.startswith("__")]
        read |= read_names(source)
    return sorted(entry for entry in defined if entry[2] not in read)


def unraised_errors(errors_source: str, sources: dict) -> list:
    """Names of the classes in errors_source that no `raise` in sources, a
    {module: source} dict, names and that no other class there derives
    from."""
    classes = [node for node in ast.parse(errors_source).body
               if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases
             if isinstance(base, ast.Name)}
    raised = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)   # X or X(...)
                raised.add(getattr(exc, "id", None))
    return sorted(node.name for node in classes
                  if node.name not in raised | bases)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [(1, "os")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unread_private_name():
    sources = {"a": "_used = 1\n_dead = 2\ndef _gone():\n    pass\n",
               "b": "from a import _used\nprint(_used)\n"}
    assert unread_private_names(sources) == [("a", 2, "_dead"),
                                             ("a", 3, "_gone")]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_scan_finds_an_unraised_error():
    errors = ("class Base(Exception):\n    pass\n"
              "class Used(Base):\n    pass\n"
              "class Dead(Base):\n    pass\n")
    sources = {"a": "from errors import Used\nraise Used('x')\n",
               "b": "try:\n    pass\nexcept Dead:\n    raise\n"}
    assert unraised_errors(errors, sources) == ["Dead"]


def test_every_error_class_is_raised():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    errors = (PACKAGE / "errors.py").read_text(encoding="utf-8")
    assert unraised_errors(errors, sources) == []


def test_scan_finds_an_unread_export():
    init = "from .a import used, dead\nfrom . import b\n"
    sources = {"b": "from a import used\nused()\n", "c": "import a\na.b\n"}
    assert unread_exports(init, sources) == ["dead"]


def test_every_export_has_a_caller_outside_the_tests():
    sources = {p: p.read_text(encoding="utf-8")
               for p in [*MODULES, *(ROOT / "bench").glob("*.py")]}
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unread_exports(init, sources) == sorted(TEST_ONLY_EXPORTS)
