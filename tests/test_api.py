"""Public-API surface: every exported name, and every public module-level
name of the library modules, is reached by production code or by the
acceptance gate, and the annotations of the public callables
and of every function ``ellipcert.cli`` defines resolve.  The package's
``__version__`` is the one ``pyproject.toml`` declares.  Cross-checks
that only tests use belong in tests/oracles.py, not in
``ellipcert.__all__``."""

import ast
import typing
from pathlib import Path

import pytest

import ellipcert
from ellipcert import cli, family

PACKAGE = Path(ellipcert.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def _used_names(path: Path) -> set[str]:
    """Names a module reads, reads as an attribute, or imports by name;
    a definition alone or a name inside a string does not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _reached() -> set[str]:
    """Names read by package code (the re-exports of __init__ do not
    count), looked up by name through family.CLAIMS or cli._EVAL_FNS, or
    used by the acceptance gate."""
    reached = _used_names(ACCEPTANCE)
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            reached |= _used_names(path)
    # certify looks its factors' column forms up by name, and eval and table their functions
    reached |= {factor for _, factor, _, _ in family.CLAIMS.values()}
    reached |= {attr for _, _, attr in cli._EVAL_FNS.values()}
    return reached


def test_every_public_name_is_reached():
    assert sorted(set(ellipcert.__all__) - _reached()) == []


def _public_definitions(path: Path) -> set[str]:
    """The public names a module binds at module level: its functions,
    classes and assignments, not the names it imports."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("module", ["specfun", "family", "certify", "inequalities"])
def test_every_public_module_name_is_reached(module):
    # a test-only helper belongs in tests/oracles.py
    assert sorted(_public_definitions(PACKAGE / f"{module}.py") - _reached()) == []


# every function and class that ellipcert.cli defines, private ones too
CLI_DEFINED = [f"cli.{name}" for name, obj in vars(cli).items()
               if callable(obj) and getattr(obj, "__module__", None) == cli.__name__]


@pytest.mark.parametrize("name", [*ellipcert.__all__, *CLI_DEFINED])
def test_annotations_resolve(name):
    # annotations are postponed strings; each must name something the
    # module has, so that typing.get_type_hints can evaluate it
    module, _, attr = name.rpartition(".")
    obj = getattr(cli if module else ellipcert, attr)
    typing.get_type_hints(obj)
    for method in vars(obj).values() if isinstance(obj, type) else ():
        method = getattr(method, "__func__", method)  # staticmethod, classmethod
        if callable(method):
            typing.get_type_hints(method)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        assert ellipcert.__version__ == tomllib.load(fh)["project"]["version"]
