"""Public-API surface: every exported name is reached by production code
or by the acceptance gate, and the annotations of the public callables
and of every function ``ellipcert.cli`` defines resolve.  Cross-checks
that only tests use belong in tests/oracles.py, not in
``ellipcert.__all__``."""

import ast
import typing
from pathlib import Path

import pytest

import ellipcert
from ellipcert import cli

PACKAGE = Path(ellipcert.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


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


def test_every_public_name_is_reached():
    reached = _used_names(ACCEPTANCE)
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            reached |= _used_names(path)
    # certify, eval and table look their functions up by name: getattr(family, name)
    reached |= {factor for _, factor, _ in cli._CERTIFY_TABLE.values()}
    reached |= {attr for _, _, attr in cli._EVAL_FNS.values()}
    assert sorted(set(ellipcert.__all__) - reached) == []


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
