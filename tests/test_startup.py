"""Start-up cost guards: importing the command line and building its
parser loads only what every command needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ellipcert

PACKAGE = Path(ellipcert.__file__).parent

# Modules a command pays for only when it uses them: the inequality
# checks (verify), csv (the csv renderer), and dataclasses, which no
# module imports.
DEFERRED = ("dataclasses", "ellipcert.inequalities", "csv")


def test_parser_loads_no_deferred_module():
    # the full build, and the one-command build main makes for each command
    code = ("import sys, ellipcert.cli as cli; cli.build_parser(); "
            "[cli.build_parser(command) for command in cli._COMMANDS]; "
            f"print(sorted(set({DEFERRED!r}) & set(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


def test_no_dataclasses_or_typing_import():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] in ("dataclasses", "typing")]
    assert found == []


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(ellipcert)
    for name in ellipcert.__all__:
        assert getattr(ellipcert, name) is not None
        assert name in listed
