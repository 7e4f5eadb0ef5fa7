"""README's examples run as written: each `ellipcert ...` line of its sh
blocks exits 0 through cli.main, in-process, and its Python library block
runs without error."""

import re
import shlex
from pathlib import Path

import pytest

from ellipcert import cli

README = (Path(__file__).parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


# each `ellipcert ...` line of the sh blocks, its comment cut off
COMMANDS = [shlex.split(line, comments=True)[1:] for block in _blocks("sh")
            for line in block.splitlines() if line.startswith("ellipcert ")]


def test_usage_block_found():
    assert len(COMMANDS) == 8
    assert ["table", "w_plus", "--grid-n", "1000", "--format", "csv",
            "--out", "wplus.csv"] in COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_usage_line_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # for the line that writes wplus.csv
    assert cli.main(argv) == 0, capsys.readouterr().err
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).read_text()


def test_library_block_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
