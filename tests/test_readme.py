"""The README's library examples and command lines run as documented."""
import re
import textwrap
from pathlib import Path

import pytest

from qdspin.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# fenced python blocks, also those indented under a list item
BLOCKS = [textwrap.dedent(m.group(2)) for m in
          re.finditer(r"^( *)```python\n(.*?)^\1```", README.read_text(), flags=re.MULTILINE | re.DOTALL)]
# the lines of the fenced block that opens "Command line", each as its argument list
COMMANDS = [line.split() for line in
            re.search(r"^## Command line\n\n```\n(.*?)^```", README.read_text(), flags=re.MULTILINE | re.DOTALL)
            .group(1).splitlines()]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_command_lines():
    assert len(COMMANDS) >= 4 and all(argv[0] == "qdspin" for argv in COMMANDS)


@pytest.mark.parametrize("index", range(len(COMMANDS)))
def test_readme_command_line_runs_and_reruns_from_its_echo(index, tmp_path, monkeypatch, capsys):
    # each line exits 0, and its CSV's config echo, given back as --config, writes the same bytes
    monkeypatch.chdir(tmp_path)
    argv = COMMANDS[index][1:]
    assert main(argv) == 0, capsys.readouterr().err
    first = Path(argv[argv.index("--out") + 1]).read_bytes()
    echo = next(line for line in first.decode().splitlines() if line.startswith("# config="))
    Path("echo.json").write_text(echo.removeprefix("# config="))
    assert main([argv[0], "--config", "echo.json", "--out", "again.csv"]) == 0, capsys.readouterr().err
    assert Path("again.csv").read_bytes() == first
