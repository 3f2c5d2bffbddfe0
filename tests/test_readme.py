"""The library tour and the CLI examples of README.md run as written, so
that the docs cannot drift from the API."""

import io
import re
import shlex
import sys
from pathlib import Path

from inversive import apollonian, forms, shell

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_tour_runs():
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    assert "apollonian.standard_seed" in tour
    exec(compile(tour, str(README), "exec"), {})


def cli_examples(text):
    """(command, shown output lines) for each "$ inversive ..." line of the
    sh blocks of a README text, the output being the lines after it up to
    the next command or the end of its block."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        shown = None  # lines before the first command of a block are none
        for line in block.splitlines():
            if line.startswith("$ "):
                shown = []
                examples.append((line[2:], shown))
            elif shown is not None and line.strip():
                shown.append(line.strip())
    return [(command, shown) for command, shown in examples
            if command.startswith("inversive ")]


def test_cli_examples_are_found():
    text = ("```sh\npip install -e .\n```\n"
            "```sh\n$ inversive a --x 1\nout\n  more ...\n"
            "$ inversive b | inversive c\n```\n"
            "```sh\nnot shown\n$ pip install .\nnor this\n```\n"
            "```python\n$ inversive d\n```\n")
    assert cli_examples(text) == [("inversive a --x 1", ["out", "more ..."]),
                                  ("inversive b | inversive c", [])]


def test_the_cli_examples_run(tmp_path, monkeypatch, capsys):
    # each command of a pipe runs through shell.run on the output of the
    # one before it; config.json holds the standard seed, and every file
    # named is read and written in tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(
        shell.dumps_config(apollonian.standard_seed(forms.EUCLIDEAN)))
    examples = cli_examples(README.read_text())
    assert len(examples) >= 7
    for command, shown in examples:
        out = ""
        for stage in command.split(" | "):
            argv = shlex.split(stage)
            assert argv[0] == "inversive", command
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            code = shell.run(argv[1:])
            out, err = capsys.readouterr()
            assert code == 0, (stage, err)
        for line in shown:
            if "..." not in line:
                assert line in out, (command, line)
    assert (tmp_path / "packing.svg").read_bytes().startswith(b"<svg")
