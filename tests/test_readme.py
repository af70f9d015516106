"""The README's command-line tour: every complete example prints what it shows.

An example is a paragraph of a fenced block that starts with
``$ qhashlab``; one with a ``...`` line shows only part of its output
and is skipped.  Key-set names resolve against the bundled tables, and
each command runs in a fresh directory so ``--out`` files land there.
"""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from qhashlab import bundled_table_dir
from qhashlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_examples():
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", README.read_text(), re.S | re.M):
        for paragraph in block.split("\n\n"):
            lines = paragraph.strip("\n").replace("\\\n", " ").splitlines()
            if not lines or not lines[0].startswith("$ qhashlab ") or "..." in lines:
                continue
            args = shlex.split(lines[0])[2:]
            examples.append(pytest.param(args, lines[1:], id=args[0]))
    return examples


@pytest.mark.parametrize("args,expected", tour_examples())
def test_tour_example_prints_its_output(tmp_path, monkeypatch, args, expected):
    monkeypatch.chdir(tmp_path)
    args = [
        str(bundled_table_dir() / value) if flag == "--keyset" else value
        for flag, value in zip([None, *args], args)
    ]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.stdout == "\n".join(expected) + "\n"


def test_tour_examples_are_found():
    assert [param.id for param in tour_examples()] == [
        "bias", "search", "swap-test", "forge-experiment",
    ]
