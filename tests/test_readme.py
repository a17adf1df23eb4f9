"""The README's library quick tour and CLI examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from conicarcs.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def cli_examples():
    lines = [line for lang, body in BLOCKS if lang == "sh" for line in body.splitlines()]
    return [line.split("#")[0].split(">")[0].strip()
            for line in lines if line.startswith("conicarcs ")]


def test_readme_shows_every_command():
    assert {c.split()[1] for c in cli_examples()} == {
        "construct", "arclen", "verify", "sweep", "scene", "centre", "oracle"}


def test_quick_tour_runs():
    (body,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(body, "README.md", "exec"), {})


@pytest.mark.parametrize("command", cli_examples())
def test_cli_example_exits_0(capsys, command):
    assert main(shlex.split(command)[1:]) == 0, capsys.readouterr().err
