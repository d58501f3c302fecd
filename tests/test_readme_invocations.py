"""The README's `oil` invocations and CI's "README invocations" step agree.

CI runs every invocation the README shows, on the symbol files the README
describes; both lists are edited by hand, so this test parses them and
asserts the same commands, in order, and the same symbol-file contents.
The README also names every option of every subcommand.
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from oil.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
CI = (ROOT / ".github" / "workflows" / "ci.yml").read_text()


def readme_invocations() -> list[str]:
    """`oil` lines of the README's sh blocks, with continuations joined and comments dropped."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = line.split("#", 1)[0].split()
            if words[:1] == ["oil"]:
                out.append(" ".join(words[1:]))
    return out


def ci_invocations() -> list[str]:
    body = re.search(r"cmds=\(\n(.*?)\n\s*\)", CI, re.S).group(1)
    return [" ".join(line.strip().strip('"').split()) for line in body.splitlines()]


def ci_symbol_files() -> dict:
    return {name: json.loads(text) for text, name in re.findall(r"echo '(.*)' > (\S+\.json)", CI)}


def test_same_invocations():
    assert readme_invocations() == ci_invocations()
    assert len(ci_invocations()) == 20


def test_same_symbol_files():
    files = ci_symbol_files()
    assert sorted(files) == ["mix.json", "z.json", "zbar.json"]
    for name, rows in files.items():
        # the README names each file in backquotes, then gives its triples in the next [[...]]
        after = README[README.index(f"`{name}`"):]
        assert json.loads(re.search(r"`(\[\[.*?\]\])`", after, re.S).group(1)) == rows, name


def subcommands() -> dict:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


@pytest.mark.parametrize("name", sorted(subcommands()))
def test_every_option_is_documented(name, capsys):
    options = [
        opt
        for action in subcommands()[name]._actions
        if not isinstance(action, argparse._HelpAction)
        for opt in action.option_strings
    ]
    assert options
    undocumented = [opt for opt in options if not re.search(rf"{re.escape(opt)}(?![\w-])", README)]
    assert undocumented == [], name
    assert main([name, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: oil {name}")
