"""Every ``digruber …`` line in the docs is one the CLI accepts.

Invocations are taken from fenced blocks and inline code spans of
README.md, EXPERIMENTS.md and DESIGN.md and handed to
``build_parser().parse_args`` — parsed, never executed.  A two-word
span (`` `digruber top` ``) names a command rather than invoking it and
only has to name one that exists.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _COMMANDS, build_parser

REPO = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")

#: Stand-ins the docs use where a value goes.
PLACEHOLDERS = {"N": "1", "<name>": "observers"}


def _logical_lines(block, first_line):
    """Fenced-block lines with ``\\`` continuations joined."""
    pending, start = "", first_line
    for offset, line in enumerate(block.split("\n")):
        if not pending:
            start = first_line + offset
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield start, pending + line
        pending = ""


def _invocations(doc):
    """``(line number, command text)`` for every ``digruber`` mention."""
    text = (REPO / doc).read_text()
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    for m in fence.finditer(text):
        first = text.count("\n", 0, m.start(1)) + 1
        for lineno, line in _logical_lines(m.group(1), first):
            line = line.strip().removeprefix("$ ")
            if line.startswith("digruber "):
                # Drop the trailing comment and anything the shell,
                # not digruber, would consume.
                yield lineno, re.split(r"\s#|\s[&|>;]", line)[0]
    prose = fence.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    for m in re.finditer(r"`([^`]+)`", prose):
        span = " ".join(m.group(1).split())
        if span.startswith("digruber "):
            yield prose.count("\n", 0, m.start()) + 1, span


def _cases():
    for doc in DOCS:
        for lineno, command in _invocations(doc):
            yield pytest.param(command, id="%s:%d" % (doc, lineno))


def test_docs_mention_the_cli():
    assert len(list(_cases())) > 40


@pytest.mark.parametrize("command", _cases())
def test_documented_command_parses(command, capsys):
    argv = [PLACEHOLDERS.get(tok, tok) for tok in shlex.split(command)[1:]
            if tok != "…"]
    if len(argv) == 1:
        assert argv[0] in _COMMANDS, command
        return
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail("%s\n%s" % (command, capsys.readouterr().err),
                    pytrace=False)
