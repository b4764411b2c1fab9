"""Every ``digruber …`` line in the docs is one the CLI accepts.

Invocations are taken from fenced blocks and inline code spans of
README.md, EXPERIMENTS.md and DESIGN.md and handed to
``build_parser().parse_args`` — parsed, never executed.  A two-word
span (`` `digruber top` ``) names a command rather than invoking it and
only has to name one that exists.  A case is keyed by its document and
command text, so editing a document elsewhere never renames it; the
id leads with a short digest of that key, so two long commands that
share a prefix still differ in the first few dozen characters.
"""

import hashlib
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import _COMMANDS, build_parser

REPO = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")

#: Stand-ins the docs use where a value goes.
PLACEHOLDERS = {"N": "1", "<name>": "observers"}


def _logical_lines(block):
    """Fenced-block lines with ``\\`` continuations joined."""
    pending = ""
    for line in block.split("\n"):
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield pending + line
        pending = ""


def _invocations(doc):
    """The command text of every ``digruber`` mention, in order."""
    text = (REPO / doc).read_text()
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    for m in fence.finditer(text):
        for line in _logical_lines(m.group(1)):
            line = line.strip().removeprefix("$ ")
            if line.startswith("digruber "):
                # Drop the trailing comment and anything the shell,
                # not digruber, would consume.
                yield " ".join(re.split(r"\s#|\s[&|>;]", line)[0].split())
    for m in re.finditer(r"`([^`]+)`", fence.sub("", text)):
        span = " ".join(m.group(1).split())
        if span.startswith("digruber "):
            yield span


def _cases():
    for doc in DOCS:
        seen = Counter()
        for command in _invocations(doc):
            # The n-th repeat of a command in a document is "command #n".
            seen[command] += 1
            key = command if seen[command] == 1 else "%s #%d" % (
                command, seen[command])
            digest = hashlib.sha1(key.encode()).hexdigest()[:8]
            yield pytest.param(command, id="%s:%s:%s" % (doc, digest, key))


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
