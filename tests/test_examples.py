"""Smoke tests: every example script compiles; the quick ones run."""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

ALL_SCRIPTS = sorted(p.name for p in EXAMPLES.glob("*.py"))
QUICK_SCRIPTS = ["quickstart.py", "fair_share_brokering.py",
                 "dynamic_reconfiguration.py"]


class TestExamples:
    def test_inventory(self):
        """The README's example table stays in sync with the directory."""
        assert set(ALL_SCRIPTS) == {
            "quickstart.py", "fair_share_brokering.py",
            "scalability_study.py", "dynamic_reconfiguration.py"}

    @pytest.mark.parametrize("script", ALL_SCRIPTS)
    def test_compiles(self, script):
        py_compile.compile(str(EXAMPLES / script), doraise=True)

    @pytest.mark.parametrize("script", QUICK_SCRIPTS)
    def test_quick_examples_run(self, script):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / script)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip()
