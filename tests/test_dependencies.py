"""The package needs numpy and nothing else outside the standard library."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def test_entry_points_import_neither_networkx_nor_scipy():
    probe = ("import sys\n"
             "import repro.cli, repro.experiments.runner, repro.sim.sharded\n"
             "print(sorted(m for m in ('networkx', 'scipy') "
             "if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
