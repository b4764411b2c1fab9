"""Correctness plane: online invariants, differential replay, lint.

Three enforcement layers for claims the rest of the codebase makes but
nothing previously verified continuously:

* :mod:`repro.check.invariants` — an online :class:`InvariantChecker`
  registered on the simulator (``run --check``): conservation and
  accounting invariants asserted at every checkpoint, not just at the
  end of a run.
* :mod:`repro.check.differ` — differential replay: run a config pair
  (delta vs flood sync, spans on/off, 1 vs N workers, 1 vs N shards,
  uninterrupted vs restored) and bisect to the *first divergent
  event* instead of a bare "results differ".
* :mod:`repro.check.lint` — AST determinism lint: wall-clock, ambient
  ``random``, unordered-set iteration, and unseeded-numpy use have no
  place in simulation paths.
"""

from repro.check.differ import PAIRS, DiffReport, run_pair
from repro.check.digest import EventJournal, JournalEntry, first_divergence
from repro.check.invariants import (
    InvariantChecker,
    InvariantViolation,
    Violation,
    check_snapshot_invariants,
)
from repro.check.lint import Finding, lint_paths, lint_source

__all__ = [
    "EventJournal",
    "JournalEntry",
    "first_divergence",
    "InvariantChecker",
    "InvariantViolation",
    "Violation",
    "check_snapshot_invariants",
    "DiffReport",
    "PAIRS",
    "run_pair",
    "Finding",
    "lint_paths",
    "lint_source",
]
