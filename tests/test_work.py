"""The committed exact work of every program (``benchmarks/work.json``).

Regenerates the record — every network × strategy × dtype program
compiled, planned at heights 1 and 8 and run once — and compares it
with the committed file cell by cell.  A change that moves a count
fails here until the file is rewritten, and the failure lists the moved
cells: that list is the change's exact effect on the work.
"""

import importlib.util
import json
import os

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")


def load_work():
    spec = importlib.util.spec_from_file_location(
        "work", os.path.join(BENCHMARKS, "work.py"))
    work = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(work)
    return work


def moved_cells(committed, current):
    """``"entry: cell committed -> current"`` for every cell that differs,
    an entry or cell on one side only included."""
    moved = []
    for entry in sorted(committed.keys() | current.keys()):
        old, new = committed.get(entry, {}), current.get(entry, {})
        for cell in sorted(old.keys() | new.keys()):
            if old.get(cell) != new.get(cell):
                moved.append(f"{entry}: {cell} {old.get(cell)} -> "
                             f"{new.get(cell)}")
    return moved


def test_committed_work_is_the_programs_work():
    work = load_work()
    with open(work.PATH) as handle:
        text = handle.read()
    current = work.work_record()
    moved = moved_cells(json.loads(text), current)
    assert not moved, (
        f"{len(moved)} cell(s) of benchmarks/work.json moved:\n  "
        + "\n  ".join(moved)
        + "\nIf the change means to move them, rewrite the record with "
        "`PYTHONPATH=src python benchmarks/work.py` and list the moved "
        "cells in CHANGES.md."
    )
    assert text == work.dumps(current)  # the bytes too: order, layout

