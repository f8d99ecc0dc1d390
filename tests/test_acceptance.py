"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Each
criterion runs its rows of the check table in `risgeo.validation` (the same
rows `risgeo validate` runs) at the criterion's pinned seed and trial count,
and must pass every part within its runtime budget.
"""

import time

import pytest

from risgeo.validation import CRITERIA, run_criterion


@pytest.mark.parametrize(
    "number",
    sorted(CRITERIA),
    ids=[f"{n:02d}_{CRITERIA[n].name.replace(' ', '_')}" for n in sorted(CRITERIA)],
)
def test_criterion(number):
    crit = CRITERIA[number]
    start = time.perf_counter()
    parts = run_criterion(number)
    elapsed = time.perf_counter() - start
    ok = all(p[0] for p in parts) and elapsed <= crit.budget_s
    detail = "; ".join(p[1] for p in parts)
    line = (
        f"ACCEPTANCE {number:2d} [{crit.name}]: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.1f}s/{crit.budget_s:.0f}s) {detail}"
    )
    print(line)
    assert ok, line
