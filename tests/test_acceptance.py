"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines,
or `cuspcal verify` for the CSV reports.
"""

import pytest

from cuspcal.suites import CRITERIA, run_criteria

SEED = 12345  # the default seed of `cuspcal verify`


@pytest.mark.parametrize("index,name,fn",
                         CRITERIA, ids=[f"{i:02d}-{n}" for i, n, _ in CRITERIA])
def test_acceptance_criterion(index, name, fn):
    results = run_criteria(SEED, [index])
    result = results[0]
    print(result.line())
    assert result.passed, result.message
