"""Run the doctest examples embedded in module/function docstrings, so the
documentation's code snippets are guaranteed to stay true."""

import doctest

import pytest

import repro.common.tables
import repro.common.units
import repro.hw.events

MODULES = [
    repro.common.units,
    repro.common.tables,
    repro.hw.events,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
