"""Run the runnable examples embedded in docstrings.

Docstring examples are documentation that can silently rot; running them
keeps the copy-pasteable snippets honest.  Only modules whose examples
are deterministic are included.
"""

import doctest

import pytest

import repro.aggregation.error_bounds
import repro.bench.batch
import repro.campaign.runner
import repro.mechanisms.dp_hsrc
import repro.privacy.budget
import repro.privacy.budget.admission
import repro.privacy.budget.context
import repro.privacy.budget.journal
import repro.privacy.budget.store
import repro.privacy.composition
import repro.utils.rng
import repro.utils.tables
import repro.utils.timer

MODULES = [
    repro.utils.rng,
    repro.bench.batch,
    repro.campaign.runner,
    repro.utils.timer,
    repro.utils.tables,
    repro.mechanisms.dp_hsrc,
    repro.aggregation.error_bounds,
    repro.privacy.budget,
    repro.privacy.budget.store,
    repro.privacy.budget.journal,
    repro.privacy.budget.admission,
    repro.privacy.budget.context,
    repro.privacy.composition,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"


def test_package_quickstart_doctest():
    """The quickstart in the package docstring must run as written."""
    import repro

    results = doctest.testmod(repro, verbose=False)
    assert results.failed == 0
