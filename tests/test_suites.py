"""``run_suite`` runs each criterion in a forked worker process: its report
is the serial one, whatever the number of CPUs."""

import multiprocessing
import os

import pytest

from sumsetlab import suites
from sumsetlab.core import BudgetError, sum_limit


@pytest.fixture(scope="module")
def serial_smoke():
    """The oracle: every smoke criterion run in this process, in registry order."""
    return [fn().to_dict() for fn in suites.SMOKE_SUITE.values()]


@pytest.fixture
def workers(monkeypatch):
    """The worker counts of the pools that ``run_suite`` starts."""
    import concurrent.futures

    counts = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            counts.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return counts


@pytest.mark.parametrize("cpus", [None, {0}], ids=["all CPUs", "one CPU"])
def test_report_equals_serial_oracle(serial_smoke, workers, monkeypatch, cpus):
    if cpus is None:
        expected = min(len(os.sched_getaffinity(0)), len(suites.SMOKE_SUITE))
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        expected = 1
    report = suites.run_suite("smoke")
    assert report.to_dict()["criteria"] == serial_smoke
    assert [r.name for r in report.reports] == list(suites.SMOKE_SUITE)
    assert workers == [expected]
    assert multiprocessing.active_children() == []


def test_worker_error_raised_in_caller():
    # the caller's sum limit reaches the workers, and their refusal comes back
    with sum_limit(10), pytest.raises(BudgetError, match="budget of 10"):
        suites.run_suite("smoke")
    assert multiprocessing.active_children() == []


def test_unknown_suite_refused():
    with pytest.raises(ValueError, match="unknown suite"):
        suites.run_suite("nightly")
