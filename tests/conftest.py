"""Hypothesis profiles; select one with --hypothesis-profile=<name>.

ci: the same examples on every run and no example database, with the
reproduction blob printed on failure, so a failing property reproduces
from the log alone.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, print_blob=True)


@pytest.fixture
def set_cpus(monkeypatch):
    """Sets the CPUs `harness.fan_out` sees: with one it runs every job in-process, with two
    the parent runs one share and one forked child the other."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return set_cpus
