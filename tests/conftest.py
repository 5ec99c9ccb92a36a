"""Hypothesis profiles; select one with --hypothesis-profile=<name>.

ci: the same examples on every run and no example database, with the
reproduction blob printed on failure, so a failing property reproduces
from the log alone.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
