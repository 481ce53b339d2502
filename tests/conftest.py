"""Hypothesis profiles.

`timing` draws the same examples on every run and replays none from the
example database, so that wall times of the suite can be compared before
and after a change:

    PYTHONPATH=src python -m pytest -q --hypothesis-profile=timing

Without the option the default profile runs, which draws new examples on
every run.
"""

from hypothesis import settings

settings.register_profile("timing", derandomize=True, database=None)
