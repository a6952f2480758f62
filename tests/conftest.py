"""Test-suite settings: one deterministic hypothesis profile.

Property tests draw the same examples on every run (`derandomize`), with no
per-example deadline, since a run's wall time depends on the host, and a
bounded number of examples so the suite's time stays fixed.
"""

from hypothesis import settings

settings.register_profile("subsearch", derandomize=True, deadline=None,
                          max_examples=25, database=None)
settings.load_profile("subsearch")
