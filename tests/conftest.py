"""Hypothesis profiles, chosen by the HYPOTHESIS_PROFILE environment variable.

default: hypothesis's own example counts.  ci: ten times as many, in a
fixed order and with no deadline.  A property whose count is written as a
share of settings().max_examples scales with the profile; one with a
fixed max_examples (the mpmath reference of test_closure.py) does not.
"""

import os

from hypothesis import settings

settings.register_profile("default", max_examples=100)
settings.register_profile("ci", max_examples=1000, derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
