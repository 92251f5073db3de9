"""Hypothesis profiles for the test suite.

``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run and prints
the blob that reproduces a failure, so a property that fails in CI fails
the same way locally under the same variable.  Without it Hypothesis keeps
its default, randomised profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
