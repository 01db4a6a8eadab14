"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` derandomizes every
property test and prints the blob that reproduces a failing example."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
