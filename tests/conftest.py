"""Hypothesis profiles.

The default profile keeps a local run as fast as Hypothesis's own defaults.
``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile, which runs more
examples of every property test; the kernel-equivalence tests set no
``max_examples`` of their own, so they take it from the profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
