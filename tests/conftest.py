"""Hypothesis profiles and shared fixtures.

The default profile keeps a local run as fast as Hypothesis's own defaults.
``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile, which runs more
examples of every property test; the kernel-equivalence tests set no
``max_examples`` of their own, so they take it from the profile.
"""

import os

import pytest
from hypothesis import settings

from sylsum.exactnum import FieldElement

settings.register_profile("ci", max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def pow_exponents(monkeypatch):
    """The exponent of every ``FieldElement.__pow__`` call, in call order."""
    seen = []
    power = FieldElement.__pow__

    def counted(self, exponent):
        seen.append(exponent)
        return power(self, exponent)

    monkeypatch.setattr(FieldElement, "__pow__", counted)
    return seen
