"""Hypothesis profiles and shared fixtures.

The default profile keeps a local run as fast as Hypothesis's own defaults.
``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile, which runs more
examples of every property test; the kernel-equivalence tests set no
``max_examples`` of their own, so they take it from the profile.
"""

import os

import pytest
from hypothesis import settings

from sylsum import sums
from sylsum.exactnum import FieldElement

settings.register_profile("ci", max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def pow_exponents(monkeypatch):
    """The exponent of every power of lambda that the per-call memo of
    ``sums.evaluate`` forms, read off the order ladder (``ladder_power``) or
    by ``FieldElement.__pow__`` when lambda has no order found, and of every
    other ``__pow__`` call, in call order."""
    seen = []
    power, read = FieldElement.__pow__, sums.ladder_power

    def counted(self, exponent):
        seen.append(exponent)
        return power(self, exponent)

    def counted_read(lam, ladder, exponent):
        seen.append(exponent)
        return read(lam, ladder, exponent)

    monkeypatch.setattr(FieldElement, "__pow__", counted)
    monkeypatch.setattr(sums, "ladder_power", counted_read)
    return seen


@pytest.fixture
def inverse_calls(monkeypatch):
    """The element of every ``FieldElement.inverse`` call, in call order."""
    seen = []
    inverse = FieldElement.inverse

    def counted(self):
        seen.append(self)
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counted)
    return seen
