"""Hypothesis profiles shared by the whole suite.

Tier-1 runs Hypothesis' default profile, so every property keeps the
example budget written on it.  ``--hypothesis-profile=ci-deep`` (the CI
``fault-injection`` job) loads a profile with ten times the default
``max_examples``; properties that pin their own budget opt in to the
scaling through :func:`examples`.
"""

from hypothesis import settings

settings.register_profile("ci-deep", max_examples=1000, deadline=None)


def examples(tier1: int) -> int:
    """Example budget of a property whose tier-1 budget is ``tier1``:
    scaled by the loaded profile's ``max_examples`` against the default
    profile's 100 (unchanged in tier-1, ten times under ``ci-deep``)."""
    return tier1 * settings.default.max_examples // 100
