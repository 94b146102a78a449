"""Hypothesis profiles.  Tier-1 runs the default budget; the "deep" profile
(`pytest --hypothesis-profile=deep`) raises max_examples for every property
whose @settings leaves it unset."""

from hypothesis import settings

settings.register_profile("deep", max_examples=500, deadline=None)
