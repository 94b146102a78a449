"""Hypothesis profiles.  Tier-1 runs the "tier1" profile: the default budget,
derandomized, so every run draws the same examples and no example database
replays a failure an earlier run found.  The "deep" profile
(`pytest --hypothesis-profile=deep`) draws fresh random examples and raises
max_examples for every property whose @settings leaves it unset."""

from hypothesis import settings

settings.register_profile("deep", max_examples=500, deadline=None)
settings.register_profile("tier1", derandomize=True, database=None)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("tier1")
