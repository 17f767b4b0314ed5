"""Suite-wide settings: every hypothesis test draws the same examples on
every run, so a failure reproduces without the example database."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
