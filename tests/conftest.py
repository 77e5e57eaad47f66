"""Hypothesis settings for the whole suite: a failing example also prints
its `@reproduce_failure` line, so a failure seen once can be replayed."""

from hypothesis import settings

settings.register_profile("ffsubspace", print_blob=True)
settings.load_profile("ffsubspace")
