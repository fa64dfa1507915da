"""Test-session settings shared by every test module.

Hypothesis runs under a derandomized profile: each property test draws the
same examples on every run, so a Tier-1 result repeats exactly.  Tests keep
their own ``max_examples``; ``deadline=None`` because the exact kernel's
per-example time varies with the host, not with the code under test.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
