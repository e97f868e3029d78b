"""Test-wide hypothesis settings.

Property tests run a fixed, derandomized example sequence with no
per-example deadline, so a run is reproducible and does not fail on a
slow or busy host.
"""

from hypothesis import settings

settings.register_profile("spanforge", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("spanforge")
