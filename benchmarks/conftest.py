"""Shared fixtures for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper and
asserts its qualitative shape.  The simulation effort is controlled by
``REPRO_PROFILE`` (default ``tiny`` here so the whole bench suite runs
in minutes); use ``quick`` or ``full`` to regenerate EXPERIMENTS.md
numbers.
"""

import pytest

from repro.experiments.common import active_profile


@pytest.fixture(scope="session")
def profile():
    return active_profile(default="tiny")
