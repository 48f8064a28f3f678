"""Shared test configuration: deterministic hypothesis profiles, an
environment free of the developer's ``REPRO_*`` variables, and a private
trace store.

Two registered profiles:

* ``ci`` — fully deterministic: fixed seed via ``derandomize`` so a CI
  run can never flake on a freshly generated example, and no deadline
  so slow shared runners don't fail healthy tests.
* ``dev`` — hypothesis defaults (random exploration), for local runs
  hunting new counterexamples.

CI selects with ``HYPOTHESIS_PROFILE=ci``; the default is ``dev`` so
local development keeps exploring fresh inputs.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", deadline=None)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

#: the ``REPRO_*`` variables CI sets for the suite on purpose.
_KEPT_VARIABLES = ("REPRO_PROFILE", "REPRO_GOLDEN_FULL")


def pytest_configure(config):
    """Drop every other inherited ``REPRO_*`` variable before any test
    module is imported (some build configs at import): a backend, result
    cache or fault plan left in the developer's shell would change what
    the suite checks or where it writes."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        if name not in _KEPT_VARIABLES:
            del os.environ[name]


@pytest.fixture(autouse=True, scope="session")
def _session_trace_store(tmp_path_factory):
    """Every point a test resolves builds its traces through the trace
    store, whose default lives under ``~/.cache/repro``: a test run must
    neither fill the user's store nor read entries back from it.  The
    session gets its own store instead; a test that sets
    ``REPRO_TRACE_STORE`` itself still wins."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TRACE_STORE", str(tmp_path_factory.mktemp("traces")))
        yield
