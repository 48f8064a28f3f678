"""``python -m repro.dram.backends``: the timing-table self-check
(:func:`repro.dram.backends.main`).

It lives here, not in ``repro/dram/backends/__init__.py``, because the
``repro.dram`` package's import already loads that module: ``runpy``
would warn on every run that it executes a module already in
``sys.modules``.
"""

import sys

from repro.dram.backends import main

sys.exit(main())
