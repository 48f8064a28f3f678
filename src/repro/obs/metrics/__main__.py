"""``python -m repro.obs.metrics FILE``: the exposition validator
(:func:`repro.obs.metrics.main`).

It lives here, not in ``repro/obs/metrics/__init__.py``, because the
package's import already loads that module: ``runpy`` would warn on
every run that it executes a module already in ``sys.modules``.
"""

import sys

from repro.obs.metrics import main

sys.exit(main())
