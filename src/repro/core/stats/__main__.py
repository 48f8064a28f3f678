"""``python -m repro.core.stats diff A.json B.json``: the stats-diff
command (:func:`repro.core.stats.main`).

It lives here, not in ``repro/core/stats/__init__.py``, because the
package's import already loads that module: ``runpy`` would warn on
every run that it executes a module already in ``sys.modules``.
"""

import sys

from repro.core.stats import main

sys.exit(main())
