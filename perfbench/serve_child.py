"""Traced launcher for ``repro-serve serve`` (the traced service run).

    python3 perfbench/serve_child.py SPANS_PATH [serve options...]

Wraps the service's layers (see ``tracing.py``), then hands over to
``repro.service.cli.main(["serve", ...])`` unchanged.  When the server
has drained after SIGTERM and ``main`` returns, the spans are written to
SPANS_PATH.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install_server_layers  # noqa: E402


def main() -> int:
    spans_path, serve_args = sys.argv[1], sys.argv[2:]
    import_start = time.monotonic()
    from repro.service import cli

    imported = time.monotonic()
    tracer = Tracer(run="serve")
    install_server_layers(tracer)
    code = cli.main(["serve", *serve_args])
    tracer.dump(spans_path, import_s=imported - import_start)
    return code


if __name__ == "__main__":
    sys.exit(main())
