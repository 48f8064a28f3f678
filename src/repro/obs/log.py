"""Structured logging shared by the runner and CLIs.

Two sinks:

* :class:`Logger` — leveled human-readable lines on ``sys.stderr``,
  replacing the ad-hoc ``print(..., file=sys.stderr)`` calls that were
  scattered through the runner.  The threshold comes from the
  ``REPRO_LOG_LEVEL`` environment variable (``debug`` / ``info`` /
  ``warning`` / ``error``; default ``info``) and is read at call time,
  so tests and long-lived processes can change it without re-importing.
  Messages are printed verbatim (no timestamp/level prefix): the
  runner's existing ``[runner] ...`` message text is part of its
  observable behaviour and stays byte-stable.

* :class:`JsonlSink` — one JSON object per line, for machine-readable
  run telemetry (the runner's point started/retried/timed-out/completed
  stream).  Every record carries the monotonic wall-clock ``ts`` the
  sink stamps at write time.

``sys.stderr`` is looked up per call (never captured at import), so
pytest's ``capsys`` and stream redirection keep working.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Optional, TextIO, Union

__all__ = ["LEVELS", "Logger", "JsonlSink", "get_logger", "log_threshold"]

#: symbolic level name -> numeric severity.
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}

_DEFAULT_LEVEL = "info"


def log_threshold() -> int:
    """Numeric severity below which messages are suppressed.

    Read from ``REPRO_LOG_LEVEL`` on every call; an unknown value falls
    back to ``info`` rather than erroring (logging must never take the
    run down).
    """
    name = os.environ.get("REPRO_LOG_LEVEL", _DEFAULT_LEVEL).strip().lower()
    return LEVELS.get(name, LEVELS[_DEFAULT_LEVEL])


class Logger:
    """Leveled stderr logger with byte-stable message text."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def log(self, level: int, message: str) -> None:
        if level >= log_threshold():
            # sys.stderr resolved per call: test harnesses swap it.
            print(message, file=sys.stderr, flush=True)

    def debug(self, message: str) -> None:
        self.log(LEVELS["debug"], message)

    def info(self, message: str) -> None:
        self.log(LEVELS["info"], message)

    def warning(self, message: str) -> None:
        self.log(LEVELS["warning"], message)

    def error(self, message: str) -> None:
        self.log(LEVELS["error"], message)


_loggers: Dict[str, Logger] = {}


def get_logger(name: str) -> Logger:
    """Shared :class:`Logger` instance for ``name``."""
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = Logger(name)
    return logger


class JsonlSink:
    """Append-structured-records-to-a-file sink (one JSON object/line).

    ``mode`` is ``"w"`` (truncate — per-run telemetry like the runner's
    run log) or ``"a"`` (append — durable journals that must accumulate
    across process restarts, e.g. the service job queue).
    """

    def __init__(self, target: Union[str, Path, TextIO], mode: str = "w") -> None:
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
        self.path: Optional[Path]
        if hasattr(target, "write"):
            self.path = None
            self._stream: Optional[TextIO] = target  # type: ignore[assignment]
            self._owns_stream = False
        else:
            self.path = Path(target)
            if self.path.parent and not self.path.parent.exists():
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(self.path, mode, encoding="utf-8")
            self._owns_stream = True

    def event(self, event: str, **fields: object) -> int:
        """Write one record: ``{"event": ..., "ts": <unix time>, ...}``.

        Returns the line's length, which is its size in bytes: the JSON
        is ASCII (0 once the sink is closed)."""
        if self._stream is None:
            return 0
        record: Dict[str, object] = {"event": event, "ts": round(time.time(), 6)}
        record.update(fields)
        line = json.dumps(record, sort_keys=True) + "\n"
        self._stream.write(line)
        self._stream.flush()
        return len(line)

    def close(self) -> None:
        if self._stream is not None and self._owns_stream:
            self._stream.close()
        self._stream = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
