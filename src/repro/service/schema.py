"""Validation-first request contract for the simulation service.

Every sweep submitted to the service is parsed against one
self-contained schema *before* anything is queued: unknown fields,
wrong types, out-of-range values, unknown benchmarks, and internally
inconsistent system configurations are all rejected upfront with
field-addressed, actionable messages — the engine only ever sees
perfectly valid work (the AsyncFlow ``SimulationPayload`` philosophy).

A validated :class:`SweepRequest` expands into the cross product of its
benchmarks and configurations as :class:`repro.runner.SimPoint`\\ s, so
the service's unit of work is *exactly* the runner's unit of work and
its cache keys (``SystemConfig.digest()`` + content hash) line up with
every result the batch path ever cached.

The schema is deliberately stdlib-only (dataclasses + explicit
validators): the service must run in the same minimal environment as
the simulator itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import (
    ConfigError,
    DRAM_PARTS,
    SystemConfig,
    default_backend_name,
)
from repro.dram.backends import backend_names, has_backend
from repro.runner import SimPoint
from repro.workloads import BENCHMARKS

__all__ = [
    "MAX_MEMORY_REFS",
    "MIN_MEMORY_REFS",
    "MAX_POINTS_PER_SWEEP",
    "PRIORITY_RANGE",
    "SchemaError",
    "SweepRequest",
    "build_config",
    "parse_sweep_request",
]

#: bounds on one point's measured reference count.  The floor matches
#: :class:`repro.experiments.common.Profile` ("too small to be
#: meaningful"); the ceiling protects the service from a single request
#: monopolizing a worker for hours.
MIN_MEMORY_REFS = 100
MAX_MEMORY_REFS = 5_000_000

#: a sweep expands to benchmarks x configs points; cap the product so a
#: single malformed request cannot flood the queue.
MAX_POINTS_PER_SWEEP = 512

#: inclusive (most-urgent, least-urgent) priority bounds; lower numbers
#: dispatch first.
PRIORITY_RANGE = (0, 9)

#: config sections a request may override, and the top-level switches.
_CONFIG_SECTIONS = ("core", "l1i", "l1d", "l2", "dram", "prefetch")
_CONFIG_FLAGS = ("perfect_l2", "perfect_memory", "software_prefetch")


class SchemaError(ValueError):
    """A request failed validation.

    ``errors`` is a list of ``{"field": dotted.path, "message": why}``
    dicts — every problem found, not just the first, so one round trip
    fixes the whole payload.
    """

    def __init__(self, errors: Sequence[Mapping[str, str]]) -> None:
        self.errors: List[Dict[str, str]] = [dict(e) for e in errors]
        lines = "; ".join(f"{e['field']}: {e['message']}" for e in self.errors)
        super().__init__(f"invalid sweep request — {lines}")

    def to_dict(self) -> Dict[str, object]:
        return {"error": "invalid-request", "errors": self.errors}


class _Collector:
    """Accumulates field-addressed validation errors."""

    def __init__(self) -> None:
        self.errors: List[Dict[str, str]] = []

    def add(self, field: str, message: str) -> None:
        self.errors.append({"field": field, "message": message})

    def raise_if_any(self) -> None:
        if self.errors:
            raise SchemaError(self.errors)


def _suggest(name: str, known: Sequence[str]) -> str:
    """Nearest known name, for "did you mean" hints (cheap prefix/overlap)."""
    name_lower = name.lower()
    best, best_score = "", 0
    for candidate in known:
        score = sum(
            1 for a, b in zip(name_lower, candidate.lower()) if a == b
        )
        if candidate.lower().startswith(name_lower[:3]):
            score += 2
        if score > best_score:
            best, best_score = candidate, score
    return f" (did you mean {best!r}?)" if best_score >= 2 else ""


#: the JSON types a section field of each annotation accepts, and how a
#: message names them.  A bool is never an int here, nor an int a bool.
_FIELD_TYPES: Dict[str, Tuple[Tuple[type, ...], str]] = {
    "bool": ((bool,), "a boolean"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
}


def _field_value(value: Any, annotation: str) -> Any:
    """``value`` as a field annotated ``annotation`` stores it.

    An int given for a float field becomes that float, so one machine
    has one digest however its numbers were written.  Raises
    :class:`ValueError` with the message for the field's path.
    """
    accepted, noun = _FIELD_TYPES[annotation]
    if isinstance(value, bool) != (annotation == "bool") or not isinstance(
        value, accepted
    ):
        raise ValueError(f"must be {noun}, got {type(value).__name__}")
    if annotation == "float":
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError("must be a finite number")
    return value


#: validated configs by (default DRAM backend, canonical overrides JSON):
#: a repeated config is validated, built and digested once per process.
#: Insertion-ordered; the oldest entry goes first once it is full.
_INTERNED: Dict[Tuple[str, str], SystemConfig] = {}
_INTERNED_MAX = 256
_INTERNED_LOCK = threading.Lock()


def build_config(
    overrides: Mapping[str, Any], field_prefix: str = "config"
) -> SystemConfig:
    """A validated :class:`SystemConfig` from a dict of overrides.

    ``overrides`` maps section names (``core``/``l1i``/``l1d``/``l2``/
    ``dram``/``prefetch``) to dicts of field overrides, plus the
    top-level boolean switches.  ``dram.part`` may be a speed-grade
    name from :data:`repro.core.config.DRAM_PARTS`.  Anything unknown,
    ill-typed, or internally inconsistent raises :class:`SchemaError`
    with the full dotted field path.

    Equal overrides (in any key order) return the one interned
    instance, so its digest is computed once; errors are never kept.
    The key carries the default backend, which ``REPRO_BACKEND`` sets.
    """
    try:
        key: Optional[Tuple[str, str]] = (
            default_backend_name(),
            json.dumps(overrides, sort_keys=True, separators=(",", ":")),
        )
    except (TypeError, ValueError):
        key = None  # not JSON: _build_config reports why
    config = _INTERNED.get(key)
    if config is None:
        config = _build_config(overrides, field_prefix)
        if key is not None:
            with _INTERNED_LOCK:
                if len(_INTERNED) >= _INTERNED_MAX:
                    del _INTERNED[next(iter(_INTERNED))]
                _INTERNED[key] = config
    return config


def _build_config(overrides: Mapping[str, Any], field_prefix: str) -> SystemConfig:
    errors = _Collector()
    if not isinstance(overrides, Mapping):
        errors.add(field_prefix, f"must be an object, got {type(overrides).__name__}")
        errors.raise_if_any()
    base = SystemConfig()
    replacements: Dict[str, Any] = {}
    for key, value in overrides.items():
        if key in _CONFIG_FLAGS:
            if not isinstance(value, bool):
                errors.add(f"{field_prefix}.{key}", "must be a boolean")
            else:
                replacements[key] = value
            continue
        if key not in _CONFIG_SECTIONS:
            known = list(_CONFIG_SECTIONS) + list(_CONFIG_FLAGS)
            errors.add(
                f"{field_prefix}.{key}",
                f"unknown config section{_suggest(key, known)}; "
                f"expected one of {', '.join(known)}",
            )
            continue
        if not isinstance(value, Mapping):
            errors.add(f"{field_prefix}.{key}", "must be an object of field overrides")
            continue
        section = getattr(base, key)
        fields = {f.name: f for f in dataclasses.fields(section)}
        section_overrides: Dict[str, Any] = {}
        for fname, fvalue in value.items():
            path = f"{field_prefix}.{key}.{fname}"
            if fname not in fields:
                errors.add(
                    path,
                    f"unknown field{_suggest(fname, list(fields))}; "
                    f"expected one of {', '.join(sorted(fields))}",
                )
                continue
            if key == "dram" and fname == "part":
                if not isinstance(fvalue, str) or fvalue not in DRAM_PARTS:
                    errors.add(
                        path,
                        f"unknown DRDRAM part {fvalue!r}; "
                        f"expected one of {', '.join(sorted(DRAM_PARTS))}",
                    )
                    continue
                fvalue = DRAM_PARTS[fvalue]
            elif key == "dram" and fname == "backend":
                # Checked here, not in DRAMConfig's own validation, so
                # the client gets a field-addressed 400 enumerating the
                # registered backends instead of a deep ConfigError.
                if not isinstance(fvalue, str) or not has_backend(fvalue):
                    known = backend_names()
                    shown = fvalue if isinstance(fvalue, str) else repr(fvalue)
                    errors.add(
                        path,
                        f"unknown DRAM backend {shown!r}"
                        f"{_suggest(str(fvalue), known)}; "
                        f"expected one of {', '.join(known)}",
                    )
                    continue
            else:
                try:
                    fvalue = _field_value(fvalue, fields[fname].type)
                except ValueError as exc:
                    errors.add(path, str(exc))
                    continue
            section_overrides[fname] = fvalue
        if section_overrides:
            try:
                replacements[key] = dataclasses.replace(section, **section_overrides)
            except ConfigError as exc:
                errors.add(f"{field_prefix}.{key}", str(exc))
            except (TypeError, ValueError) as exc:
                errors.add(f"{field_prefix}.{key}", f"invalid overrides: {exc}")
    errors.raise_if_any()
    try:
        return dataclasses.replace(base, **replacements).validate()
    except ConfigError as exc:
        raise SchemaError([{"field": field_prefix, "message": str(exc)}]) from exc


@dataclass(frozen=True)
class SweepRequest:
    """One validated sweep: benchmarks x configs at a fixed effort.

    Construct through :func:`parse_sweep_request` — the constructor
    assumes already-validated parts.  ``configs`` holds the *resolved*
    :class:`SystemConfig` objects alongside the raw override payloads
    (``config_payloads``) so the journal can replay the exact request.
    """

    benchmarks: Tuple[str, ...]
    configs: Tuple[SystemConfig, ...]
    config_payloads: Tuple[Dict[str, Any], ...]
    memory_refs: int
    seed: int = 0
    priority: int = 5
    tags: Optional[Dict[str, str]] = None
    #: client-chosen correlation id, echoed through run-log events and
    #: job status; defaults to the job id when omitted.
    trace_id: Optional[str] = None

    def points(self) -> List[SimPoint]:
        """The sweep's cross product as runner points, in stable order."""
        return [
            SimPoint(
                benchmark=benchmark,
                config=config,
                memory_refs=self.memory_refs,
                seed=self.seed,
            )
            for config in self.configs
            for benchmark in self.benchmarks
        ]

    def canonical(self) -> str:
        """:meth:`to_dict` as canonical JSON, encoded once per request.

        Its length is what the request holds of the admission byte
        budget, and its hash is in the job id.  Kept on the instance
        like :meth:`SystemConfig.digest`, outside the dataclass fields.
        """
        cached = self.__dict__.get("_canonical")
        if cached is None:
            cached = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            object.__setattr__(self, "_canonical", cached)
        return cached

    def to_dict(self) -> Dict[str, object]:
        """Journal/replay form: raw payloads, not resolved dataclasses."""
        out: Dict[str, object] = {
            "benchmarks": list(self.benchmarks),
            "configs": [dict(p) for p in self.config_payloads],
            "memory_refs": self.memory_refs,
            "seed": self.seed,
            "priority": self.priority,
        }
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out


def _check_int(
    errors: _Collector,
    payload: Mapping[str, Any],
    field: str,
    default: int,
    low: int,
    high: int,
) -> int:
    value = payload.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        errors.add(field, f"must be an integer, got {type(value).__name__}")
        return default
    if not low <= value <= high:
        errors.add(field, f"must be in [{low}, {high}], got {value}")
        return default
    return value


_KNOWN_FIELDS = (
    "benchmarks",
    "configs",
    "config",
    "memory_refs",
    "seed",
    "priority",
    "tags",
    "trace_id",
)

#: charset/length bounds for client trace ids: they land in log lines,
#: file names, and metric labels, so keep them boring.
_TRACE_ID_MAX_LEN = 128
_TRACE_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._:-"
)


def parse_sweep_request(payload: Mapping[str, Any]) -> SweepRequest:
    """Validate one raw submission payload into a :class:`SweepRequest`.

    Collects *every* problem before raising, so the caller's 400
    response lists all fixes at once.  Accepts either ``config`` (one
    override object) or ``configs`` (a list of them); an omitted config
    means the paper's baseline system.
    """
    errors = _Collector()
    if not isinstance(payload, Mapping):
        raise SchemaError(
            [{"field": "<root>", "message": "request body must be a JSON object"}]
        )
    for key in payload:
        if key not in _KNOWN_FIELDS:
            errors.add(
                key,
                f"unknown field{_suggest(str(key), list(_KNOWN_FIELDS))}; "
                f"expected one of {', '.join(_KNOWN_FIELDS)}",
            )

    raw_benchmarks = payload.get("benchmarks")
    benchmarks: Tuple[str, ...] = ()
    if raw_benchmarks is None:
        errors.add("benchmarks", "is required (a non-empty list of benchmark names)")
    elif not isinstance(raw_benchmarks, (list, tuple)) or not raw_benchmarks:
        errors.add("benchmarks", "must be a non-empty list of benchmark names")
    else:
        names: List[str] = []
        for i, name in enumerate(raw_benchmarks):
            if not isinstance(name, str):
                errors.add(f"benchmarks[{i}]", "must be a string")
            elif name not in BENCHMARKS:
                errors.add(
                    f"benchmarks[{i}]",
                    f"unknown benchmark {name!r}{_suggest(name, BENCHMARKS)}; "
                    f"see GET /v1/contract for the full list",
                )
            elif name in names:
                errors.add(f"benchmarks[{i}]", f"duplicate benchmark {name!r}")
            else:
                names.append(name)
        benchmarks = tuple(names)

    if "config" in payload and "configs" in payload:
        errors.add("config", "give either 'config' or 'configs', not both")
    raw_configs = payload.get("configs")
    if raw_configs is None:
        raw_configs = [payload.get("config", {})]
    if not isinstance(raw_configs, (list, tuple)) or not raw_configs:
        errors.add("configs", "must be a non-empty list of config-override objects")
        raw_configs = []

    memory_refs = _check_int(
        errors, payload, "memory_refs", 8_000, MIN_MEMORY_REFS, MAX_MEMORY_REFS
    )
    seed = _check_int(errors, payload, "seed", 0, 0, 2**31 - 1)
    priority = _check_int(
        errors, payload, "priority", 5, PRIORITY_RANGE[0], PRIORITY_RANGE[1]
    )

    tags = payload.get("tags")
    if tags is not None:
        if not isinstance(tags, Mapping) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in tags.items()
        ):
            errors.add("tags", "must be an object of string keys to string values")
            tags = None

    trace_id = payload.get("trace_id")
    if trace_id is not None:
        if not isinstance(trace_id, str) or not trace_id:
            errors.add("trace_id", "must be a non-empty string")
            trace_id = None
        elif len(trace_id) > _TRACE_ID_MAX_LEN:
            errors.add(
                "trace_id",
                f"must be at most {_TRACE_ID_MAX_LEN} characters, "
                f"got {len(trace_id)}",
            )
            trace_id = None
        elif not set(trace_id) <= _TRACE_ID_CHARS:
            errors.add(
                "trace_id",
                "may only contain letters, digits, and the characters . _ : -",
            )
            trace_id = None

    configs: List[SystemConfig] = []
    config_payloads: List[Dict[str, Any]] = []
    for i, overrides in enumerate(raw_configs):
        field = f"configs[{i}]" if len(raw_configs) > 1 else "config"
        try:
            configs.append(build_config(overrides, field_prefix=field))
            config_payloads.append(dict(overrides))
        except SchemaError as exc:
            errors.errors.extend(exc.errors)

    if benchmarks and configs:
        total = len(benchmarks) * len(configs)
        if total > MAX_POINTS_PER_SWEEP:
            errors.add(
                "configs",
                f"sweep expands to {total} points "
                f"({len(benchmarks)} benchmarks x {len(configs)} configs); "
                f"the limit is {MAX_POINTS_PER_SWEEP} — split the sweep",
            )

    errors.raise_if_any()
    return SweepRequest(
        benchmarks=benchmarks,
        configs=tuple(configs),
        config_payloads=tuple(config_payloads),
        memory_refs=memory_refs,
        seed=seed,
        priority=priority,
        tags=dict(tags) if tags else None,
        trace_id=trace_id,
    )


def contract_description(
    limits: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Machine-readable contract summary served at ``GET /v1/contract``.

    ``limits`` (from :meth:`repro.service.engine.ServiceConfig.limits`)
    adds the instance's admission/robustness knobs, so a client can see
    the backpressure thresholds it will be held to.
    """
    out: Dict[str, object] = {
        "fields": {
            "benchmarks": f"required: non-empty list drawn from {len(BENCHMARKS)} names",
            "config | configs": "optional: system-config override object(s); "
            f"sections {', '.join(_CONFIG_SECTIONS)}; flags {', '.join(_CONFIG_FLAGS)}",
            "memory_refs": f"optional int in [{MIN_MEMORY_REFS}, {MAX_MEMORY_REFS}] (default 8000)",
            "seed": "optional int >= 0 (default 0)",
            "priority": f"optional int in [{PRIORITY_RANGE[0]}, {PRIORITY_RANGE[1]}], "
            "lower dispatches first (default 5)",
            "tags": "optional string-to-string object, echoed back verbatim",
            "trace_id": "optional correlation id (letters, digits, . _ : -, "
            f"max {_TRACE_ID_MAX_LEN} chars) threaded through run-log events; "
            "defaults to the job id",
        },
        "benchmarks": list(BENCHMARKS),
        "dram_parts": sorted(DRAM_PARTS),
        "dram_backends": list(backend_names()),
        "max_points_per_sweep": MAX_POINTS_PER_SWEEP,
    }
    if limits is not None:
        out["service_limits"] = dict(limits)
    return out
