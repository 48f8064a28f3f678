"""Lightweight metrics registry with Prometheus text exposition.

The paper's argument is quantitative, and so is the repo's operational
story: the long-running service (:mod:`repro.service`) and the bench
fleet need *live* counters and latency distributions, not just per-run
artifacts.  This module is the missing primitive: a tiny, stdlib-only
metrics registry — counters, gauges, and histograms, each optionally a
labeled family — rendered in the Prometheus text exposition format
(version 0.0.4), so any scraper (or ``curl``) can read the service at
``GET /metrics``.

Design notes:

* **Histograms reuse** :class:`repro.obs.hist.LatencyHistogram` — the
  exact-merge power-of-two machinery every simulator distribution
  already goes through.  A ``scale`` factor maps fractional units
  (seconds) onto the integer-friendly bucket grid: with the default
  ``scale=1024`` a one-millisecond sample still gets ~1 ms resolution
  while the exposition divides the bucket bounds back into seconds.
* **Mirrored counters** — much of the service already keeps
  authoritative monotonic counts (store hits, admission rejects,
  watchdog expiries).  Rather than double-count at every call site,
  :meth:`Counter.set_total` lets a collect callback copy the
  authoritative value in at render time; the guard keeps the series
  monotonic, as Prometheus counters must be.
* **Zero overhead when unused** — a registry is just dicts; nothing
  here is threaded into the simulator hot paths, and the simulation
  statistics are byte-identical whether or not a registry exists (the
  service A/B tests assert it).

:func:`validate_exposition` is the same-spirit companion to
:mod:`repro.obs.validate`: a schema check for the exposition format
(used by ``repro-serve smoke``, the nightly scrape, and the golden
tests), runnable standalone as ``python -m repro.obs.metrics FILE``.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.hist import LatencyHistogram, bucket_upper_bound

__all__ = [
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "main",
    "render_prometheus",
    "validate_exposition",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Prometheus sample value: integers render bare, floats round-trip."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _labels_suffix(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


class Counter:
    """Monotonically non-decreasing sample."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        self.value += amount

    def set_total(self, total: float) -> None:
        """Mirror an authoritative monotonic source (never decreases)."""
        if total > self.value:
            self.value = float(total)


class Gauge:
    """Freely settable sample."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramMetric:
    """A :class:`LatencyHistogram` with unit scaling for the exposition.

    ``observe(v)`` records ``v * scale`` into the power-of-two
    histogram; rendering divides the bucket bounds and the sum back by
    ``scale``, so the exposed series is in the caller's unit (seconds)
    while sub-unit samples keep ~``1/scale`` resolution.
    """

    __slots__ = ("hist", "scale")

    def __init__(self, scale: float = 1024.0) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.hist = LatencyHistogram()
        self.scale = scale

    def observe(self, value: float) -> None:
        self.hist.record(value * self.scale)

    @property
    def count(self) -> int:
        return self.hist.total

    @property
    def sum(self) -> float:
        return self.hist.sum / self.scale

    def percentile(self, fraction: float) -> float:
        """Percentile in the caller's unit (bucket-upper-bound estimate)."""
        if not self.hist.total:
            return 0.0
        return self.hist.percentile(fraction) / self.scale

    def summary(self) -> Dict[str, float]:
        """p50/p95/p99 headline numbers in the caller's unit."""
        return {
            "count": self.hist.total,
            "mean": (self.hist.mean / self.scale) if self.hist.total else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def buckets(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs in ascending order."""
        out: List[Tuple[float, int]] = []
        cumulative = 0
        for index in sorted(self.hist.counts):
            cumulative += self.hist.counts[index]
            out.append((bucket_upper_bound(index) / self.scale, cumulative))
        return out


class _Family:
    """One named metric family: children keyed by label values."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        scale: float = 1024.0,
    ) -> None:
        self.name = _check_name(name)
        self.kind = kind
        self.help = help_text
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.labelnames = labelnames
        self.scale = scale
        self._children: Dict[Tuple[str, ...], object] = {}

    def _make_child(self) -> object:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return HistogramMetric(scale=self.scale)

    def labels(self, **labels: str):
        """Child metric for one label-value combination (get-or-create)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    # An unlabeled family is its own single child: counter/gauge/
    # histogram methods proxy through so `reg.counter("x").inc()` works.

    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is a labeled family; call .labels(...) first"
            )
        child = self._children.get(())
        if child is None:
            child = self._children[()] = self._make_child()
        return child

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def set_total(self, total: float) -> None:
        self._solo().set_total(total)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def summary(self) -> Dict[str, float]:
        return self._solo().summary()

    def buckets(self) -> List[Tuple[float, int]]:
        return self._solo().buckets()

    @property
    def value(self) -> float:
        return self._solo().value

    @property
    def count(self) -> int:
        return self._solo().count

    @property
    def sum(self) -> float:
        return self._solo().sum

    def children(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        if not self.labelnames and not self._children:
            self._solo()  # an unlabeled family always exposes one sample
        return sorted(self._children.items())


class MetricsRegistry:
    """Named families plus collect callbacks, rendered on demand."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._callbacks: List = []

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        scale: float = 1024.0,
    ) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(
                name, kind, help_text, labelnames, scale
            )
        elif family.kind != kind or family.labelnames != labelnames:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind} "
                f"with labels {family.labelnames}"
            )
        return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Tuple[str, ...] = ()
    ) -> _Family:
        return self._family(name, "counter", help_text, tuple(labelnames))

    def gauge(
        self, name: str, help_text: str = "", labelnames: Tuple[str, ...] = ()
    ) -> _Family:
        return self._family(name, "gauge", help_text, tuple(labelnames))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Tuple[str, ...] = (),
        scale: float = 1024.0,
    ) -> _Family:
        return self._family(name, "histogram", help_text, tuple(labelnames), scale)

    def register_callback(self, callback) -> None:
        """``callback(registry)`` runs before every render — the hook
        mirrored counters and point-in-time gauges are refreshed from."""
        self._callbacks.append(callback)

    def families(self) -> List[_Family]:
        return [self._families[name] for name in sorted(self._families)]

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        for callback in self._callbacks:
            callback(self)
        lines: List[str] = []
        for family in self.families():
            if family.help:
                escaped = family.help.replace("\\", "\\\\").replace("\n", "\\n")
                lines.append(f"# HELP {family.name} {escaped}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.children():
                labels = dict(zip(family.labelnames, key))
                if family.kind in ("counter", "gauge"):
                    lines.append(
                        f"{family.name}{_labels_suffix(labels)} "
                        f"{_format_value(child.value)}"
                    )
                else:
                    for upper, cumulative in child.buckets():
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = _format_value(upper)
                        lines.append(
                            f"{family.name}_bucket{_labels_suffix(bucket_labels)} "
                            f"{cumulative}"
                        )
                    inf_labels = dict(labels)
                    inf_labels["le"] = "+Inf"
                    lines.append(
                        f"{family.name}_bucket{_labels_suffix(inf_labels)} "
                        f"{child.count}"
                    )
                    lines.append(
                        f"{family.name}_sum{_labels_suffix(labels)} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_labels_suffix(labels)} "
                        f"{child.count}"
                    )
        return "\n".join(lines) + "\n" if lines else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """Module-level alias for :meth:`MetricsRegistry.render_prometheus`."""
    return registry.render_prometheus()


# ---------------------------------------------------------------------------
# exposition-format validation
# ---------------------------------------------------------------------------

#: one `name="value"` pair; values may contain any escaped or
#: non-quote character (including '}' and ',', so the pair regex — not
#: a naive split — drives label parsing).
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\",?)*)\})?"
    r"\s+(?P<value>[^\s]+)(?:\s+(?P<ts>-?\d+))?$"
)


def _parse_value(raw: str) -> Optional[float]:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        return None


def validate_exposition(
    text: str, expect_families: Iterable[str] = ()
) -> List[str]:
    """Structural check of Prometheus text exposition; returns problems.

    Checks line syntax, that every sample belongs to a ``# TYPE``-declared
    family (histogram samples via their ``_bucket``/``_sum``/``_count``
    suffixes), histogram coherence (a ``+Inf`` bucket, cumulative
    non-decreasing bucket values, ``_count`` equal to the ``+Inf``
    bucket), counter non-negativity, and — when ``expect_families`` is
    given — that each named family is declared *and* carries at least
    one sample.  An empty list means the exposition is valid.
    """
    problems: List[str] = []
    types: Dict[str, str] = {}
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                problems.append(f"line {lineno}: malformed comment {line!r}")
            elif parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    problems.append(f"line {lineno}: bad TYPE declaration {line!r}")
                elif parts[2] in types:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for {parts[2]!r}"
                    )
                else:
                    types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        value = _parse_value(match.group("value"))
        if value is None:
            problems.append(
                f"line {lineno}: bad sample value {match.group('value')!r}"
            )
            continue
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            for pair in _LABEL_PAIR_RE.finditer(raw_labels):
                labels[pair.group(1)] = pair.group(2)
            if _LABEL_PAIR_RE.sub("", raw_labels).strip(",") != "":
                problems.append(
                    f"line {lineno}: malformed labels {raw_labels!r}"
                )
        samples.setdefault(match.group("name"), []).append((labels, value))

    def family_of(sample_name: str) -> Optional[str]:
        if sample_name in types:
            return sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if types.get(base) == "histogram":
                    return base
        return None

    for sample_name, entries in samples.items():
        base = family_of(sample_name)
        if base is None:
            problems.append(
                f"sample {sample_name!r} has no matching # TYPE declaration"
            )
            continue
        if types[base] == "counter":
            for labels, value in entries:
                if value < 0:
                    problems.append(
                        f"counter {sample_name}{_labels_suffix(labels)} "
                        f"is negative ({value})"
                    )

    for name, kind in types.items():
        if kind != "histogram":
            continue
        buckets = samples.get(f"{name}_bucket", [])
        counts = samples.get(f"{name}_count", [])
        if not buckets and not counts:
            continue  # declared but empty: allowed
        series: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]] = {}
        for labels, value in buckets:
            le = labels.get("le")
            if le is None:
                problems.append(f"{name}_bucket sample missing its 'le' label")
                continue
            bound = _parse_value(le)
            if bound is None:
                problems.append(f"{name}_bucket has unparseable le={le!r}")
                continue
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            series.setdefault(key, []).append((bound, value))
        count_by_key = {
            tuple(sorted(labels.items())): value for labels, value in counts
        }
        for key, entries in series.items():
            entries.sort(key=lambda pair: pair[0])
            bounds = [bound for bound, _ in entries]
            values = [value for _, value in entries]
            label_text = _labels_suffix(dict(key))
            if not bounds or bounds[-1] != math.inf:
                problems.append(f"{name}{label_text}: no '+Inf' bucket")
            if any(b > a for a, b in zip(values[1:], values[:-1])):
                problems.append(f"{name}{label_text}: buckets not cumulative")
            count = count_by_key.get(key)
            if count is None:
                problems.append(f"{name}{label_text}: missing _count sample")
            elif bounds and bounds[-1] == math.inf and count != values[-1]:
                problems.append(
                    f"{name}{label_text}: _count {count} != +Inf bucket "
                    f"{values[-1]}"
                )

    for wanted in expect_families:
        if wanted not in types:
            problems.append(f"expected family {wanted!r} is not declared")
        elif not (
            samples.get(wanted)
            or samples.get(f"{wanted}_count")
        ):
            problems.append(f"expected family {wanted!r} carries no samples")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.metrics",
        description="Validate a Prometheus text exposition file.",
    )
    parser.add_argument("path", help="exposition file ('-' for stdin)")
    parser.add_argument(
        "--expect",
        default=None,
        metavar="FAMILIES",
        help="comma-separated family names that must be present with samples",
    )
    args = parser.parse_args(argv)
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read()
    expected = [f for f in (args.expect or "").split(",") if f]
    problems = validate_exposition(text, expect_families=expected)
    if problems:
        print(f"{args.path}: INVALID exposition:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    families = sum(1 for line in text.splitlines() if line.startswith("# TYPE "))
    print(f"{args.path}: OK ({families} metric families)")
    return 0

