"""Golden statistics the benchmark checks every simulated result against.

The goldens are read in place from ``tests/golden/``: ``tiny_stats.json``
pins the baseline and prefetch sections, ``tiny_stats_backends.json``
one section per non-default DRAM backend.  Each file records the config
digest of its sections, so a result is matched to its section by the
digest the program reports, never by a name the benchmark supplies.  A
change that regenerates the goldens (with an explanation) therefore
keeps the benchmark valid without editing it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Optional

GOLDEN_FILES = (
    Path("tests/golden/tiny_stats.json"),
    Path("tests/golden/tiny_stats_backends.json"),
)


class Goldens:
    """Expected ``SimStats.to_dict()`` per (config section, benchmark)."""

    def __init__(self, root: Path) -> None:
        self.sections: Dict[str, Dict[str, dict]] = {}
        self.digests: Dict[str, str] = {}
        points = set()
        for name in GOLDEN_FILES:
            data = json.loads((root / name).read_text(encoding="utf-8"))
            points.add((data["memory_refs"], data["seed"]))
            for section, digest in data["configs"].items():
                self.sections[section] = data[section]
                self.digests[digest] = section
        if len(points) != 1:
            raise ValueError(f"golden files disagree on (memory_refs, seed): {points}")
        (self.memory_refs, self.seed), = points

    def digest_of(self, section: str) -> str:
        for digest, name in self.digests.items():
            if name == section:
                return digest
        raise KeyError(section)

    def mismatch(
        self, benchmark: str, config_digest: str, stats: Optional[Mapping]
    ) -> Optional[str]:
        """Why ``stats`` is not the golden result, or None when it is.

        The comparison is field-for-field dict equality, exactly as the
        repository's golden tests compare.
        """
        section = self.digests.get(config_digest)
        if section is None:
            return f"{benchmark}: config {config_digest[:8]} has no golden section"
        expected = self.sections[section].get(benchmark)
        if expected is None:
            return f"{benchmark}: no golden entry in section {section}"
        if stats != expected:
            fields = sorted(
                key
                for key in set(expected) | set(stats or {})
                if (stats or {}).get(key) != expected.get(key)
            )
            return f"{section}/{benchmark}: differs in {', '.join(fields) or 'type'}"
        return None
