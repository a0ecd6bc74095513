"""Schema-versioned benchmark results (``BENCH_<scenario>.json``).

One :class:`BenchResult` per scenario, carrying the two metric classes
the harness distinguishes:

* ``deterministic`` — portable, bit-stable counters derived from the
  simulation (virtual-clock seconds, flop counts, byte traffic,
  allocator high-water marks, cache hit counts).  These must be
  identical run-to-run *and* machine-to-machine; the CI gate hard-fails
  on any difference against the committed baseline.
* ``numeric`` — bit-stable on one machine but BLAS-dependent across
  machines (factor fingerprints, residuals).  Compared only when the
  caller opts in (same-machine workflows, the two-run stability test).

Wall-clock time is not recorded here: the benchmark under ``bench/``
(``BENCHMARK.json``) owns that clock.

The JSON files are written with sorted keys and a fixed layout so a
re-run with unchanged code produces byte-identical ``deterministic``
and ``numeric`` sections (the acceptance bar for the committed
baselines).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SCHEMA_VERSION",
    "BenchResult",
    "load_results_dir",
    "result_filename",
]

SCHEMA_VERSION = 1

_FILE_PREFIX = "BENCH_"


def result_filename(scenario: str) -> str:
    """``BENCH_<scenario>.json`` at whatever directory the caller picks."""
    return f"{_FILE_PREFIX}{scenario}.json"


@dataclass
class BenchResult:
    """Everything one scenario run produces."""

    scenario: str
    description: str
    repeats: int
    deterministic: dict[str, object]
    numeric: dict[str, object] = field(default_factory=dict)
    profile: list[dict] | None = None
    tags: tuple[str, ...] = ()
    schema_version: int = SCHEMA_VERSION

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> dict:
        d: dict = {
            "schema_version": self.schema_version,
            "scenario": self.scenario,
            "description": self.description,
            "tags": list(self.tags),
            "repeats": self.repeats,
            "deterministic": dict(self.deterministic),
            "numeric": dict(self.numeric),
        }
        if self.profile is not None:
            d["profile"] = self.profile
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "BenchResult":
        version = int(d.get("schema_version", -1))
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported bench schema version {version} "
                f"(this build reads {SCHEMA_VERSION})"
            )
        return cls(
            scenario=str(d["scenario"]),
            description=str(d.get("description", "")),
            repeats=int(d["repeats"]),
            deterministic=dict(d["deterministic"]),
            numeric=dict(d.get("numeric", {})),
            profile=d.get("profile"),
            tags=tuple(d.get("tags", ())),
            schema_version=version,
        )

    @classmethod
    def load(cls, path: Path | str) -> "BenchResult":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def write(self, out_dir: Path | str) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / result_filename(self.scenario)
        path.write_text(self.to_json())
        return path


def load_results_dir(d: Path | str) -> dict[str, BenchResult]:
    """Every ``BENCH_*.json`` under *d*, keyed by scenario name."""
    out: dict[str, BenchResult] = {}
    for path in sorted(Path(d).glob(f"{_FILE_PREFIX}*.json")):
        res = BenchResult.load(path)
        out[res.scenario] = res
    return out
