"""Request-level observability for the solver service.

Three kinds of instruments, all thread-safe:

* **counters** — cache hits/misses/evictions, factorizations, timeouts,
  degraded requests, batch totals;
* **latency histograms** — log-spaced bins from microseconds to minutes,
  one per pipeline stage (queue wait, analyze, factorize, solve, total),
  with approximate percentiles read off the bin edges;
* **spans** — (name, category, engine, start, end) wall-clock slices of
  every stage of every request, exportable through the existing
  :mod:`repro.gpu.trace` Chrome-trace machinery so a service run can be
  inspected in Perfetto exactly like a simulated factorization.

``report()`` renders everything as one plain dict (JSON-ready).
"""

from __future__ import annotations

import bisect
import json
import math
import threading

from repro.gpu.clock import SimTask

__all__ = ["LatencyHistogram", "ServiceMetrics"]


class LatencyHistogram:
    """Log-spaced histogram of durations in seconds.

    Percentiles are approximate: the reported value is the upper edge of
    the bin holding the requested quantile, clamped to the observed
    min/max — good to one bin width (default 8 bins per decade, ~33%),
    which is plenty for p50/p95 service dashboards.
    """

    def __init__(self, *, lo: float = 1e-6, hi: float = 600.0,
                 bins_per_decade: int = 8):
        n = max(1, int(round(math.log10(hi / lo) * bins_per_decade)))
        # edges[i] is the upper bound of bin i; one extra bin catches overflow
        self.edges = [lo * 10 ** ((i + 1) / bins_per_decade) for i in range(n)]
        self.counts = [0] * (n + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def record(self, seconds: float) -> None:
        seconds = max(float(seconds), 0.0)
        i = bisect.bisect_left(self.edges, seconds)
        self.counts[i] += 1
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (p in [0, 100])."""
        if self.count == 0:
            return 0.0
        target = p / 100.0 * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c > 0:
                edge = self.edges[i] if i < len(self.edges) else self.max
                return min(max(edge, self.min), self.max)
        return self.max

    def summary(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }


class ServiceMetrics:
    """Counters + per-stage latency histograms + Chrome-trace spans."""

    def __init__(self):
        self._lock = threading.RLock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._spans: list[SimTask] = []

    # -- counters ----------------------------------------------------------
    def incr(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    # -- gauges ------------------------------------------------------------
    def gauge(self, name: str, value: float) -> None:
        """Record the latest value and track the high-water mark."""
        with self._lock:
            self._gauges[name] = value
            peak = name + "_max"
            self._gauges[peak] = max(self._gauges.get(peak, value), value)

    def gauge_tiers(self, tiers: dict[str, dict]) -> None:
        """Mirror storage-tier snapshots (``label -> stats``) into
        ``tier.<label>.<stat>`` gauges so they ride the ``/v1/metrics``
        exposition.  Labels come from the fixed ``ram/disk/object/
        shared`` set, so cardinality is bounded; the ``tier.`` prefix
        keeps the names enumerable."""
        for label, stats in sorted(tiers.items()):
            for stat, value in sorted(stats.items()):
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                self.gauge(f"tier.{label}.{stat}", value)

    # -- histograms --------------------------------------------------------
    def observe(self, stage: str, seconds: float) -> None:
        with self._lock:
            hist = self._histograms.get(stage)
            if hist is None:
                hist = self._histograms[stage] = LatencyHistogram()
            hist.record(seconds)

    def histogram(self, stage: str) -> LatencyHistogram | None:
        with self._lock:
            return self._histograms.get(stage)

    # -- spans -------------------------------------------------------------
    def span(self, name: str, category: str, engine: str,
             start: float, end: float) -> None:
        """Record one wall-clock slice (seconds relative to service start)."""
        task = SimTask(name, engine, max(end - start, 0.0), (), category)
        task.start = start
        task.end = max(end, start)
        with self._lock:
            self._spans.append(task)

    def chrome_trace(self) -> dict:
        from repro.gpu.trace import tasks_to_chrome_trace

        with self._lock:
            spans = list(self._spans)
        return tasks_to_chrome_trace(spans)

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Flat ``name -> value`` view of every instrument, sorted by name.

        Names are namespaced by instrument family — ``counter.<name>``,
        ``gauge.<name>``, ``latency.<stage>.<stat>`` and ``spans.count``
        — so the flat map cannot collide across families.  The family
        set and the per-stage stat set are fixed; the ``<name>`` parts
        are statically known at every call site (pinned by the RPL040
        metrics-hygiene lint), so the exposition is enumerable: the
        same workload always produces the same name set.
        """
        with self._lock:
            out: dict[str, object] = {}
            for name, value in self._counters.items():
                out[f"counter.{name}"] = value
            for name, value in self._gauges.items():
                out[f"gauge.{name}"] = value
            for stage, hist in self._histograms.items():
                for stat, value in hist.summary().items():
                    out[f"latency.{stage}.{stat}"] = value
            out["spans.count"] = len(self._spans)
        return dict(sorted(out.items()))

    def render_text(self) -> str:
        """Plain-text exposition: one ``name value`` line per instrument.

        The stable formatting contract shared by ``/v1/metrics`` and the
        CLIs (so neither hand-rolls its own): names sorted, integers
        rendered as integers, floats via ``repr`` (round-trippable),
        one trailing newline.
        """
        lines = []
        for name, value in self.snapshot().items():
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, float):
                rendered = repr(value) if math.isfinite(value) else "0"
            else:
                rendered = str(value)
            lines.append(f"{name} {rendered}")
        return "\n".join(lines) + "\n"

    def report(self) -> dict:
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "latency": {
                    stage: h.summary() for stage, h in self._histograms.items()
                },
                "spans": len(self._spans),
            }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.report(), indent=indent, sort_keys=True)
