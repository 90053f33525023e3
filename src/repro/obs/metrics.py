"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the in-memory half of the observability leakage surface: like
MySQL's ``global_status`` counters, every value accumulates since process
start with no way to redact history. A snapshot attacker who reads the
metrics dump learns per-table access totals and the query-latency
distribution even if every log is disabled.

Histograms use fixed bucket boundaries (Prometheus ``le`` semantics: an
observation equal to a boundary lands in that boundary's bucket), so two
dumps are directly comparable and bucket counts never need rebinning.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Tuple

from ..errors import ObsError

#: Default duration buckets in microseconds. The simulated statement cost is
#: ``base_cost_seconds + rows * row_cost_seconds`` (100us base), so the grid
#: spans point lookups through large scans.
DEFAULT_DURATION_BUCKETS_US: Tuple[int, ...] = (
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
)


class Histogram:
    """Fixed-boundary histogram with ``le`` (less-or-equal) buckets.

    ``bounds`` must be strictly increasing; one implicit overflow bucket
    (``le=+Inf``) is always appended.
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: Iterable[float]) -> None:
        bounds = tuple(bounds)
        if not bounds:
            raise ObsError("histogram needs at least one bucket boundary")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ObsError(f"bucket boundaries must be strictly increasing: {bounds}")
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (boundary values land in their bucket)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def bucket_count(self, le: float) -> int:
        """Cumulative count of observations ``<= le`` (must be a boundary)."""
        try:
            idx = self.bounds.index(le)
        except ValueError:
            raise ObsError(f"{le} is not a bucket boundary of {self.bounds}") from None
        return sum(self.counts[: idx + 1])


class MetricsRegistry:
    """Named counters, gauges, and histograms.

    Counters and gauges take an optional ``label`` (one dimension is enough
    here — it carries the table name for per-table counts, which is exactly
    the per-label breakdown that makes the dump forensically useful).
    """

    def __init__(self) -> None:
        #: Counter values by name, then label.
        self._counters: Dict[str, Dict[str, int]] = {}
        self._gauges: Dict[Tuple[str, str], float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, n: int = 1, label: str = "") -> None:
        family = self._counters.get(name)
        if family is None:
            family = self._counters[name] = {}
        family[label] = family.get(label, 0) + n

    def counter_family(self, name: str) -> Dict[str, int]:
        """The live label -> value map of counter ``name``.

        A writer that holds it adds to a label in place, as :meth:`inc`
        does, without a call per increment.
        """
        family = self._counters.get(name)
        if family is None:
            family = self._counters[name] = {}
        return family

    def set_gauge(self, name: str, value: float, label: str = "") -> None:
        self._gauges[(name, label)] = value

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_DURATION_BUCKETS_US
    ) -> Histogram:
        """Get-or-create the histogram ``name`` (bounds fixed at creation)."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(bounds)
            self._histograms[name] = hist
        return hist

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str, label: str = "") -> int:
        return self._counters.get(name, {}).get(label, 0)

    def counter_by_label(self, name: str) -> Dict[str, int]:
        """All labels of one counter family — e.g. per-table access counts."""
        return dict(self._counters.get(name, {}))

    def as_dict(self) -> Dict[str, float]:
        """Flat, stably-named dump — the artifact a snapshot captures."""
        out: Dict[str, float] = {}
        for name, family in self._counters.items():
            for label, value in family.items():
                out[f"{name}{{{label}}}" if label else name] = value
        for (name, label), value in self._gauges.items():
            out[f"{name}{{{label}}}" if label else name] = value
        for name, hist in self._histograms.items():
            running = 0
            for bound, count in zip(hist.bounds, hist.counts):
                running += count
                out[f"{name}_bucket{{le={bound:g}}}"] = running
            out[f"{name}_count"] = hist.total
            out[f"{name}_sum"] = hist.sum
        return dict(sorted(out.items()))

    def dump_text(self) -> str:
        """One ``name value`` line per series (the ``/metrics`` page)."""
        lines = [f"{name} {value:g}" for name, value in self.as_dict().items()]
        return "\n".join(lines) + "\n"
