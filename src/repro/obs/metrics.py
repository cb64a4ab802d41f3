"""A small labelled metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` lives on each
:class:`~repro.obs.context.QueryContext`, so every number it holds is
scoped to exactly one query submission — the registry replaces the
module/instance-level counter silos (connector counters sliced by
snapshot deltas, ledger index marks) that leaked across queries.

Metrics are identified by a name plus a label set, Prometheus-style:
``registry.inc("connector.retries", db="db2")``.  Values are plain
floats; histograms keep count/sum/min/max, which is all the report
views need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

LabelKey = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelKey]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Histogram:
    """Streaming summary of observed values."""

    count: int = 0
    total: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Counters, gauges, and histograms for one observation scope."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    # -- counters ------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> float:
        """Add ``value`` to a counter; returns the new total."""
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease")
        key = (name, _label_key(labels))
        total = self._counters.get(key, 0.0) + value
        self._counters[key] = total
        return total

    def value(self, name: str, **labels: object) -> float:
        """Current counter value (0.0 when never incremented)."""
        return self._counters.get((name, _label_key(labels)), 0.0)

    def counters(self, name: str) -> Dict[LabelKey, float]:
        """Every label set recorded under counter ``name``."""
        return {
            labels: value
            for (metric, labels), value in self._counters.items()
            if metric == name
        }

    def label_values(self, name: str, label: str) -> Dict[str, float]:
        """Counter totals keyed by one label's value (summing the rest)."""
        out: Dict[str, float] = {}
        for labels, value in self.counters(name).items():
            for key, label_value in labels:
                if key == label:
                    out[label_value] = out.get(label_value, 0.0) + value
        return out

    # -- gauges --------------------------------------------------------

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        self._gauges[(name, _label_key(labels))] = value

    def gauge(self, name: str, **labels: object) -> float:
        return self._gauges.get((name, _label_key(labels)), 0.0)

    # -- histograms ----------------------------------------------------

    def observe(self, name: str, value: float, **labels: object) -> None:
        key = (name, _label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram()
        histogram.observe(value)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._histograms.get(
            (name, _label_key(labels)), Histogram()
        )

    # -- export --------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Flat, JSON-friendly dump (metric{labels} → value)."""

        def fmt(name: str, labels: LabelKey) -> str:
            if not labels:
                return name
            body = ",".join(f"{k}={v}" for k, v in labels)
            return f"{name}{{{body}}}"

        out: Dict[str, Dict[str, float]] = {
            "counters": {
                fmt(name, labels): value
                for (name, labels), value in sorted(self._counters.items())
            },
            "gauges": {
                fmt(name, labels): value
                for (name, labels), value in sorted(self._gauges.items())
            },
            "histograms": {
                fmt(name, labels): hist.mean
                for (name, labels), hist in sorted(self._histograms.items())
            },
        }
        return out
