"""Dependency-free metrics registry with Prometheus text exposition.

:class:`MetricsRegistry` holds counters, gauges and histograms with
labeled series.  Counts live in the plain stat dicts the layers keep
(executor ``stats``, :class:`JobManager` stats, corpus tallies folded
in via ``add_stats``); the serve front end sets them here as counter
series when ``/metrics`` is scraped, so the dicts are the only place a
counter is incremented.  Histograms are observed directly.

The registry is thread-safe (the serve front end writes from many
handler threads) and process-local.

Example::

    >>> registry = MetricsRegistry()
    >>> registry.set_counter("repro_demo_total", 2, flavor="a")
    >>> registry.value("repro_demo_total", flavor="a")
    2
    >>> print(registry.render().splitlines()[2])
    repro_demo_total{flavor="a"} 2
"""

from __future__ import annotations

import re
import threading

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default latency buckets (seconds) — tuned for sweep-service
#: requests, which span ~ms cache hits to multi-second cycle sweeps.
DEFAULT_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0)


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _labels_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: tuple, extra: tuple = ()) -> str:
    pairs = [*key, *extra]
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Metric:
    """One named metric: a family of labeled series of one type."""

    def __init__(self, name: str, kind: str, help_text: str, buckets=None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = tuple(buckets) if buckets else None
        #: counter/gauge: labels-key -> number.
        #: histogram: labels-key -> [bucket counts..., sum, count].
        self.series: dict[tuple, object] = {}


class MetricsRegistry:
    """Counters, gauges and histograms with labeled series.

    Metrics are implicitly declared on first touch; touching an
    existing name as a different type raises ``ValueError`` (telemetry
    misuse is a programming error, not a runtime condition).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- declaration -------------------------------------------------------

    def _metric(self, name: str, kind: str, help_text: str, buckets=None) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad metric name {name!r}")
            metric = _Metric(name, kind, help_text, buckets)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        return metric

    # -- writes ------------------------------------------------------------

    def set_counter(self, name: str, value: float, help: str = "", **labels) -> None:
        """Set a counter series to ``value``, read from the stat dict
        that owns the count."""
        key = _labels_key(labels)
        with self._lock:
            metric = self._metric(name, "counter", help)
            metric.series[key] = value

    def set_gauge(self, name: str, value: float, help: str = "", **labels) -> None:
        """Set a gauge series to ``value``."""
        key = _labels_key(labels)
        with self._lock:
            metric = self._metric(name, "gauge", help)
            metric.series[key] = value

    def observe(
        self, name: str, value: float, help: str = "", buckets=None, **labels
    ) -> None:
        """Record one observation into a histogram series."""
        key = _labels_key(labels)
        with self._lock:
            metric = self._metric(
                name, "histogram", help, buckets or DEFAULT_BUCKETS
            )
            cells = metric.series.get(key)
            if cells is None:
                # per-bucket counts (cumulated at render), then sum, count.
                cells = metric.series[key] = [0] * (len(metric.buckets) + 2)
            for i, bound in enumerate(metric.buckets):
                if value <= bound:
                    cells[i] += 1
                    break
            cells[-2] += value      # sum
            cells[-1] += 1          # count

    # -- reads -------------------------------------------------------------

    def value(self, name: str, **labels) -> float:
        """Current value of one counter/gauge series (0 if never set)."""
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                return 0
            if metric.kind == "histogram":
                raise ValueError(f"{name!r} is a histogram; read via snapshot()")
            return metric.series.get(_labels_key(labels), 0)

    def snapshot(self) -> dict:
        """JSON-able view: ``{name: {"type", "series": [...]}}``.

        Histogram series expose ``sum``/``count`` (buckets are an
        exposition-format concern).
        """
        with self._lock:
            out: dict = {}
            for name, metric in sorted(self._metrics.items()):
                series = []
                for key, cells in sorted(metric.series.items()):
                    labels = dict(key)
                    if metric.kind == "histogram":
                        series.append(
                            {"labels": labels, "sum": cells[-2], "count": cells[-1]}
                        )
                    else:
                        series.append({"labels": labels, "value": cells})
                out[name] = {"type": metric.kind, "series": series}
            return out

    def render(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            for name, metric in sorted(self._metrics.items()):
                lines.append(f"# HELP {name} {metric.help or name}")
                lines.append(f"# TYPE {name} {metric.kind}")
                for key, cells in sorted(metric.series.items()):
                    if metric.kind == "histogram":
                        cumulative = 0
                        for i, bound in enumerate(metric.buckets):
                            cumulative += cells[i]
                            lines.append(
                                f"{name}_bucket"
                                f"{_format_labels(key, (('le', repr(bound)),))}"
                                f" {cumulative}"
                            )
                        lines.append(
                            f"{name}_bucket{_format_labels(key, (('le', '+Inf'),))}"
                            f" {cells[-1]}"
                        )
                        lines.append(
                            f"{name}_sum{_format_labels(key)}"
                            f" {_format_value(cells[-2])}"
                        )
                        lines.append(
                            f"{name}_count{_format_labels(key)} {cells[-1]}"
                        )
                    else:
                        lines.append(
                            f"{name}{_format_labels(key)} {_format_value(cells)}"
                        )
        return "\n".join(lines) + "\n"

    def series_count(self) -> int:
        """Total labeled series across all metrics."""
        with self._lock:
            return sum(len(m.series) for m in self._metrics.values())


#: the process-wide registry ``GET /metrics`` renders.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Swap in a fresh default registry (test isolation) and return it."""
    global _REGISTRY
    _REGISTRY = MetricsRegistry()
    return _REGISTRY
