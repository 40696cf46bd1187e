"""repro.obs — process-wide observability: metrics, events, exposition.

The fourth cross-cutting layer of the repository (engine → service →
cluster all publish into it): a dependency-free metrics registry with
Prometheus text exposition (:mod:`repro.obs.metrics`), a structured
event bus with monotonic sequence numbers (:mod:`repro.obs.events`), and
a tiny HTTP endpoint serving ``GET /metrics``
(:mod:`repro.obs.http`).  Nothing in this package imports the tiers it
observes, so any module may ``from repro import obs`` without cycles.

One registry, three read paths — all backed by the same counters:

* ``python -m repro serve --metrics-port N`` (and ``worker`` /
  ``run`` with the same flag) scrape as Prometheus text;
* the ``watch`` op of the service and of the coordinator streams
  :data:`~repro.obs.events.EVENTS` to clients as NDJSON frames, each
  watcher through one :class:`~repro.obs.events.Subscription`;
* the ``status`` op reads the very same counters through
  baseline-relative :class:`~repro.obs.metrics.CounterGroup` views.

A ``trace`` id minted at ``submit`` rides every metric-adjacent event
across all tiers; see ``docs/observability.md`` for the metric
reference, the naming rule (:data:`~repro.obs.metrics.METRIC_NAME_RE`)
and the propagation diagram.

Quickstart::

    from repro import obs

    requests = obs.counter("repro_demo_requests_total", "Requests.",
                           labels=("op",))
    requests.inc(op="status")
    obs.EVENTS.emit("run_started", trace="t-1", jobs=48)
    print(obs.REGISTRY.render())          # Prometheus 0.0.4 text
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.events import EVENT_TYPES, EVENTS, EventBus, Subscription, put_drop_oldest
from repro.obs.http import CONTENT_TYPE, MetricsServer
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRIC_NAME_RE,
    REGISTRY,
    Counter,
    CounterGroup,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_exposition,
)

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "CounterGroup",
    "DEFAULT_BUCKETS",
    "EVENTS",
    "EVENT_TYPES",
    "EventBus",
    "Gauge",
    "Histogram",
    "METRIC_NAME_RE",
    "MetricsRegistry",
    "MetricsServer",
    "REGISTRY",
    "Subscription",
    "counter",
    "gauge",
    "histogram",
    "parse_exposition",
    "put_drop_oldest",
]


def counter(name: str, help: str = "", labels: Iterable[str] = ()) -> Counter:
    """Get-or-create a counter in the process-wide :data:`REGISTRY`."""
    return REGISTRY.counter(name, help, labels)


def gauge(name: str, help: str = "", labels: Iterable[str] = ()) -> Gauge:
    """Get-or-create a gauge in the process-wide :data:`REGISTRY`."""
    return REGISTRY.gauge(name, help, labels)


def histogram(
    name: str,
    help: str = "",
    labels: Iterable[str] = (),
    buckets: Iterable[float] = DEFAULT_BUCKETS,
) -> Histogram:
    """Get-or-create a histogram in the process-wide :data:`REGISTRY`."""
    return REGISTRY.histogram(name, help, labels, buckets=buckets)
