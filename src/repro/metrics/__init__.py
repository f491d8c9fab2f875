"""Instrumentation: counters, timelines and report formatting."""

from repro.metrics.collector import LinkLog, LinkRecord, MetricsCollector
from repro.metrics.timeline import Timeline

__all__ = ["LinkLog", "LinkRecord", "MetricsCollector", "Timeline"]
