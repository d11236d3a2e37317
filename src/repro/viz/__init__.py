"""Terminal visualization: line charts for ``repro run --chart``."""

from repro.viz.ascii import line_chart

__all__ = ["line_chart"]
