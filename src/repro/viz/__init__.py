"""Text rendering of traces and experiment surfaces."""

from repro._facade import lazy_exports

__all__ = ["render_gantt"]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.viz.gantt": ("render_gantt",),
    },
)
