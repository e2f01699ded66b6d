"""The paper's contribution: synchronization protocols + their analyses."""

from repro._facade import lazy_exports

__all__ = ["analysis", "protocols"]

__getattr__, __dir__ = lazy_exports(globals(), {}, ("analysis", "protocols"))
