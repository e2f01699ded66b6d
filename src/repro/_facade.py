"""Lazy package facades (PEP 562).

A package ``__init__`` names its public API and the module each name
lives in, and imports nothing::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.model.system": ("System",),
        "repro.model.task": ("Subtask", "Task"),
    })

``from repro.model import System`` and ``repro.model.System`` import
``repro.model.system`` on first access and cache the value in the
package's globals, so each later access is an ordinary attribute read.
``__all__`` stays a literal list beside the call; ``dir()`` lists it,
and ``from package import *`` walks it through ``__getattr__``.  This
module imports only the standard library's ``importlib``, so
``import repro`` loads two modules.
"""

from __future__ import annotations

import importlib

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict,
    exports: dict[str, tuple[str, ...]],
    submodules: tuple[str, ...] = (),
):
    """``(__getattr__, __dir__)`` for a package serving ``exports`` lazily.

    ``exports`` maps an absolute module path to the names the package
    re-exports from it; ``submodules`` lists child modules the package
    exposes as attributes.  A name missing from both raises
    :class:`AttributeError`, as a plain module would.
    """
    package = namespace["__name__"]
    origins = {
        name: module for module, names in exports.items() for name in names
    }
    for name in submodules:
        origins[name] = f"{package}.{name}"

    def __getattr__(name: str):
        module = origins.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        loaded = importlib.import_module(module)
        value = loaded if name in submodules else getattr(loaded, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origins))

    return __getattr__, __dir__
