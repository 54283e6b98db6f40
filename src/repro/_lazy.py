"""Lazy package exports (PEP 562).

A package ``__init__`` names its public surface in one table that maps each
exported name to the submodule defining it, and binds::

    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

The first access to a name imports its submodule and caches the value in
the package globals, so later lookups are plain attribute reads. Importing
one submodule (``import repro.sim.engine``) thus runs only the package
``__init__``s on its path, not every sibling they re-export. The same
imports sit under ``if TYPE_CHECKING:`` in each ``__init__``, so type
checkers and linters see real, typed names; a test keeps the two lists in
agreement. ``__all__`` is ``sorted(_EXPORTS)``.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each public name to its submodule relative to
    ``package`` (``"limit"`` for ``repro.core.limit``), or to
    ``"submodule:attr"`` for a name re-exported under another name.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            target = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        submodule, _, attr = target.partition(":")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), attr or name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__
