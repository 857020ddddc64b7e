"""Lazy re-exports for the package facades (PEP 562).

A facade names what it re-exports from submodules it does not import
up front::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        "suitefile": ("EltSuite", "suite_from_synthesis"),
    })

The first read of a name imports its submodule and caches the value in
the facade's globals, so later reads are plain lookups and a patched
name stays patched.  A facade's own code must not read its lazy names
as globals (they are not there until someone asked for them): it
imports them from their submodules.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, namespace: dict, exports: Mapping[str, tuple]
) -> tuple[Callable[[str], Any], Callable[[], list]]:
    """The ``__getattr__`` and ``__dir__`` of the facade ``package``
    (whose globals are ``namespace``): ``exports`` maps each of its
    submodules to the names the facade re-exports from it."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # ``from .module import name``, spelled out.  Not
        # ``importlib.import_module``: ``-X importtime`` does not log the
        # module that function imports.
        value = getattr(__import__(module, namespace, None, (name,), 1), name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
