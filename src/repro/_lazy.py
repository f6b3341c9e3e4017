"""The one PEP 562 helper every package front door is served through.

A package ``__init__`` in this repo is its docstring plus one
``{public name: submodule}`` table.  Nothing is imported until a name
is first read, so ``from repro.engine import BatchRunner`` executes
``engine/runner.py`` (and what *it* imports) and nothing else of
``repro.engine`` — a process pays for the modules it touches, not for
every sibling of the one it asked for.
"""

from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(namespace, table):
    """``(__getattr__, __dir__, __all__)`` serving ``table`` for a package.

    ``namespace`` is the package's ``globals()``; ``table`` maps each
    public name to the submodule that defines it (a name mapped to
    itself *is* the submodule — how the root package exposes its
    subpackages).  A resolved name is stored in ``namespace``, so
    ``__getattr__`` runs once per name; ``__all__`` is the table's keys,
    which keeps ``from package import *`` binding exactly those.
    """
    package = namespace["__name__"]

    def __getattr__(name):
        submodule = table.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = import_module(f"{package}.{submodule}")
        value = module if submodule == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *table})

    return __getattr__, __dir__, list(table)
