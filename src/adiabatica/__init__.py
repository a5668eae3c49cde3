"""Time-dependent quantum dynamics in the instantaneous eigenbasis.

Builds eigenframe trajectories and geometric connections for small driven
systems, assembles the effective Hamiltonian whose diagonal dominance defines
adiabaticity, propagates exact dynamics, and extracts geometric phases and
holonomies. Ships exactly solvable driven two-level models and a CLI.

Each module declares its public names in its own __all__; this package
republishes them all, once each (models also lists the names it takes from
closed_form). A name is bound on first access (PEP 562), importing
modules in _MODULES order until one exports it, so importing the package or
one of its modules loads only what that code imports.
"""

from importlib import import_module as _import_module

_MODULES = ("errors", "closed_form", "numerics", "spectral", "models", "effective", "propagation", "phases")

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:  # a submodule: the import system loads and binds it
        return _import_module(f"{__name__}.{name}")
    public = []
    for module in map(__getattr__, _MODULES):
        if name in module.__all__:
            globals()[name] = value = getattr(module, name)
            return value
        public += module.__all__
    if name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = public = sorted(set(public))
    return public


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *(globals().get("__all__") or __getattr__("__all__"))})
