"""Exact-arithmetic toolkit for Riccati-type difference equations, Horadam
sequences, forbidden-set structure and golden-ratio convergence.

The package re-exports every module's `__all__`.  A module loads on first
use of one of its names (PEP 562), so `import aurea` alone loads none, and a
CLI command loads only the modules it runs.
"""

__version__ = "0.1.0"

# each module imports only modules before it, so looking up a name loads
# just its own module and the ones that module imports
_MODULES = ("exact", "horadam", "riccati", "limits", "fibfunc")


def __getattr__(name: str):
    from importlib import import_module

    if name in _MODULES:
        return import_module(f".{name}", __name__)
    modules = (import_module(f".{module}", __name__) for module in _MODULES)
    if name == "__all__":
        value = [exported for module in modules for exported in module.__all__]
    else:
        module = next((module for module in modules if name in module.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value
