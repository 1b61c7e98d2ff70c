"""Exact-arithmetic toolkit for Riccati-type difference equations, Horadam
sequences, forbidden-set structure and golden-ratio convergence."""

from . import exact, fibfunc, horadam, limits, riccati
from .exact import *  # noqa: F401,F403
from .fibfunc import *  # noqa: F401,F403
from .horadam import *  # noqa: F401,F403
from .limits import *  # noqa: F401,F403
from .riccati import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (exact, fibfunc, horadam, limits, riccati) for name in module.__all__]
