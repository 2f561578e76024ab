"""Optional numba compilation.

The DDE stepper and the Barabási–Albert attach loop are written as plain
loops over numpy arrays. When numba is installed (the ``accel`` extra) they
are compiled with ``numba.njit``; otherwise they run as ordinary Python.
There is one implementation of each, so results do not depend on which way
it runs.
"""

try:
    from numba import njit as _njit

    USE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _njit = None
    USE_NUMBA = False


def maybe_njit(**options):
    """Decorator: ``njit(**options)`` when numba is installed, no-op otherwise."""

    def wrap(func):
        if USE_NUMBA:
            return _njit(**options)(func)
        return func

    return wrap
