"""Optional numba compilation.

The DDE stepper is written as plain loops over numpy arrays. When numba is
installed (the ``accel`` extra) it is compiled with ``numba.njit``; otherwise
it runs as ordinary Python. There is one implementation, so results do not
depend on which way it runs. The graph generators and the network day sweep
are numpy only.
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
