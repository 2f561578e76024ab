"""Acceleration path of this build.

Every layer runs on numpy and plain Python; nothing is compiled. The
benchmark's env line imports USE_NUMBA, so the name stays, always False.
"""

USE_NUMBA = False
