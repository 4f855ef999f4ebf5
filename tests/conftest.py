"""Shared test configuration: a bounded hypothesis profile, the BLAS core of the byte pins,
and a wall-clock deadline for tests that must not hang."""

import ctypes
import glob
import os
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# the OpenBLAS kernel the report digests and the console pins were taken on
PIN_CORE = "SkylakeX"


def _openblas_core() -> str:
    """The core numpy's bundled OpenBLAS selected at load time, or "unknown"."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


@pytest.fixture(scope="session")
def pin_core_note() -> str:
    """Failure message of a byte pin: the core that ran, next to the one the pins hold."""
    return f"OpenBLAS core {_openblas_core()} ran; pins taken on {PIN_CORE}"


@pytest.fixture
def deadline():
    """``deadline(seconds)`` fails the test once that much wall time has passed.

    It arms ``signal.setitimer(ITIMER_REAL)``, so a test that would hang
    fails inside itself instead of stalling the suite.  The timer and the
    SIGALRM handler are restored when the test ends; where the platform has
    no interval timer, the test is skipped.
    """
    if not hasattr(signal, "setitimer"):
        pytest.skip("signal.setitimer is not available on this platform")

    def expire(signum, frame):
        pytest.fail("the test ran past its deadline", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
