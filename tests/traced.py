"""Traced memory of one call, for the tests that bound it."""

import tracemalloc


def traced_peak(fn):
    """Call fn() with tracemalloc on; return its result and the peak of
    the memory allocated while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
