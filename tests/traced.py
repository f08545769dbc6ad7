"""Traced memory of one call, for the tests that bound it."""

import sys
import tracemalloc


def traced_peak(fn):
    """Call fn() with tracemalloc on; return its result and the peak of
    the memory allocated while it ran, in bytes.

    The call must import no module: the first import of one, such as
    scipy's on a package function's first use, would count that module's
    own allocations against the bound."""
    before = set(sys.modules)
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    imported = sorted(set(sys.modules) - before)
    assert not imported, f"the traced call imported {imported}"
    return result, peak
