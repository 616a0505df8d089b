import tracemalloc

import pytest


@pytest.fixture
def traced():
    """``traced(fn, *args)`` calls ``fn(*args)`` under tracemalloc and returns
    ``(result, peak, kept)``: the bytes allocated at the call's peak and at its
    end, counted from its start. Tracing stops even when the call raises."""

    def run(fn, *args):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - start, kept - start

    return run
