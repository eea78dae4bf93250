"""Wall-clock timing for the tests that hold a cost ratio."""

import gc
import time


def best_interleaved(fns, repeats):
    """Best wall time per closure over *repeats* rounds, each round
    timing every closure once in order with the GC suspended, after
    one untimed warm-up pass — so CPU-frequency drift and generational
    pauses hit every side of a ratio alike."""
    for fn in fns:
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                fn()
                best[i] = min(best[i], time.perf_counter() - t0)
            finally:
                gc.enable()
    return best
