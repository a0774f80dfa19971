"""Noise-robust wall-time comparison for the overhead tests.

The same estimator as ``benchmarks/bench_bandwidth.py::overhead_cases``:
the variants are sampled interleaved (one sample of each, then repeat),
with garbage collection disabled, and each is summarized by its minimum.
Sequential best-of-few timing lets a burst of host load land on one
variant only; interleaving spreads it over both.
"""

import gc
import time
from typing import Callable, List, Sequence


def interleaved_minima(variants: Sequence[Callable[[], object]], repeats: int) -> List[float]:
    """Minimum wall time of each zero-argument callable over ``repeats`` rounds."""
    for fn in variants:  # warm caches outside the timed samples
        fn()
    best = [float("inf")] * len(variants)
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            for i, fn in enumerate(variants):
                t0 = time.perf_counter()
                fn()
                best[i] = min(best[i], time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best
