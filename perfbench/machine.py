"""Machine reference row: what this machine can do, measured in the run.

* GEMM: float64 ``A (m x 128) @ B (128 x 64)`` into a preallocated
  output — the tall-skinny shape of the scoring kernels. FLOPs are
  computed from the shapes: ``2 * m * 128 * 64``.
* memcpy: ``np.copyto`` between two float64 arrays; bandwidth is bytes
  copied (each byte read once and written once) per second.

``A`` and the copy arrays are each at least four times the last-level
cache, so neither result is a cache figure. Each figure is the median of
three timed repeats after one untimed one.
"""

from __future__ import annotations

import glob
import os
import time
from typing import Dict

import numpy as np

_INNER, _OUTER = 128, 64
_REPEATS = 3
#: Assumed when the cache topology cannot be read.
_DEFAULT_LLC_BYTES = 32 * 2**20


def last_level_cache_bytes() -> int:
    """Largest CPU cache reported under sysfs (the LLC)."""
    sizes = []
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        try:
            with open(path, encoding="ascii") as handle:
                text = handle.read().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            sizes.append(int(digits) * scale)
    return max(sizes) if sizes else _DEFAULT_LLC_BYTES


def _median_seconds(fn) -> float:
    fn()
    samples = []
    for _ in range(_REPEATS):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return float(np.median(samples))


def reference_row() -> Dict[str, float]:
    llc = last_level_cache_bytes()
    array_bytes = 4 * llc
    rows = -(-array_bytes // (_INNER * 8))
    rng = np.random.default_rng(0)
    a = rng.standard_normal((rows, _INNER))
    b = rng.standard_normal((_INNER, _OUTER))
    out = np.empty((rows, _OUTER))
    gemm_s = _median_seconds(lambda: np.matmul(a, b, out=out))
    del out
    copy = np.empty_like(a)
    copy_s = _median_seconds(lambda: np.copyto(copy, a))
    del copy
    return {
        "machine.gemm_gflops": 2.0 * rows * _INNER * _OUTER / gemm_s / 1e9,
        "machine.memcpy_gbps": a.nbytes / copy_s / 1e9,
        "llc_mb": llc / 2**20,
        "array_mb": a.nbytes / 2**20,
        "cpus": float(os.cpu_count() or 1),
    }
