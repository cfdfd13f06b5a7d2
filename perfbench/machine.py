"""Machine record written next to every result, and the copy-bandwidth probe."""

from __future__ import annotations

import ctypes
import glob
import os
import statistics
import time

import numpy as np
import scipy

FALLBACK_LLC_BYTES = 300 * 2**20


def _llc_bytes() -> tuple[int, str]:
    """Size of the largest cache of cpu0, from sysfs."""
    best = 0
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(d, "size")) as f:
                text = f.read().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
        best = max(best, int(text.rstrip("KMG")) * scale)
    if best:
        return best, "sysfs"
    return FALLBACK_LLC_BYTES, "not reported; assumed 300 MiB"


def _mem_available_bytes() -> int | None:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if its library can be found."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    llc, llc_source = _llc_bytes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "llc_bytes": llc,
        "llc_source": llc_source,
        "mem_available_bytes": _mem_available_bytes(),
    }


def copy_bandwidth(llc_bytes: int, repeats: int = 3) -> dict:
    """Median GB/s of np.copyto on an array of 4x the LLC, where memory allows.

    Traffic counts bytes read plus bytes written (2 x array size), as STREAM
    Copy does.  When source plus destination would take more than half the
    available memory the array shrinks to fit, and the record says so.
    """
    size = 4 * llc_bytes
    available = _mem_available_bytes()
    note = "4x LLC"
    if available is not None and 2 * size > available // 2:
        size = available // 4
        note = f"reduced to {size} B: 4x LLC does not fit in half of available memory"
    count = size // 8
    src = np.ones(count)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    del src, dst
    return {
        "copy_array_bytes": count * 8,
        "copy_size_note": note,
        "copy_gb_s": 2 * count * 8 / statistics.median(times) / 1e9,
    }
