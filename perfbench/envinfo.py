"""Read-only record of the machine and libraries a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform


def host() -> dict:
    """Interpreter, CPU count and model, and the load average right now."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"python": platform.python_version(),
            "nproc": usable,
            "cpu_count": os.cpu_count(),
            "cpu_model": model,
            "loadavg": list(os.getloadavg()),
            "blas_thread_env": {k: os.environ[k] for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS") if k in os.environ}}


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def libraries() -> dict:
    """numpy, scipy and BLAS versions and the BLAS thread count.

    Call only after numpy is imported, so its BLAS is loaded.
    """
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {"numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": _blas_threads()}
