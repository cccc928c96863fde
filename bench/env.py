"""Run environment shared by every benchmark process.

``pin_threads`` must run before numpy is imported: BLAS and OpenMP read
their thread counts once, at load time.  Child processes inherit the
pinned variables through ``os.environ``.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc():
    return len(os.sched_getaffinity(0))


def pin_threads():
    """Set BLAS/OpenMP threads to nproc for this process and its children."""
    n = nproc()
    for var in _THREAD_VARS:
        os.environ[var] = str(n)
    return n


def use_checkout_source():
    """Import maternlab from this checkout's ``src``, never from elsewhere.

    Returns False when the checkout holds no package source, so callers can
    refuse to run instead of measuring nothing.
    """
    if not (SRC / "maternlab" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    return True


def _cache_sizes():
    # read-only system description; empty where the platform has none
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _ram_mb():
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20


def machine_info():
    """Cores, caches, RAM, interpreter, numpy/scipy versions and BLAS."""
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "caches": _cache_sizes(),
        "ram_mb": _ram_mb(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }
