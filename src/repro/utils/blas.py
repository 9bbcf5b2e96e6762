"""One BLAS thread per pipeline process.

The training pipeline parallelizes at the process level: one walk worker
per core, the trainer in the main process.  A multi-threaded BLAS inside
that design is pure overhead — every small GEMM or triangular solve wakes
the library's sleeping pool threads, which then contend with the walk
workers for the same cores.  On a 2-vCPU host, in a
:func:`repro.parallel.train_parallel` run of the ``"blocked"`` OS-ELM kernel
at l=80, the per-walk 73×73 ``solve_triangular`` took a median 3.6 ms with
two BLAS threads and 0.11 ms with one; the whole run went from 24.1 s to
3.5 s with a bit-identical embedding.

:func:`single_blas_thread` is that policy as a context manager (and
decorator).  On entry it finds every OpenBLAS loaded into the process — from
the shared objects mapped in ``/proc/self/maps`` and the known
``{openblas,scipy_openblas}_{get,set}_num_threads{,64_}`` symbols, so NumPy's
and SciPy's separately bundled copies are both covered — and pins each to one
thread.  On exit, including exit by exception, it restores the exact counts
it found.  Entries nest and may overlap across threads: the first entry
saves, the last exit restores.  Where no controllable library is found
(MKL, Accelerate, a non-Linux host) it logs that once and does nothing else.

Pinning also makes GEMM results independent of the host's core count: at
large enough shapes the bits of a product depend on how many threads split
it.  Stdlib only (``ctypes``); no library is ever loaded that was not
already mapped.
"""

from __future__ import annotations

import ctypes
import logging
import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "BlasPool",
    "blas_pools",
    "blas_thread_counts",
    "pin_single_blas_thread",
    "single_blas_thread",
]

logger = logging.getLogger(__name__)

_MAPS = "/proc/self/maps"
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


@dataclass(frozen=True)
class BlasPool:
    """One loaded OpenBLAS and its thread-count controls."""

    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def _mapped_openblas_paths() -> list[str]:
    """Shared objects mapped into this process whose file name says OpenBLAS."""
    try:
        with open(_MAPS, encoding="utf-8", errors="replace") as fh:
            lines = fh.readlines()
    except OSError:  # no procfs: not Linux, or a sandbox hiding it
        return []
    paths: dict[str, None] = {}
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6:
            continue
        path = fields[5].strip()
        if "openblas" in os.path.basename(path).lower():
            paths.setdefault(path)
    return list(paths)


def _controls(path: str) -> tuple[int, BlasPool] | None:
    """``(getter address, pool)`` for an already-loaded ``path``, or
    ``None`` when it exposes no known thread-count symbols."""
    try:
        # RTLD_NOLOAD: hand back the existing mapping, never load anew
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    except OSError:
        return None
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is None or set_ is None:
                continue
            get.restype = ctypes.c_int
            get.argtypes = []
            set_.restype = None
            set_.argtypes = [ctypes.c_int]
            addr = int(ctypes.cast(get, ctypes.c_void_p).value or 0)
            return addr, BlasPool(path, get, set_)
    return None


def blas_pools() -> list[BlasPool]:
    """Every OpenBLAS currently loaded that exposes thread-count controls,
    one entry per distinct library (deduplicated by symbol address)."""
    pools: dict[int, BlasPool] = {}
    for path in _mapped_openblas_paths():
        found = _controls(path)
        if found is not None:
            addr, pool = found
            pools.setdefault(addr, pool)
    return list(pools.values())


def blas_thread_counts() -> dict[str, int]:
    """``{library path: thread count}`` of every controllable OpenBLAS."""
    return {pool.path: pool.get_threads() for pool in blas_pools()}


def _set_threads(pool: BlasPool, threads: int) -> None:
    """Set ``pool`` to ``threads`` unless it is there already.  In a forked
    child, OpenBLAS answers any set call by starting its worker threads
    again; a count inherited at the right value needs no call at all."""
    if pool.get_threads() != threads:
        pool.set_threads(threads)


_lock = threading.Lock()
_depth = 0
_saved: dict[str, tuple[BlasPool, int]] = {}
_reported_none = False


def _discover() -> list[BlasPool]:
    """:func:`blas_pools`, logging once per process when there are none."""
    global _reported_none
    pools = blas_pools()
    if not pools and not _reported_none:
        _reported_none = True
        logger.info(
            "no controllable OpenBLAS loaded (MKL, Accelerate or non-Linux "
            "host?): BLAS thread counts left as they are"
        )
    return pools


def pin_single_blas_thread() -> None:
    """Set every loaded OpenBLAS to one thread, with no restore.

    For processes that end with the work they were started for — pool
    workers call it from their initializer, so spawned workers match the
    setting that forked ones inherit.  Takes no lock: a forked child may
    inherit one held by another parent thread."""
    for pool in _discover():
        _set_threads(pool, 1)


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the body with every loaded OpenBLAS at one thread.

    The first (outermost, across threads) entry records each pool's count;
    the last exit restores them exactly, also when the body raises.  A pool
    first loaded by an inner entry is recorded and restored the same way.
    Usable as a decorator."""
    global _depth
    with _lock:
        for pool in _discover():
            if pool.path not in _saved:
                _saved[pool.path] = (pool, pool.get_threads())
            _set_threads(pool, 1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for pool, threads in _saved.values():
                    _set_threads(pool, threads)
                _saved.clear()
