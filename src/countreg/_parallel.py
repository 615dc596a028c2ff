"""Threads and worker processes: countreg's one process policy.

Worker processes are the one level of parallelism.  The countreg command runs
numpy's BLAS on one thread, which workers inherit, so ``X @ beta`` rounds
alike on any host: ``__init__`` applies ``_one_blas_thread_for_the_command``
before numpy loads, so this module imports only the standard library, and
``cli.main`` runs each command in ``_one_blas_thread``.  ``simulate --threads``
(default: one per usable CPU) caps the recovery study's workers and, where
workers fork, those of a CSV of 500,000 cells or more, one per
``_CELLS_PER_WORKER``: on 2 CPUs a smaller pool's start-up (50-70 ms) costs
more than it saves.  The files have the same bytes at any count.
"""

import contextlib
import ctypes
import math
import os


def _one_blas_thread_for_the_command(argv, orig_argv, environ):
    """Where the process is the countreg command, ``python -m countreg[.<sub>]``
    (argv[0] is "-m" while the package loads) or the ``countreg`` script, set
    ``OPENBLAS_NUM_THREADS=1`` unless set: OpenBLAS starts its threads as numpy
    loads.  Goes once a lazy ``__init__`` lets ``__main__`` set it instead."""
    if argv[:1] == ["-m"]:  # the arguments after the module name end both lists
        command = orig_argv[-len(argv)].partition(".")[0] == "countreg"
    else:
        command = bool(argv) and os.path.basename(argv[0]) == "countreg"
    if command:
        environ.setdefault("OPENBLAS_NUM_THREADS", "1")


# (get, set) symbol pairs by which OpenBLAS builds export their thread count.
_OPENBLAS_THREADS = [
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("openblas", "scipy_openblas")
    for suffix in ("", "64_")
]


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS mapped into this
    process, or None where none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREADS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes, set_.argtypes = ctypes.c_int, [], [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread; the caller's count after."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workers(threads: int | None, jobs: int, cpus: int) -> int:
    """Worker processes for ``jobs`` jobs: ``threads``, or ``cpus`` when it is
    None, at most one per job and at least one."""
    return max(1, min(cpus if threads is None else threads, jobs))


_CELLS_PER_WORKER = 250_000


def _csv_workers(threads: int | None, cells: int) -> int:
    """Worker processes to format a CSV of ``cells`` cells."""
    workers = _workers(threads, cells // _CELLS_PER_WORKER, _usable_cpus())
    if workers == 1:
        return 1
    import multiprocessing

    # A spawned or forkserver worker imports numpy and countreg afresh
    # (about 0.3 s), which costs the citation-scale dataset.csv more than
    # its pool saves; only forked workers start as a copy of this process.
    return workers if multiprocessing.get_start_method() == "fork" else 1


def _pool_map(fn, jobs, workers: int):
    """``fn`` over ``jobs``, yielded in job order as the results arrive.

    With one worker the jobs run in the calling process.  Otherwise they go
    to one pool of ``workers`` processes under the platform's default start
    method, in about four chunks per worker: countreg's one process pool.
    """
    if workers == 1:
        yield from map(fn, jobs)
        return
    # Imported here: it costs every CLI process about 20 ms otherwise.
    from concurrent.futures import ProcessPoolExecutor

    # About four chunks per worker: one job per message costs each job a
    # round trip, while a few chunks still balance the load.
    chunksize = math.ceil(len(jobs) / (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, jobs, chunksize=chunksize)
