"""Two halves of a full-plane pass, one on the caller's thread and one on a worker thread.

A large FTVd alternation is a handful of full-plane passes: the u-step's FFT
pair, D^T, the shrink and D, and at each stage end the scores and the
multiplier update.  Each is independent across rows (the column FFTs across
columns), so ``run`` hands the upper half of the range to one worker thread
and runs the lower half itself.  Each half writes only its own part of
buffers the caller allocated.  A sum over the plane is formed as row
partials: each half writes the partial of each of its rows, as
``metrics.plane_sum`` forms it, and the caller adds the n partials with
``metrics.add_rows`` after ``run`` returns.  A row's partial depends on
that row alone, so results are bit-identical to a one-thread run.

The split runs only on a plane of at least SPLIT_MIN_PIXELS pixels, in a
process whose CPU affinity lists two or more CPUs, and while no other
thread is using the worker; otherwise the same function runs once over the
whole range on the caller's thread.  The worker starts at the first split,
never at import, and is a daemon.  A forked child forgets its parent's
worker and starts its own when it first splits.  The worker runs each half
in a copy of the caller's context, so numpy's ``errstate`` holds there, and
re-raises the half's exception on the caller's thread.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading

# Set by measurement (numpy 2.4.6, 2-vCPU Xeon; BENCH_two_halves.json): a split costs each pass a
# handoff of tens of microseconds, which a 128² solve_u (0.24 ms inline) cannot repay; near 256²
# split and inline are even, and from 288² the split is faster.
SPLIT_MIN_PIXELS = 288 * 288

_lock = threading.Lock()  # held by the one caller whose halves the worker runs
_tasks: queue.SimpleQueue | None = None  # to the worker; None until the first split


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _serve(tasks: queue.SimpleQueue) -> None:
    while True:
        context, fn, lo, hi, done = tasks.get()
        error = None
        try:
            context.run(fn, lo, hi)
        except BaseException as exc:  # handed to the caller, which re-raises it
            error = exc
        del context, fn  # before the caller resumes: fn's closure may hold the last reference to a buffer
        done.put(error)
        del error


def run(fn, stop: int, pixels: int) -> None:
    """Call ``fn(lo, hi)`` over the whole range [0, stop), as two halves when a split pays.

    ``pixels`` is the size of the plane the pass covers.  ``fn`` must touch
    only its own range of each buffer, allocate nothing that outlives it,
    and call no public function of the package.
    """
    if pixels < SPLIT_MIN_PIXELS or stop < 2 or _cpus() < 2 or not _lock.acquire(blocking=False):
        fn(0, stop)
        return
    global _tasks
    try:
        if _tasks is None:
            _tasks = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_tasks,), name="tvdeblur-half", daemon=True).start()
        mid = stop // 2
        done = queue.SimpleQueue()  # this call's own: a caller interrupted while waiting leaves no stale reply
        _tasks.put((contextvars.copy_context(), fn, mid, stop, done))
        try:
            fn(0, mid)
        finally:
            error = done.get()  # the worker's half must end before its buffers can be read or freed
        if error is not None:
            raise error
    finally:
        _lock.release()


def _forget_worker() -> None:
    global _lock, _tasks
    _lock, _tasks = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)
