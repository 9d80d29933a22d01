"""An ordered map over forked worker processes, shared by benchmark and explain.

Each worker is a plain ``os.fork`` of this process, so the task function
reaches it without pickling: closures over large arrays and lambdas work.
This process writes 8-byte task indices to one task pipe, which the
workers share: a worker that is free reads the next index, as from a
pool's queue. Each worker answers on its own result pipe with a header
(the index, or ``_RAISED``, and a length) and the pickled value. A worker
exits when the task pipe ends, so also when this process dies, and never
runs this process's code, cleanup or stdio flushes.

A worker keeps the memory its tasks free: where the C library has glibc's
``mallopt``, each worker turns off trimming of its heap and serves blocks
of up to 32 MiB from the heap instead of from their own mappings, so a
task that allocates what the one before it freed takes no page faults.
This process's own malloc policy is untouched. The workers inherit what
this process built before the map started, such as explain's number
formatting tables, so no worker builds its own.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import select
import struct
import threading

# Tasks sent and not yet returned, at most, per worker: one to run and one
# queued, so a worker that finishes a task need not wait for this process.
_LOOKAHEAD = 2
_INDEX = struct.Struct("=q")
_HEADER = struct.Struct("=qQ")  # the task index or _RAISED, the pickled value's length
_RAISED = -1  # the task raised, or its value could not be pickled: exceptions are not sent
# glibc's mallopt parameters (malloc.h) and the values each worker sets: no
# heap trimming below 1 GiB of free memory at its top, and no blocks mapped
# on their own below 32 MiB, the most a 64-bit glibc allows.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD = 1 << 30
_MMAP_THRESHOLD = 32 << 20


class _Missing(Exception):
    """A task the workers will not return: it raised, or its worker died."""


def ordered_fork_map(task, n_tasks: int):
    """Yield ``task(i)`` for i in range(n_tasks), in order.

    Forked workers compute the values, one per usable CPU but never more
    than there are tasks. Tasks are sent as workers return them, with at
    most ``_LOOKAHEAD`` per worker sent and not returned, and only while the
    caller waits for a value: while it works on one, the workers finish what
    they were sent and then wait. Values returned ahead of the next one to
    yield wait here. This process computes every task itself with one
    worker, without fork, while other threads run (a forked child could
    inherit a lock one of them holds, and hang), or when fork fails (EAGAIN,
    ENOMEM), after stopping the workers already started. When a worker dies
    or a task raises, it computes the first task not returned and every task
    after it; so the lowest failing task raises here, as it would serially.
    Every worker is killed and reaped once the last value is in, before the
    tasks left to this process run, and when the generator is closed early,
    which cancels the rest. Each worker keeps the memory its tasks free (see
    the module docstring) and inherits, read-only, what the caller built
    before calling: build shared tables first, so no worker builds its own.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = min(cpus or 1, n_tasks)
    done = 0
    values = {}  # returned ahead of the next value to yield
    if n_workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        workers, tasks = [], ()
        try:
            tasks = os.pipe()
            for _ in range(n_workers):
                workers.append(_Worker(task, tasks, workers))
            by_fd = {worker.results: worker for worker in workers}
            poller = select.poll()
            for fd in by_fd:
                poller.register(fd, select.POLLIN)
            sent = 0
            while done + len(values) < n_tasks:
                while sent < min(n_tasks, done + len(values) + _LOOKAHEAD * n_workers):
                    _write(tasks[1], _INDEX.pack(sent))
                    sent += 1
                if done in values:
                    yield values.pop(done)
                    done += 1
                else:
                    for fd, _ in poller.poll():
                        index, value = by_fd[fd].receive()
                        values[index] = value
        except (OSError, _Missing):
            pass  # fork failed, a worker died or a task raised: this process computes the rest
        finally:
            for worker in workers:
                worker.stop()
            for fd in tasks:
                os.close(fd)
    # The values returned before the first one missing; this process computes the rest.
    while done in values:
        yield values.pop(done)
        done += 1
    values.clear()
    for index in range(done, n_tasks):
        yield task(index)


class _Worker:
    """A forked process that answers the task indices it reads from ``tasks``, and its result pipe."""

    def __init__(self, task, tasks: tuple[int, int], started: list[_Worker]) -> None:
        fds = []
        try:
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        self.results, results_out = fds
        if pid == 0:
            try:
                for fd in (tasks[1], self.results, *(w.results for w in started)):
                    os.close(fd)
                _keep_freed_memory()
                _serve(task, tasks[0], results_out)
            finally:
                os._exit(0)
        os.close(results_out)
        self.pid = pid

    def receive(self) -> tuple[int, object]:
        """The index and value of this worker's next result; raises _Missing if there is none."""
        header = _read(self.results, _HEADER.size)
        if header is None:
            raise _Missing
        index, size = _HEADER.unpack(header)
        payload = _read(self.results, size)
        if index == _RAISED or payload is None:
            raise _Missing
        return index, pickle.loads(payload)

    def stop(self) -> None:
        # Imported here: importing deepcoda does not load signal, and only a forked run needs it.
        import signal

        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        os.close(self.results)


def _keep_freed_memory() -> None:
    """Make this process's malloc keep what is freed, where it has glibc's ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def _serve(task, tasks: int, results: int) -> None:
    """Answer every index read from ``tasks`` on ``results``, until ``tasks`` ends.

    Each index is written to ``tasks`` in one write of fewer than PIPE_BUF
    bytes, which a pipe keeps whole, so each 8-byte read by one of the
    workers sharing it takes one whole index.
    """
    while (data := _read(tasks, _INDEX.size)) is not None:
        (index,) = _INDEX.unpack(data)
        try:
            payload = pickle.dumps(task(index), pickle.HIGHEST_PROTOCOL)
        except Exception:
            index, payload = _RAISED, b""
        _write(results, _HEADER.pack(index, len(payload)))
        _write(results, payload)


def _read(fd: int, size: int) -> bytearray | None:
    """The next ``size`` bytes from ``fd``, or None if it ends first."""
    data = bytearray(size)
    view = memoryview(data)
    while view:
        n = os.readv(fd, [view])
        if n == 0:
            return None
        view = view[n:]
    return data


def _write(fd: int, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
