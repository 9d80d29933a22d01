"""An ordered map over forked worker processes, shared by benchmark and explain."""

from __future__ import annotations

import os

# The task function in a pool worker. Fork hands it over without pickling,
# so closures over large arrays and lambdas work.
_task = None


def _init_worker(task) -> None:
    global _task
    _task = task


def _run_task(index: int):
    """``(True, task(index))``, or ``(False, None)`` if it raised: exceptions are not pickled."""
    try:
        return True, _task(index)
    except Exception:
        return False, None


def ordered_fork_map(task, n_tasks: int):
    """Yield ``task(i)`` for i in range(n_tasks), in order.

    Forked workers compute the values, one per usable CPU but never more
    than there are tasks. This process computes the first task the pool did
    not return and every task after it: all of them with one worker,
    without fork, while other threads run (a forked child could inherit a
    lock one of them holds, and hang), or when fork fails (EAGAIN, ENOMEM);
    otherwise those from a dead worker's task or a task that raised. So the
    lowest failing task raises here, as it would serially. Workers run
    ahead of the caller; closing the generator early cancels the tasks not
    yet started.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, n_tasks)
    done = 0
    if workers > 1:
        # Imported here, so importing deepcoda does not load multiprocessing.
        import multiprocessing
        import threading
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
            children = set(multiprocessing.active_children())
            pool = ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(task,),
            )
            try:
                for ok, value in pool.map(_run_task, range(n_tasks), chunksize=1):
                    if not ok:
                        break
                    yield value
                    done += 1
            except BrokenProcessPool:
                pass  # a worker died; this process computes what is missing
            except OSError:
                # fork failed while the pool started its workers. Those already
                # started would wait on the pool's queue for ever; stop them.
                for child in set(multiprocessing.active_children()) - children:
                    child.terminate()
                    child.join()
            finally:
                # Cancel what has not started, so a failure or an interrupt does
                # not wait for the rest of the run.
                pool.shutdown(cancel_futures=True)
    for index in range(done, n_tasks):
        yield task(index)
