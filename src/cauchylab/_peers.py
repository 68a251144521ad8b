"""Two peer workers for the O(n^2) sweeps: the calling thread and one
helper each take the next task not yet started, and the calling thread
gets every result back in task order.

in_task_order serves only the evaluator's passes in operators (band
blocks and heads chunks, both one kind of task).
The caller adds the results into its own arrays as they come, so the
order of its additions is that of the tasks, whichever thread ran them.

A task is a plain function of its worker's scratch.  Both workers draw
the next task from one iterator, under a lock, and count what they
draw; the helper puts each result in an outbox.
The helper starts a task only with one of _AHEAD permits, and a permit
comes back when the caller has handed that task's result on; the caller
takes a task only while it holds no result of its own.  So at most _AHEAD
results of the helper's and one of the caller's are alive at once, the
one being handed on among them.  The helper is joined before the sweep
returns.
"""

from __future__ import annotations

import itertools
import queue
import threading
from functools import partial

_AHEAD = 2  # helper results made or being made and not yet handed on
_OWN = 1    # the same for the calling thread


def _reraise(exc, buf):
    raise exc


def in_task_order(tasks, scratch=(None, None)):
    """Yield the result of each task of the iterable, in its order.

    Worker w = 0 is the calling thread and 1 the helper; each takes the
    next task not yet started and calls it with scratch[w].  Tasks are
    drawn from the iterable under a lock as the workers take them, so a
    generator makes each task only when it is taken.  A task's exception,
    or the iterable's, is raised here, in its place in the order.  The
    helper is started on the first result and joined when the generator
    ends or is closed.
    """
    tasks = iter(tasks)
    lock = threading.Lock()
    permits, outbox = threading.Semaphore(_AHEAD), queue.SimpleQueue()
    taken = 0  # tasks drawn so far
    left = True  # until the tasks run out or this ends

    def take():
        """(index, task) of the next task not yet started, or None when
        none is left."""
        nonlocal taken, left
        with lock:
            try:
                task = next(tasks, None) if left else None
            except Exception as exc:  # a task in its place that raises it
                task = partial(_reraise, exc)
            if task is None:
                left = False
                return None
            taken += 1
            return taken - 1, task

    def run(task, buf):
        try:
            return task(buf), None
        except Exception as exc:  # raised by the caller in the task's place
            return None, exc

    def serve() -> None:
        while True:
            permits.acquire()
            job = take()
            if job is None:
                # wakes a caller that waits for a task no one will draw
                outbox.put(None)
                return
            i, task = job
            outbox.put((i, run(task, scratch[1])))

    helper = threading.Thread(target=serve, daemon=True)
    helper.start()
    done, own = {}, set()  # index -> (value, error); the caller's indices
    try:
        for i in itertools.count():
            while i not in done:
                job = take() if len(own) < _OWN else None
                if job is not None:
                    j, task = job
                    done[j] = run(task, scratch[0])
                    own.add(j)
                elif i < taken or left:  # the helper took it or may take it
                    # None: the helper found no task left
                    done.update(filter(None, [outbox.get()]))
                else:  # every task has been handed on
                    return
            # no name here holds a result once it is handed on, so the
            # caller frees it when it drops it
            if done[i][1] is not None:
                raise done.pop(i)[1]
            yield done.pop(i)[0]
            if i in own:
                own.remove(i)
            else:
                permits.release()
    finally:
        with lock:
            left = False
        permits.release()
        helper.join()
