"""Two peer workers for the O(n^2) sweeps: the calling thread and one
helper each take the next task not yet started, and the calling thread
gets every result back in task order.

in_task_order serves the evaluator's band and heads sweeps in operators
and the chord scan in geometry.  The caller adds the results into its own
arrays as they come, so the order of its additions is that of the tasks,
whichever thread ran them.

A task is a plain function of its worker's scratch.  Both workers draw
task indices from one counter; the helper puts each result in an outbox.
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

_AHEAD = 2  # helper results made or being made and not yet handed on
_OWN = 1    # the same for the calling thread


def in_task_order(tasks, scratch=(None, None)):
    """Yield the result of each task of the list, in list order.

    Worker w = 0 is the calling thread and 1 the helper; each takes the
    next task not yet started and calls it with scratch[w].  A task's
    exception is raised here, in its place in the order.  The helper is
    started on the first result and joined when the generator ends or is
    closed.
    """
    n = len(tasks)
    order, lock = itertools.count(), threading.Lock()
    permits, outbox = threading.Semaphore(_AHEAD), queue.SimpleQueue()
    closed = False

    def take() -> int:
        """The next task not yet started, or n when none is left."""
        with lock:
            return n if closed else min(next(order), n)

    def run(i: int, buf):
        try:
            return tasks[i](buf), None
        except Exception as exc:  # raised by the caller in the task's place
            return None, exc

    def serve() -> None:
        while True:
            permits.acquire()
            i = take()
            if i == n:
                return
            outbox.put((i, *run(i, scratch[1])))

    helper = threading.Thread(target=serve, daemon=True)
    helper.start()
    done, own = {}, set()  # index -> (value, error); the caller's indices
    try:
        for i in range(n):
            while i not in done:
                j = take() if len(own) < _OWN else n
                if j < n:
                    done[j] = run(j, scratch[0])
                    own.add(j)
                else:
                    j, value, error = outbox.get()
                    done[j] = value, error
            value, error = done.pop(i)
            if error is not None:
                raise error
            yield value
            if i in own:
                own.remove(i)
            else:
                permits.release()
    finally:
        with lock:
            closed = True
        permits.release()
        helper.join()
