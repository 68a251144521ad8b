"""Two peer workers for the O(n^2) sweeps: the calling thread and one
helper each take the next task not yet started, and the calling thread
gets every result back in task order.

in_task_order serves the evaluator's band and heads sweeps in operators
and the chord scan in geometry.  The caller adds the results into its own
arrays as they come, so the order of its additions is that of the tasks,
whichever thread ran them.

A task is a generator function.  Called with its worker's scratch, it
does its bulk (building a kernel in the worker's buffer) up to a yield,
then makes its result and returns it.  A worker starts no task while a
result of its own waits to be handed back, except that the helper may
build its next one; it makes that task's result only once the waiting one
is back.  The caller runs its own task a part at a time and hands back a
finished result between the parts, so a result of the helper's waits at
most for one part.  So at most one result waits, besides the one the
caller is adding and those being made.  Each thread is woken only when it
waits, and the helper is joined before the sweep returns.
"""

from __future__ import annotations

import threading


def _finish(steps):
    """Run a task's generator from its yield to its return value."""
    try:
        next(steps)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError("a sweep task yields once")


class _Peers:
    """The shared state of one sweep: tasks not yet started, the caller's
    task in progress, and results finished but not yet handed back, each
    with the worker that ran it."""

    def __init__(self, tasks, scratch):
        self.tasks, self.scratch = tasks, scratch
        self.started = 0
        self.own = None             # the caller's task: [index, steps or None]
        self.done = {}              # index -> (value, error, worker)
        self.held = [False, False]  # worker w has a result in done
        self.waiting = [False, False]
        self.closed = False
        self.cond = threading.Condition()

    def finished(self, worker: int, i: int, value, error) -> None:
        with self.cond:
            self.done[i] = (value, error, worker)
            self.held[worker] = True
            if self.waiting[0]:
                self.cond.notify()

    def serve(self) -> None:
        """The helper: take the next task until none is left."""
        while True:
            with self.cond:
                if self.closed or self.started == len(self.tasks):
                    return
                i = self.started
                self.started += 1
            try:
                steps = self.tasks[i](self.scratch[1])
                next(steps)
                with self.cond:
                    while self.held[1] and not self.closed:
                        self.waiting[1] = True
                        self.cond.wait()
                        self.waiting[1] = False
                value, error = _finish(steps), None
            except Exception as exc:  # raised by the caller in the task's place
                value, error = None, exc
            self.finished(1, i, value, error)

    def take(self) -> int | None:
        """The next task for the calling thread, or None when it should
        wait; called with the lock held."""
        if self.held[0] or self.started == len(self.tasks):
            return None
        self.started += 1
        return self.started - 1

    def result(self, i: int):
        """Result i; the calling thread runs tasks while it is not ready."""
        while True:
            with self.cond:
                if i in self.done:
                    value, error, worker = self.done.pop(i)
                    self.held[worker] = False
                    if worker == 1 and self.waiting[1]:
                        self.cond.notify()
                    break
                if self.own is None:
                    j = self.take()
                    if j is None:
                        self.waiting[0] = True
                        self.cond.wait()
                        self.waiting[0] = False
                        continue
                    self.own = [j, None]
            j, steps = self.own
            try:
                if steps is None:  # its bulk; then look for a result again
                    self.own[1] = self.tasks[j](self.scratch[0])
                    next(self.own[1])
                    continue
                value, error = _finish(steps), None
            except Exception as exc:
                value, error = None, exc
            self.own = None
            self.finished(0, j, value, error)
        if error is not None:
            raise error
        return value

    def close(self) -> None:
        with self.cond:
            self.closed = True
            self.cond.notify()


def in_task_order(tasks, scratch=(None, None)):
    """Yield the result of each task of the list, in list order.

    Worker w = 0 is the calling thread and 1 the helper; each takes the
    next task not yet started and calls it with scratch[w].  A task's
    exception is raised here, in its place in the order.  The helper is
    started on the first result and joined when the generator ends or is
    closed.
    """
    peers = _Peers(tasks, scratch)
    helper = threading.Thread(target=peers.serve, daemon=True)
    helper.start()
    try:
        for i in range(len(tasks)):
            yield peers.result(i)
    finally:
        peers.close()
        helper.join()
