"""Tests for the sweeps' two peer workers, on synthetic tasks."""

import sys
import threading
import time
from contextlib import closing

import pytest

import oracles
from cauchylab import _peers
from cauchylab._peers import in_task_order

SCHEDULES = ["default", "caller", "helper"]


class Failed(Exception):
    pass


def _task(i, log, pause=0.0):
    """A task returning (i, its worker's scratch, its thread), logged in
    log as it starts."""
    def task(buf):
        log.append(i)
        time.sleep(pause * (i % 3))
        return i, buf, threading.get_ident()
    return task


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_results_come_back_in_task_order(monkeypatch, schedule):
    oracles.patch_schedule(monkeypatch, schedule)
    log = []
    tasks = [_task(i, log, pause=1e-3) for i in range(40)]
    caller = threading.get_ident()
    got = list(in_task_order(tasks, ("caller", "helper")))
    assert [i for i, _, _ in got] == list(range(40))
    assert sorted(log) == list(range(40))  # each task ran once
    # each worker passes its own scratch
    assert all((buf == "caller") == (ident == caller) for _, buf, ident in got)
    assert {buf for _, buf, _ in got} == {
        "default": {"caller", "helper"}, "caller": {"caller"},
        "helper": {"helper"}}[schedule]


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_smallest_failing_task_raises(monkeypatch, schedule):
    oracles.patch_schedule(monkeypatch, schedule)

    def failing(i):
        def task(buf):
            raise Failed(i)
        return task

    log = []
    tasks = [_task(0, log), _task(1, log), failing(2), _task(3, log),
             failing(4), failing(5)]
    results = in_task_order(tasks)
    assert [next(results)[0] for _ in range(2)] == [0, 1]
    with pytest.raises(Failed, match="^2$"):
        next(results)


def test_later_failure_first_is_raised_in_its_place():
    # task 1 fails only once task 2 has failed: whichever worker takes
    # task 1, the other takes task 2 (the caller holds at most one result
    # of its own, the helper two), and the error raised is task 1's
    failures = []
    second = threading.Event()

    def fail_late(buf):
        assert second.wait(timeout=60)
        failures.append(1)
        raise Failed(1)

    def fail_early(buf):
        failures.append(2)
        second.set()
        raise Failed(2)

    results = in_task_order([lambda buf: 0, fail_late, fail_early])
    assert next(results) == 0
    with pytest.raises(Failed, match="^1$"):
        next(results)
    assert failures == [2, 1]


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_early_close_joins_the_helper(monkeypatch, schedule):
    # the sweeps run on a thread of their own, so that a helper that is
    # never joined fails the test instead of hanging it
    oracles.patch_schedule(monkeypatch, schedule)
    start = threading.active_count()
    started = []

    def sweeps():
        for taken in (0, 1, 5):
            log = []
            tasks = [_task(i, log, pause=1e-3) for i in range(50)]
            with closing(in_task_order(tasks)) as results:
                for _ in zip(range(taken), results):
                    pass
            started.append((taken, len(log), threading.active_count()))
        with pytest.raises(ZeroDivisionError):
            list(in_task_order([_task(0, []), lambda buf: 1 / 0]))
        started.append((None, None, threading.active_count()))

    sweeper = threading.Thread(target=sweeps, daemon=True)
    sweeper.start()
    sweeper.join(timeout=60)
    assert not sweeper.is_alive()
    assert [taken for taken, _, _ in started] == [0, 1, 5, None]
    for taken, count, threads in started:
        assert threads == start + 1  # the sweeper alone
        if taken is not None:
            assert count <= taken + _peers._AHEAD + _peers._OWN
    assert threading.active_count() == start


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_alive_results_are_bounded(monkeypatch, schedule):
    # a result is alive from the start of its task until the caller has
    # handed it on; the slow hand-on lets the workers run ahead
    oracles.patch_schedule(monkeypatch, schedule)
    caller = threading.get_ident()
    lock = threading.Lock()
    alive = {True: 0, False: 0}  # by worker: on the calling thread or not
    most = {True: 0, False: 0, "both": 0}

    def task(buf):
        with lock:
            on_caller = threading.get_ident() == caller
            alive[on_caller] += 1
            most[on_caller] = max(most[on_caller], alive[on_caller])
            most["both"] = max(most["both"], alive[True] + alive[False])
        return on_caller

    for on_caller in in_task_order([task] * 30):
        time.sleep(5e-3)
        with lock:
            alive[on_caller] -= 1
    # the one-sided schedules set _AHEAD or _OWN to 0
    assert (most[True], most[False]) == (_peers._OWN, _peers._AHEAD)
    assert most["both"] <= _peers._AHEAD + _peers._OWN


def test_concurrent_sweeps_stress():
    # four sweeps at once on a short switch interval: every task runs
    # once, every sweep gets its results in order, and every helper is
    # joined
    start = threading.active_count()
    got = [None] * 4

    def sweep(k):
        runs = [0] * 300
        lock = threading.Lock()

        def task(i):
            def run(buf):
                with lock:
                    runs[i] += 1
                return k, i
            return run

        got[k] = (list(in_task_order([task(i) for i in range(300)])), runs)

    threads = [threading.Thread(target=sweep, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == start
    for k, (results, runs) in enumerate(got):
        assert results == [(k, i) for i in range(300)]
        assert runs == [1] * 300
