"""One bounded pool for the model calls of many questions: the CLI runs
each stage on it at ``--concurrency`` workers, and ``sample_answers`` and
``cluster_answers`` run their one question on it at one worker.  A job
lists the distinct keys of its requests and gets each reply by key.

Its Python work runs on one worker at a time, under the run lock, which a
worker releases only inside ``waiting()`` while it blocks on I/O: workers
with nothing to wait on sleep instead of contending for the interpreter."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator

from .errors import BackendError

_held = threading.local()  # .lock: the run lock this thread holds, if any


@contextmanager
def waiting() -> Iterator[None]:
    """Let other workers run while the body blocks on I/O.

    Releases the run lock the current worker holds and takes it back when
    the body ends, also when it raises.  A no-op outside ``run_jobs`` and
    inside another ``waiting()``, so a thread never releases a lock it does
    not hold.
    """
    lock = getattr(_held, "lock", None)
    if lock is None:
        yield
        return
    _held.lock = None
    lock.release()
    try:
        yield
    finally:
        lock.acquire()
        _held.lock = lock


@dataclass
class Job:
    """One question's model calls and the reduction that consumes them.

    ``keys`` lists the distinct keys of the job's requests; ``call(key)``
    makes one.  ``finish(results, errors)`` gets, by key, each call's result
    or its per-call error (a ``BackendError``).  Both run under the run
    lock; a ``call`` that blocks on I/O wraps the wait in ``waiting()``.
    """

    question_id: str
    keys: list[Hashable]
    call: Callable[[Hashable], object]
    finish: Callable[[dict, dict], None]
    results: dict = field(default_factory=dict)  # by key
    errors: dict = field(default_factory=dict)  # by key
    left: int = 0  # keys whose call has not returned


def run_jobs(concurrency: int, jobs: Iterable[Job]) -> list[tuple[str, Exception]]:
    """Run every job's calls on one pool of ``concurrency`` workers.

    The workers take calls from one lazy queue in job order, then key
    order, so at most ``concurrency`` calls are in flight and at most
    ``concurrency + 1`` jobs are open, however long the corpus.  Each key
    is called once.  The worker that ends a job's last call runs its
    ``finish``.

    A worker holds the run lock from its first call until it exits, and
    lets go of it only inside ``waiting()``: the queue, the calls, the
    bookkeeping and every ``finish`` run on one worker at a time, and only
    the waits overlap.

    Returns the failures: (question_id, exception) by question id for the
    jobs whose ``finish`` raised a ``BackendError``.
    Any other exception, Ctrl-C included, stops the workers from taking
    further calls and propagates once the running ones end.
    """
    run_lock = threading.Lock()
    stop = threading.Event()
    failures: list[tuple[str, Exception]] = []

    def finish(job: Job) -> None:
        try:
            job.finish(job.results, job.errors)
        except BackendError as exc:
            failures.append((job.question_id, exc))

    def calls():
        for job in jobs:
            job.left = len(job.keys)
            if not job.left:
                finish(job)
            for key in job.keys:
                yield job, key

    queue = calls()

    def work() -> None:
        run_lock.acquire()
        _held.lock = run_lock
        try:
            while not stop.is_set():
                entry = next(queue, None)
                if entry is None:
                    return
                job, key = entry
                try:
                    job.results[key] = job.call(key)
                except BackendError as exc:
                    job.errors[key] = exc
                job.left -= 1
                if not job.left:
                    finish(job)
        except BaseException:
            stop.set()
            raise
        finally:
            _held.lock = None
            run_lock.release()

    pool = ThreadPoolExecutor(max_workers=concurrency)
    try:
        with run_lock:  # no worker runs while the others start
            workers = [pool.submit(work) for _ in range(concurrency)]
        for worker in workers:
            worker.result()
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)
    failures.sort(key=lambda failure: failure[0])
    return failures
