"""One bounded pool for the model calls of many questions: the CLI runs
each stage on it at ``--concurrency`` workers, and ``sample_answers`` and
``cluster_answers`` run their one question on it at one worker."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

from .errors import BackendError, GradingError, JudgingError, SamplingIncompleteError


@dataclass
class Job:
    """One question's model calls and the reduction that consumes them.

    ``slots`` maps each result slot to the key of the request that fills
    it; ``call(key)`` makes that request.  Slots with equal keys share one
    call.  ``finish(results, errors)`` gets, per slot, the call's result or
    its per-call error (``BackendError`` or ``GradingError``).
    """

    question_id: str
    slots: dict[Hashable, Hashable]
    call: Callable[[Hashable], object]
    finish: Callable[[dict, dict], None]
    results: dict = field(default_factory=dict)  # by key
    errors: dict = field(default_factory=dict)  # by key
    left: int = 0  # keys whose call has not returned


_CALL_ERRORS = (BackendError, GradingError)
_QUESTION_ERRORS = (BackendError, SamplingIncompleteError, JudgingError, GradingError)


def run_jobs(concurrency: int, jobs: Iterable[Job]) -> tuple[int, list[tuple[str, Exception]]]:
    """Run every job's calls on one pool of ``concurrency`` workers.

    The workers take calls from one lazy queue in job order, then slot
    order, so at most ``concurrency`` calls are in flight and at most
    ``concurrency + 1`` jobs are open, however long the corpus.  Each
    distinct key of a job is called once (single-flight: request keys
    carry the question id, so no two jobs share one), and every slot with
    that key gets the result.  The worker that ends a job's last call runs
    its ``finish``.

    Returns (done, failures) where failures lists (question_id, exception)
    by question id for the jobs whose ``finish`` raised a per-question
    error.  Any other exception, Ctrl-C included, stops the workers from
    taking further calls and propagates once the running ones end.
    """
    lock = threading.RLock()  # reentrant: calls() finishes a job without calls
    stop = threading.Event()
    done = 0
    failures: list[tuple[str, Exception]] = []

    def finish(job: Job) -> None:
        nonlocal done
        results = {s: job.results[k] for s, k in job.slots.items() if k in job.results}
        errors = {s: job.errors[k] for s, k in job.slots.items() if k in job.errors}
        try:
            job.finish(results, errors)
        except _QUESTION_ERRORS as exc:
            with lock:
                failures.append((job.question_id, exc))
        else:
            with lock:
                done += 1

    def calls():
        for job in jobs:
            keys = list(dict.fromkeys(job.slots.values()))
            job.left = len(keys)
            if not keys:
                finish(job)
            for key in keys:
                yield job, key

    queue = calls()

    def work() -> None:
        try:
            while not stop.is_set():
                with lock:
                    entry = next(queue, None)
                if entry is None:
                    return
                job, key = entry
                try:
                    outcome, store = job.call(key), job.results
                except _CALL_ERRORS as exc:
                    outcome, store = exc, job.errors
                with lock:
                    store[key] = outcome
                    job.left -= 1
                    last = not job.left
                if last:
                    finish(job)
        except BaseException:
            stop.set()
            raise

    pool = ThreadPoolExecutor(max_workers=concurrency)
    try:
        for worker in [pool.submit(work) for _ in range(concurrency)]:
            worker.result()
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)
    failures.sort(key=lambda failure: failure[0])
    return done, failures
