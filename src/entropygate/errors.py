"""Exception types and the atomic file writer shared across the package.

An error's ``exit_code`` is the command line's exit status for it, one of
the ``EXIT_*`` numbers below.  A ``BackendError`` fails one question of a
stage; any other error stops the stage.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path

EXIT_USAGE = 1  # fix the input
EXIT_INCOMPLETE = 2  # run an earlier stage
EXIT_BACKEND = 3  # rerun to resume


class EntropyGateError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_INCOMPLETE


class UsageError(EntropyGateError):
    """A setting or a named input file is missing, unreadable or invalid."""

    exit_code = EXIT_USAGE


class IncompleteRecordsError(EntropyGateError):
    """A stage needs records that an earlier stage has not written, or
    wrote from other inputs than the current ones."""


class BackendError(EntropyGateError):
    """A model backend call failed after exhausting its retry budget, or
    (subclasses) a question's answers could not be drawn, judged or graded."""

    exit_code = EXIT_BACKEND


class SamplingIncompleteError(BackendError):
    """Some of the requested answer samples could not be obtained."""

    def __init__(self, question_id, missing_ordinals):
        self.question_id = question_id
        self.missing_ordinals = sorted(missing_ordinals)
        super().__init__(
            f"sampling incomplete for question {question_id!r}: "
            f"missing ordinals {self.missing_ordinals}"
        )


class JudgingError(BackendError):
    """Entailment judging failed for one or more pairs."""

    def __init__(self, failed_pairs):
        self.failed_pairs = sorted(failed_pairs)
        super().__init__(
            f"entailment judging failed for {len(self.failed_pairs)} pair(s): "
            f"{self.failed_pairs[:10]}"
        )


class IncompleteMatrixError(EntropyGateError):
    """An entailment matrix is missing verdicts for some ordered pairs."""

    def __init__(self, missing):
        self.missing = sorted(missing)
        shown = ", ".join(map(str, self.missing[:10]))
        more = "" if len(self.missing) <= 10 else f" (+{len(self.missing) - 10} more)"
        super().__init__(f"missing verdicts: {shown}{more}")


class CorpusFormatError(UsageError):
    """A corpus or grade file could not be parsed."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(f"{message}{where}")


class UnknownQuestionIdsError(UsageError):
    """A grade-override file references question ids absent from the corpus."""

    def __init__(self, unknown_ids):
        self.unknown_ids = sorted(unknown_ids)
        super().__init__(f"unknown question ids in grade file: {self.unknown_ids}")


class GradingError(BackendError):
    """A model-judge grading call failed; the answer is left ungraded."""


class EmptyRetainedSetError(EntropyGateError):
    """A threshold left no questions retained, so accuracy is undefined."""


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) through a temp file and
    ``os.replace``, so no reader or concurrent writer sees a torn file.
    If either step fails, the temp file is removed and the error raised."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
