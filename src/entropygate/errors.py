"""Exception types and the file reading and writing shared across the package.

An error's ``exit_code`` is the command line's exit status for it, one of
the ``EXIT_*`` numbers below.  A ``BackendError`` fails one question of a
stage; any other error stops the stage.
"""

from __future__ import annotations

import contextlib
import json
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


def _first_error(error) -> str:  # the first failed call's error, if given
    return f"; first error: {error}" if error is not None else ""


class SamplingIncompleteError(BackendError):
    """Some of the requested answer samples could not be obtained."""

    def __init__(self, question_id, missing_ordinals, error=None):
        self.question_id = question_id
        self.missing_ordinals = sorted(missing_ordinals)
        super().__init__(
            f"sampling incomplete for question {question_id!r}: "
            f"missing ordinals {self.missing_ordinals}{_first_error(error)}"
        )


class JudgingError(BackendError):
    """Entailment judging failed for one or more pairs."""

    def __init__(self, failed_pairs, error=None):
        self.failed_pairs = sorted(failed_pairs)
        super().__init__(
            f"entailment judging failed for {len(self.failed_pairs)} pair(s): "
            f"{self.failed_pairs[:10]}{_first_error(error)}"
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


# Files are read and written with ``os`` calls: every system call lets the
# other worker threads take the interpreter lock, and a small file takes
# three calls this way (open, read or write, close), fewer than through a
# buffered ``open``.
_CHUNK = 1 << 16
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def read_bytes(path: str | Path) -> bytes:
    """The content of the regular file at ``path``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = [os.read(fd, _CHUNK)]
        while len(chunks[-1]) == _CHUNK:  # a regular file reads short only at its end
            chunks.append(os.read(fd, _CHUNK))
    finally:
        os.close(fd)
    return b"".join(chunks)


def _holds(path: str, data: bytes) -> bool:
    """Whether the file at ``path`` holds exactly ``data``."""
    try:
        return read_bytes(path) == data
    except OSError:
        return False


def _write_bytes(path: str, data: bytes) -> None:
    """Create or truncate ``path``, making its folder if missing, and write
    ``data`` to it."""
    try:
        fd = os.open(path, _WRITE_FLAGS, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) through a temp file and
    ``os.replace``, so no reader or concurrent writer sees a torn file.
    A file that already holds these bytes is left as it is.  If either
    step fails, the temp file is removed and the error raised."""
    path = os.fspath(path)
    data = text.encode("utf-8")
    if _holds(path, data):
        return
    folder, name = os.path.split(path)
    tmp = os.path.join(folder, f".{name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        _write_bytes(tmp, data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


_COMPACT = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def compact_json(value) -> str:
    """``value`` as one line of JSON with sorted keys: the layout of records
    and cache entries, and the canonical request a cache key hashes."""
    return _COMPACT.encode(value)


def read_record(path: str | Path) -> dict:
    """A record as ``write_record`` stores it, or in an older indented layout."""
    return json.loads(read_bytes(path))


def write_record(path: str | Path, record: dict) -> None:
    """Write ``record`` to ``path`` as one compact JSON object, in place.

    Not through ``write_text_atomic``: a torn record does not parse, so the
    CLI redoes it, and a temp file per record slowed a 706-question stage
    30%.  A file that already holds these bytes is left as it is.
    """
    path = os.fspath(path)
    data = (compact_json(record) + "\n").encode("utf-8")
    if not _holds(path, data):
        _write_bytes(path, data)
