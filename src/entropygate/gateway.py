"""Uniform access to a black-box chat-completions model API.

Three interchangeable backends sit behind one ``invoke`` interface:

* ``HttpBackend``: a live chat-completions-style HTTP endpoint, with the
  image embedded as a base64 data URL, five attempts with exponential
  backoff + jitter, and the API key read from a named environment
  variable (never from flags or files).
* ``MockBackend``: scripted answers keyed by (question_id, role, ordinal)
  plus rule-based entailment judges (equality, equivalence classes,
  seeded random); drives every offline test.
* ``CachingBackend``: content-addressed record/replay store wrapped
  around any backend: a hit returns the recorded reply
  byte-identically, a miss delegates and persists atomically.

Requests are semantic (question text + image reference, or an entailment
pair), so each backend renders its own wire format and the cache key is a
digest over the canonical request rather than over transport bytes.
"""

from __future__ import annotations

import base64
import functools
import json
import hashlib
import logging
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from . import scheduler
from .clustering import LABEL_ENTAILS, LABEL_NOT_ENTAILS, EntailmentVerdict
from .errors import (
    BackendError,
    CorpusFormatError,
    SamplingIncompleteError,
    compact_json,
    read_bytes,
    write_text_atomic,
)

if TYPE_CHECKING:  # pragma: no cover
    from .corpus import ImageQuestion

log = logging.getLogger(__name__)

# Request roles; ordinals are unique per (question_id, role).
ROLE_SAMPLE = "sample"
ROLE_BASELINE = "baseline"
ROLE_JUDGE = "judge"
ROLE_GRADE = "grade"

# Rough fallback when the provider returns no usage block: ~4 chars/token
# for text plus a flat allowance per attached image.  Estimates are flagged.
_CHARS_PER_TOKEN = 4
_TOKENS_PER_IMAGE = 765

# Unparseable judge and grade replies are asked again this many times.
_PARSE_RETRIES = 2

# HTTP retry policy: attempts, full-jitter backoff bounds, per-attempt timeout.
_HTTP_ATTEMPTS = 5
_BACKOFF_BASE_S = 0.5
_BACKOFF_CAP_S = 30.0
_REQUEST_TIMEOUT_S = 120.0

# Prompts rendered by the HTTP backend: this package's own, not a
# reproduction of any particular deployment's prompts.
_SYSTEM_PROMPT = "You are assisting with radiological image interpretation."
_ANSWER_PROMPT = "{question}\nAnswer concisely with a short phrase."
_JUDGE_PROMPT = (
    "We are evaluating answers to the question: {context}\n"
    "Answer 1: {premise}\n"
    "Answer 2: {hypothesis}\n"
    "Does the meaning of Answer 1 follow from Answer 2's being a full "
    "answer, i.e. does Answer 1 entail Answer 2? Reply with exactly one "
    "word: entailment or no-entailment."
)
_GRADE_PROMPT = (
    "Question: {question}\n"
    "Reference answer: {reference}\n"
    "Candidate answer: {answer}\n"
    "Is the candidate clinically equivalent to the reference as an "
    "answer to the question? Reply with exactly one word: yes or no."
)


@dataclass(frozen=True)
class BackendConfig:
    """Connection settings for a live chat-completions endpoint."""

    endpoint_url: str
    model_name: str
    api_key_env: str = "ENTROPYGATE_API_KEY"


@dataclass(frozen=True)
class ModelRequest:
    """One logical model call, independent of wire format.

    Exactly one shape is populated: an answer request (``question`` +
    optional ``image_ref``), a judge request (``context``/``premise``/
    ``hypothesis``), or a grade request (``question``/``premise`` as
    reference/``hypothesis`` as candidate).  ``ordinal`` is the repeat
    nonce: identical requests with different ordinals are distinct calls.
    """

    question_id: str
    role: str
    ordinal: int
    temperature: float
    question: str | None = None
    image_ref: str | None = None
    context: str | None = None
    premise: str | None = None
    hypothesis: str | None = None


@dataclass(frozen=True)
class ModelReply:
    """Verbatim reply text plus per-call accounting."""

    text: str
    tokens_in: int | None
    tokens_out: int | None
    latency_ms: float
    fingerprint: str
    estimated_tokens: bool = False


@dataclass(frozen=True)
class AnswerSample:
    """One sampled answer to one question, with accounting."""

    question_id: str
    ordinal: int
    text: str
    temperature: float
    tokens_in: int | None
    tokens_out: int | None
    latency_ms: float
    backend_fingerprint: str


def cache_key(model_name: str, request: ModelRequest) -> str:
    """Content digest (sha256 hex) identifying one logical model call."""
    canonical = compact_json({"model": model_name, "request": vars(request)})
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Backend:
    """Minimal backend interface: one synchronous ``invoke`` per request.

    Implementations must be safe to share across threads.  The scheduler
    runs ``invoke`` under its run lock, one worker at a time, so a backend
    that blocks on I/O wraps the wait in ``scheduler.waiting()`` to let the
    other calls proceed.  ``close`` releases held connections; the backend
    is not used afterwards.
    """

    model_name: str = "backend"

    def invoke(self, request: ModelRequest) -> ModelReply:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Verdict parsing
# ---------------------------------------------------------------------------

_ENTAIL_TOKENS = {"entailment", "entails", "entail", "yes", "true"}
_NO_ENTAIL_TOKENS = {
    "no-entailment",
    "no_entailment",
    "noentailment",
    "not-entailment",
    "does-not-entail",
    "no",
    "false",
    "contradiction",
    "neutral",
}


def _reply_token(text: str) -> str:
    """``text`` trimmed of whitespace and terminal punctuation, casefolded,
    with inner whitespace runs as single hyphens."""
    token = text.strip().strip(".,;:!?\"'").casefold()
    return "-".join(token.split())


def parse_entailment_reply(text: str) -> str | None:
    """Deterministic parse of a judge reply into an entailment label.

    Rule: normalize the reply (``_reply_token``), then look the token up in
    a closed set.  Returns ``None`` when the reply is not parseable; callers
    retry and finally fall back to "does-not-entail" (conservative: splits
    rather than merges clusters, raising entropy and favoring rejection).
    """
    token = _reply_token(text)
    if token in _ENTAIL_TOKENS:
        return LABEL_ENTAILS
    if token in _NO_ENTAIL_TOKENS:
        return LABEL_NOT_ENTAILS
    return None


_YES_TOKENS = {"yes", "true", "correct", "equivalent"}
_NO_TOKENS = {"no", "false", "incorrect", "not-equivalent"}


def parse_yes_no_reply(text: str) -> bool | None:
    """Parse a yes/no grading reply; ``None`` when unparseable.

    The whole reply is matched first so that "not equivalent" reads as no;
    failing that, a leading yes/no is honored ("Yes, the answers match.").
    """
    token = _reply_token(text)
    for word in (token, token.split("-")[0].strip(".,;:!?\"'")):
        if word in _YES_TOKENS:
            return True
        if word in _NO_TOKENS:
            return False
    return None


def ask(backend: Backend, parse: Callable[[str], object], **request_fields):
    """Send ``ModelRequest(ordinal=n, **request_fields)`` for n = 0, 1, ...,
    ``_PARSE_RETRIES`` until ``parse`` reads a reply as other than None: a
    bumped ordinal is a new request, which a cache does not answer with the
    bad reply.  Returns (the parsed value or None, the last reply, and the
    tokens in, tokens out and latency summed over the calls, a missing
    count as 0).  A failed call propagates as ``BackendError``.
    """
    tokens_in = tokens_out = 0
    latency_ms = 0.0
    for ordinal in range(_PARSE_RETRIES + 1):
        reply = backend.invoke(ModelRequest(ordinal=ordinal, **request_fields))
        tokens_in += reply.tokens_in or 0
        tokens_out += reply.tokens_out or 0
        latency_ms += reply.latency_ms
        value = parse(reply.text)
        if value is not None:
            break
    return value, reply, tokens_in, tokens_out, latency_ms


# ---------------------------------------------------------------------------
# Live HTTP backend
# ---------------------------------------------------------------------------

# transport(url, headers, payload, timeout) -> (status_code, parsed_json | text)
Transport = Callable[[str, dict, dict, float], tuple[int, object]]

_RETRYABLE_STATUS = {408, 409, 429, 500, 502, 503, 504}


def _requests_session(max_connections: int):
    """A keep-alive session whose pool holds ``max_connections`` per host."""
    import requests

    session = requests.Session()
    adapter = requests.adapters.HTTPAdapter(pool_maxsize=max_connections)
    session.mount("http://", adapter)
    session.mount("https://", adapter)
    return session


def _requests_transport(session, url: str, headers: dict, payload: dict, timeout: float):
    import requests

    try:
        response = session.post(url, headers=headers, json=payload, timeout=timeout)
    except requests.RequestException as exc:
        raise ConnectionError(str(exc)) from exc
    try:
        body = response.json()
    except ValueError:
        body = response.text
    return response.status_code, body


class HttpBackend(Backend):
    """Chat-completions HTTP client with retries and image inlining.

    Without an injected ``transport`` it sends through one keep-alive
    ``requests.Session`` whose pool holds ``max_connections`` connections:
    at least as many as the calls the caller runs at once.
    """

    def __init__(
        self,
        config: BackendConfig,
        transport: Transport | None = None,
        sleep: Callable[[float], None] = time.sleep,
        max_connections: int = 10,
    ):
        self.config = config
        self.model_name = config.model_name
        self._session = None
        if transport is None:
            self._session = _requests_session(max_connections)
            transport = functools.partial(_requests_transport, self._session)
        self._transport = transport
        self._sleep = sleep
        self._jitter = random.Random()

    def close(self) -> None:
        if self._session is not None:
            self._session.close()

    def invoke(self, request: ModelRequest) -> ModelReply:
        payload = self.build_payload(request)
        headers = {"Content-Type": "application/json"}
        api_key = self._api_key()
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        for attempt in range(_HTTP_ATTEMPTS):
            if attempt:
                pause = self._backoff(attempt)
                with scheduler.waiting():
                    self._sleep(pause)
            try:
                with scheduler.waiting():
                    started = time.perf_counter()
                    status, body = self._transport(
                        self.config.endpoint_url, headers, payload, _REQUEST_TIMEOUT_S
                    )
                    latency_ms = (time.perf_counter() - started) * 1000.0
            except (ConnectionError, TimeoutError, OSError) as exc:
                last_error = f"transport error: {exc}"
                continue
            if status in _RETRYABLE_STATUS:
                last_error = f"HTTP {status}"
                continue
            if status != 200:
                raise BackendError(f"HTTP {status} from {self.config.endpoint_url}: {body}")
            return self._parse_reply(body, request, latency_ms)
        raise BackendError(
            f"request failed after {_HTTP_ATTEMPTS} attempt(s): {last_error}"
        )

    def _api_key(self) -> str:
        name = self.config.api_key_env
        if not name:
            return ""
        key = os.environ.get(name)
        if key is None:
            raise BackendError(f"API key environment variable {name!r} is not set")
        return key

    def _backoff(self, attempt: int) -> float:
        # full jitter: uniform in (0, min(cap, base * 2^(attempt-1)))
        ceiling = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2 ** (attempt - 1))
        return self._jitter.uniform(0, ceiling)

    def build_payload(self, request: ModelRequest) -> dict:
        if request.role in (ROLE_SAMPLE, ROLE_BASELINE):
            content: list | str
            text = _ANSWER_PROMPT.format(question=request.question)
            if request.image_ref:
                content = [
                    {"type": "text", "text": text},
                    {"type": "image_url", "image_url": {"url": _image_data_url(request.image_ref)}},
                ]
            else:
                content = text
        elif request.role == ROLE_JUDGE:
            content = _JUDGE_PROMPT.format(
                context=request.context, premise=request.premise, hypothesis=request.hypothesis
            )
        elif request.role == ROLE_GRADE:
            content = _GRADE_PROMPT.format(
                question=request.question, reference=request.premise, answer=request.hypothesis
            )
        else:
            raise ValueError(f"unknown request role {request.role!r}")
        return {
            "model": self.config.model_name,
            "messages": [
                {"role": "system", "content": _SYSTEM_PROMPT},
                {"role": "user", "content": content},
            ],
            "temperature": request.temperature,
        }

    def _parse_reply(self, body, request: ModelRequest, latency_ms: float) -> ModelReply:
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            text = None
        if not isinstance(text, str):  # e.g. ``"content": null``
            raise BackendError(f"malformed completion response: {body!r}")
        usage = body.get("usage") or {}
        tokens_in = usage.get("prompt_tokens")
        tokens_out = usage.get("completion_tokens")
        estimated = False
        if tokens_in is None or tokens_out is None:
            tokens_in = self._estimate_prompt_tokens(request)
            tokens_out = max(1, len(text) // _CHARS_PER_TOKEN)
            estimated = True
        fingerprint = str(body.get("model", self.config.model_name))
        if body.get("system_fingerprint"):
            fingerprint += "@" + str(body["system_fingerprint"])
        return ModelReply(
            text=text,
            tokens_in=tokens_in,
            tokens_out=tokens_out,
            latency_ms=latency_ms,
            fingerprint=fingerprint,
            estimated_tokens=estimated,
        )

    def _estimate_prompt_tokens(self, request: ModelRequest) -> int:
        chars = sum(
            len(part)
            for part in (request.question, request.context, request.premise, request.hypothesis)
            if part
        )
        tokens = max(1, chars // _CHARS_PER_TOKEN)
        if request.image_ref:
            tokens += _TOKENS_PER_IMAGE
        return tokens


def _image_data_url(image_ref: str) -> str:
    """Inline an image as a data URL; pass through refs that already are."""
    if image_ref.startswith("data:"):
        return image_ref
    path = Path(image_ref)
    suffix = path.suffix.lower().lstrip(".") or "png"
    mime = {"jpg": "jpeg", "jpeg": "jpeg", "png": "png", "gif": "gif", "webp": "webp"}.get(
        suffix, "png"
    )
    try:
        raw = path.read_bytes()
    except OSError:
        raise CorpusFormatError("cannot read image", path=image_ref) from None
    data = base64.b64encode(raw).decode("ascii")
    return f"data:image/{mime};base64,{data}"


# ---------------------------------------------------------------------------
# Mock backend
# ---------------------------------------------------------------------------

def equality_judge() -> Callable[[str, str], bool]:
    """Entails iff the two texts are identical."""
    return lambda premise, hypothesis: premise == hypothesis


def equivalence_class_judge(classes: list[list[str]]) -> Callable[[str, str], bool]:
    """Entails iff both texts sit in the same listed class.

    Texts not listed anywhere form implicit singleton classes, so they
    entail only exact copies of themselves.
    """
    index: dict[str, int] = {}
    for class_id, members in enumerate(classes):
        for member in members:
            index[member] = class_id

    def rule(premise: str, hypothesis: str) -> bool:
        if premise in index and hypothesis in index:
            return index[premise] == index[hypothesis]
        return premise == hypothesis

    return rule


def seeded_random_judge(seed: int, p_entail: float = 0.5) -> Callable[[str, str], bool]:
    """Deterministic pseudo-random verdict per ordered text pair.

    The verdict is a pure function of (seed, premise, hypothesis), so the
    same pair always judges the same way, while direction and transitivity
    are deliberately not respected.
    """

    def rule(premise: str, hypothesis: str) -> bool:
        digest = hashlib.sha256(f"{seed}\x1f{premise}\x1f{hypothesis}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < p_entail

    return rule


_JUDGE_RULES = {
    "equality": lambda spec: equality_judge(),
    "equivalence-classes": lambda spec: equivalence_class_judge(spec.get("classes", [])),
    "random": lambda spec: seeded_random_judge(
        int(spec.get("seed", 0)), float(spec.get("p_entail", 0.5))
    ),
}


class MockBackend(Backend):
    """Offline backend: scripted completions plus a rule-based judge.

    ``answers`` maps question_id -> role -> list of texts indexed by
    ordinal.  The judge rule is a boolean function of (premise,
    hypothesis); it replies "entailment"/"no-entailment", which the
    documented parse rule maps back to a verdict.  ``grade_replies`` maps
    question_id -> "yes"/"no" for model-judge grading.
    """

    model_name = "mock"

    def __init__(
        self,
        answers: dict[str, dict[str, list[str]]] | None = None,
        judge_rule: Callable[[str, str], bool] | None = None,
        grade_replies: dict[str, str] | None = None,
        latency_ms: float = 0.0,
        tokens_in: int = 0,
        tokens_out: int = 0,
        fail: set[tuple[str, str, int]] | None = None,
    ):
        self.answers = answers or {}
        self.judge_rule = judge_rule or equality_judge()
        self.grade_replies = grade_replies or {}
        self.latency_ms = latency_ms
        self.tokens_in = tokens_in
        self.tokens_out = tokens_out
        self.fail = fail or set()
        self.call_count = 0
        self._count_lock = threading.Lock()

    @classmethod
    def from_script(cls, script: dict | str | Path) -> "MockBackend":
        """Build from the JSON scripting format.

        Schema::

            {
              "latency_ms": 3000.0,          // optional, per call
              "tokens_in": 690,              // optional, per call
              "tokens_out": 43,
              "judge": {"rule": "equality"}  // or "equivalence-classes"
                                             //    {"classes": [["a","b"],["c"]]}
                                             // or "random" {"seed": 1, "p_entail": 0.5}
              "answers": {"q1": {"sample": ["A", ...], "baseline": ["A"]}},
              "grades": {"q1": "yes"}
            }
        """
        if not isinstance(script, dict):
            script = json.loads(Path(script).read_text(encoding="utf-8"))
        judge_spec = script.get("judge", {"rule": "equality"})
        rule_name = judge_spec.get("rule", "equality")
        if rule_name not in _JUDGE_RULES:
            raise ValueError(f"unknown mock judge rule {rule_name!r}")
        return cls(
            answers=script.get("answers", {}),
            judge_rule=_JUDGE_RULES[rule_name](judge_spec),
            grade_replies=script.get("grades", {}),
            latency_ms=float(script.get("latency_ms", 0.0)),
            tokens_in=int(script.get("tokens_in", 0)),
            tokens_out=int(script.get("tokens_out", 0)),
        )

    def invoke(self, request: ModelRequest) -> ModelReply:
        with self._count_lock:
            self.call_count += 1
        if (request.question_id, request.role, request.ordinal) in self.fail:
            raise BackendError(
                f"scripted failure for {(request.question_id, request.role, request.ordinal)}"
            )
        if request.role in (ROLE_SAMPLE, ROLE_BASELINE):
            try:
                text = self.answers[request.question_id][request.role][request.ordinal]
            except (KeyError, IndexError):
                raise BackendError(
                    f"no scripted answer for question {request.question_id!r} "
                    f"role {request.role!r} ordinal {request.ordinal}"
                )
        elif request.role == ROLE_JUDGE:
            entails = self.judge_rule(request.premise or "", request.hypothesis or "")
            text = "entailment" if entails else "no-entailment"
        elif request.role == ROLE_GRADE:
            try:
                text = self.grade_replies[request.question_id]
            except KeyError:
                raise BackendError(
                    f"no scripted grade reply for question {request.question_id!r}"
                )
        else:
            raise ValueError(f"unknown request role {request.role!r}")
        return ModelReply(
            text=text,
            tokens_in=self.tokens_in,
            tokens_out=self.tokens_out,
            latency_ms=self.latency_ms,
            fingerprint=self.model_name,
        )


# ---------------------------------------------------------------------------
# Record/replay cache
# ---------------------------------------------------------------------------

class CachingBackend(Backend):
    """Content-addressed record/replay cache around another backend.

    One file per cache key, ``store_path/<2-hex>/<digest>.json``, holding
    one compact JSON object: the canonicalized request and the verbatim
    reply, the record of one call.  A hit is one read of that file.  A miss
    asks ``inner`` and writes the entry through a temp file and
    ``os.replace``, so concurrent writers can never leave a torn entry.  A
    corrupt entry (unparseable, or a reply without text) is treated as a
    miss and replaced.  Entries written in the older indented layout are
    read as they are.  ``hits`` counts the replies replayed and ``misses``
    the replies fetched from ``inner`` and recorded.

    Note: cache keys cover the logical request (the image *reference*,
    not its bytes); editing an image in place under the same path will
    not invalidate recorded replies.
    """

    def __init__(self, inner: Backend, store_path: str | Path):
        self.inner = inner
        self.store = os.fspath(store_path)
        os.makedirs(self.store, exist_ok=True)
        self.model_name = inner.model_name
        self.hits = 0
        self.misses = 0
        self._count_lock = threading.Lock()

    def close(self) -> None:
        self.inner.close()

    def invoke(self, request: ModelRequest) -> ModelReply:
        key = cache_key(self.inner.model_name, request)
        path = f"{self.store}/{key[:2]}/{key}.json"
        try:
            entry = json.loads(read_bytes(path))
            reply = ModelReply(**entry["reply"])
            if not isinstance(reply.text, str):
                raise TypeError(f"reply text is {reply.text!r}")
        except FileNotFoundError:
            pass
        except (ValueError, KeyError, TypeError) as exc:
            log.warning("corrupt cache entry %s (%s); re-fetching", path, exc)
        else:
            with self._count_lock:
                self.hits += 1
            return reply
        reply = self.inner.invoke(request)
        entry = {
            "key": key,
            "model": self.inner.model_name,
            "request": vars(request),
            "reply": vars(reply),
        }
        write_text_atomic(path, compact_json(entry) + "\n")
        with self._count_lock:
            self.misses += 1
        return reply


# ---------------------------------------------------------------------------
# Sampling and judging operations
# ---------------------------------------------------------------------------

def sampling_job(
    backend: Backend,
    item: "ImageQuestion",
    draws: dict[str, tuple[int, float]],
    done: Callable[[dict[str, list[AnswerSample]]], None],
) -> scheduler.Job:
    """One question's answer draws as a scheduler job.

    ``draws`` maps each role to (count, temperature); ordinals 0..count-1
    are the repeat nonce that keeps draws apart in the cache.  ``done``
    gets each role's answers in ordinal order.  If a call failed after the
    backend's retries, raises ``SamplingIncompleteError`` with the failed
    ordinals of the first role in ``draws`` that has any, and their first error.
    """

    def call(slot: tuple[str, int]) -> AnswerSample:
        role, ordinal = slot
        temperature = draws[role][1]
        reply = backend.invoke(
            ModelRequest(
                question_id=item.id,
                role=role,
                ordinal=ordinal,
                temperature=temperature,
                question=item.question,
                image_ref=item.image_ref,
            )
        )
        return AnswerSample(
            question_id=item.id,
            ordinal=ordinal,
            text=reply.text,
            temperature=temperature,
            tokens_in=reply.tokens_in,
            tokens_out=reply.tokens_out,
            latency_ms=reply.latency_ms,
            backend_fingerprint=reply.fingerprint,
        )

    def finish(results: dict, errors: dict) -> None:
        for role in draws:
            missing = [ordinal for r, ordinal in errors if r == role]
            if missing:
                raise SamplingIncompleteError(item.id, missing, errors[role, missing[0]])
        done({
            role: [results[(role, ordinal)] for ordinal in range(count)]
            for role, (count, _) in draws.items()
        })

    slots = [(role, ordinal) for role, (count, _) in draws.items() for ordinal in range(count)]
    return scheduler.Job(item.id, {slot: slot for slot in slots}, call, finish)


def sample_answers(
    backend: Backend,
    item: "ImageQuestion",
    k: int,
    temperature: float,
    role: str = ROLE_SAMPLE,
) -> list[AnswerSample]:
    """Draw k independent answers for one question at the given temperature.

    Runs ``sampling_job`` on the CLI's scheduler at one worker, so the
    calls go one after another in ordinal order.  Every ordinal is tried;
    if any call fails after the backend's retries, raises
    ``SamplingIncompleteError`` listing the missing ordinals.  Behind the
    record/replay cache, a rerun repeats only the calls that failed.
    """
    if k < 1:
        raise ValueError("invalid sample count")
    drawn: list[AnswerSample] = []
    job = sampling_job(
        backend, item, {role: (k, temperature)}, lambda by_role: drawn.extend(by_role[role])
    )
    _, failures = scheduler.run_jobs(1, [job])
    if failures:
        raise failures[0][1]
    return drawn


def judge_entailment(
    backend: Backend,
    context: str,
    premise: str,
    hypothesis: str,
    question_id: str = "",
) -> EntailmentVerdict:
    """Ask the backend whether premise entails hypothesis.

    Judging runs at temperature 0 (the lowest the API supports) for
    determinism, on the texts alone; an empty answer is judged like any
    other text.  Asked through ``ask``: an unparseable reply is asked
    again, then conservatively mapped to "does-not-entail" with a warning.
    Transport failure after the backend's retries propagates as
    ``BackendError``.  The verdict's indices are placeholders (0, 1);
    ``clustering.judging_job`` sets the pair's.
    """
    label, reply, tokens_in, tokens_out, latency_ms = ask(
        backend, parse_entailment_reply, question_id=question_id, role=ROLE_JUDGE,
        temperature=0.0, context=context, premise=premise, hypothesis=hypothesis,
    )
    if label is None:
        log.warning(
            "unparseable judge reply %r after %d attempt(s); recording does-not-entail",
            reply.text,
            _PARSE_RETRIES + 1,
        )
        label = LABEL_NOT_ENTAILS
    return EntailmentVerdict(0, 1, label, reply.text, tokens_in, tokens_out, latency_ms)


def entailment_judge(backend: Backend, question_id: str = ""):
    """Bind a backend into the judge-callable shape ``cluster_answers`` takes."""

    def judge(context: str, premise: str, hypothesis: str) -> EntailmentVerdict:
        return judge_entailment(backend, context, premise, hypothesis, question_id=question_id)

    return judge


# ---------------------------------------------------------------------------
# Cost and latency accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostEstimate:
    """Token, cost, and latency accounting for one question's pipeline."""

    price_per_million_tokens: float
    sampling_tokens: int
    entailment_tokens: int
    sampling_cost: float
    entailment_cost: float
    total_cost: float
    mean_call_latency_ms: float
    pipeline_latency_ms: float  # two fully parallelized stages
    incomplete_records: int  # records missing token counts, costed as zero


def account_usage(
    samples: list[AnswerSample],
    verdicts: list[EntailmentVerdict],
    price_per_million_tokens: float = 10.0,
) -> CostEstimate:
    """Cost and latency model for the sampling + entailment pipeline.

    Cost is total tokens (in + out) times the flat per-million price,
    split into the sampling and entailment components.  Records missing
    token counts are costed as zero and counted in ``incomplete_records``
    with a warning.  Latency: both stages parallelize fully, so the
    pipeline estimate is twice the mean single-call latency.
    """
    incomplete = 0

    def tokens(records) -> int:
        nonlocal incomplete
        total = 0
        for record in records:
            if record.tokens_in is None or record.tokens_out is None:
                incomplete += 1
                continue
            total += record.tokens_in + record.tokens_out
        return total

    sampling_tokens = tokens(samples)
    entailment_tokens = tokens(verdicts)
    if incomplete:
        log.warning("%d record(s) missing token counts; costed as zero", incomplete)

    price = price_per_million_tokens / 1e6
    latencies = [s.latency_ms for s in samples] + [v.latency_ms for v in verdicts]
    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
    return CostEstimate(
        price_per_million_tokens=price_per_million_tokens,
        sampling_tokens=sampling_tokens,
        entailment_tokens=entailment_tokens,
        sampling_cost=sampling_tokens * price,
        entailment_cost=entailment_tokens * price,
        total_cost=(sampling_tokens + entailment_tokens) * price,
        mean_call_latency_ms=mean_latency,
        pipeline_latency_ms=2.0 * mean_latency,
        incomplete_records=incomplete,
    )
