"""Uniform access to a black-box chat-completions model API.

Three interchangeable backends sit behind one ``invoke`` interface:

* ``HttpBackend``: a live chat-completions-style HTTP endpoint over
  keep-alive standard-library connections, with the image embedded as a
  base64 data URL, five attempts with exponential backoff + jitter, and
  the API key read once, when it is built, from a named environment
  variable (never from flags or files).
* ``MockBackend``: scripted answers keyed by (question_id, role, ordinal)
  plus rule-based entailment judges (equality, equivalence classes,
  seeded random); drives every offline test.
* ``CachingBackend``: content-addressed record/replay store wrapped
  around any backend: one SQLite file, ``<cache>/replies.sqlite`` (its
  ``-wal``/``-shm`` side files exist only while a stage runs), with one
  row per call whose reply fields are columns.  A hit is one indexed read
  that returns the recorded reply; a miss delegates and records the reply
  in one committed insert.

Requests are semantic (question text + image reference, or an entailment
pair), so each backend renders its own wire format and the cache key is a
digest over the request's fields rather than over transport bytes, with
an image file named by the digest of its bytes, not by its path.
"""

from __future__ import annotations

import base64
import contextlib
import functools
import json
import hashlib
import logging
import operator
import os
import random
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from . import __version__, scheduler
from .clustering import LABEL_ENTAILS, LABEL_NOT_ENTAILS, EntailmentVerdict
from .errors import (
    BackendError,
    CorpusFormatError,
    SamplingIncompleteError,
    UsageError,
    compact_json,
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
# Image refs sent to the endpoint as they are, not read as files.
IMAGE_URLS = ("data:", "http://", "https://")

# Unparseable judge and grade replies are asked again this many times.
_PARSE_RETRIES = 2

# HTTP retry policy: attempts, full-jitter backoff bounds, per-attempt timeout.
_HTTP_ATTEMPTS = 5
_BACKOFF_BASE_S = 0.5
_BACKOFF_CAP_S = 30.0
_REQUEST_TIMEOUT_S = 120.0
_USER_AGENT = f"entropygate/{__version__}"

# How long a cache write waits for another process's write to the store.
_CACHE_BUSY_TIMEOUT_S = 60.0

# Prompts rendered by the HTTP backend: this package's own, not a
# reproduction of any particular deployment's prompts.
_SYSTEM_PROMPT = "You are assisting with radiological image interpretation."
_ANSWER_PROMPT = "{question}\nAnswer concisely with a short phrase."
_JUDGE_PROMPT = (
    "We are evaluating answers to the question: {context}\n"
    "Answer 1: {premise}\n"
    "Answer 2: {hypothesis}\n"
    "Does Answer 1 semantically entail Answer 2? Reply with exactly one "
    "word: entailment or no-entailment."
)
_GRADE_PROMPT = (
    "Question: {question}\n"
    "Reference answer: {reference}\n"
    "Candidate answer: {answer}\n"
    "Is the candidate clinically equivalent to the reference as an "
    "answer to the question? Reply with exactly one word: yes or no."
)


def backend_name(model: str | None = None, script: bytes | None = None) -> str:
    """The ``model_name`` a backend's replies are cached by, worked out
    from its settings alone: ``mock@`` and 12 hex digits of the sha256 of a
    mock ``script``'s bytes, so an edited script misses the cache, or else
    ``model`` and 12 hex digits of the sha256 of the HTTP backend's
    prompts, so a prompt edit misses it."""
    if script is not None:
        return f"mock@{hashlib.sha256(script).hexdigest()[:12]}"
    prompts = "\x1f".join((_SYSTEM_PROMPT, _ANSWER_PROMPT, _JUDGE_PROMPT, _GRADE_PROMPT))
    return f"{model}@{hashlib.sha256(prompts.encode()).hexdigest()[:12]}"


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
    estimated_tokens: bool = False


def cache_key(model_name: str, request: ModelRequest, image: str | None = None) -> str:
    """Content digest (sha256 hex) identifying one logical model call.

    It hashes the UTF-8 encoding of ``model_name`` and the request's fields
    in declaration order, each as its length in characters, a colon and its
    text (``ordinal`` and ``temperature`` as their ``repr``), and None as
    ``~``: no two field lists share an encoding.  ``image``, when given,
    stands in the key for ``image_ref``; ``CachingBackend`` passes the
    digest of the file's bytes.
    """
    fields = (
        model_name, request.question_id, request.role, repr(request.ordinal),
        repr(request.temperature), request.question,
        request.image_ref if image is None else image,
        request.context, request.premise, request.hypothesis,
    )
    text = "".join(["~" if field is None else f"{len(field)}:{field}" for field in fields])
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


class Backend:
    """Minimal backend interface: one synchronous ``invoke`` per request.

    ``model_name`` is the name ``CachingBackend`` keys replies by, so two
    backends that may reply differently must not share it.  Implementations
    must be safe to share across threads.  The scheduler runs ``invoke``
    under its run lock, one worker at a time, so a backend that blocks on
    I/O wraps the wait in ``scheduler.waiting()`` to let the other calls
    proceed.  ``forget`` drops any record kept of a request's
    reply, which its caller could not use.  ``close`` releases held
    connections; the backend is not used afterwards.
    """

    model_name: str = "backend"

    def invoke(self, request: ModelRequest) -> ModelReply:  # pragma: no cover
        raise NotImplementedError

    def forget(self, request: ModelRequest) -> None:
        pass

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
    bad reply.  Returns (the parsed value or None, the last reply, the
    tokens in, tokens out and latency summed over the calls, a missing
    count as 0, and whether any call's token counts were estimated).  A
    failed call propagates as ``BackendError``.
    """
    tokens_in = tokens_out = 0
    latency_ms = 0.0
    estimated = False
    for ordinal in range(_PARSE_RETRIES + 1):
        request = ModelRequest(ordinal=ordinal, **request_fields)
        reply = backend.invoke(request)
        tokens_in += reply.tokens_in or 0
        tokens_out += reply.tokens_out or 0
        latency_ms += reply.latency_ms
        estimated = estimated or reply.estimated_tokens
        value = parse(reply.text)
        if value is not None:
            break
    return value, reply, tokens_in, tokens_out, latency_ms, estimated


def forget_asked(backend: Backend, **request_fields) -> None:
    """``forget`` every request that ``ask`` sends for ``request_fields``.

    A caller that fails when ``ask`` returns None calls this, so that a
    rerun asks the model again instead of replaying the rejected replies.
    A caller that records a fallback keeps them: its run replays as it was.
    """
    for ordinal in range(_PARSE_RETRIES + 1):
        backend.forget(ModelRequest(ordinal=ordinal, **request_fields))


# ---------------------------------------------------------------------------
# Live HTTP backend
# ---------------------------------------------------------------------------

# transport(headers, body) -> (status_code, parsed_json | text), bound to one
# endpoint; a failure to reach it raises ``ConnectionError``.
Transport = Callable[[dict, bytes], tuple[int, object]]

_RETRYABLE_STATUS = {408, 409, 429, 500, 502, 503, 504}


class _ConnectionPool:
    """The default ``Transport``: keep-alive ``http.client`` connections to
    one endpoint, the ``url`` it is built for.

    A call takes an idle connection or opens one, and puts it back only
    after it has read the whole response; a connection that raised is
    closed.  So no more connections are open than calls in flight.  If a
    reused connection fails before the response, the peer dropped it while
    it was idle, and the request goes once more on a new connection.  A
    socket operation times out after ``_REQUEST_TIMEOUT_S``.

    The proxy, the TLS context and the request target are settled once,
    here.  The proxy is ``urllib.request.getproxies()``' entry for the
    URL's scheme, else ``all``, unless ``proxy_bypass`` (``NO_PROXY``)
    exempts the host.  An http endpoint behind it gets an absolute-URI
    request; an https endpoint is reached through a CONNECT tunnel.  TLS
    uses ``_tls_context()``.
    """

    def __init__(self, url: str):
        import http.client
        import urllib.parse
        import urllib.request

        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise UsageError(f"endpoint {url!r} is not an http:// or https:// URL")
        https = parts.scheme == "https"
        address = (parts.hostname, parts.port or (443 if https else 80))
        self._target = parts.path or "/"
        if parts.query:
            self._target += "?" + parts.query
        self._proxy_headers: dict = {}  # sent with each request
        self._tunnel = None  # set_tunnel's arguments
        proxies = urllib.request.getproxies()
        proxy = proxies.get(parts.scheme) or proxies.get("all")
        if proxy and not urllib.request.proxy_bypass(parts.hostname):
            proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if proxy_parts.scheme != "http" or not proxy_parts.hostname:
                raise UsageError(f"proxy {proxy!r} is not an http:// URL")
            headers = {}
            if proxy_parts.username is not None:
                credentials = ":".join(
                    urllib.parse.unquote(part or "")
                    for part in (proxy_parts.username, proxy_parts.password)
                )
                token = base64.b64encode(credentials.encode()).decode("ascii")
                headers["Proxy-Authorization"] = f"Basic {token}"
            if https:
                self._tunnel = (*address, headers)
            else:
                self._target = parts._replace(fragment="").geturl()
                self._proxy_headers = headers
            address = (proxy_parts.hostname, proxy_parts.port or 80)
        self._address = address
        if https:
            self._connection = functools.partial(
                http.client.HTTPSConnection, context=_tls_context()
            )
        else:
            self._connection = http.client.HTTPConnection
        self._errors = (OSError, http.client.HTTPException)
        self._idle: list = []
        self._lock = threading.Lock()

    def __call__(self, headers: dict, body: bytes):
        if self._proxy_headers:
            headers = {**headers, **self._proxy_headers}
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        try:
            if connection is not None:
                try:
                    response = self._send(connection, headers, body)
                except ConnectionError:  # dropped while idle; the retry costs no attempt
                    connection.close()
                    connection = None
            if connection is None:
                connection = self._connection(*self._address, timeout=_REQUEST_TIMEOUT_S)
                if self._tunnel:
                    connection.set_tunnel(*self._tunnel)
                response = self._send(connection, headers, body)
            data = response.read()
        except BaseException as exc:
            if connection is not None:
                connection.close()
            if isinstance(exc, self._errors):
                raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc
            raise
        if not response.will_close:
            with self._lock:
                self._idle.append(connection)
        try:
            return response.status, json.loads(data)
        except ValueError:
            return response.status, data.decode("utf-8", "replace")

    def _send(self, connection, headers: dict, body: bytes):
        connection.request("POST", self._target, body, headers)
        return connection.getresponse()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


def _tls_context():
    """The ``ssl`` context that verifies an https endpoint.

    It trusts only the bundle that ``REQUESTS_CA_BUNDLE`` or
    ``CURL_CA_BUNDLE`` names, a file or a hashed certificate directory, when
    either is set; else the system trust store, which OpenSSL takes from
    ``SSL_CERT_FILE`` and ``SSL_CERT_DIR`` when they are set.  An unusable
    bundle, or a store with no certificate to verify against, is a
    ``UsageError``: no retry could succeed.
    """
    import ssl

    for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
        bundle = os.environ.get(name)
        if bundle:
            where = {"capath" if os.path.isdir(bundle) else "cafile": bundle}
            try:
                return ssl.create_default_context(**where)
            except OSError as exc:  # ssl.SSLError included
                raise UsageError(f"{name}={bundle!r} is not a usable CA bundle: {exc}") from None
    context = ssl.create_default_context()
    if not context.cert_store_stats()["x509_ca"] and ssl.get_default_verify_paths().capath is None:
        raise UsageError(
            "no CA certificates to verify https endpoints against: "
            "set SSL_CERT_FILE (or REQUESTS_CA_BUNDLE) to a CA bundle"
        )
    return context


class HttpBackend(Backend):
    """Chat-completions HTTP client with retries and image inlining.

    The API key (none if ``api_key_env`` is empty; a ``UsageError`` if it
    is unset) and the headers are settled when it is built.  ``model_name``
    is ``backend_name(model=config.model_name)``.  Without an injected
    ``transport`` it sends through a ``_ConnectionPool``.  ``retries``
    counts the requests sent after a call's first, and ``backoff_s`` the
    seconds slept before them.
    """

    def __init__(
        self,
        config: BackendConfig,
        transport: Transport | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        key = os.environ.get(config.api_key_env) if config.api_key_env else ""
        if key is None:
            raise UsageError(f"API key environment variable {config.api_key_env!r} is not set")
        self._headers = {"Content-Type": "application/json", "User-Agent": _USER_AGENT}
        if key:
            self._headers["Authorization"] = f"Bearer {key}"
        self.model_name = backend_name(model=config.model_name)
        self.config = config
        self._pool = None
        if transport is None:
            transport = self._pool = _ConnectionPool(config.endpoint_url)
        self._transport = transport
        self._sleep = sleep
        self._jitter = random.Random()
        self._last_body: tuple[ModelRequest | None, bytes] = (None, b"")
        self._count_lock = threading.Lock()
        self.retries = 0
        self.backoff_s = 0.0

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()

    def invoke(self, request: ModelRequest) -> ModelReply:
        payload = self.build_payload(request)
        for attempt in range(_HTTP_ATTEMPTS):
            if attempt:
                pause = self._backoff(attempt)
                with self._count_lock:
                    self.retries += 1
                    self.backoff_s += pause
                with scheduler.waiting():
                    self._sleep(pause)
            try:
                with scheduler.waiting():
                    started = time.perf_counter()
                    status, body = self._transport(self._headers, payload)
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

    def _backoff(self, attempt: int) -> float:
        # full jitter: uniform in (0, min(cap, base * 2^(attempt-1)))
        ceiling = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2 ** (attempt - 1))
        return self._jitter.uniform(0, ceiling)

    def build_payload(self, request: ModelRequest) -> bytes:
        """The request's wire body: its chat-completions JSON, encoded.

        Neither the question id nor the ordinal is on the wire, so the last
        body rendered is kept, keyed by the request without them, and sent
        again for the next request with that key.  The scheduler renders a
        question's draws one after another, so each of its bodies (the
        samples', with the image inlined, and the baseline's) is rendered
        once.  One body, not more: each can hold a whole image.
        """
        key = replace(request, question_id="", ordinal=0)
        last_key, body = self._last_body
        if key == last_key:
            return body
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
        payload = {
            "model": self.config.model_name,
            "messages": [
                {"role": "system", "content": _SYSTEM_PROMPT},
                {"role": "user", "content": content},
            ],
            "temperature": request.temperature,
        }
        body = json.dumps(payload, allow_nan=False).encode()
        self._last_body = (key, body)
        return body

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
    """Inline an image file as a data URL; pass URLs through as they are."""
    if image_ref.startswith(IMAGE_URLS):
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
    def from_script(cls, path: str | Path) -> "MockBackend":
        """Build from a JSON script file, with ``model_name``
        ``backend_name(script=<its bytes>)``.

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
        raw = Path(path).read_bytes()
        script = json.loads(raw.decode("utf-8"))
        judge_spec = script.get("judge", {"rule": "equality"})
        rule_name = judge_spec.get("rule", "equality")
        if rule_name not in _JUDGE_RULES:
            raise ValueError(f"unknown mock judge rule {rule_name!r}")
        backend = cls(
            answers=script.get("answers", {}),
            judge_rule=_JUDGE_RULES[rule_name](judge_spec),
            grade_replies=script.get("grades", {}),
            latency_ms=float(script.get("latency_ms", 0.0)),
            tokens_in=int(script.get("tokens_in", 0)),
            tokens_out=int(script.get("tokens_out", 0)),
        )
        backend.model_name = backend_name(script=raw)
        return backend

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
            fingerprint="mock",
        )


# ---------------------------------------------------------------------------
# Record/replay cache
# ---------------------------------------------------------------------------

# A recorded reply's columns in the store, in ``ModelReply``'s field order.
_reply_row = operator.attrgetter(
    "text", "tokens_in", "tokens_out", "latency_ms", "fingerprint", "estimated_tokens"
)


class CachingBackend(Backend):
    """Content-addressed record/replay cache around another backend.

    One SQLite file, ``store_path/replies.sqlite``, with a row per call in
    the ``WITHOUT ROWID`` table ``calls``: the ``cache_key`` digest, the
    reply's fields, and the request's compact JSON, kept for audit and
    never read back.  The key covers ``inner.model_name``, the request and,
    for a local image file, the sha256 of its bytes, read once per image
    and store; a URL, or a file that cannot be read, is keyed by its
    reference.  A hit is one indexed read of the reply columns; a miss
    asks ``inner`` and records the reply in one autocommitted ``INSERT OR
    REPLACE``, which outlives a killed process.  A row whose ``text`` is
    not a string is a miss and is replaced.  ``forget`` deletes a row whose
    reply its caller rejected, so that a rerun asks again.  ``hits`` and
    ``misses`` count the replies replayed and the replies fetched from
    ``inner`` and recorded.  In WAL mode, threads and processes share the
    store (a writer waits up to ``_CACHE_BUSY_TIMEOUT_S``), and the
    ``-wal``/``-shm`` files exist only while it is open.  ``close`` runs
    ``VACUUM`` after any change, so the bytes do not depend on the order
    calls finished in; only the header's change counter follows the
    store's history.  Opening a store drops the table of an older layout,
    ``replies (key, entry)``, whose keys no request matches any more.
    """

    def __init__(self, inner: Backend, store_path: str | Path):
        import sqlite3

        self.inner = inner
        self.model_name = inner.model_name
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._images: dict[str | None, str | None] = {}  # image_ref -> its part of the key
        os.makedirs(store_path, exist_ok=True)
        path = os.path.join(store_path, "replies.sqlite")
        try:
            self._db = sqlite3.connect(path, _CACHE_BUSY_TIMEOUT_S, isolation_level=None,
                                       check_same_thread=False)
            # WAL mode persists in the file; the switch fails at once, without
            # waiting, only while another connection makes the same switch
            with contextlib.suppress(sqlite3.OperationalError):
                self._db.execute("PRAGMA journal_mode=WAL")
            self._dropped = self._db.execute(
                "SELECT count(*) FROM sqlite_master WHERE name = 'replies'").fetchone()[0]
            self._db.executescript(
                "PRAGMA synchronous=NORMAL; DROP TABLE IF EXISTS replies;"
                " CREATE TABLE IF NOT EXISTS calls (key TEXT PRIMARY KEY, text TEXT,"
                " tokens_in INTEGER, tokens_out INTEGER, latency_ms REAL, fingerprint TEXT,"
                " estimated_tokens INTEGER, request TEXT NOT NULL) WITHOUT ROWID"
            )
        except sqlite3.DatabaseError as exc:
            raise UsageError(f"cannot open the cache {path}: {exc}") from exc
        self._cursor = self._db.cursor()  # one for all: a new one per call doubles a read's cost

    def close(self) -> None:
        with self._lock:
            if self._db.total_changes or self._dropped:  # rows changed, or the old table
                self._db.execute("VACUUM")
            self._db.close()
        self.inner.close()

    def _key(self, request: ModelRequest) -> str:
        ref = request.image_ref
        try:
            image = self._images[ref]
        except KeyError:
            image = ref
            if ref and not ref.startswith(IMAGE_URLS):
                with contextlib.suppress(OSError):
                    image = "sha256:" + hashlib.sha256(Path(ref).read_bytes()).hexdigest()
            self._images[ref] = image
        return cache_key(self.inner.model_name, request, image)

    def forget(self, request: ModelRequest) -> None:
        key = self._key(request)
        with self._lock:
            self._cursor.execute("DELETE FROM calls WHERE key = ?", (key,))

    def invoke(self, request: ModelRequest) -> ModelReply:
        key = self._key(request)
        with self._lock:
            row = self._cursor.execute(
                "SELECT text, tokens_in, tokens_out, latency_ms, fingerprint, estimated_tokens"
                " FROM calls WHERE key = ?", (key,)
            ).fetchone()
            if row is not None:
                text, tokens_in, tokens_out, latency_ms, fingerprint, estimated = row
                if isinstance(text, str):
                    self.hits += 1
                    return ModelReply(text, tokens_in, tokens_out, latency_ms, fingerprint,
                                      estimated == 1)
                log.warning("cache row %s holds no reply text; re-fetching", key)
        reply = self.inner.invoke(request)
        row = (key, *_reply_row(reply), compact_json(vars(request)))
        with self._lock:
            self._cursor.execute("INSERT OR REPLACE INTO calls VALUES (?,?,?,?,?,?,?,?)", row)
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

    def call(key: tuple[str, int]) -> AnswerSample:
        role, ordinal = key
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
            estimated_tokens=reply.estimated_tokens,
        )

    def finish(results: dict, errors: dict) -> None:
        for role in draws:
            missing = sorted(ordinal for r, ordinal in errors if r == role)
            if missing:
                raise SamplingIncompleteError(item.id, missing, errors[role, missing[0]])
        done({
            role: [results[(role, ordinal)] for ordinal in range(count)]
            for role, (count, _) in draws.items()
        })

    keys = [(role, ordinal) for role, (count, _) in draws.items() for ordinal in range(count)]
    return scheduler.Job(item.id, keys, call, finish)


def sample_answers(
    backend: Backend,
    item: "ImageQuestion",
    k: int,
    temperature: float,
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
    draws = {ROLE_SAMPLE: (k, temperature)}
    job = sampling_job(backend, item, draws, lambda by_role: drawn.extend(by_role[ROLE_SAMPLE]))
    failures = scheduler.run_jobs(1, [job])
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
    label, reply, *usage = ask(
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
    return EntailmentVerdict(0, 1, label, reply.text, *usage)


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
    estimated_records: int  # records whose token counts are estimates


# The accounting of one recorded call, in the order ``account_usage`` reads it.
USAGE_FIELDS = ("tokens_in", "tokens_out", "latency_ms", "estimated_tokens")
_usage_of = operator.attrgetter(*USAGE_FIELDS)


def account_usage(
    samples: list[AnswerSample | tuple],
    verdicts: list[EntailmentVerdict | tuple],
    price_per_million_tokens: float = 10.0,
) -> CostEstimate:
    """Cost and latency model for the sampling + entailment pipeline.

    Each record is one model call: a sample or verdict, of which only the
    ``USAGE_FIELDS`` are read, or a tuple of those fields in that order, as
    the CLI reads them by position from a stored record's rows.
    Cost is total tokens (in + out) times the flat per-million price,
    split into the sampling and entailment components.  Records missing
    token counts are costed as zero and counted in ``incomplete_records``
    with a warning; records whose counts are estimates are counted in
    ``estimated_records``.  Latency: both stages parallelize fully, so
    the pipeline estimate is twice the mean single-call latency.
    """
    incomplete = estimated = 0

    def usages(records) -> list[tuple]:
        return [r if isinstance(r, tuple) else _usage_of(r) for r in records]

    def tokens(records) -> int:
        nonlocal incomplete, estimated
        total = 0
        for tokens_in, tokens_out, _, guessed in records:
            if tokens_in is None or tokens_out is None:
                incomplete += 1
                continue
            total += tokens_in + tokens_out
            if guessed:
                estimated += 1
        return total

    samples, verdicts = usages(samples), usages(verdicts)
    sampling_tokens = tokens(samples)
    entailment_tokens = tokens(verdicts)
    if incomplete:
        log.warning("%d record(s) missing token counts; costed as zero", incomplete)

    price = price_per_million_tokens / 1e6
    latencies = [record[2] for record in samples + verdicts]
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
        estimated_records=estimated,
    )
