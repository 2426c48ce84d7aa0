"""Backends, reply parsing, record/replay cache, and cost accounting."""

from __future__ import annotations

import contextlib
import hashlib
import json
import re
import sqlite3
import sys
import threading
from dataclasses import asdict, replace

import pytest
from conftest import store_rows
from hypothesis import assume, example, given, strategies as st

from entropygate import gateway
from entropygate.clustering import LABEL_ENTAILS, LABEL_NOT_ENTAILS
from entropygate.corpus import ImageQuestion
from entropygate.errors import BackendError, SamplingIncompleteError, UsageError
from entropygate.gateway import (
    ROLE_BASELINE,
    ROLE_GRADE,
    ROLE_JUDGE,
    ROLE_SAMPLE,
    AnswerSample,
    Backend,
    BackendConfig,
    CachingBackend,
    EntailmentVerdict,
    HttpBackend,
    MockBackend,
    ModelReply,
    ModelRequest,
    account_usage,
    cache_key,
    equality_judge,
    equivalence_class_judge,
    judge_entailment,
    parse_entailment_reply,
    parse_yes_no_reply,
    sample_answers,
    seeded_random_judge,
)


def make_item(qid: str = "q1") -> ImageQuestion:
    return ImageQuestion(
        id=qid,
        image_ref="images/x.png",
        question="What modality is this?",
        reference="ct",
        dataset="demo",
        subgroup="modality",
    )


def make_request(**overrides) -> ModelRequest:
    base = dict(
        question_id="q1",
        role=ROLE_SAMPLE,
        ordinal=0,
        temperature=1.0,
        question="What modality is this?",
        image_ref=None,
    )
    base.update(overrides)
    return ModelRequest(**base)


class TestParseEntailmentReply:
    @pytest.mark.parametrize(
        "text",
        ["entailment", "ENTAILMENT.", " Entails ", "entail", "yes", "Yes.", "TRUE"],
    )
    def test_entails(self, text):
        assert parse_entailment_reply(text) == LABEL_ENTAILS

    @pytest.mark.parametrize(
        "text",
        ["no-entailment", "No entailment", "no", "No.", "contradiction", "neutral",
         "does-not-entail", "false"],
    )
    def test_does_not_entail(self, text):
        assert parse_entailment_reply(text) == LABEL_NOT_ENTAILS

    @pytest.mark.parametrize("text", ["", "possibly", "it entails", "answer: yes maybe"])
    def test_unparseable(self, text):
        assert parse_entailment_reply(text) is None


class TestParseYesNo:
    def test_variants(self):
        assert parse_yes_no_reply("Yes.") is True
        assert parse_yes_no_reply("correct") is True
        assert parse_yes_no_reply("NO") is False
        assert parse_yes_no_reply("not equivalent") is False
        assert parse_yes_no_reply("hard to say") is None


def run_in_threads(target):
    """Run ``target`` on 8 threads at once, switching as often as the
    interpreter allows, and wait for all of them."""
    threads = [threading.Thread(target=target) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestMockBackend:
    def test_call_count_is_exact_under_threads(self):
        backend = MockBackend(answers={"q1": {"sample": ["a"]}})

        def invoke_many():
            for _ in range(2000):
                backend.invoke(make_request())

        run_in_threads(invoke_many)
        assert backend.call_count == 16_000

    def test_scripted_answers_by_ordinal(self):
        backend = MockBackend(
            answers={"q1": {"sample": ["a", "b"], "baseline": ["a"]}},
            latency_ms=5.0,
            tokens_in=10,
            tokens_out=2,
        )
        first = backend.invoke(make_request(ordinal=0))
        second = backend.invoke(make_request(ordinal=1))
        assert (first.text, second.text) == ("a", "b")
        assert first.latency_ms == 5.0 and first.tokens_in == 10
        with pytest.raises(BackendError):
            backend.invoke(make_request(ordinal=2))
        with pytest.raises(BackendError):
            backend.invoke(make_request(question_id="unknown"))

    def test_judge_role_uses_rule(self):
        backend = MockBackend(judge_rule=equality_judge())
        same = backend.invoke(
            make_request(role=ROLE_JUDGE, question=None, premise="x", hypothesis="x")
        )
        different = backend.invoke(
            make_request(role=ROLE_JUDGE, question=None, premise="x", hypothesis="y")
        )
        assert same.text == "entailment"
        assert different.text == "no-entailment"

    def test_grade_role(self):
        backend = MockBackend(grade_replies={"q1": "yes"})
        reply = backend.invoke(
            make_request(role=ROLE_GRADE, premise="ct", hypothesis="ct scan")
        )
        assert reply.text == "yes"
        with pytest.raises(BackendError):
            backend.invoke(make_request(question_id="q2", role=ROLE_GRADE))

    def test_fail_injection(self):
        backend = MockBackend(
            answers={"q1": {"sample": ["a"]}}, fail={("q1", "sample", 0)}
        )
        with pytest.raises(BackendError):
            backend.invoke(make_request())

    def test_from_script(self, tmp_path):
        script = {
            "latency_ms": 7.0,
            "tokens_in": 3,
            "tokens_out": 1,
            "judge": {"rule": "equivalence-classes", "classes": [["a", "b"]]},
            "answers": {"q1": {"sample": ["a"]}},
            "grades": {"q1": "no"},
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        backend = MockBackend.from_script(path)
        assert backend.invoke(make_request()).text == "a"
        assert backend.judge_rule("a", "b") is True
        assert backend.judge_rule("a", "c") is False
        assert backend.grade_replies == {"q1": "no"}
        path.write_text(json.dumps({"judge": {"rule": "psychic"}}))
        with pytest.raises(ValueError, match="unknown mock judge rule"):
            MockBackend.from_script(path)


class TestJudgeRules:
    def test_equivalence_classes_with_unlisted_texts(self):
        rule = equivalence_class_judge([["a", "b"], ["c"]])
        assert rule("a", "b") and rule("c", "c")
        assert not rule("a", "c")
        assert rule("zzz", "zzz")  # implicit singleton
        assert not rule("zzz", "a")

    def test_seeded_random_judge_is_deterministic(self):
        rule = seeded_random_judge(seed=5)
        pairs = [("a", "b"), ("b", "a"), ("c", "d")]
        first = [rule(p, h) for p, h in pairs]
        second = [rule(p, h) for p, h in pairs]
        assert first == second
        assert all(seeded_random_judge(0, p_entail=1.0)(p, h) for p, h in pairs)
        assert not any(seeded_random_judge(0, p_entail=0.0)(p, h) for p, h in pairs)


class FakeTransport:
    """Scripted (status, body) responses; records every request, its JSON
    body decoded as ``payload``."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, headers, body):
        self.calls.append({"headers": headers, "payload": json.loads(body)})
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def completion_body(text: str, usage: bool = True) -> dict:
    body = {"choices": [{"message": {"content": text}}], "model": "m-1"}
    if usage:
        body["usage"] = {"prompt_tokens": 690, "completion_tokens": 43}
    return body


def make_http(transport) -> HttpBackend:
    config = BackendConfig(
        endpoint_url="https://api.example.test/v1/chat/completions",
        model_name="m-1",
        api_key_env="TEST_GATEWAY_KEY",
    )
    return HttpBackend(config, transport=transport, sleep=lambda s: None)


class TestHttpBackend:
    def test_backends_are_named_by_backend_name(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        name = make_http(FakeTransport([])).model_name
        assert name == gateway.backend_name(model="m-1") != gateway.backend_name(model="m-2")
        assert re.fullmatch(r"m-1@[0-9a-f]{12}", name)
        script = tmp_path / "mock.json"
        script.write_text('{"answers": {}}')
        digest = hashlib.sha256(script.read_bytes()).hexdigest()[:12]
        assert MockBackend.from_script(script).model_name == f"mock@{digest}"
        assert gateway.backend_name(script=script.read_bytes()) == f"mock@{digest}"

    def test_success_with_usage(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "sk-test")
        transport = FakeTransport([(200, completion_body("an answer"))])
        reply = make_http(transport).invoke(make_request())
        assert reply.text == "an answer"
        assert (reply.tokens_in, reply.tokens_out) == (690, 43)
        assert not reply.estimated_tokens
        call = transport.calls[0]
        assert call["headers"]["Authorization"] == "Bearer sk-test"
        assert call["payload"]["model"] == "m-1"
        assert call["payload"]["temperature"] == 1.0

    def test_missing_usage_estimates_tokens(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        transport = FakeTransport([(200, completion_body("hi", usage=False))])
        reply = make_http(transport).invoke(make_request())
        assert reply.estimated_tokens
        assert reply.tokens_in >= 1 and reply.tokens_out >= 1

    def test_missing_api_key_env(self, monkeypatch):
        monkeypatch.delenv("TEST_GATEWAY_KEY", raising=False)
        transport = FakeTransport([(200, completion_body("x"))])
        with pytest.raises(UsageError, match="TEST_GATEWAY_KEY"):
            make_http(transport)
        assert transport.calls == []

    def test_retries_on_retryable_statuses_then_succeeds(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        transport = FakeTransport(
            [(429, "slow down"), (503, "busy"), (200, completion_body("ok"))]
        )
        reply = make_http(transport).invoke(make_request())
        assert reply.text == "ok"
        assert len(transport.calls) == 3

    def test_retries_on_connection_errors(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        transport = FakeTransport(
            [ConnectionError("reset"), TimeoutError("slow"), (200, completion_body("ok"))]
        )
        reply = make_http(transport).invoke(make_request())
        assert reply.text == "ok"

    def test_exhausted_retries(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        transport = FakeTransport([(500, "boom")] * 5)
        with pytest.raises(BackendError, match="after 5 attempt"):
            make_http(transport).invoke(make_request())
        assert len(transport.calls) == 5

    def test_client_error_fails_immediately(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        transport = FakeTransport([(400, {"error": "bad request"})])
        with pytest.raises(BackendError, match="HTTP 400"):
            make_http(transport).invoke(make_request())
        assert len(transport.calls) == 1

    def test_malformed_body(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        transport = FakeTransport([(200, {"unexpected": True})])
        with pytest.raises(BackendError, match="malformed"):
            make_http(transport).invoke(make_request())

    @pytest.mark.parametrize("usage", [True, False])
    @pytest.mark.parametrize("role", [ROLE_SAMPLE, ROLE_JUDGE])
    def test_null_content_is_malformed_and_not_cached(self, monkeypatch, tmp_path, role, usage):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        transport = FakeTransport(
            [(200, completion_body(None, usage=usage)), (200, completion_body("entailment"))]
        )
        backend = CachingBackend(make_http(transport), tmp_path / "cache")
        if role == ROLE_SAMPLE:
            call = lambda: backend.invoke(make_request()).text  # noqa: E731
        else:
            call = lambda: judge_entailment(backend, "Q?", "ct", "mri").label  # noqa: E731
        with pytest.raises(BackendError, match="malformed"):
            call()
        assert call() in ("entailment", LABEL_ENTAILS)  # asked again, not replayed
        assert len(transport.calls) == 2

    def test_image_inlined_as_data_url(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        transport = FakeTransport([(200, completion_body("ok"))])
        backend = make_http(transport)
        backend.invoke(make_request(image_ref="data:image/png;base64,AAAA"))
        content = transport.calls[0]["payload"]["messages"][-1]["content"]
        kinds = [part["type"] for part in content]
        assert kinds == ["text", "image_url"]
        assert content[1]["image_url"]["url"] == "data:image/png;base64,AAAA"

    def test_judge_payload_contains_both_answers(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        transport = FakeTransport([(200, completion_body("entailment"))])
        backend = make_http(transport)
        backend.invoke(
            make_request(
                role=ROLE_JUDGE, question=None, context="Q?", premise="ct", hypothesis="mri",
                temperature=0.0,
            )
        )
        text = transport.calls[0]["payload"]["messages"][-1]["content"]
        assert "ct" in text and "mri" in text and "Q?" in text
        assert "Does Answer 1 semantically entail Answer 2?" in text  # one direction only
        assert "follow from" not in text
        assert transport.calls[0]["payload"]["temperature"] == 0.0

    # the line prefixes perfbench/stub.py reads each prompt's fields from
    @pytest.mark.parametrize("role, lines", [
        (ROLE_JUDGE, ["We are evaluating answers to the question: Q?", "Answer 1: ct",
                      "Answer 2: mri"]),
        (ROLE_GRADE, ["Question: Q?", "Reference answer: ct", "Candidate answer: mri"]),
    ], ids=[ROLE_JUDGE, ROLE_GRADE])
    def test_judge_and_grade_prompts_lead_their_lines_with_field_names(
        self, monkeypatch, role, lines
    ):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        transport = FakeTransport([(200, completion_body("yes"))])
        fields = {"context": "Q?", "question": None} if role == ROLE_JUDGE else {"question": "Q?"}
        request = make_request(role=role, premise="ct", hypothesis="mri", **fields)
        make_http(transport).invoke(request)
        text = transport.calls[0]["payload"]["messages"][-1]["content"]
        assert text.splitlines()[:3] == lines

    def test_estimated_tokens_count_an_allowance_per_image(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        transport = FakeTransport([(200, completion_body("hi", usage=False))] * 2)
        backend = make_http(transport)
        plain = backend.invoke(make_request()).tokens_in
        with_image = backend.invoke(make_request(image_ref="data:image/png;base64,AAAA")).tokens_in
        assert with_image - plain == 765


class CountingBackend(Backend):
    """Fixed-reply backend that counts invocations."""

    model_name = "counting"

    def __init__(self, text: str = "hello"):
        self.text = text
        self.calls = 0

    def invoke(self, request: ModelRequest) -> ModelReply:
        self.calls += 1
        return ModelReply(
            text=self.text,
            tokens_in=5,
            tokens_out=2,
            latency_ms=1.0,
            fingerprint="counting",
        )


class TestCachingBackend:
    def test_close_reaches_the_http_session(self, tmp_path):
        inner = HttpBackend(
            BackendConfig(endpoint_url="http://127.0.0.1:9/v1", model_name="m", api_key_env="")
        )
        closed = []
        inner._pool.close = lambda: closed.append(True)
        CachingBackend(inner, tmp_path / "cache").close()
        assert closed == [True]

    def test_a_prompt_edit_misses_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        transport = FakeTransport([(200, completion_body("entailment"))] * 2)

        def judge() -> str:
            backend = CachingBackend(make_http(transport), tmp_path / "cache")
            try:
                return judge_entailment(backend, "Q?", "ct", "mri").label
            finally:
                backend.close()

        assert judge() == judge() == LABEL_ENTAILS
        assert len(transport.calls) == 1
        monkeypatch.setattr(gateway, "_JUDGE_PROMPT", "{context} {premise} => {hypothesis}?")
        assert judge() == LABEL_ENTAILS
        assert len(transport.calls) == 2

    def test_hit_replays_without_inner_call(self, tmp_path):
        inner = CountingBackend()
        backend = CachingBackend(inner, tmp_path / "cache")
        first = backend.invoke(make_request())
        second = backend.invoke(make_request())
        assert inner.calls == 1
        assert first == second

    def test_distinct_ordinals_are_distinct_entries(self, tmp_path):
        inner = CountingBackend()
        backend = CachingBackend(inner, tmp_path / "cache")
        backend.invoke(make_request(ordinal=0))
        backend.invoke(make_request(ordinal=1))
        assert inner.calls == 2

    def test_entry_layout_and_content(self, tmp_path):
        backend = CachingBackend(CountingBackend(), tmp_path / "cache")
        request = make_request(image_ref="data:image/png;base64,AAAA", context="")
        reply = backend.invoke(request)
        backend.close()
        key = cache_key("counting", request)
        assert [path.name for path in (tmp_path / "cache").iterdir()] == ["replies.sqlite"]
        row = store_rows(tmp_path / "cache")[key]
        assert row == {"key": key, **asdict(reply), "estimated_tokens": 0,
                       "request": json.dumps(asdict(request), sort_keys=True, separators=(",", ":"))}
        # the request column round-trips
        assert ModelRequest(**json.loads(row["request"])) == request

    def test_a_replayed_reply_equals_the_recorded_one(self, tmp_path):
        for estimated in (False, True):
            inner = CountingBackend()
            inner.invoke = lambda request: ModelReply("ct", None, 7, 12.5, "m@fp", estimated)
            replies = []
            for backend in (inner, CountingBackend()):
                cached = CachingBackend(backend, tmp_path / f"cache{estimated}")
                replies.append(cached.invoke(make_request()))
                cached.close()
            recorded, replayed = replies
            assert replayed == recorded
            assert type(replayed.estimated_tokens) is bool

    def test_files_of_the_one_file_per_call_layout_are_not_read(self, tmp_path):
        # the layout the store held before it became one SQLite file
        cache = tmp_path / "cache"
        requests = [make_request(ordinal=ordinal) for ordinal in range(3)]
        files = {}
        for request in requests:
            key = cache_key("counting", request)
            entry = {"key": key, "model": "counting", "request": asdict(request),
                     "reply": {"text": "old", "tokens_in": 1, "tokens_out": 1,
                               "latency_ms": 1.0, "fingerprint": "counting"}}
            path = cache / key[:2] / f"{key}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(entry, sort_keys=True, indent=2), encoding="utf-8")
            files[path] = path.read_bytes()
        inner = CountingBackend()
        backend = CachingBackend(inner, cache)
        assert [backend.invoke(request).text for request in requests] == ["hello"] * 3
        backend.close()
        assert (inner.calls, backend.misses, backend.hits) == (3, 3, 0)
        assert {path: path.read_bytes() for path in files} == files

    def test_corrupt_entry_refetched_and_replaced(self, tmp_path):
        inner = CountingBackend()
        backend = CachingBackend(inner, tmp_path / "cache")
        request = make_request()
        backend.invoke(request)
        key = cache_key("counting", request)
        # NULL as cached before a null completion became a failed call
        for corrupt in (None, b"hello"):
            with contextlib.closing(sqlite3.connect(tmp_path / "cache" / "replies.sqlite")) as db:
                with db:
                    db.execute("UPDATE calls SET text = ? WHERE key = ?", (corrupt, key))
            reply = backend.invoke(request)
            assert reply.text == "hello"
            assert store_rows(tmp_path / "cache")[key]["text"] == "hello"
        assert inner.calls == 3
        assert (backend.misses, backend.hits) == (3, 0)

    def test_an_old_layout_store_misses_once_then_replays(self, tmp_path):
        # the layout of the store before the reply had its own columns
        (tmp_path / "cache").mkdir()
        request = make_request()
        with contextlib.closing(sqlite3.connect(tmp_path / "cache" / "replies.sqlite")) as db:
            with db:
                db.execute("CREATE TABLE replies (key TEXT PRIMARY KEY, entry TEXT NOT NULL)"
                           " WITHOUT ROWID")
                db.executemany("INSERT INTO replies VALUES (?, ?)", [
                    (f"{ordinal:064x}", json.dumps({"reply": {"text": "old"}}) + " " * 4000)
                    for ordinal in range(50)
                ])
        size = (tmp_path / "cache" / "replies.sqlite").stat().st_size
        inner = CountingBackend()
        CachingBackend(inner, tmp_path / "cache").close()  # no call, but the old table goes
        with contextlib.closing(sqlite3.connect(tmp_path / "cache" / "replies.sqlite")) as db:
            tables = [name for (name,) in db.execute("SELECT name FROM sqlite_master")]
        assert tables == ["calls"]
        assert (tmp_path / "cache" / "replies.sqlite").stat().st_size < size / 10  # vacuumed
        for sent in (1, 0):
            backend = CachingBackend(inner, tmp_path / "cache")
            assert backend.invoke(request).text == "hello"
            backend.close()
            assert (backend.misses, backend.hits) == (sent, 1 - sent)
        assert inner.calls == 1

    def test_a_store_that_is_not_a_database_is_a_usage_error(self, tmp_path):
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "replies.sqlite").write_bytes(b"not a database\n" * 100)
        with pytest.raises(UsageError, match="cannot open the cache .*replies.sqlite"):
            CachingBackend(CountingBackend(), tmp_path / "cache")

    def test_counts_hits_and_misses(self, tmp_path):
        inner = CountingBackend()
        backend = CachingBackend(inner, tmp_path / "cache")
        backend.invoke(make_request())
        backend.invoke(make_request())
        assert (backend.misses, backend.hits) == (1, 1)
        assert inner.calls == 1

    def test_counts_are_exact_under_threads(self, tmp_path):
        inner = MockBackend(answers={"q1": {"sample": ["a"] * 4}})
        backend = CachingBackend(inner, tmp_path / "cache")

        def invoke_many():
            for ordinal in range(100):
                backend.invoke(make_request(ordinal=ordinal % 4))

        run_in_threads(invoke_many)
        assert backend.hits + backend.misses == 800
        assert backend.misses == inner.call_count


PNG_BYTES = b"\x89PNG\r\n\x1a\n"
PNG_DIGEST = "sha256:4c4b6a3be1314ab86138bef4314dde022e600960d8689a2c8f8631802d20dab6"

# The keyed values in the order the key encodes them; ordinal and
# temperature are generated apart.
KEY_TEXTS = ("model", "question_id", "role", None, None, "question", "image_ref", "context",
             "premise", "hypothesis")
_key_text = st.none() | st.text(alphabet="a1:~é", max_size=4)


@st.composite
def keyed_calls(draw) -> tuple[str, ModelRequest]:
    texts = {name: draw(_key_text) for name in KEY_TEXTS if name}
    model = texts.pop("model") or ""
    ordinal = draw(st.integers(0, 20))
    temperature = draw(st.sampled_from([0.0, 0.1, 1.0, 1e-7]))
    return model, ModelRequest(ordinal=ordinal, temperature=temperature, **texts)


def with_text(call: tuple[str, ModelRequest], name: str, value) -> tuple[str, ModelRequest]:
    model, request = call
    if name == "model":
        return value, request
    return model, replace(request, **{name: value})


def text_of(call: tuple[str, ModelRequest], name: str):
    model, request = call
    return model if name == "model" else getattr(request, name)


class TestCacheKey:
    # sha256 digests of the encoded calls, pinned so that every existing
    # cache keeps replaying: a change here makes each entry miss.
    @pytest.mark.parametrize(
        "request_fields,image,digest",
        [
            (
                dict(question_id="q-ü 7", role=ROLE_SAMPLE, ordinal=14, temperature=1.0,
                     question="What imaging modality is shown? «CT»",
                     image_ref="images/synpic 100.png"),
                PNG_DIGEST,
                "9224e9392eb8c203970d09f31aa72f3dd20220c5c6605bdd6842d8e26e0c2c17",
            ),
            (
                dict(question_id="q07", role=ROLE_BASELINE, ordinal=0, temperature=0.1,
                     question="Which plane is this image taken in?"),
                None,
                "cf1e344049594dfeb6330cb1426470f0e7ee20eb3a6144f57a3bb4ff3c87e248",
            ),
            (
                dict(question_id="q07", role=ROLE_JUDGE, ordinal=2, temperature=0.0,
                     context="Which plane?", premise="axial CT with contrast", hypothesis="CT"),
                None,
                "c5d5f978f472496c3996ad8dfa8e1848f46cb22940e94b17070e5c60f2b82151",
            ),
            (
                dict(question_id="q07", role=ROLE_GRADE, ordinal=0, temperature=0.0,
                     question="Which plane?", premise="axial", hypothesis="Axial plane."),
                None,
                "18c58936a8303698bae4bd0c56c0926e2ec9a35491bba626f186fd7b39b06bb8",
            ),
        ],
        ids=[ROLE_SAMPLE, ROLE_BASELINE, ROLE_JUDGE, ROLE_GRADE],
    )
    def test_digest_is_pinned(self, request_fields, image, digest):
        assert cache_key("gpt-4o", ModelRequest(**request_fields), image) == digest

    def test_stable_and_sensitive(self):
        a = cache_key("m", make_request())
        b = cache_key("m", make_request())
        assert a == b
        assert cache_key("m2", make_request()) != a
        assert cache_key("m", make_request(ordinal=1)) != a
        assert cache_key("m", make_request(temperature=0.5)) != a

    @given(call=keyed_calls(), name=st.sampled_from([n for n in KEY_TEXTS if n]), value=_key_text)
    @example(call=("m", make_request(context="")), name="context", value=None)
    @example(call=("m", make_request(context=None)), name="context", value="")
    def test_one_text_apart_is_another_key(self, call, name, value):
        assume(text_of(call, name) != value and (name != "model" or value is not None))
        assert cache_key(*with_text(call, name, value)) != cache_key(*call)

    @given(call=keyed_calls(), ordinal=st.integers(0, 20),
           temperature=st.sampled_from([0.0, 0.1, 1.0, 1e-7]))
    def test_another_ordinal_or_temperature_is_another_key(self, call, ordinal, temperature):
        model, request = call
        for changed in (replace(request, ordinal=ordinal),
                        replace(request, temperature=temperature)):
            assert (cache_key(model, changed) == cache_key(model, request)) == (changed == request)

    @given(call=keyed_calls(), pair=st.sampled_from([
               ("model", "question_id"), ("question_id", "role"), ("question", "image_ref"),
               ("image_ref", "context"), ("context", "premise"), ("premise", "hypothesis"),
           ]), joined=st.text(alphabet="a1:~é", max_size=6), cuts=st.tuples(
               st.integers(0, 6), st.integers(0, 6)))
    @example(call=("m", make_request()), pair=("premise", "hypothesis"), joined="abc",
             cuts=(2, 1))
    def test_text_moved_across_a_field_boundary_is_another_key(self, call, pair, joined, cuts):
        first, second = pair
        keys = []
        for cut in cuts:
            moved = with_text(call, first, joined[:cut])
            keys.append(cache_key(*with_text(moved, second, joined[cut:])))
        assert (keys[0] == keys[1]) == (min(cuts[0], len(joined)) == min(cuts[1], len(joined)))

    def test_an_image_file_is_keyed_by_its_bytes(self, tmp_path, monkeypatch):
        (tmp_path / "a.png").write_bytes(PNG_BYTES)
        (tmp_path / "b.png").write_bytes(PNG_BYTES)  # a copy at another path
        reads = []
        read_bytes = gateway.Path.read_bytes
        monkeypatch.setattr(gateway.Path, "read_bytes",
                            lambda path: reads.append(path) or read_bytes(path))
        inner = CountingBackend()
        backend = CachingBackend(inner, tmp_path / "cache")
        request = make_request(image_ref=str(tmp_path / "a.png"))
        for ref in ("a.png", "b.png", "a.png"):
            backend.invoke(replace(request, image_ref=str(tmp_path / ref)))
        assert (inner.calls, len(reads)) == (1, 2)  # each distinct image read once per store
        # a URL, or a file that cannot be read, is keyed by its reference
        others = [replace(request, image_ref=ref) for ref in (
            "data:image/png;base64,AAAA", "https://x/a.png", str(tmp_path / "gone.png"))]
        for other in others:
            backend.invoke(other)
        backend.close()
        assert set(store_rows(tmp_path / "cache")) == {
            cache_key("counting", request, PNG_DIGEST),
            *(cache_key("counting", other) for other in others),
        }

    def test_an_image_edited_in_place_is_another_call(self, tmp_path):
        image = tmp_path / "a.png"
        image.write_bytes(PNG_BYTES)
        request = make_request(image_ref=str(image))
        inner = CountingBackend()
        for contents, sent in ((PNG_BYTES, 1), (PNG_BYTES, 1), (PNG_BYTES + b"x", 2)):
            image.write_bytes(contents)
            backend = CachingBackend(inner, tmp_path / "cache")
            backend.invoke(request)
            backend.close()
            assert inner.calls == sent


class TestSampleAnswers:
    def test_draws_k_with_sequential_ordinals(self):
        backend = MockBackend(
            answers={"q1": {"sample": [f"t{i}" for i in range(5)]}},
            latency_ms=2.0,
        )
        samples = sample_answers(backend, make_item(), k=5, temperature=1.0)
        assert [s.ordinal for s in samples] == [0, 1, 2, 3, 4]
        assert [s.text for s in samples] == ["t0", "t1", "t2", "t3", "t4"]
        assert all(s.temperature == 1.0 for s in samples)

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="invalid sample count"):
            sample_answers(MockBackend(), make_item(), k=0, temperature=1.0)

    def test_partial_failure_carries_completed_samples(self):
        backend = MockBackend(
            answers={"q1": {"sample": ["a", "b", "c"]}},
            fail={("q1", "sample", 1)},
        )
        with pytest.raises(SamplingIncompleteError, match="sampling incomplete") as excinfo:
            sample_answers(backend, make_item(), k=3, temperature=1.0)
        assert excinfo.value.missing_ordinals == [1]

    def test_rerun_over_cache_repeats_only_the_failed_draw(self, tmp_path):
        answers = {"q1": {"sample": ["a", "b", "c"]}}
        flaky = MockBackend(answers=answers, fail={("q1", "sample", 1)})
        with pytest.raises(SamplingIncompleteError) as excinfo:
            sample_answers(
                CachingBackend(flaky, tmp_path / "cache"), make_item(), k=3, temperature=1.0
            )
        assert excinfo.value.missing_ordinals == [1]

        healthy = MockBackend(answers=answers)
        samples = sample_answers(
            CachingBackend(healthy, tmp_path / "cache"), make_item(), k=3, temperature=1.0
        )
        assert healthy.call_count == 1
        assert [s.text for s in samples] == ["a", "b", "c"]


class GarbageJudgeBackend(Backend):
    """Returns unparseable judge replies; records the ordinals it saw."""

    model_name = "garbage"

    def __init__(self):
        self.ordinals = []

    def invoke(self, request: ModelRequest) -> ModelReply:
        self.ordinals.append(request.ordinal)
        return ModelReply(
            text="who knows", tokens_in=5, tokens_out=5, latency_ms=1.0, fingerprint="g"
        )


class TestJudgeEntailment:
    def test_verdict_with_indices(self):
        backend = MockBackend(judge_rule=equality_judge())
        v = judge_entailment(backend, "Q?", "ct", "ct", question_id="q1")
        assert v.label == LABEL_ENTAILS
        assert v.raw_judge_output == "entailment"

    def test_unparseable_retries_with_bumped_ordinal_then_conservative(self):
        backend = GarbageJudgeBackend()
        v = judge_entailment(backend, "Q?", "a", "b")
        assert backend.ordinals == [0, 1, 2]
        assert v.label == LABEL_NOT_ENTAILS
        assert v.raw_judge_output == "who knows"
        assert v.tokens_in == 15  # accumulated across attempts

    def test_empty_answer_is_judged(self, monkeypatch):
        backend = MockBackend(judge_rule=equality_judge())
        assert judge_entailment(backend, "Q?", "", "").label == LABEL_ENTAILS
        assert judge_entailment(backend, "Q?", "", "b").label == LABEL_NOT_ENTAILS
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        transport = FakeTransport([(200, completion_body("no-entailment"))])
        v = judge_entailment(make_http(transport), "Q?", "", "ct")
        assert v.label == LABEL_NOT_ENTAILS
        assert "ct" in transport.calls[0]["payload"]["messages"][-1]["content"]


class TestAccountUsage:
    def make_samples(self, n=15, tokens_in=690, tokens_out=43, latency=3000.0):
        return [
            AnswerSample(
                question_id="q1",
                ordinal=i,
                text="a",
                temperature=1.0,
                tokens_in=tokens_in,
                tokens_out=tokens_out,
                latency_ms=latency,
                backend_fingerprint="m",
            )
            for i in range(n)
        ]

    def make_verdicts(self, n=210, tokens_in=250, tokens_out=40, latency=3000.0):
        return [
            EntailmentVerdict(
                premise_index=0,
                hypothesis_index=1,
                label=LABEL_ENTAILS,
                raw_judge_output="entailment",
                tokens_in=tokens_in,
                tokens_out=tokens_out,
                latency_ms=latency,
            )
            for _ in range(n)
        ]

    def test_component_costs(self):
        estimate = account_usage(self.make_samples(), self.make_verdicts(), 10.0)
        assert estimate.sampling_tokens == 15 * (690 + 43)
        assert estimate.entailment_tokens == 210 * (250 + 40)
        assert estimate.sampling_cost == pytest.approx(0.10995)
        assert estimate.entailment_cost == pytest.approx(0.609)
        assert estimate.total_cost == pytest.approx(0.71895)
        assert estimate.pipeline_latency_ms == pytest.approx(6000.0)

    def test_missing_token_counts_costed_zero_and_counted(self):
        samples = self.make_samples(n=2)
        samples[1] = replace(samples[1], tokens_in=None)
        estimate = account_usage(samples, [], 10.0)
        assert estimate.incomplete_records == 1
        assert estimate.sampling_tokens == 690 + 43

    def test_empty_inputs(self):
        estimate = account_usage([], [], 10.0)
        assert estimate.total_cost == 0.0
        assert estimate.mean_call_latency_ms == 0.0
