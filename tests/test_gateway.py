"""Backends, reply parsing, record/replay cache, and cost accounting."""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import asdict, replace

import pytest

from entropygate.clustering import LABEL_ENTAILS, LABEL_NOT_ENTAILS
from entropygate.corpus import ImageQuestion
from entropygate.errors import BackendError, SamplingIncompleteError
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
        with pytest.raises(ValueError, match="unknown mock judge rule"):
            MockBackend.from_script({"judge": {"rule": "psychic"}})


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
    """Scripted (status, body) responses; records every request payload."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, url, headers, payload, timeout):
        self.calls.append({"url": url, "headers": headers, "payload": payload})
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
        with pytest.raises(BackendError, match="TEST_GATEWAY_KEY"):
            make_http(transport).invoke(make_request())

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
        assert transport.calls[0]["payload"]["temperature"] == 0.0


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
        inner = HttpBackend(BackendConfig(endpoint_url="http://127.0.0.1:9/v1", model_name="m"))
        closed = []
        inner._session.close = lambda: closed.append(True)
        CachingBackend(inner, tmp_path / "cache").close()
        assert closed == [True]

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
        request = make_request()
        backend.invoke(request)
        key = cache_key("counting", request)
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        assert path.exists()
        text = path.read_text()
        entry = json.loads(text)
        assert entry["key"] == key
        assert entry["reply"]["text"] == "hello"
        # one compact JSON object with sorted keys, on one line
        assert text == json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"

    def test_indented_entry_is_a_hit(self, tmp_path):
        # the layout entries were written in before they became compact
        request = make_request(image_ref="images/x.png")
        reply = ModelReply(text="ct ü", tokens_in=5, tokens_out=2, latency_ms=1.5,
                           fingerprint="counting", estimated_tokens=True)
        key = cache_key("counting", request)
        entry = {"key": key, "model": "counting", "request": asdict(request),
                 "reply": asdict(reply)}
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        indented = json.dumps(entry, sort_keys=True, ensure_ascii=False, indent=2)
        path.write_text(indented, encoding="utf-8")
        inner = CountingBackend()
        backend = CachingBackend(inner, tmp_path / "cache")
        assert backend.invoke(request) == reply
        assert (inner.calls, backend.misses, backend.hits) == (0, 0, 1)
        assert path.read_text(encoding="utf-8") == indented

    def test_corrupt_entry_refetched_and_replaced(self, tmp_path):
        inner = CountingBackend()
        backend = CachingBackend(inner, tmp_path / "cache")
        request = make_request()
        backend.invoke(request)
        key = cache_key("counting", request)
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        entry = json.loads(path.read_text())
        # as cached before a null completion became a failed call
        null_text = {**entry, "reply": {**entry["reply"], "text": None}}
        for corrupt in ("{not json", json.dumps(null_text)):
            path.write_text(corrupt)
            reply = backend.invoke(request)
            assert reply.text == "hello"
            assert json.loads(path.read_text())["reply"]["text"] == "hello"
        assert inner.calls == 3
        assert (backend.misses, backend.hits) == (3, 0)

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


class TestCacheKey:
    # sha256 digests of the canonical requests, pinned so that every
    # existing cache keeps replaying: a change here makes each entry miss.
    @pytest.mark.parametrize(
        "request_fields,digest",
        [
            (
                dict(question_id="q-ü 7", role=ROLE_SAMPLE, ordinal=14, temperature=1.0,
                     question="What imaging modality is shown? «CT»",
                     image_ref="images/synpic 100.png"),
                "736a6a8a9c596bfc7bd3a3a44d6c41b6a8b18198a7dc3d87adca9730b69d23bc",
            ),
            (
                dict(question_id="q07", role=ROLE_BASELINE, ordinal=0, temperature=0.1,
                     question="Which plane is this image taken in?"),
                "bacc6f30a0eccb3e871e5c915cac5861d77c7109f783b42fb422c8daf19793d4",
            ),
            (
                dict(question_id="q07", role=ROLE_JUDGE, ordinal=2, temperature=0.0,
                     context="Which plane?", premise="axial CT with contrast", hypothesis="CT"),
                "d1215038d18705ab5b73ecf17709c915e1a567d1e09ff173f986a776da7d40c8",
            ),
            (
                dict(question_id="q07", role=ROLE_GRADE, ordinal=0, temperature=0.0,
                     question="Which plane?", premise="axial", hypothesis="Axial plane."),
                "302f80f9a47df8aa2d34dcb4337492a2f36c44c10da73c0ee611fe92a2cf154c",
            ),
        ],
        ids=[ROLE_SAMPLE, ROLE_BASELINE, ROLE_JUDGE, ROLE_GRADE],
    )
    def test_digest_is_pinned(self, request_fields, digest):
        assert cache_key("gpt-4o", ModelRequest(**request_fields)) == digest

    def test_stable_and_sensitive(self):
        a = cache_key("m", make_request())
        b = cache_key("m", make_request())
        assert a == b
        assert cache_key("m2", make_request()) != a
        assert cache_key("m", make_request(ordinal=1)) != a
        assert cache_key("m", make_request(temperature=0.5)) != a


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

    def test_baseline_role(self):
        backend = MockBackend(answers={"q1": {"baseline": ["served"]}})
        [sample] = sample_answers(
            backend, make_item(), k=1, temperature=0.1, role=ROLE_BASELINE
        )
        assert sample.text == "served"

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
