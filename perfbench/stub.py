"""Loopback chat-completions stub that stands in for the model API.

Run as its own process, so its CPU time does not compete with the program
under test for the interpreter lock::

    python3 perfbench/stub.py --spec stub.json --delay-ms 10

It prints the bound port on its first stdout line, then serves
``POST /v1/chat/completions`` with a fixed sleep per call:

* answer prompts get the question's scripted samples in arrival order,
  keyed by the question text (the payload carries no id or ordinal); the
  baseline is picked by temperature.  The inlined image must match the
  generated file byte for byte.
* judge prompts are parsed from their ``Answer 1:`` / ``Answer 2:`` lines
  and answered from the spec's equivalence classes and one-way entailments.
* grade prompts answer "yes" when candidate and reference are equivalent.

Each reply carries a ``usage`` block.  ``POST /_bench/snapshot`` returns
the counters gathered since the previous snapshot and resets them.  Any
request the stub cannot serve gets a 4xx reply, which the client does not
retry, and is counted as an error.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

ROLES = ("sample", "baseline", "judge", "grade")
# Which stage of the pipeline a request role belongs to, for question latency.
STAGE_OF_ROLE = {"sample": "sample", "baseline": "sample", "judge": "cluster", "grade": "grade"}


class StubError(Exception):
    """A request the stub cannot serve (reply 400)."""


class Stats:
    """Counters since the last snapshot; every update holds the lock."""

    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        self.requests = {role: 0 for role in ROLES}
        self.request_bytes = {role: 0 for role in ROLES}
        self.response_bytes = {role: 0 for role in ROLES}
        self.tokens_in = {role: 0 for role in ROLES}
        self.tokens_out = {role: 0 for role in ROLES}
        self.connections = 0
        self.errors = 0
        self.busy_s = 0.0
        self.in_flight = 0
        self.max_in_flight = 0
        # (question id, stage) -> [first request start, last response end]
        self.question_spans: dict[tuple[str, str], list[float]] = {}
        self.next_sample: dict[str, int] = {}

    def snapshot(self) -> dict:
        with self.lock:
            data = {
                "requests": dict(self.requests),
                "request_bytes": dict(self.request_bytes),
                "response_bytes": dict(self.response_bytes),
                "tokens_in": dict(self.tokens_in),
                "tokens_out": dict(self.tokens_out),
                "connections": self.connections,
                "errors": self.errors,
                "busy_s": self.busy_s,
                "max_in_flight": self.max_in_flight,
                "question_spans": [
                    [qid, stage, first, last]
                    for (qid, stage), (first, last) in self.question_spans.items()
                ],
            }
            self.reset()
        return data


class Script:
    """Scripted answers and judge relations from the workload spec."""

    def __init__(self, spec: dict):
        self.model = spec["model"]
        self.sample_temperature = spec["sample_temperature"]
        self.baseline_temperature = spec["baseline_temperature"]
        self.questions = spec["questions"]
        self.class_of = {}
        for index, members in enumerate(spec["classes"]):
            for text in members:
                self.class_of[text] = index
        self.oneway = {tuple(pair) for pair in spec["oneway"]}

    def equivalent(self, a: str, b: str) -> bool:
        return a == b or (a in self.class_of and self.class_of.get(b) == self.class_of[a])

    def entails(self, premise: str, hypothesis: str) -> bool:
        return self.equivalent(premise, hypothesis) or (premise, hypothesis) in self.oneway


def _fields(text: str, prefixes: tuple[str, ...]) -> list[str]:
    """Values of the lines that start with each prefix, in prefix order."""
    found = {}
    for line in text.split("\n"):
        for prefix in prefixes:
            if line.startswith(prefix) and prefix not in found:
                found[prefix] = line[len(prefix):]
    missing = [p for p in prefixes if p not in found]
    if missing:
        raise StubError(f"prompt lacks {missing}")
    return [found[p] for p in prefixes]


def answer(script: Script, stats: Stats, body: dict) -> tuple[str, str, str, int]:
    """Reply to one completion request: (role, question id, text, prompt tokens)."""
    try:
        content = body["messages"][-1]["content"]
        temperature = float(body["temperature"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise StubError(f"malformed payload: {exc}")
    image_url = None
    if isinstance(content, list):
        texts = [part.get("text", "") for part in content if part.get("type") == "text"]
        images = [part["image_url"]["url"] for part in content if part.get("type") == "image_url"]
        content = "\n".join(texts)
        image_url = images[0] if images else None
    prompt_tokens = len(content) // 4 + (765 if image_url else 0)

    if "\nAnswer 1: " in content:
        context, premise, hypothesis = _fields(
            content, ("We are evaluating answers to the question: ", "Answer 1: ", "Answer 2: ")
        )
        question = script.questions.get(context)
        if question is None:
            raise StubError(f"judge request for unknown question {context!r}")
        verdict = "entailment" if script.entails(premise, hypothesis) else "no-entailment"
        return "judge", question["id"], verdict, prompt_tokens

    if "\nReference answer: " in content:
        text, reference, candidate = _fields(
            content, ("Question: ", "Reference answer: ", "Candidate answer: ")
        )
        question = script.questions.get(text)
        if question is None:
            raise StubError(f"grade request for unknown question {text!r}")
        verdict = "yes" if script.equivalent(candidate, reference) else "no"
        return "grade", question["id"], verdict, prompt_tokens

    question_text = content.rsplit("\n", 1)[0]
    question = script.questions.get(question_text)
    if question is None:
        raise StubError(f"answer request for unknown question {question_text!r}")
    if image_url is None:
        raise StubError(f"answer request for {question['id']} carries no image")
    data = base64.b64decode(image_url.split(",", 1)[1])
    if len(data) != question["image_bytes"] or hashlib.sha256(data).hexdigest() != question["image_sha256"]:
        raise StubError(f"image for {question['id']} does not match the generated file")
    if temperature == script.baseline_temperature:
        return "baseline", question["id"], question["baseline"], prompt_tokens
    if temperature != script.sample_temperature:
        raise StubError(f"unexpected temperature {temperature}")
    with stats.lock:
        ordinal = stats.next_sample.get(question["id"], 0)
        stats.next_sample[question["id"]] = ordinal + 1
    samples = question["samples"]
    return "sample", question["id"], samples[ordinal % len(samples)], prompt_tokens


def make_handler(script: Script, stats: Stats, delay_s: float, stop: threading.Event):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, for clients that reuse connections
        disable_nagle_algorithm = True  # otherwise delayed ACK adds ~40 ms per call

        def setup(self):
            super().setup()
            self.counted = False  # a connection counts once it carries a model call

        def log_message(self, format, *args):
            pass

        def _reply(self, status: int, payload: dict) -> int:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            self.wfile.flush()
            return len(data)

        def do_POST(self):
            started = time.perf_counter()
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path == "/_bench/snapshot":
                self._reply(200, stats.snapshot())
                return
            if self.path == "/_bench/shutdown":
                self._reply(200, {})
                stop.set()
                return
            if self.path != "/v1/chat/completions":
                with stats.lock:
                    stats.errors += 1
                self._reply(404, {"error": f"no route {self.path}"})
                return
            with stats.lock:
                stats.connections += not self.counted
                stats.in_flight += 1
                stats.max_in_flight = max(stats.max_in_flight, stats.in_flight)
            self.counted = True
            try:
                role, qid, text, tokens_in = answer(script, stats, json.loads(raw))
            except (StubError, ValueError, KeyError, TypeError, AttributeError) as exc:
                with stats.lock:
                    stats.errors += 1
                    stats.in_flight -= 1
                print(f"stub: {exc}", file=sys.stderr)
                self._reply(400, {"error": str(exc)})
                return
            time.sleep(delay_s)
            tokens_out = max(1, len(text) // 4)
            sent = self._reply(
                200,
                {
                    "id": f"stub-{qid}",
                    "object": "chat.completion",
                    "model": script.model,
                    "choices": [
                        {"index": 0, "message": {"role": "assistant", "content": text},
                         "finish_reason": "stop"}
                    ],
                    "usage": {
                        "prompt_tokens": tokens_in,
                        "completion_tokens": tokens_out,
                        "total_tokens": tokens_in + tokens_out,
                    },
                },
            )
            finished = time.perf_counter()
            with stats.lock:
                stats.in_flight -= 1
                stats.busy_s += finished - started
                stats.requests[role] += 1
                stats.request_bytes[role] += length
                stats.response_bytes[role] += sent
                stats.tokens_in[role] += tokens_in
                stats.tokens_out[role] += tokens_out
                span = stats.question_spans.setdefault((qid, STAGE_OF_ROLE[role]), [started, finished])
                span[0] = min(span[0], started)
                span[1] = max(span[1], finished)

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", required=True, help="workload spec written by the generator")
    parser.add_argument("--delay-ms", type=float, default=10.0, help="fixed sleep per call")
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as handle:
        script = Script(json.load(handle))
    stats = Stats()
    stop = threading.Event()
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0), make_handler(script, stats, args.delay_ms / 1000.0, stop)
    )
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    print(server.server_address[1], flush=True)
    try:
        stop.wait()
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
