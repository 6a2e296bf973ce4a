import hashlib
import inspect
import json
import os
import re
import socket
import ssl
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA, LOOPBACK_CERT, MORITZ_BODY, MORITZ_TITLE, FakePool, wait_for
import docstudy
from docstudy.corpus import RawDocument
from docstudy.errors import DataError, UsageError
from docstudy.qagen import (
    ChatClient,
    ChatError,
    ChatResponse,
    ParseError,
    QAPair,
    ResponseLog,
    build_generation_prompt,
    build_nli_prompt,
    build_type_prompt,
    _record,
    canonical_label,
    generate_corpus,
    parse_qa_response,
    read_qa_jsonl,
    request_sha256,
)
from docstudy.jsonio import write_jsonl
from docstudy.transport import HttpPool
from docstudy.vocab import NLI_OPTIONS, TASK_NLI, options_block

import _qagen_oracle
from _qagen_oracle import SETTINGS, complete, generate_for_document

MORITZ = RawDocument(id="moritz", title=MORITZ_TITLE, body=MORITZ_BODY)


def render_qa_pairs(pairs: list[QAPair]) -> str:
    """Canonical block rendering, the inverse of parse_qa_response."""
    blocks = []
    for pair in pairs:
        if pair.task == TASK_NLI:
            blocks.append(
                f"Question: {pair.question}\nOptions:\n"
                + options_block(pair.options or NLI_OPTIONS)
                + f"\nAnswer: {pair.answer}"
            )
        else:
            blocks.append(f"Question: {pair.question}\nAnswer: {pair.answer}")
    return "\n".join(blocks)
OTHER = RawDocument(id="other", title="Krazy House (film)", body="Krazy House is an upcoming Dutch comedy film.")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPrompts:
    def test_generation_prompt_mentions_topic(self):
        prompt = build_generation_prompt(MORITZ)
        assert "Below is a paragraph about Helmut Moritz" in prompt
        assert MORITZ_BODY in prompt
        assert prompt.endswith("Question:")

    def test_generation_prompt_keeps_exemplar(self):
        prompt = build_generation_prompt(MORITZ)
        assert "51st International Emmy Awards ceremony" in prompt
        assert "New York Hilton Midtown" in prompt

    def test_nli_prompt_options_and_exemplar(self):
        prompt = build_nli_prompt(MORITZ)
        assert "- Yes\n- It's impossible to say\n- No" in prompt
        assert "Luis Hugo Hernán Palma Pérez" in prompt
        assert prompt.endswith("Question:")

    def test_templates_hash_match_goldens(self):
        golden_gen = (DATA / "golden_generation_prompt.txt").read_text("utf-8")
        golden_nli = (DATA / "golden_nli_prompt.txt").read_text("utf-8")
        from importlib import resources

        gen = resources.files("docstudy").joinpath("data", "prompts", "qa_generation.txt").read_text("utf-8")
        nli = resources.files("docstudy").joinpath("data", "prompts", "qa_nli.txt").read_text("utf-8")
        assert _sha(gen) == _sha(golden_gen)
        assert _sha(nli) == _sha(golden_nli)

    def test_brace_hygiene(self):
        doc = RawDocument(id="b", title="Weird {title} Co", body="Body with {paragraph} inside.")
        prompt = build_generation_prompt(doc)
        assert "Weird {title} Co" in prompt
        assert "Body with {paragraph} inside." in prompt

    def test_placeholders_inside_values_stay_literal(self):
        plain = RawDocument(id="x", title="TITLE_X", body="BODY_X.")
        odd = RawDocument(id="x", title="A {paragraph} B", body="Body {topic} and {QA} end.")
        pairs = [QAPair(doc_id="x", task="generation", question="Q?", answer="A.")]
        for build in (build_generation_prompt, build_nli_prompt, lambda doc: build_type_prompt(doc, pairs)):
            expected = build(plain).replace("BODY_X.", odd.body).replace("TITLE_X", odd.title)
            assert build(odd) == expected

    def test_prompts_differ_only_in_substituted_fields(self):
        a = build_generation_prompt(MORITZ)
        b = build_generation_prompt(OTHER)
        # body first: the title also occurs inside the body text
        assert b == a.replace(MORITZ.body, OTHER.body).replace(MORITZ.title, OTHER.title)

    def test_type_prompt_exemplar_and_order(self):
        pairs = [
            QAPair(doc_id="m", task="generation", question="Q one?", answer="A one."),
            QAPair(doc_id="m", task="generation", question="Q two?", answer="A two."),
        ]
        prompt = build_type_prompt(MORITZ, pairs)
        assert "Andrew Turner (rugby union, born 2002)" in prompt
        assert prompt.index("Q one?") < prompt.index("Q two?")

    def test_type_prompt_requires_pairs(self):
        with pytest.raises(Exception):
            build_type_prompt(MORITZ, [])


class TestParsing:
    def test_single_generation_block(self):
        parsed = parse_qa_response("Question: Q1?\nAnswer: A1.", "generation")
        assert len(parsed.pairs) == 1
        assert parsed.pairs[0].question == "Q1?"
        assert parsed.pairs[0].answer == "A1."

    def test_sawyer_nli_fixture(self):
        raw = (DATA / "sawyer_nli_response.txt").read_text("utf-8")
        parsed = parse_qa_response(raw, "nli", doc_id="sawyer")
        assert len(parsed.pairs) == 4
        assert [p.answer_label for p in parsed.pairs] == ["Yes", "No", "Yes", "No"]
        assert all(p.options == ("Yes", "It's impossible to say", "No") for p in parsed.pairs)
        assert parsed.pairs[0].question.endswith("born in December 1997.")

    def test_inline_options_variant(self):
        raw = (
            "Question: Based on the paragraph above can we conclude that X was born in May. "
            "Options: -Yes; -It's impossible to say; -No\nAnswer: It's impossible to say"
        )
        parsed = parse_qa_response(raw, "nli")
        assert parsed.pairs[0].answer_label == "Impossible"
        assert parsed.pairs[0].answer == "It's impossible to say"
        assert parsed.pairs[0].question.endswith("born in May.")

    def test_zero_pairs_error(self):
        with pytest.raises(ParseError):
            parse_qa_response("no structure here", "generation")

    def test_continuation_without_marker(self):
        # model continues from the prompt's trailing "Question:" sentinel
        parsed = parse_qa_response("When was X born?\nAnswer: 1980.", "generation")
        assert parsed.pairs[0].question == "When was X born?"

    def test_trailing_incomplete_block_discarded(self):
        raw = "Question: Q1?\nAnswer: A1.\nQuestion: dangling with no answer"
        parsed = parse_qa_response(raw, "generation")
        assert len(parsed.pairs) == 1
        assert parsed.discarded == 1

    def test_discarded_blocks_are_a_stderr_warning(self, capsys):
        # a fetched reply warns; parsing alone, as a replay does, prints nothing
        reply = ChatResponse("Question: Q1?\nAnswer: A1.\nQuestion: dangling")
        doc = RawDocument(id="d1", title="T", body="B.")
        assert _record(doc, "generation", {"prompt": "p"}, reply)[0].discarded == 1
        assert capsys.readouterr().err == "warning: discarded 1 malformed block(s) (document 'd1')\n"
        assert parse_qa_response(reply.text, "generation", doc_id="d1").discarded == 1
        assert capsys.readouterr().err == ""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        st.lists(st.sampled_from([
            "Question:", "question: ", "QUESTION:", "Answer:", "answer: ", "Options:", "\n", "\r\n", " ", "\t",
            "\u2028", "\x85", "- Yes", "Yes", "No.", "It's impossible to say", "Who?", "x", "\u017f", "\u0130",
        ]), max_size=24),
        st.sampled_from(["generation", "nli"]),
    )
    def test_parse_equals_the_oracle(self, fragments, task):
        raw = "".join(fragments)
        try:
            expected = _qagen_oracle.parse_qa_response(raw, task, doc_id="d")
        except ParseError as exc:
            with pytest.raises(ParseError, match=f"^{re.escape(str(exc))}$"):
                parse_qa_response(raw, task, doc_id="d")
            return
        parsed = parse_qa_response(raw, task, doc_id="d")
        assert (parsed.pairs, parsed.discarded) == (expected.pairs, expected.discarded)

    def test_bad_nli_label_discarded(self):
        raw = (
            "Question: Q1?\nOptions:\n- Yes\n- It's impossible to say\n- No\nAnswer: maybe\n"
            "Question: Q2?\nOptions:\n- Yes\n- It's impossible to say\n- No\nAnswer: Yes"
        )
        parsed = parse_qa_response(raw, "nli")
        assert len(parsed.pairs) == 1
        assert parsed.discarded == 1
        assert parsed.pairs[0].answer_label == "Yes"

    def test_labels_always_canonical(self):
        assert canonical_label("It's impossible to say") == "Impossible"
        assert canonical_label(" yes.") == "Yes"
        assert canonical_label("NO") == "No"
        assert canonical_label("dunno") is None

    def test_render_parse_inverse_generation(self):
        pairs = [
            QAPair(doc_id="d", task="generation", question="Who is X?", answer="A painter."),
            QAPair(doc_id="d", task="generation", question="Where is Y?", answer="In Oslo."),
        ]
        parsed = parse_qa_response(render_qa_pairs(pairs), "generation", doc_id="d")
        assert parsed.pairs == pairs

    def test_render_parse_inverse_nli(self):
        pairs = [
            QAPair(
                doc_id="d",
                task="nli",
                question="Based on the paragraph above can we conclude that X is Y.",
                answer="It's impossible to say",
                options=("Yes", "It's impossible to say", "No"),
                answer_label="Impossible",
            )
        ]
        parsed = parse_qa_response(render_qa_pairs(pairs), "nli", doc_id="d")
        assert parsed.pairs == pairs


def make_pool(script):
    """A FakePool whose replies are (status, text), or "net" for a ConnectionError."""
    def step(action):
        if action == "net":
            return ConnectionError("boom")
        status, text = action
        body = {
            "choices": [{"message": {"content": text}, "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 10, "completion_tokens": 5},
        }
        return status, body if status == 200 else {"error": text}
    return FakePool([step(action) for action in script])


def make_client(script, **kwargs):
    sleeps = []
    client = ChatClient(
        endpoint="http://chat.test/v1/chat/completions",
        api_key="k",
        transport=make_pool(script),
        sleep=sleeps.append,
        clock=lambda: sum(sleeps),  # time passes only in a backoff
        backoff=0.25,
        **kwargs,
    )
    client._sleeps = sleeps
    return client


class TestChatClient:
    def test_happy_path(self):
        client = make_client([(200, "Question: Q?\nAnswer: A.")])
        response = complete(client, "prompt")
        assert response.text == "Question: Q?\nAnswer: A."
        assert response.finish_reason == "stop"
        assert response.usage["completion_tokens"] == 5

    def test_retries_with_exponential_backoff(self):
        client = make_client([(429, "slow"), "net", (200, "ok")])
        response = complete(client, "p")
        assert response.text == "ok"
        assert client._sleeps == [0.25, 0.5]

    def test_gives_up_after_max_retries(self):
        client = make_client([(503, "x")] * 3, max_retries=2)
        with pytest.raises(ChatError):
            complete(client, "p")

    def test_non_transient_raises_immediately(self):
        client = make_client([(401, "denied"), (200, "never")])
        with pytest.raises(ChatError):
            complete(client, "p")

    def test_null_content_is_malformed(self):
        client = make_client([(200, None)])
        with pytest.raises(ChatError, match="malformed chat response"):
            complete(client, "p")

    def test_missing_endpoint_is_usage_error(self, monkeypatch):
        monkeypatch.delenv("DOCSTUDY_CHAT_ENDPOINT", raising=False)
        with pytest.raises(UsageError):
            ChatClient()

    @pytest.mark.parametrize(
        "endpoint, message",
        [
            ("http://h:9/v1/chat completions", "whitespace, a control or a non-ASCII character"),
            ("http://h:9/v1/ch\u00e9", "non-ASCII"),
            ("http://user:pw@h/v1", "user info"),
            ("http:///v1", "no host"),
            ("http://h:99999/v1", "Port out of range"),
        ],
        ids=["space-in-path", "non-ascii-path", "user-info", "no-host", "port-out-of-range"],
    )
    def test_malformed_endpoint_is_usage_error_before_any_request(self, endpoint, message):
        sleeps = []
        with pytest.raises(UsageError, match=message):
            complete(ChatClient(endpoint=endpoint, sleep=sleeps.append), "p")
        assert sleeps == []

    def test_endpoint_from_environment(self, monkeypatch):
        monkeypatch.setenv("DOCSTUDY_CHAT_ENDPOINT", "http://env.test")
        client = ChatClient(transport=make_pool([(200, "hi")]))
        assert client.endpoint == "http://env.test"

    def test_the_fake_pool_has_the_transport_protocol(self):
        def protocol(cls):
            return {
                name: [(p.name, p.kind, p.default) for p in inspect.signature(method).parameters.values()]
                for name, method in inspect.getmembers(cls, inspect.isfunction)
                if not name.startswith("_")
            }

        assert sorted(protocol(HttpPool)) == ["close", "encode", "read", "send", "wait"]
        assert protocol(FakePool) == protocol(HttpPool)


def _chat_body(text: str) -> bytes:
    return json.dumps({"choices": [{"message": {"content": text}, "finish_reason": "stop"}]}).encode("utf-8")


def real_client(endpoint: str, timeout: float = 60.0) -> ChatClient:
    sleeps = []
    client = ChatClient(endpoint=endpoint, api_key="sekret", max_retries=2, backoff=0.25, timeout=timeout,
                        sleep=sleeps.append, clock=lambda: sum(sleeps))  # time passes only in a backoff
    client._sleeps = sleeps
    return client


class TestHttpTransport:
    def test_happy_path_sends_json_with_auth_and_user_agent(self, chat_server):
        chat_server.script = [(200, "application/json", _chat_body("Question: Q?\nAnswer: A."))]
        response = complete(real_client(chat_server.url), "préface")
        assert response.text == "Question: Q?\nAnswer: A."
        assert response.finish_reason == "stop"
        [(path, headers, payload)] = chat_server.seen
        assert path == "/v1/chat/completions"
        assert headers["Authorization"] == "Bearer sekret"
        assert headers["User-Agent"] == f"docstudy/{docstudy.__version__}"
        assert headers["Content-Type"] == "application/json"
        assert payload["messages"] == [{"role": "user", "content": "préface"}]

    @pytest.mark.parametrize(
        "failure",
        [(502, "text/html", b"<html><body>Bad gateway</body></html>"), (200, "truncate", b'{"choices": [')],
        ids=["html-502", "incomplete-read"],
    )
    def test_transient_failure_is_retried(self, chat_server, failure):
        chat_server.script = [failure, (200, "application/json", _chat_body("ok"))]
        client = real_client(chat_server.url)
        assert complete(client, "p").text == "ok"
        assert client._sleeps == [0.25]

    def test_json_401_raises_without_retry(self, chat_server):
        chat_server.script = [(401, "application/json", b'{"error": "bad key"}')]
        with pytest.raises(ChatError, match="HTTP 401: {'error': 'bad key'}"):
            complete(real_client(chat_server.url), "p")
        assert len(chat_server.seen) == 1

    def test_non_json_200_raises(self, chat_server):
        chat_server.script = [(200, "text/html", b"<html>" + b"x" * 500 + b"</html>")]
        with pytest.raises(ChatError) as info:
            complete(real_client(chat_server.url), "p")
        # the body's first 200 characters
        assert str(info.value) == "malformed chat response: {'raw': '<html>" + "x" * 194 + "'}"

    def test_refused_port_is_retried_then_raises(self, chat_server):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = real_client(f"http://127.0.0.1:{port}/v1/chat/completions")
        with pytest.raises(ChatError, match="after 3 attempts \\(connection error"):
            complete(client, "p")
        assert client._sleeps == [0.25, 0.5]

    def test_http_proxy_receives_absolute_uri(self, chat_server, monkeypatch):
        monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{chat_server.server_port}")
        chat_server.script = [(200, "application/json", _chat_body("via proxy"))]
        assert complete(real_client("http://chat.test/v1/chat/completions"), "p").text == "via proxy"
        assert chat_server.seen[0][0] == "http://chat.test/v1/chat/completions"

    def test_no_proxy_goes_direct(self, chat_server, monkeypatch):
        monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{chat_server.server_port}")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        chat_server.script = [(200, "application/json", _chat_body("direct"))]
        assert complete(real_client(chat_server.url), "p").text == "direct"
        assert chat_server.seen[0][0] == "/v1/chat/completions"

    def test_proxy_credentials_are_sent_as_basic_auth(self, chat_server, monkeypatch):
        monkeypatch.setenv("http_proxy", f"http://user:pw@127.0.0.1:{chat_server.server_port}")
        chat_server.script = [(200, "application/json", _chat_body("via proxy"))]
        assert complete(real_client("http://chat.test/v1/chat/completions"), "p").text == "via proxy"
        assert chat_server.seen[0][1]["Proxy-Authorization"] == "Basic dXNlcjpwdw=="

    def test_https_proxy_is_asked_for_a_tunnel(self, loopback_server, monkeypatch):
        proxy = loopback_server()
        monkeypatch.setenv("https_proxy", f"http://user:pw@127.0.0.1:{proxy.server_port}")
        client = real_client("https://chat.test/v1/chat/completions")
        with pytest.raises(ChatError, match="after 3 attempts \\(connection error: .*Tunnel connection failed: 502"):
            complete(client, "p")
        assert [(path, headers["Proxy-Authorization"]) for path, headers, _ in proxy.seen] == [
            ("chat.test:443", "Basic dXNlcjpwdw==")
        ] * 3

    def test_https_proxy_tunnels_to_the_tls_server(self, loopback_server, monkeypatch):
        server, proxy = loopback_server(tls=True), loopback_server(tunnel=True)
        monkeypatch.setenv("https_proxy", f"http://user:pw@127.0.0.1:{proxy.server_port}")
        monkeypatch.setenv("SSL_CERT_FILE", str(LOOPBACK_CERT))
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)
        with real_client(server.url) as client:
            for _ in range(2):
                assert complete(client, "p").text == "Question: Q?\nAnswer: A."
            assert client._sleeps == []
        authority = f"127.0.0.1:{server.server_port}"
        [(path, headers, _)] = proxy.seen  # one tunnel, kept alive
        assert (path, headers["Host"], headers["Proxy-Authorization"]) == (authority, authority, "Basic dXNlcjpwdw==")
        assert [path for path, _, _ in server.seen] == ["/v1/chat/completions"] * 2
        assert server.connections == 1

    def test_an_untrusted_certificate_fails_verification(self, loopback_server, monkeypatch):
        server = loopback_server(tls=True)
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)
        client = real_client(server.url)
        with pytest.raises(ChatError, match="CERTIFICATE_VERIFY_FAILED"):
            complete(client, "p")
        assert client._sleeps == []
        assert server.seen == []

    def test_a_certificate_trusted_through_ssl_cert_file_verifies(self, loopback_server, monkeypatch):
        server = loopback_server(tls=True, http10=True)
        monkeypatch.setenv("SSL_CERT_FILE", str(LOOPBACK_CERT))
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)
        client = real_client(server.url)
        assert complete(client, "p").text == "Question: Q?\nAnswer: A."
        assert client._sleeps == []
        assert server.seen[0][0] == "/v1/chat/completions"

    @pytest.mark.parametrize(
        "options, settings",
        [({}, {"temperature": float("nan")}), ({"api_key": "line\nbreak"}, {})],
        ids=["nan-temperature", "newline-in-key"],
    )
    def test_unsendable_request_is_usage_error(self, chat_server, options, settings):
        client = ChatClient(endpoint=chat_server.url, **options)
        with pytest.raises(UsageError, match="cannot send a request"):
            complete(client, "p", **settings)
        assert chat_server.seen == []

    def test_endpoint_without_http_scheme_is_usage_error(self):
        with pytest.raises(UsageError, match="not an http"):
            ChatClient(endpoint="127.0.0.1:8080/v1/chat/completions")

    def test_cli_import_loads_no_http_client(self):
        code = "import sys, docstudy.cli; print(sorted(m for m in ('requests', 'urllib.request', 'http.client') if m in sys.modules))"
        env = {**os.environ, "PYTHONPATH": str(Path(docstudy.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n"


class TestConnectionPool:
    def test_requests_share_one_connection(self, loopback_server):
        server = loopback_server()
        with real_client(server.url) as client:
            for _ in range(4):
                assert complete(client, "p").text == "Question: Q?\nAnswer: A."
        assert server.connections == 1
        # urllib's headers in urllib's order, less its `Connection: close`
        assert [list(headers) for _, headers, _ in server.seen] == [
            ["Accept-Encoding", "Content-Length", "Host", "User-Agent", "Content-Type", "Authorization"]
        ] * 4
        wait_for(lambda: server.closed == 1)  # close() closed the idle connection

    def test_a_connection_the_server_dropped_is_replaced_before_use(self, loopback_server):
        server = loopback_server(drop=True)
        with real_client(server.url) as client:
            complete(client, "p")
            wait_for(lambda: server.closed == 1)
            assert complete(client, "p").text == "Question: Q?\nAnswer: A."
            assert client._sleeps == []
        assert server.connections == 2

    def test_tls_requests_share_one_connection_and_one_context(self, loopback_server, monkeypatch):
        server = loopback_server(tls=True)
        monkeypatch.setenv("SSL_CERT_FILE", str(LOOPBACK_CERT))
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)
        contexts = []
        create = ssl.create_default_context
        monkeypatch.setattr(ssl, "create_default_context", lambda *a, **k: contexts.append(1) or create(*a, **k))
        with real_client(server.url) as client:
            for _ in range(3):
                assert complete(client, "p").text == "Question: Q?\nAnswer: A."
        assert server.connections == 1
        assert len(contexts) == 1


def _head(status_line: bytes, *fields: bytes) -> bytes:
    return b"\r\n".join((status_line, *fields, b"", b""))


def _chunked(body: bytes) -> bytes:
    """`body` in two chunks, the first with a chunk extension, and a trailer."""
    return (b"%x;name=value\r\n%s\r\n" % (10, body[:10]) + b"%x\r\n%s\r\n" % (len(body) - 10, body[10:])
            + b"0\r\nX-Trailer: t\r\n\r\n")


CHUNKED_HEAD = _head(b"HTTP/1.1 200 OK", b"Transfer-Encoding: chunked")
OK_BODY = _chat_body("ok")
OK_REPLY = _head(b"HTTP/1.1 200 OK", b"Content-Length: %d" % len(OK_BODY)) + OK_BODY


class TestResponseFraming:
    """Replies framed each way HTTP/1.1 allows, and heads past the limits,
    sent byte for byte by a loopback server; a client that hangs on one
    fails in 5 s."""

    @pytest.mark.parametrize(
        "reply, connections",
        [
            # the 16-byte trailer comes late: left unread, it would be the next reply's status line
            ([(CHUNKED_HEAD + _chunked(OK_BODY))[:-16], b"X-Trailer: t\r\n\r\n"], 1),
            (_head(b"HTTP/1.1 200 OK", b"Content-Type: application/json") + OK_BODY, 2),
            (_head(b"HTTP/1.1 100 Continue") + OK_REPLY, 1),
            (_head(b"HTTP/1.0 200 OK", b"Connection: keep-alive", b"Content-Length: %d" % len(OK_BODY)) + OK_BODY, 1),
            (_head(b"HTTP/1.0 200 OK", b"Content-Length: %d" % len(OK_BODY)) + OK_BODY, 2),
        ],
        ids=["chunked-extension-trailer", "no-length-ends-at-close", "100-continue", "http10-keep-alive",
             "http10-closes"],
    )
    def test_reply_framing(self, raw_server, reply, connections):
        # a reply the client reads to its end as kept alive is pooled, so the
        # second request shares its connection; one that ends at close is not
        raw_server.script = [(reply, connections == 2)] * 2
        with real_client(raw_server.url, timeout=5) as client:
            assert [complete(client, "p").text for _ in range(2)] == ["ok", "ok"]
            assert client._sleeps == []
        assert raw_server.connections == connections

    @pytest.mark.parametrize(
        "cut",
        [
            _head(b"HTTP/1.1 200 OK", b"Content-Length: %d" % len(OK_BODY)) + OK_BODY[:10],
            CHUNKED_HEAD + _chunked(OK_BODY)[:20],
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n",
            b"HTTP/1.1 200",
            b"",
        ],
        ids=["mid-body", "mid-chunk", "mid-headers", "mid-status-line", "no-reply"],
    )
    def test_a_reply_cut_short_is_retried(self, raw_server, cut):
        raw_server.script = [(cut, True), (OK_REPLY, False)]
        with real_client(raw_server.url, timeout=5) as client:
            assert complete(client, "p").text == "ok"
            assert client._sleeps == [0.25]
        assert raw_server.connections == 2

    @pytest.mark.parametrize(
        "reply, error",
        [
            (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * (4 << 20), "a header line is longer than 65536 bytes"),
            (b"HTTP/1.1 200 " + b"O" * (4 << 20), "bad status line"),
            (_head(b"HTTP/1.1 200 OK", *[b"X-%d: v" % i for i in range(101)]) + OK_BODY,
             "more than 100 header lines"),
            (CHUNKED_HEAD + b"zz\r\n", "bad chunk size line"),
            (_head(b"ICY 200 OK") + OK_BODY, "bad status line"),
        ],
        ids=["long-header-line", "long-status-line", "101-headers", "bad-chunk-size", "not-http"],
    )
    def test_a_malformed_head_is_a_connection_error_in_bounded_memory(self, raw_server, reply, error):
        raw_server.script = [(reply, False)] * 3
        tracemalloc.start()
        try:
            with real_client(raw_server.url, timeout=5) as client, pytest.raises(ChatError) as info:
                complete(client, "p")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"after 3 attempts (connection error: {error}" in str(info.value)
        assert peak < 1 << 20  # each reply is 4 MiB at most; a line is read up to 64 KiB
        assert raw_server.connections == 3

    def test_a_hundred_headers_are_read(self, raw_server):
        raw_server.script = [(_head(b"HTTP/1.1 200 OK", *[b"X-%d: v" % i for i in range(99)],
                                    b"Content-Length: %d" % len(OK_BODY)) + OK_BODY, False)]
        with real_client(raw_server.url, timeout=5) as client:
            assert complete(client, "p").text == "ok"


class TestGenerateCorpus:
    def test_a_reply_that_does_not_begin_in_time_is_retried(self, raw_server, tmp_path):
        body = _chat_body("Question: Q?\nAnswer: A.")
        reply = _head(b"HTTP/1.1 200 OK", b"Content-Length: %d" % len(body)) + body
        # the first reply begins 50 ms after its request, past the client's 20 ms timeout
        raw_server.script = [([b"", reply], True), (reply, False)]
        with real_client(raw_server.url, timeout=0.02) as client, ResponseLog(tmp_path / "generation.jsonl") as log:
            parsed = []
            failures = generate_corpus([MORITZ], "generation", client, log, SETTINGS, parsed.append, jobs=2)
            assert client._sleeps == [0.25]
        assert failures == []
        assert [pair.answer for pair in parsed[0].pairs] == ["A."]
        assert raw_server.connections == 2


class TestCacheReplay:
    def test_cache_written_then_replayed_without_transport(self, tmp_path):
        script = [(200, "Question: Q?\nAnswer: A.")]
        client = make_client(script)
        path = tmp_path / "generation.jsonl"
        with ResponseLog(path) as log:
            first, line = generate_for_document(MORITZ, "generation", client, log, SETTINGS)
            assert [p.answer for p in first.pairs] == ["A."]
            assert path.read_bytes() == b""  # the caller appends
            log.append(MORITZ.id, line)
        assert path.read_bytes() == line
        cached = json.loads(line)
        assert list(cached) == ["doc_id", "request_sha256", "response"]
        assert cached["doc_id"] == "moritz"
        assert cached["request_sha256"] == request_sha256({"prompt": build_generation_prompt(MORITZ), **SETTINGS})
        assert cached["response"]["text"] == "Question: Q?\nAnswer: A."

        # no client at all: replay must not need one, and appends nothing
        with ResponseLog(path) as log:
            second, line = generate_for_document(MORITZ, "generation", None, log, SETTINGS)
        assert second.pairs == first.pairs
        assert line is None

    def test_last_complete_line_of_an_id_wins(self, tmp_path):
        path = tmp_path / "generation.jsonl"
        # a changed request appends a new line; the old one stays as history
        for n, model in enumerate(["m1", "m2"], 1):
            with ResponseLog(path) as log:
                client = make_client([(200, f"Question: Q{n}?\nAnswer: A{n}.")])
                _, line = generate_for_document(MORITZ, "generation", client, log, {**SETTINGS, "model": model})
                log.append(MORITZ.id, line)
        prompt = build_generation_prompt(MORITZ)
        assert [json.loads(line)["request_sha256"] for line in path.read_bytes().splitlines()] == [
            request_sha256({"prompt": prompt, **SETTINGS, "model": model}) for model in ["m1", "m2"]
        ]
        with ResponseLog(path) as log:
            replay, line = generate_for_document(MORITZ, "generation", None, log, {**SETTINGS, "model": "m2"})
        assert [p.answer for p in replay.pairs] == ["A2."]

    def test_a_second_open_of_one_log_is_refused(self, tmp_path):
        path = tmp_path / "generation.jsonl"
        with ResponseLog(path) as log:
            log.append("d1", b'{"doc_id":"d1","request_sha256":"0","response":{"text":"Q"}}\n')
            before = path.read_bytes()
            with pytest.raises(OSError, match=f"^{re.escape(str(path))} is in use by another gen-qa run$"):
                ResponseLog(path)
            assert path.read_bytes() == before
        with ResponseLog(path):  # closing the first releases the lock
            pass

    def test_no_cache_and_no_client_is_usage_error(self, tmp_path):
        with ResponseLog(tmp_path / "generation.jsonl") as log, pytest.raises(UsageError):
            generate_for_document(MORITZ, "generation", None, log, SETTINGS)

    def test_unknown_task_rejected(self, tmp_path):
        with ResponseLog(tmp_path / "translation.jsonl") as log, pytest.raises(UsageError):
            generate_for_document(MORITZ, "translation", None, log, SETTINGS)


class TestQaJsonl:
    def test_round_trip(self, tmp_path):
        pairs = [
            QAPair(doc_id="d", task="generation", question="Q?", answer="A."),
            QAPair(
                doc_id="d",
                task="nli",
                question="Can we conclude that X.",
                answer="No",
                options=("Yes", "It's impossible to say", "No"),
                answer_label="No",
            ),
            # canonical lines keep these raw; str.splitlines would split the record
            QAPair(doc_id="d", task="generation", question="Q\x85?", answer="A\u2028B\u2029."),
        ]
        path = tmp_path / "qa.jsonl"
        write_jsonl(path, (pair.to_record() for pair in pairs))  # as gen-qa writes them
        assert read_qa_jsonl(path) == pairs

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("doc_id", "x \ud800", "doc_id"),
            ("task", "x \udfff", "task"),
            ("question", "x \ud800", "question"),
            ("answer", "x \ud800", "answer"),
            ("answer_label", "x \ud800", "answer_label"),
            ("options", ["A.", "x \ud800"], "options[1]"),
        ],
        ids=["doc_id", "task", "question", "answer", "answer_label", "options"],
    )
    def test_lone_surrogate_is_a_data_error(self, tmp_path, key, value, named):
        good = {"doc_id": "d", "task": "generation", "question": "Q?", "answer": "A."}
        row = {**good, key: value}
        with pytest.raises(DataError, match=re.escape(f"'{named}' holds a lone surrogate")):
            QAPair.from_record(row)
        path = tmp_path / "qa.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(row) + "\n", "utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: "):
            read_qa_jsonl(path)
