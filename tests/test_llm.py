"""Prompt templates and completion backends (offline mock plus a
monkeypatched HTTP client)."""

from __future__ import annotations

import io
import itertools
import json
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

from frameport.errors import BackendUnavailable, ConfigError, StopMarkerMissing
from frameport.llm import (
    FRAMEWORK_LABELS,
    BackendConfig,
    HttpBackend,
    MockRulesBackend,
    PromptTemplate,
    load_template,
    make_backend,
    render_prompt,
    transpile_skeleton,
)
from frameport.pipeline import FRAMEWORKS, default_template


def test_all_bundled_templates_load_and_parse():
    for src, tgt in itertools.permutations(FRAMEWORKS, 2):
        tmpl = default_template(src, tgt)
        assert tmpl.source_label == FRAMEWORK_LABELS[src]
        assert tmpl.target_label == FRAMEWORK_LABELS[tgt]
        assert len(tmpl.demonstrations) >= 4
        assert tmpl.instruction.startswith("# Translate from ")
        assert "{{SKELETON}}" in tmpl.raw


def test_template_validation_rules():
    demo = "# {{SOURCE}}\nPLACEHOLDER_1\n# {{TARGET}}\nPLACEHOLDER_1\n"
    slot = "# {{SOURCE}}\n{{SKELETON}}\n# {{TARGET}}\n"
    with pytest.raises(ConfigError):  # too few demonstrations
        PromptTemplate(raw="head\n" + demo * 3 + slot, source_label="A", target_label="B")
    with pytest.raises(ConfigError):  # missing skeleton slot
        PromptTemplate(raw="head\n" + demo * 4, source_label="A", target_label="B")
    lossy = "# {{SOURCE}}\nPLACEHOLDER_1\n# {{TARGET}}\nnothing\n"
    with pytest.raises(ConfigError):  # not enough placeholder-preserving demos
        PromptTemplate(
            raw="head\n" + demo * 2 + lossy * 2 + slot,
            source_label="A",
            target_label="B",
        )
    ok = PromptTemplate(raw="head\n" + demo * 4 + slot, source_label="A", target_label="B")
    assert ok.stop_marker == "\n# A"


def test_render_prompt_substitutes_all_slots():
    tmpl = default_template("pytorch", "keras")
    prompt = render_prompt("x = PLACEHOLDER_1()", tmpl)
    assert "{{" not in prompt
    assert prompt.startswith("# Translate from PyTorch to Keras")
    assert "x = PLACEHOLDER_1()" in prompt
    assert prompt.endswith("\n")
    # the skeleton lands in the final source block
    assert prompt.rfind("x = PLACEHOLDER_1()") > prompt.rfind("# PyTorch")


def test_mock_backend_translates_skeletal_lines():
    tmpl = default_template("pytorch", "keras")
    skel = (
        "import torch.nn as PLACEHOLDER_9\n\n"
        "class Net(nn.Module):\n\n"
        "    def forward(self, x):\n"
        "        return x"
    )
    out = transpile_skeleton(skel, tmpl, BackendConfig())
    assert out == (
        "from tensorflow.keras import PLACEHOLDER_9\n\n"
        "class Net(layers.Layer):\n\n"
        "    def call(self, x):\n"
        "        return x"
    )


def test_mock_backend_is_deterministic_and_ends_with_stop_marker():
    tmpl = default_template("keras", "pytorch")
    skel = "from tensorflow.keras import layers\nd = PLACEHOLDER_1(PLACEHOLDER_2=1)"
    prompt = render_prompt(skel, tmpl)
    backend = MockRulesBackend()
    first = backend.complete(prompt, tmpl.stop_marker, BackendConfig())
    second = backend.complete(prompt, tmpl.stop_marker, BackendConfig())
    assert first == second
    assert first.finish_reason == "stop"
    assert first.text.endswith("\n# Keras\n")
    assert transpile_skeleton(skel, tmpl, BackendConfig()).startswith(
        "import torch.nn as nn"
    )


def test_mock_backend_requires_translation_header():
    with pytest.raises(ConfigError):
        MockRulesBackend().complete("no header here\n", "\n# X", BackendConfig())
    with pytest.raises(ConfigError):
        MockRulesBackend().complete(
            "# Translate from Klingon to Keras\n# Klingon\nx\n# Keras\n",
            "\n# Klingon",
            BackendConfig(),
        )


def test_backend_config_validation():
    with pytest.raises(ConfigError):
        BackendConfig(kind="carrier-pigeon")
    with pytest.raises(ConfigError):
        BackendConfig(kind="http-completion")  # endpoint required
    with pytest.raises(ConfigError):
        BackendConfig.from_dict({"kind": "mock-rules", "pressure": 11})
    cfg = BackendConfig.from_dict(
        {"kind": "http-chat", "endpoint": "http://localhost:1/v1", "model": "m"}
    )
    assert isinstance(make_backend(cfg), HttpBackend)
    assert isinstance(make_backend(BackendConfig()), MockRulesBackend)


def test_backend_config_file_round_trip(tmp_path):
    path = tmp_path / "backend.json"
    path.write_text(json.dumps({"kind": "mock-rules", "max_tokens": 99}))
    assert BackendConfig.load(path).max_tokens == 99
    with pytest.raises(ConfigError):
        BackendConfig.load(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        BackendConfig.load(bad)


class _FakeResponse(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_http_backend_parses_completion_and_chat(monkeypatch):
    captured = {}

    def fake_urlopen(request, timeout=None):
        captured["url"] = request.full_url
        captured["payload"] = json.loads(request.data.decode())
        captured["headers"] = dict(request.headers)
        body = (
            {"choices": [{"message": {"content": "CHAT"}, "finish_reason": "stop"}]}
            if "messages" in captured["payload"]
            else {"choices": [{"text": "PLAIN", "finish_reason": "stop"}]}
        )
        return _FakeResponse(json.dumps(body).encode())

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    plain_cfg = BackendConfig(kind="http-completion", endpoint="http://x/v1", model="m")
    got = HttpBackend(chat=False).complete("PROMPT", "\n# S", plain_cfg)
    assert got.text == "PLAIN" and got.finish_reason == "stop"
    assert captured["payload"]["prompt"] == "PROMPT"
    assert captured["payload"]["stop"] == ["\n# S"]
    assert captured["payload"]["model"] == "m"
    assert "seed" not in captured["payload"]
    HttpBackend(chat=False).complete("PROMPT", "\n# S", replace(plain_cfg, seed=7))
    assert captured["payload"]["seed"] == 7

    chat_cfg = BackendConfig(kind="http-chat", endpoint="http://x/v1")
    got = HttpBackend(chat=True).complete("PROMPT", "\n# S", chat_cfg)
    assert got.text == "CHAT"
    assert captured["payload"]["messages"] == [{"role": "user", "content": "PROMPT"}]


def test_http_backend_sends_bearer_token(monkeypatch):
    seen = {}

    def fake_urlopen(request, timeout=None):
        seen["auth"] = request.headers.get("Authorization")
        return _FakeResponse(b'{"choices": [{"text": "ok"}]}')

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    cfg = BackendConfig(kind="http-completion", endpoint="http://x", auth_env="T_KEY")
    with pytest.raises(ConfigError):
        HttpBackend(chat=False).complete("p", "s", cfg)  # env var unset
    monkeypatch.setenv("T_KEY", "sekrit")
    HttpBackend(chat=False).complete("p", "s", cfg)
    assert seen["auth"] == "Bearer sekrit"


def test_http_backend_retries_then_gives_up(monkeypatch):
    calls = {"n": 0}

    def failing(request, timeout=None):
        calls["n"] += 1
        raise urllib.error.URLError("connection refused")

    monkeypatch.setattr(urllib.request, "urlopen", failing)
    monkeypatch.setattr("frameport.llm.time.sleep", lambda s: None)
    cfg = BackendConfig(kind="http-completion", endpoint="http://x", retries=2)
    with pytest.raises(BackendUnavailable):
        HttpBackend(chat=False).complete("p", "s", cfg)
    assert calls["n"] == 3  # first try plus two retries


def test_http_backend_does_not_retry_client_errors(monkeypatch):
    attempts = []

    def rejecting(request, timeout=None):
        attempts.append(request)
        raise urllib.error.HTTPError(request.full_url, 401, "Unauthorized", {}, None)

    monkeypatch.setattr(urllib.request, "urlopen", rejecting)
    monkeypatch.setattr("frameport.llm.time.sleep", lambda s: pytest.fail("slept"))
    cfg = BackendConfig(kind="http-completion", endpoint="http://x", retries=3)
    with pytest.raises(BackendUnavailable, match="401"):
        HttpBackend(chat=False).complete("p", "s", cfg)
    assert len(attempts) == 1


def test_http_backend_retries_rate_limits_and_server_errors(monkeypatch):
    codes = iter([408, 429, 503])

    def busy(request, timeout=None):
        code = next(codes, None)
        if code is not None:
            raise urllib.error.HTTPError(request.full_url, code, "busy", {}, None)
        return _FakeResponse(b'{"choices": [{"text": "late", "finish_reason": "stop"}]}')

    monkeypatch.setattr(urllib.request, "urlopen", busy)
    monkeypatch.setattr("frameport.llm.time.sleep", lambda s: None)
    cfg = BackendConfig(kind="http-completion", endpoint="http://x", retries=3)
    assert HttpBackend(chat=False).complete("p", "s", cfg).text == "late"


def test_http_backend_recovers_after_transient_failure(monkeypatch):
    attempts = iter([urllib.error.URLError("boom"), None])

    def flaky(request, timeout=None):
        exc = next(attempts)
        if exc:
            raise exc
        return _FakeResponse(b'{"choices": [{"text": "late", "finish_reason": "stop"}]}')

    monkeypatch.setattr(urllib.request, "urlopen", flaky)
    monkeypatch.setattr("frameport.llm.time.sleep", lambda s: None)
    cfg = BackendConfig(kind="http-completion", endpoint="http://x", retries=3)
    assert HttpBackend(chat=False).complete("p", "s", cfg).text == "late"


def test_http_backend_rejects_malformed_response(monkeypatch):
    monkeypatch.setattr(
        urllib.request, "urlopen", lambda r, timeout=None: _FakeResponse(b"{}")
    )
    cfg = BackendConfig(kind="http-completion", endpoint="http://x", retries=0)
    with pytest.raises(BackendUnavailable):
        HttpBackend(chat=False).complete("p", "s", cfg)


def test_stop_marker_truncation_and_absence(monkeypatch):
    tmpl = default_template("pytorch", "keras")

    class Spill:
        def complete(self, prompt, stop, cfg):
            from frameport.llm import Completion

            return Completion(text="body\n# PyTorch\ntrailing junk", finish_reason="length")

    monkeypatch.setattr("frameport.llm.make_backend", lambda cfg: Spill())
    assert transpile_skeleton("x", tmpl, BackendConfig()) == "body"

    class NoStop:
        def complete(self, prompt, stop, cfg):
            from frameport.llm import Completion

            return Completion(text="ran out of", finish_reason="length")

    monkeypatch.setattr("frameport.llm.make_backend", lambda cfg: NoStop())
    with pytest.raises(StopMarkerMissing):
        transpile_skeleton("x", tmpl, BackendConfig())
