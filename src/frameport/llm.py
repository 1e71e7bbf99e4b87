"""Few-shot skeleton transpilation against a pluggable completion backend.

The prompt is a template file whose ``{{SOURCE}}``/``{{TARGET}}`` slots
carry framework labels and whose final ``{{SKELETON}}`` slot receives
the skeleton to translate. The ``mock-rules`` backend translates the
fixed skeletal patterns (imports, class headers, forward/call
signatures) with a deterministic line-rule table so the whole pipeline
runs offline. It leaves placeholders where they are: ``to_skeleton`` puts
them only at keyword sites of the canonical tree (callables and keyword
arguments), never in an import. A real backend may still move one into an
import, whose names reinsertion renames before its import scan.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from frameport.canon import DEFAULT_BASE_CLASSES
from frameport.errors import (
    BackendUnavailable,
    ConfigError,
    StopMarkerMissing,
    reading,
)
from frameport.skeleton import PLACEHOLDER_RE

FRAMEWORK_LABELS = {"pytorch": "PyTorch", "keras": "Keras", "mxnet": "MXNet"}

_SOURCE_LINE = re.compile(r"^# \{\{SOURCE\}\}$", re.MULTILINE)
_TARGET_LINE = re.compile(r"^# \{\{TARGET\}\}$", re.MULTILINE)


@dataclass(frozen=True)
class PromptTemplate:
    """Demonstrations and the skeleton slot, parsed from text."""

    raw: str
    source_label: str
    target_label: str

    def __post_init__(self) -> None:
        demos = self.demonstrations
        if len(demos) < 4:
            raise ConfigError(
                f"template has {len(demos)} demonstrations, needs at least 4"
            )
        preserving = 0
        for demo_in, demo_out in demos:
            counts_in = sorted(PLACEHOLDER_RE.findall(demo_in))
            counts_out = sorted(PLACEHOLDER_RE.findall(demo_out))
            if counts_in and counts_in == counts_out:
                preserving += 1
        if preserving < 3:
            raise ConfigError(
                "template needs at least 3 placeholder-preserving demonstrations"
            )
        if "{{SKELETON}}" not in self.raw:
            raise ConfigError("template is missing the {{SKELETON}} slot")

    @property
    def demonstrations(self) -> tuple[tuple[str, str], ...]:
        blocks = _split_blocks(self.raw)
        return tuple(
            (src, tgt) for src, tgt in blocks if "{{SKELETON}}" not in src
        )

    @property
    def stop_marker(self) -> str:
        return f"\n# {self.source_label}"


def _split_blocks(raw: str) -> list[tuple[str, str]]:
    """(input, output) per block. A source header line opens a block, its
    input ends at its first target header line and its output is what
    follows its last one; text before the first block is not in any."""
    blocks = []
    for block in _SOURCE_LINE.split(raw)[1:]:
        src, *outputs = _TARGET_LINE.split(block)
        blocks.append((src.strip("\n"), outputs[-1].strip("\n") if outputs else ""))
    return blocks


def load_template(
    path: str | Path, src_framework: str, tgt_framework: str
) -> PromptTemplate:
    with reading("template", path) as raw:
        return PromptTemplate(
            raw=raw.replace("\r\n", "\n"),
            source_label=FRAMEWORK_LABELS.get(src_framework, src_framework),
            target_label=FRAMEWORK_LABELS.get(tgt_framework, tgt_framework),
        )


def render_prompt(skel: str, tmpl: PromptTemplate) -> str:
    prompt = tmpl.raw.replace("{{SOURCE}}", tmpl.source_label)
    prompt = prompt.replace("{{TARGET}}", tmpl.target_label)
    prompt = prompt.replace("{{SKELETON}}", skel.strip("\n"))
    if not prompt.endswith("\n"):
        prompt += "\n"
    return prompt


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class BackendConfig:
    """Completion backend selection and decoding parameters."""

    kind: str = "mock-rules"
    endpoint: str = ""
    auth_env: str = ""
    model: str = ""
    max_tokens: int = 768
    temperature: float = 0.0
    retries: int = 3
    backoff: float = 0.5
    timeout: float = 30.0
    # sent to HTTP backends when set; the mock ignores it
    seed: int | None = None

    def __post_init__(self) -> None:
        def need(name: str, ok: bool, what: str) -> None:
            if not ok:
                raise ConfigError(f"backend {name} must be {what}, not {getattr(self, name)!r}")

        if self.kind not in ("mock-rules", "http-completion", "http-chat"):
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        for name in ("endpoint", "auth_env", "model"):
            need(name, isinstance(getattr(self, name), str), "a string")
        if self.kind != "mock-rules" and not self.endpoint:
            raise ConfigError(f"backend kind {self.kind!r} needs an endpoint")
        for name, low in (("retries", 0), ("max_tokens", 1)):
            value = getattr(self, name)
            need(name, _is_int(value) and value >= low, f"an int >= {low}")
        for name, positive in (("backoff", False), ("temperature", False), ("timeout", True)):
            value = getattr(self, name)
            finite = _is_int(value) or isinstance(value, float) and math.isfinite(value)
            in_range = finite and (value > 0 if positive else value >= 0)
            need(name, in_range, f"a finite number {'>' if positive else '>='} 0")
        need("seed", self.seed is None or _is_int(self.seed), "an int or null")

    @classmethod
    def from_dict(cls, doc: Mapping) -> "BackendConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown backend config keys {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def load(cls, path: str | Path) -> "BackendConfig":
        with reading("backend config", path) as text:
            return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class Completion:
    text: str
    finish_reason: str


# -- mock rule table -------------------------------------------------------


@dataclass(frozen=True)
class _Profile:
    import_lines: tuple[str, ...]
    method_name: str


# keyed by framework; the class-header rules come from DEFAULT_BASE_CLASSES
_PROFILES = {
    "pytorch": _Profile(
        import_lines=("import torch.nn as nn", "from torch import nn"),
        method_name="forward",
    ),
    "keras": _Profile(
        import_lines=(
            "from tensorflow.keras import layers",
            "import tensorflow.keras.layers as layers",
        ),
        method_name="call",
    ),
    "mxnet": _Profile(
        import_lines=("from mxnet.gluon import nn", "import mxnet.gluon.nn as nn"),
        method_name="forward",
    ),
}
_LABEL_FRAMEWORKS = {label: fw for fw, label in FRAMEWORK_LABELS.items()}


def _build_rules(src: str, tgt: str) -> list[tuple[re.Pattern, str]]:
    """Line rules from framework ``src`` to ``tgt``, first match wins."""
    src_profile, tgt_profile = _PROFILES[src], _PROFILES[tgt]
    rules: list[tuple[re.Pattern, str]] = []
    for line in src_profile.import_lines:
        rules.append((re.compile(f"^{re.escape(line)}$"), tgt_profile.import_lines[0]))
    for base in DEFAULT_BASE_CLASSES[src]:
        rules.append(
            (
                re.compile(rf"^class (\w+)\({re.escape(base)}\):$"),
                rf"class \1({DEFAULT_BASE_CLASSES[tgt][0]}):",
            )
        )
    if src_profile.method_name != tgt_profile.method_name:
        rules.append(
            (
                re.compile(rf"^def {src_profile.method_name}\("),
                f"def {tgt_profile.method_name}(",
            )
        )
    return rules


class MockRulesBackend:
    """Deterministic offline skeleton translator over line-level rules."""

    def complete(self, prompt: str, stop: str, cfg: BackendConfig) -> Completion:
        first = prompt.split("\n", 1)[0]
        match = re.fullmatch(r"# Translate from (\S+) to (\S+)", first.strip())
        if not match:
            raise ConfigError("mock backend needs a '# Translate from X to Y' header")
        src_label, tgt_label = match.group(1), match.group(2)
        src = _LABEL_FRAMEWORKS.get(src_label)
        tgt = _LABEL_FRAMEWORKS.get(tgt_label)
        if src is None or tgt is None:
            raise ConfigError(f"mock backend has no rules for {first!r}")
        src_header = f"# {src_label}\n"
        tgt_header = f"\n# {tgt_label}\n"
        start = prompt.rfind(src_header)
        end = prompt.rfind(tgt_header)
        if start < 0 or end <= start:
            raise ConfigError("prompt does not end with an input/output block")
        skeleton = prompt[start + len(src_header):end]
        translated = self._translate(skeleton, src, tgt)
        return Completion(
            text=translated.strip("\n") + f"\n\n# {src_label}\n", finish_reason="stop"
        )

    @staticmethod
    def _translate(skeleton: str, src: str, tgt: str) -> str:
        rules = _build_rules(src, tgt)
        out_lines = []
        for line in skeleton.split("\n"):
            stripped = line.lstrip()
            indent = line[: len(line) - len(stripped)]
            for pattern, replacement in rules:
                new, n = pattern.subn(replacement, stripped, count=1)
                if n:
                    stripped = new
                    break
            out_lines.append(indent + stripped)
        return "\n".join(out_lines)


class HttpBackend:
    """JSON-over-HTTP completion client with retry and backoff."""

    def __init__(self, chat: bool):
        self.chat = chat

    def _payload(self, prompt: str, stop: str, cfg: BackendConfig) -> dict:
        payload: dict = {
            "max_tokens": cfg.max_tokens,
            "temperature": cfg.temperature,
            "stop": [stop],
        }
        if cfg.model:
            payload["model"] = cfg.model
        if cfg.seed is not None:
            payload["seed"] = cfg.seed
        if self.chat:
            payload["messages"] = [{"role": "user", "content": prompt}]
        else:
            payload["prompt"] = prompt
        return payload

    def _parse(self, doc: Mapping) -> Completion:
        try:
            choice = doc["choices"][0]
            if self.chat:
                text = choice["message"]["content"]
            else:
                text = choice["text"]
            return Completion(text=text, finish_reason=choice.get("finish_reason", ""))
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendUnavailable(f"malformed backend response: {exc}") from None

    def complete(self, prompt: str, stop: str, cfg: BackendConfig) -> Completion:
        # imported here: the offline mock, and so every command by default,
        # never needs the HTTP stack or the logger
        import logging
        import urllib.error
        import urllib.request

        log = logging.getLogger(__name__)

        body = json.dumps(self._payload(prompt, stop, cfg)).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if cfg.auth_env:
            token = os.environ.get(cfg.auth_env, "")
            if not token:
                raise ConfigError(f"auth env var {cfg.auth_env} is not set")
            headers["Authorization"] = f"Bearer {token}"
        last_error: Exception | None = None
        for attempt in range(cfg.retries + 1):
            if attempt:
                time.sleep(cfg.backoff * 2 ** (attempt - 1))
            request = urllib.request.Request(cfg.endpoint, data=body, headers=headers)
            try:
                with urllib.request.urlopen(request, timeout=cfg.timeout) as response:
                    doc = json.loads(response.read().decode("utf-8"))
                return self._parse(doc)
            except (urllib.error.URLError, TimeoutError, json.JSONDecodeError) as exc:
                # a client error other than a timeout (408) or rate limit
                # (429) fails the same way on retry
                client_error = isinstance(exc, urllib.error.HTTPError) and 400 <= exc.code < 500
                if client_error and exc.code not in (408, 429):
                    raise BackendUnavailable(f"backend rejected the request: {exc}") from None
                last_error = exc
                log.warning("backend attempt %d failed: %s", attempt + 1, exc)
        raise BackendUnavailable(f"backend unreachable after retries: {last_error}")


def make_backend(cfg: BackendConfig):
    if cfg.kind == "mock-rules":
        return MockRulesBackend()
    return HttpBackend(chat=(cfg.kind == "http-chat"))


def transpile_skeleton(skel: str, tmpl: PromptTemplate, cfg: BackendConfig) -> str:
    """Return the backend's target-side skeleton text.

    The completion is truncated at the template's stop marker; callers
    must run ``validate_placeholders`` on the result.
    """
    backend = make_backend(cfg)
    prompt = render_prompt(skel, tmpl)
    result = backend.complete(prompt, tmpl.stop_marker, cfg)
    text = result.text
    cut = text.find(tmpl.stop_marker)
    if cut >= 0:
        text = text[:cut]
    elif result.finish_reason != "stop":
        raise StopMarkerMissing(
            f"completion ended with finish_reason={result.finish_reason!r} "
            "before the stop marker"
        )
    return text.strip("\n")
