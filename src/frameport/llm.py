"""Few-shot skeleton transpilation against a pluggable completion backend.

The prompt is a template file whose ``{{SOURCE}}``/``{{TARGET}}`` slots
carry framework labels and whose final ``{{SKELETON}}`` slot receives
the skeleton to translate. The ``mock-rules`` backend translates the
fixed skeletal patterns (imports, class headers, forward/call
signatures) with a deterministic line-rule table so the whole pipeline
runs offline.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from frameport.errors import (
    BackendUnavailable,
    ConfigError,
    StopMarkerMissing,
    loading,
)
from frameport.skeleton import CodeSkeleton, PLACEHOLDER_RE

log = logging.getLogger(__name__)

FRAMEWORK_LABELS = {"pytorch": "PyTorch", "keras": "Keras", "mxnet": "MXNet"}

_SOURCE_HEADER = "# {{SOURCE}}"
_TARGET_HEADER = "# {{TARGET}}"


@dataclass(frozen=True)
class PromptTemplate:
    """Instruction, demonstrations, and the skeleton slot, parsed from text."""

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
    def instruction(self) -> str:
        for line in self.raw.splitlines():
            if line.strip():
                return line
        return ""

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
    """Parse (input, output) blocks delimited by the slot header lines."""
    lines = raw.split("\n")
    blocks: list[tuple[str, str]] = []
    current_in: list[str] | None = None
    current_out: list[str] | None = None

    def flush() -> None:
        nonlocal current_in, current_out
        if current_in is not None:
            src = "\n".join(current_in).strip("\n")
            tgt = "\n".join(current_out or []).strip("\n")
            blocks.append((src, tgt))
        current_in = None
        current_out = None

    for line in lines:
        if line == _SOURCE_HEADER:
            flush()
            current_in = []
        elif line == _TARGET_HEADER and current_in is not None:
            current_out = []
        elif current_out is not None:
            current_out.append(line)
        elif current_in is not None:
            current_in.append(line)
    flush()
    return blocks


def load_template(
    path: str | Path, src_framework: str, tgt_framework: str
) -> PromptTemplate:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read template {path}: {exc}") from None
    raw = raw.replace("\r\n", "\n")
    return PromptTemplate(
        raw=raw,
        source_label=FRAMEWORK_LABELS.get(src_framework, src_framework),
        target_label=FRAMEWORK_LABELS.get(tgt_framework, tgt_framework),
    )


def render_prompt(skel: CodeSkeleton | str, tmpl: PromptTemplate) -> str:
    text = skel.text if isinstance(skel, CodeSkeleton) else skel
    prompt = tmpl.raw.replace("{{SOURCE}}", tmpl.source_label)
    prompt = prompt.replace("{{TARGET}}", tmpl.target_label)
    prompt = prompt.replace("{{SKELETON}}", text.strip("\n"))
    if not prompt.endswith("\n"):
        prompt += "\n"
    return prompt


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
        if self.kind not in ("mock-rules", "http-completion", "http-chat"):
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if self.kind != "mock-rules" and not self.endpoint:
            raise ConfigError(f"backend kind {self.kind!r} needs an endpoint")

    @classmethod
    def from_dict(cls, doc: Mapping) -> "BackendConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown backend config keys {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def load(cls, path: str | Path) -> "BackendConfig":
        with loading("backend config", path):
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True)
class Completion:
    text: str
    finish_reason: str


# -- mock rule table -------------------------------------------------------


@dataclass(frozen=True)
class _Profile:
    label: str
    import_lines: tuple[str, ...]
    placeholder_import: str  # with one %s slot for the alias token
    class_bases: tuple[str, ...]
    method_name: str


_PROFILES = {
    "PyTorch": _Profile(
        label="PyTorch",
        import_lines=("import torch.nn as nn", "from torch import nn"),
        placeholder_import="import torch.nn as %s",
        class_bases=("nn.Module",),
        method_name="forward",
    ),
    "Keras": _Profile(
        label="Keras",
        import_lines=(
            "from tensorflow.keras import layers",
            "import tensorflow.keras.layers as layers",
        ),
        placeholder_import="from tensorflow.keras import %s",
        class_bases=("layers.Layer", "keras.Model"),
        method_name="call",
    ),
    "MXNet": _Profile(
        label="MXNet",
        import_lines=("from mxnet.gluon import nn", "import mxnet.gluon.nn as nn"),
        placeholder_import="import mxnet.gluon.nn as %s",
        class_bases=("nn.Block", "nn.HybridBlock"),
        method_name="forward",
    ),
}


def _build_rules(src: _Profile, tgt: _Profile) -> list[tuple[re.Pattern, object]]:
    rules: list[tuple[re.Pattern, object]] = []
    placeholder_pat = re.escape(src.placeholder_import) % r"(PLACEHOLDER_[0-9]+)"

    def keep_alias(match: re.Match) -> str:
        return tgt.placeholder_import % match.group(1)

    rules.append((re.compile(f"^{placeholder_pat}$"), keep_alias))
    for line in src.import_lines:
        rules.append((re.compile(f"^{re.escape(line)}$"), tgt.import_lines[0]))
    for base in src.class_bases:
        rules.append(
            (
                re.compile(rf"^class (\w+)\({re.escape(base)}\):$"),
                rf"class \1({tgt.class_bases[0]}):",
            )
        )
    if src.method_name != tgt.method_name:
        rules.append(
            (
                re.compile(rf"^def {src.method_name}\("),
                f"def {tgt.method_name}(",
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
        src = _PROFILES.get(src_label)
        tgt = _PROFILES.get(tgt_label)
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
    def _translate(skeleton: str, src: _Profile, tgt: _Profile) -> str:
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


def transpile_skeleton(
    skel: CodeSkeleton | str, tmpl: PromptTemplate, cfg: BackendConfig
) -> str:
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
