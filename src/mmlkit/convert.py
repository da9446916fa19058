"""Adapters for external TeX-to-MathML converters and canonicalizers.

A converter is any external program describable as a command template plus an
input mode: the TeX source is either substituted for a ``{input}`` placeholder
in the argument list or piped to standard input, and the tool is expected to
print MathML on standard output.  Results are parsed leniently, so converters
that omit the namespace or emit prefixed markup still round into documents.

The module keeps a process-wide default registry (guarded by a lock); library
users who need isolation can pass their own :class:`ConverterRegistry`.
"""

from __future__ import annotations

import json
import shlex
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from operator import le
from typing import Optional

from . import core
from .core import MathDoc, MathNode, ParseReport
from .errors import (
    DuplicateName,
    MmlError,
    OutputNotMathML,
    SchemaError,
    ToolFailed,
    ToolTimeout,
    ToolUnavailable,
    UnknownConverter,
)

INPUT_MODES = ("argument", "standard-input")


@dataclass(frozen=True)
class ConverterSpec:
    """How to run one external converter."""

    name: str
    command: str
    input_mode: str = "argument"
    timeout: float = 30.0
    expects: str = "mathml-on-stdout"

    def __post_init__(self):
        if not self.name or not self.name.strip():
            raise ValueError("converter name must be non-empty")
        if self.input_mode not in INPUT_MODES:
            raise ValueError(f"unknown input mode {self.input_mode!r}")
        if not isinstance(self.timeout, (int, float)) or self.timeout <= 0:
            raise ValueError("timeout must be positive")
        object.__setattr__(self, "timeout", float(self.timeout))
        if self.expects != "mathml-on-stdout":
            raise ValueError(f"unsupported output contract {self.expects!r}")
        placeholders = self.command.count("{input}")
        if self.input_mode == "argument" and placeholders != 1:
            raise ValueError("argument-mode commands need exactly one {input} placeholder")
        if self.input_mode == "standard-input" and placeholders != 0:
            raise ValueError("standard-input commands must not contain {input}")


@dataclass(frozen=True)
class ConversionResult:
    """Outcome of one successful conversion."""

    mathml: MathDoc
    raw: str
    report: ParseReport
    tool: str
    elapsed: float


class ConverterRegistry:
    """An ordered, thread-safe name-to-spec mapping."""

    def __init__(self):
        self._lock = threading.Lock()
        self._specs: dict[str, ConverterSpec] = {}

    def register(self, spec: ConverterSpec) -> None:
        with self._lock:
            if spec.name in self._specs:
                raise DuplicateName(f"converter {spec.name!r} is already registered")
            self._specs[spec.name] = spec

    def get(self, name: str) -> ConverterSpec:
        with self._lock:
            try:
                return self._specs[name]
            except KeyError:
                raise UnknownConverter(f"no converter named {name!r}") from None

    def list_converters(self) -> list[str]:
        """Registered names in registration order."""
        with self._lock:
            return list(self._specs)

    def __contains__(self, name):
        with self._lock:
            return name in self._specs


_default_registry = ConverterRegistry()


def register(spec: ConverterSpec, registry: Optional[ConverterRegistry] = None) -> None:
    (registry or _default_registry).register(spec)


def list_converters(registry: Optional[ConverterRegistry] = None) -> list[str]:
    return (registry or _default_registry).list_converters()


def convert(
    name: str, tex: str, registry: Optional[ConverterRegistry] = None
) -> ConversionResult:
    """Run the named converter on TeX source and parse its output leniently."""
    spec = (registry or _default_registry).get(name)
    argv = shlex.split(spec.command)
    if spec.input_mode == "argument":
        argv = [arg.replace("{input}", tex) for arg in argv]
        stdin_text = None
    else:
        stdin_text = tex
    start = time.monotonic()
    try:
        proc = subprocess.run(
            argv,
            input=stdin_text,
            capture_output=True,
            text=True,
            timeout=spec.timeout,
        )
    except FileNotFoundError:
        raise ToolUnavailable(f"converter {spec.name!r}: command {argv[0]!r} not found") from None
    except subprocess.TimeoutExpired:
        raise ToolTimeout(
            f"converter {spec.name!r} exceeded its {spec.timeout:g}s timeout"
        ) from None
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise ToolFailed(spec.name, proc.returncode, (proc.stderr or "")[:500])
    try:
        doc, report = core.parse(proc.stdout, "lenient")
    except MmlError as exc:
        raise OutputNotMathML(spec.name, proc.stdout, str(exc)) from None
    return ConversionResult(doc, proc.stdout, report, spec.name, elapsed)


def load_converters(
    text: str, registry: Optional[ConverterRegistry] = None
) -> ConverterRegistry:
    """Register converters described by a JSON array of objects with fields
    ``name``, ``command``, optional ``input_mode`` and ``timeout_ms``."""
    target = registry or _default_registry
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"converter spec is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise SchemaError("converter spec must be a JSON array")
    for position, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise SchemaError(f"converter at position {position} is not an object")
        name = obj.get("name")
        command = obj.get("command")
        if not isinstance(name, str) or not isinstance(command, str):
            raise SchemaError(
                f"converter at position {position}: name and command must be strings"
            )
        kwargs = {}
        if "input_mode" in obj:
            kwargs["input_mode"] = obj["input_mode"]
        if "timeout_ms" in obj:
            timeout_ms = obj["timeout_ms"]
            if not isinstance(timeout_ms, (int, float)) or timeout_ms <= 0:
                raise SchemaError(f"converter {name!r}: timeout_ms must be positive")
            kwargs["timeout"] = timeout_ms / 1000.0
        try:
            spec = ConverterSpec(name, command, **kwargs)
        except ValueError as exc:
            raise SchemaError(f"converter {name!r}: {exc}") from None
        target.register(spec)
    return target


# ---------------------------------------------------------------------------
# built-in deterministic stub converters (for tests and offline use)
# ---------------------------------------------------------------------------

def _stub_command(mode: str, *args: str) -> str:
    parts = [shlex.quote(sys.executable), "-m", "mmlkit.stubs", mode, *args]
    return " ".join(parts)


def stub_registry() -> ConverterRegistry:
    """A registry of hermetic stub converters backed by this interpreter.

    ``identity`` echoes its standard input; ``echo-frac`` prints a fixed
    namespace-less parallel-markup fraction regardless of input; ``fail``
    exits non-zero; ``slow`` sleeps past its (short) timeout; ``garbage``
    prints something that is not MathML.
    """
    registry = ConverterRegistry()
    registry.register(
        ConverterSpec("identity", _stub_command("identity"), input_mode="standard-input")
    )
    registry.register(ConverterSpec("echo-frac", _stub_command("echo-frac", "{input}")))
    registry.register(ConverterSpec("fail", _stub_command("fail", "{input}")))
    registry.register(
        ConverterSpec(
            "slow",
            _stub_command("slow", "5.0"),
            input_mode="standard-input",
            timeout=0.05,
        )
    )
    registry.register(
        ConverterSpec("garbage", _stub_command("garbage"), input_mode="standard-input")
    )
    return registry


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

def canonicalize(
    doc: MathDoc,
    adapter: Optional[str] = None,
    registry: Optional[ConverterRegistry] = None,
) -> MathDoc:
    """Normalize a document into a canonical equal-content form.

    The built-in canonicalizer sorts attributes by key and orders the
    children of semantics as presentation, content annotation-xml, other
    annotation-xml, then annotations; it is idempotent and preserves the
    element multiset.  The result shares every subtree that is already
    canonical with ``doc``, and a canonical ``doc`` comes back as itself.
    When ``adapter`` names a registered converter-style tool, the serialized
    document is piped through that tool instead.
    """
    if adapter is not None:
        return convert(adapter, core.serialize(doc), registry).mathml

    def rebuild(node: MathNode, children: tuple[MathNode, ...]) -> MathNode:
        attributes = node.attributes
        if len(attributes) > 1 and not all(map(le, attributes, attributes[1:])):
            attributes = tuple(sorted(attributes))
        if node.name == "semantics":
            ranked = sorted(children, key=core._semantics_rank)
            if not core._same(ranked, children):
                children = tuple(ranked)
        if attributes is node.attributes and children is node.children:
            return node
        return core._node(node.name, attributes, node.text, children)

    root = core._rebuild(doc, rebuild)
    return doc if root is doc.root else MathDoc(root)
