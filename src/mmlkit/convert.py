"""Adapters for external TeX-to-MathML converters and canonicalizers.

A converter is any external program describable as a command template plus an
input mode: the TeX source is either substituted for a ``{input}`` placeholder
in the argument list or piped to standard input, and the tool is expected to
print MathML on standard output.  Tools exchange UTF-8 with mmlkit: a byte
that is not UTF-8 crosses as a lone surrogate (PEP 383), which the parser
refuses.  Results are parsed leniently, so converters that omit the namespace
or emit prefixed markup still round into documents.

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
from dataclasses import dataclass, replace
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


def _timeout(value, field: str, unit_ms: int) -> float:
    """``value`` units of ``unit_ms`` ms as a float if ``subprocess`` can wait
    that long, 2**31 - 1 ms (a C int), else a ValueError naming ``field``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))  # a bool is no number
            or not 0 < value <= sys.float_info.max):  # and NaN compares false
        raise ValueError(f"{field} must be finite and positive")
    if value > (2 ** 31 - 1) / unit_ms:
        raise ValueError(f"{field} must be at most {(2 ** 31 - 1) / unit_ms:.15g}")
    return float(value)


@dataclass(frozen=True)
class ConverterSpec:
    """How to run one external converter, checked once when it is made: a
    name or command that is not a string raises TypeError; an empty name,
    an unknown input mode, a bad timeout, a wrong ``{input}`` count or a
    command that does not split shell-style into a program raises ValueError."""

    name: str
    command: str
    input_mode: str = "argument"
    timeout: float = 30.0

    def __post_init__(self):
        if not isinstance(self.name, str) or not isinstance(self.command, str):
            raise TypeError("name and command must be strings")
        if not self.name.strip():
            raise ValueError("converter name must be non-empty")
        if self.input_mode not in INPUT_MODES:
            raise ValueError(f"unknown input mode {self.input_mode!r}")
        object.__setattr__(self, "timeout", _timeout(self.timeout, "timeout", 1000))
        argv = shlex.split(self.command)  # an unclosed quote raises ValueError
        if not argv or not argv[0]:
            raise ValueError("command names no program")
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
        self._register_all([spec])

    def _register_all(self, specs: list[ConverterSpec]) -> None:
        """Register every spec, or none when a name is taken or repeated."""
        with self._lock:
            new: dict[str, ConverterSpec] = {}
            for spec in specs:
                if spec.name in self._specs or spec.name in new:
                    raise DuplicateName(f"converter {spec.name!r} is already registered")
                new[spec.name] = spec
            self._specs.update(new)

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
    piped = spec.input_mode == "standard-input"
    if not piped:
        argv = [arg.replace("{input}", tex) for arg in argv]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, input=tex if piped else None, capture_output=True,
                              encoding="utf-8", errors="surrogateescape", timeout=spec.timeout)
    except (OSError, ValueError) as exc:  # not runnable, a NUL, input UTF-8 cannot hold
        reason = getattr(exc, "strerror", None) or exc
        raise ToolUnavailable(
            f"converter {spec.name!r}: cannot run {argv[0]!r}: {reason}") from None
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
    ``name``, ``command``, optional ``input_mode`` and ``timeout_ms``, each
    mapped onto a :class:`ConverterSpec`, which checks it.  Every spec, and
    its name, is checked before any is registered, so a refused file
    registers nothing."""
    target = registry or _default_registry
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a huge int, too deep a nesting
        raise SchemaError(f"converter spec is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise SchemaError("converter spec must be a JSON array")
    specs = []
    for position, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise SchemaError(f"converter at position {position} is not an object")
        kwargs = {"input_mode": obj["input_mode"]} if "input_mode" in obj else {}
        try:  # the spec's own checks first, so a name in a message is a string
            spec = ConverterSpec(obj.get("name"), obj.get("command"), **kwargs)
            if "timeout_ms" in obj:
                spec = replace(spec, timeout=_timeout(obj["timeout_ms"], "timeout_ms", 1) / 1000)
            specs.append(spec)
        except TypeError as exc:
            raise SchemaError(f"converter at position {position}: {exc}") from None
        except ValueError as exc:
            raise SchemaError(f"converter {obj['name']!r}: {exc}") from None
    target._register_all(specs)
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
    registry._register_all([
        ConverterSpec("identity", _stub_command("identity"), "standard-input"),
        ConverterSpec("echo-frac", _stub_command("echo-frac", "{input}")),
        ConverterSpec("fail", _stub_command("fail", "{input}")),
        ConverterSpec("slow", _stub_command("slow", "5.0"), "standard-input", timeout=0.05),
        ConverterSpec("garbage", _stub_command("garbage"), "standard-input"),
    ])
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
    element multiset.  One pass over the document's attribute and name
    columns finds the nodes out of either order, and builds no node:
    ``doc`` itself comes back when there are none, and else only they and
    their ancestors are new; the rest is shared with ``doc``.
    When ``adapter`` names a registered converter-style tool, the serialized
    document is piped through that tool instead.
    """
    if adapter is not None:
        return convert(adapter, core.serialize(doc), registry).mathml

    rank, names, attributes = core._semantics_rank, doc._names, doc._attributes
    unordered = {  # the nodes out of order, found with no Python call per node
        handle for handle, (name, pairs) in enumerate(zip(names, attributes))
        if len(pairs) > 1 and not all(map(le, pairs, pairs[1:]))
        or name == "semantics" and not all(map(le, ranks := [
            rank(names[h], attributes[h]) for h in doc.children_of(handle)], ranks[1:]))}
    if not unordered:
        return doc

    def rebuild(handle: int, node: MathNode, children: tuple[MathNode, ...]):
        if handle not in unordered:
            return node.attributes, children
        if node.name == "semantics":
            children = sorted(children, key=lambda child: rank(child.name, child.attributes))
        return sorted(node.attributes), children

    return core._rebuild(doc, rebuild)
