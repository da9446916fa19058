"""Gold-standard formula collections: typed records, JSON round-tripping,
and consistency checks.

A collection is a JSON array of objects with required ``id`` (positive,
unique integer), ``tex``, and ``mathml`` fields, optional ``title``, ``uri``,
and ``check`` fields, and arbitrary further fields that are preserved
verbatim through a load/save round trip.  Loading validates the embedded
MathML strictly; :func:`validate_entry` runs softer consistency diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from . import core
from .errors import InvalidGoldMathML, MmlError, SchemaError

_KNOWN_FIELDS = {"id", "tex", "mathml", "title", "uri", "check"}


@dataclass(frozen=True)
class GoldEntry:
    """One gold-standard formula; ``extra`` carries unknown input fields."""

    id: int
    tex: str
    mathml: str
    title: Optional[str] = None
    uri: Optional[str] = None
    check: Mapping[str, str] = field(default_factory=dict)
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "check", dict(self.check))
        object.__setattr__(self, "extra", dict(self.extra))


@dataclass(frozen=True)
class Finding:
    """One consistency diagnostic for a gold entry."""

    kind: str
    detail: str


def _entry_from_object(obj: Any, position: int) -> GoldEntry:
    if not isinstance(obj, dict):
        raise SchemaError(f"entry at position {position} is not an object")
    entry_id = obj.get("id")
    if not isinstance(entry_id, int) or isinstance(entry_id, bool) or entry_id <= 0:
        raise SchemaError(f"entry at position {position}: id must be a positive integer")
    tex = obj.get("tex")
    if not isinstance(tex, str) or not tex:
        raise SchemaError(f"entry {entry_id}: tex must be a non-empty string")
    mathml = obj.get("mathml")
    if not isinstance(mathml, str) or not mathml:
        raise SchemaError(f"entry {entry_id}: mathml must be a non-empty string")
    title = obj.get("title")
    if title is not None and not isinstance(title, str):
        raise SchemaError(f"entry {entry_id}: title must be a string")
    uri = obj.get("uri")
    if uri is not None and not isinstance(uri, str):
        raise SchemaError(f"entry {entry_id}: uri must be a string")
    check = obj.get("check", {})
    if not isinstance(check, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in check.items()
    ):
        raise SchemaError(f"entry {entry_id}: check must map strings to strings")
    extra = {k: v for k, v in obj.items() if k not in _KNOWN_FIELDS}
    return GoldEntry(entry_id, tex, mathml, title, uri, check, extra)


def _require_parallel_markup(entry: GoldEntry) -> None:
    try:
        doc, _ = core.parse(entry.mathml, "strict")
    except MmlError as exc:
        raise InvalidGoldMathML(entry.id, f"strict parse failed: {exc}") from None
    if not doc.presentation_nodes:
        raise InvalidGoldMathML(entry.id, "missing presentation branch")
    if not doc.content_nodes:
        raise InvalidGoldMathML(entry.id, "missing content branch")


def load_gold(text: str) -> list[GoldEntry]:
    """Parse and validate a gold collection from JSON text.

    Raises :class:`SchemaError` on shape violations (naming the offending
    entry) and :class:`InvalidGoldMathML` when an entry's MathML does not
    strict-parse into full parallel markup.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a huge int, too deep a nesting
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise SchemaError("gold collection must be a JSON array")
    return _checked(data)


def _checked(objects: list) -> list[GoldEntry]:
    """The entries of a collection's objects, each checked as it is loaded."""
    entries = []
    seen: set[int] = set()
    for position, obj in enumerate(objects):
        entry = _entry_from_object(obj, position)
        if entry.id in seen:
            raise SchemaError(f"duplicate entry id {entry.id}")
        seen.add(entry.id)
        _require_parallel_markup(entry)
        entries.append(entry)
    return entries


def save_gold(entries: list[GoldEntry]) -> str:
    """Serialize entries as deterministic JSON: entries ordered by id, object
    keys sorted, 2-space indentation.  Entries are checked as :func:`load_gold`
    checks them, so ``load_gold(save_gold(e))`` gives back equal entries."""
    objects = []
    for entry in entries:
        if not isinstance(entry, GoldEntry):
            raise SchemaError(f"not a gold entry: {entry!r}")
        overlap = set(entry.extra) & _KNOWN_FIELDS
        if overlap:
            raise SchemaError(f"entry {entry.id}: extra fields shadow {sorted(overlap)}")
        for name, value in entry.extra.items():
            # NaN and the infinities, which JSON proper cannot hold, reload as strings
            try:
                unequal = json.loads(json.dumps(value), parse_constant=str) != value
            except (TypeError, ValueError, RecursionError):  # the writer below refuses it
                continue
            if unequal:
                raise SchemaError(f"entry {entry.id}: extra field {name!r} would not reload equal")
        obj: dict[str, Any] = {"id": entry.id, "tex": entry.tex, "mathml": entry.mathml}
        if entry.title is not None:
            obj["title"] = entry.title
        if entry.uri is not None:
            obj["uri"] = entry.uri
        if entry.check:
            obj["check"] = dict(entry.check)
        obj.update(entry.extra)
        objects.append(obj)
    _checked(objects)
    try:
        return json.dumps(sorted(objects, key=lambda obj: obj["id"]), sort_keys=True,
                          indent=2, ensure_ascii=False) + "\n"
    except (TypeError, ValueError, RecursionError) as exc:  # a value JSON cannot hold
        raise SchemaError(f"gold collection is not writable as JSON: {exc}") from None


def validate_entry(entry: GoldEntry) -> list[Finding]:
    """Consistency diagnostics for one entry; an empty list means clean.

    Checks: the MathML parses (leniently), both branches are present, no
    cross-reference dangles, and a TeX annotation exists and matches the
    entry's ``tex`` field.
    """
    try:
        doc, report = core.parse(entry.mathml, "lenient")
    except MmlError as exc:
        return [Finding("unparseable", str(exc))]
    findings = []
    if not doc.presentation_nodes:
        findings.append(Finding("missing-presentation", "no presentation branch"))
    if not doc.content_nodes:
        findings.append(Finding("missing-content", "no content branch"))
    for handle, target in report.dangling_xrefs:
        findings.append(
            Finding(
                "dangling-xref",
                f"{doc.node(handle).name} node refers to unknown id {target!r}",
            )
        )
    tex = core.get_tex(doc)
    if tex is None:
        findings.append(Finding("missing-tex-annotation", "no application/x-tex annotation"))
    elif tex != entry.tex:
        findings.append(
            Finding("tex-mismatch", f"tex field {entry.tex!r} != annotation {tex!r}")
        )
    return findings
