"""A small XPath-like query language over MathML documents.

The grammar covers the child (``/``) and descendant (``//``) axes, element
name tests, the ``*`` wildcard, attribute-equality predicates
(``[@key='value']``), and unions (``|``).  Evaluation starts at a virtual
document node above the math element, so ``math`` selects the root and
``//*`` selects every node including the root.

A named catalog of common queries is exposed through :class:`PathLibrary`;
its branch-root entries are :class:`BranchRoots`, which :class:`MathDoc` answers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import Optional, Union

from .core import MathDoc
from .errors import PathSyntaxError, UnknownName

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9._\-]*")
_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9._\-:]*")
_PREDICATE_RE = re.compile(rf"\[@({_KEY_RE.pattern})='([^']*)'\]")


@dataclass(frozen=True)
class Step:
    """One location step: an axis, a name test, and attribute predicates.
    Only what the selector grammar can write is accepted, so that
    ``render`` gives text that parses back to the same step."""

    axis: str  # "child" or "descendant"
    test: str  # element name or "*"
    predicates: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.axis not in ("child", "descendant"):
            raise ValueError(f"unknown axis {self.axis!r}")
        if self.test != "*" and not _NAME_RE.fullmatch(self.test):
            raise ValueError(f"invalid name test {self.test!r}")
        object.__setattr__(self, "predicates", tuple(self.predicates))
        for key, value in self.predicates:
            if not _KEY_RE.fullmatch(key):
                raise ValueError(f"invalid predicate key {key!r}")
            if "'" in value:
                raise ValueError(f"predicate value {value!r} contains a quote")


@dataclass(frozen=True)
class PathExpr:
    """A parsed path: a non-empty chain of steps."""

    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValueError("a path needs at least one step")


@dataclass(frozen=True)
class PathUnion:
    """Alternatives joined by ``|``; matches the union of their results."""

    alternatives: tuple[PathExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        if not self.alternatives:
            raise ValueError("a union needs at least one alternative")


Query = Union[PathExpr, PathUnion]


@dataclass(frozen=True)
class BranchRoots:
    """The top-level nodes of a branch, as :meth:`MathDoc.branch_roots` gives them."""
    branch: str  # "presentation" or "content"


def _parse_step(text: str, pos: int, axis: str) -> tuple[int, Step]:
    if pos < len(text) and text[pos] == "*":
        test = "*"
        pos += 1
    else:
        m = _NAME_RE.match(text, pos)
        if not m:
            raise PathSyntaxError("expected an element name or '*'", pos)
        test = m.group()
        pos = m.end()
    predicates = []
    while pos < len(text) and text[pos] == "[":
        m = _PREDICATE_RE.match(text, pos)
        if not m:
            raise PathSyntaxError("malformed predicate (expected [@key='value'])", pos)
        predicates.append((m.group(1), m.group(2)))
        pos = m.end()
    return pos, Step(axis, test, tuple(predicates))


_SPACE_RE = re.compile(r"\s*")


def _parse_path(text: str, pos: int, stop: Optional[str]) -> tuple[int, PathExpr]:
    """Parse the path at ``text[pos:]``, which runs, whitespace around it
    aside, to the end of ``text`` or to ``stop``; returns the position of
    that end and the path.  Error positions index ``text``."""
    def ends(at: int) -> bool:  # only whitespace is left before the end or the stop
        end = _SPACE_RE.match(text, at).end()
        return end == len(text) or text[end] == stop

    pos = _SPACE_RE.match(text, pos).end()
    if ends(pos):
        raise PathSyntaxError("empty path expression", pos)
    if text.startswith("//", pos):
        axis, pos = "descendant", pos + 2
    elif text[pos] == "/":
        raise PathSyntaxError("paths are relative; a single leading '/' is not allowed", pos)
    else:
        axis = "child"
    steps = []
    while True:
        pos, step = _parse_step(text, pos, axis)
        steps.append(step)
        if ends(pos):
            return _SPACE_RE.match(text, pos).end(), PathExpr(tuple(steps))
        if text.startswith("//", pos):
            axis, pos = "descendant", pos + 2
        elif text[pos] == "/":
            axis, pos = "child", pos + 1
        else:
            raise PathSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if ends(pos):
            raise PathSyntaxError("path ends with a separator", pos)


def parse_path(text: str) -> PathExpr:
    """Parse a single path expression (no union) into a :class:`PathExpr`."""
    return _parse_path(text, 0, None)[1]


def parse_selector(text: str) -> Query:
    """Parse a selector that may contain ``|``-joined alternatives, in one
    pass: a ``|`` inside a predicate's quoted value is part of the value."""
    alternatives, pos = [], -1
    while pos < len(text):  # before the first alternative, or at a "|"
        pos, path = _parse_path(text, pos + 1, "|")
        alternatives.append(path)
    return path if len(alternatives) == 1 else PathUnion(tuple(alternatives))


def render(query: Query) -> str:
    """Textual form of a query; ``parse_selector(render(q)) == q``.  A
    :class:`BranchRoots` query has none: it is a ``TypeError``."""
    if isinstance(query, BranchRoots):
        raise TypeError(f"a branch query has no selector text: {query!r}")
    if isinstance(query, PathUnion):
        return " | ".join(render(alt) for alt in query.alternatives)
    parts = []
    for i, step in enumerate(query.steps):
        if step.axis == "descendant":
            parts.append("//")
        elif i > 0:
            parts.append("/")
        parts.append(step.test)
        for key, value in step.predicates:
            parts.append(f"[@{key}='{value}']")
    return "".join(parts)


def select(doc: MathDoc, query: Union[Query, BranchRoots]) -> list[int]:
    """Handles of all nodes matching the query, in document order.  Each step
    turns ascending handles into ascending handles: a descendant step skips a
    context whose interval lies in one already scanned, so it reads each handle
    at most once; a child step sorts, since nested contexts' children interleave.
    A step keeps the candidates its name test accepts, then, per predicate,
    those holding its (key, value) pair: a node's keys are unique."""
    if isinstance(query, BranchRoots):
        return list(doc.branch_roots(query.branch))
    if isinstance(query, PathUnion):
        return sorted({h for alt in query.alternatives for h in select(doc, alt)})
    names, attributes = doc._names, doc._attributes
    frontier: list[Optional[int]] = [None]  # virtual document node
    for step in query.steps:
        if step.axis == "child":
            candidates = sorted(h for c in frontier for h in doc.children_of(c))
        else:
            spans, end = [], 0
            for context in frontier:
                span = doc.descendants_of(context)
                if span.start >= end:  # not inside a scanned interval
                    spans.append(span)
                    end = span.stop
            candidates = chain.from_iterable(spans)
        test = step.test
        frontier = list(candidates) if test == "*" else [
            h for h in candidates if names[h] == test]
        for pair in step.predicates:
            frontier = [h for h in frontier if pair in attributes[h]]
    return frontier  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# named query catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LibraryEntry:
    name: str
    text: Optional[str]  # the selector text; None for a BranchRoots query
    description: str
    query: Union[Query, BranchRoots]


class PathLibrary:
    """An ordered, named collection of parsed queries."""

    def __init__(self, entries: list[LibraryEntry]):
        self._entries: dict[str, LibraryEntry] = {}
        for entry in entries:
            if entry.name in self._entries:
                raise ValueError(f"duplicate library entry {entry.name!r}")
            self._entries[entry.name] = entry

    def names(self) -> list[str]:
        return list(self._entries)

    def entry(self, name: str) -> LibraryEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownName(f"no library entry named {name!r}") from None

    def get(self, name: str) -> Union[Query, BranchRoots]:
        return self.entry(name).query

    def __len__(self):
        return len(self._entries)

    def __contains__(self, name):
        return name in self._entries

    @classmethod
    def from_tsv(cls, text: str) -> "PathLibrary":
        """Build a library from ``name<TAB>selector<TAB>description`` lines.
        Blank lines and lines starting with '#' are skipped."""
        entries = []
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"line {lineno}: expected 3 tab-separated fields")
            name, selector, description = (f.strip() for f in fields)
            entries.append(LibraryEntry(name, selector, description, parse_selector(selector)))
        return cls(entries)


_CATALOG = (
    ("all-identifiers", "//mi | //ci", "every identifier element in either markup branch"),
    ("all-presentation-identifiers", "//mi", "every presentation-markup identifier"),
    ("all-content-identifiers", "//ci", "every content-markup identifier"),
    ("all-operators", "//mo", "every presentation-markup operator"),
    ("all-numbers", "//mn | //cn", "every number literal in either markup branch"),
    ("tex-annotation", "//annotation[@encoding='application/x-tex']", "TeX annotation elements"),
    ("content-root", BranchRoots("content"), "top-level content markup nodes"),
    ("presentation-root", BranchRoots("presentation"), "top-level presentation markup nodes"),
)


@cache
def default_library() -> PathLibrary:
    """The catalog shipped with the package: the rows of ``_CATALOG``, built once."""
    return PathLibrary([LibraryEntry(name, q, d, parse_selector(q)) if isinstance(q, str)
                        else LibraryEntry(name, None, d, q) for name, q, d in _CATALOG])


def library_get(name: str) -> Union[Query, BranchRoots]:
    """Look up a query in the default catalog by name."""
    return default_library().get(name)
