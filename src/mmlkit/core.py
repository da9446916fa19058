"""Parse, represent, serialize, split, and clean parallel-markup MathML.

The document model is deliberately small: a MathML formula is a tree of
:class:`MathNode` elements (local names only, ordered attributes, normalized
text) wrapped in a :class:`MathDoc` that indexes branches, annotations, and
id/xref cross-references.  Everything is immutable; operations that "modify"
a document return a new one, so documents can be shared freely across threads.

Parsing is fault tolerant on demand: lenient mode first repairs the raw text
(namespace injection, named-entity replacement, namespace-prefix dropping) in
one forward scan and records every repair.  The scan skips comments, CDATA,
processing instructions and declarations, and judges a prefix in the scope of
the ``xmlns:`` declarations on the element and its open ancestors, as strict
mode does.  Errors from the XML parser give line, column and position in the
original input, also after a repair rewrote it.

The XML parser's handlers build each element's :class:`MathNode` exactly
once, when the element closes, through :func:`_node`, which skips the public
constructor's checks; MathML namespace declarations are dropped and the
strict-mode namespace checks run in that same pass.  Elements may nest at
most :data:`MAX_DEPTH` levels deep (the math element is level 1); deeper input
raises :class:`MalformedInput`.  The bound limits input only: ``==``,
``hash``, serialization, ``clean`` and ``canonicalize`` are iterative.

:class:`MathDoc` enumerates the tree once, in preorder, and keeps each node's
parent and subtree size: a node's subtree, and each branch, is one contiguous
slice of ``doc.nodes``.  A node object may occur at several places in a
hand-built tree; each occurrence has its own handle, and
:meth:`MathDoc.handle` returns the first of them in preorder.  ``clean`` and
``canonicalize`` copy only the nodes on a path from a change to the root, so
their results share unchanged subtrees, node objects, with their input.
"""

from __future__ import annotations

import re
import xml.parsers.expat
from collections.abc import Mapping
from dataclasses import dataclass
from html import unescape
from html.entities import html5 as _HTML5_ENTITIES
from operator import is_
from typing import Iterable, Iterator, Optional

from .errors import DuplicateId, MalformedInput, MissingBranch, WouldBeEmpty

MATHML_NS = "http://www.w3.org/1998/Math/MathML"
TEX_ENCODING = "application/x-tex"
CONTENT_ENCODING = "MathML-Content"

#: Deepest element nesting ``parse`` accepts, counting the math element.
MAX_DEPTH = 128

#: Repair kinds recorded by the lenient pipeline, in pipeline order.
REPAIR_NAMESPACE_INSERTED = "namespace-inserted"
REPAIR_ENTITY_REPLACED = "entity-replaced"
REPAIR_ATTRIBUTE_NAMESPACE_DROPPED = "attribute-namespace-dropped"
_REPAIR_KINDS = (
    REPAIR_NAMESPACE_INSERTED, REPAIR_ENTITY_REPLACED, REPAIR_ATTRIBUTE_NAMESPACE_DROPPED)

#: XML's predefined entities; these are left for the XML parser itself.
_PREDEFINED_ENTITIES = {"amp", "lt", "gt", "quot", "apos"}

#: Content-markup element names, used to classify bare (semantics-less)
#: documents into a presentation or content branch.
CONTENT_ELEMENTS = frozenset("""
    abs and annotation-xml apply approx arccos arccosh arccot arccoth arccsc
    arccsch arcsec arcsech arcsin arcsinh arctan arctanh arg bind bvar card
    cartesianproduct cbytes ceiling cerror ci cn codomain complexes compose
    condition conjugate cos cosh cot coth cs csc csch csymbol curl declare
    degree determinant diff divergence divide domain domainofapplication
    emptyset eq equivalent eulergamma exists exp exponentiale factorial
    factorof false floor forall gcd geq grad gt ident image imaginary
    imaginaryi implies in infinity int integers intersect interval inverse
    lambda laplacian lcm leq limit list ln log logbase lowlimit lt matrix
    matrixrow max mean median min minus mode moment momentabout naturalnumbers
    neq not notanumber notin notprsubset notsubset or otherwise outerproduct
    partialdiff pi piece piecewise plus power primes product prsubset
    quotient rationals real reals rem root scalarproduct sdev sec sech
    selector semantics sep set setdiff share sin sinh subset sum tan tanh
    tendsto times transpose true union uplimit variance vector vectorproduct
    xor
""".split())

#: A name character for the repair scan: any XML name character, no other ASCII.
_NAME_CHAR = r"[-.:0-9A-Z_a-z\x80-\U0010ffff]"
_ENTITY_RE = re.compile(rf"&({_NAME_CHAR}+);")
_ATTR_RE = re.compile(
    rf"(?P<key>{_NAME_CHAR}+)\s*=\s*(?P<quote>[\"'])(?P<value>.*?)(?P=quote)", re.S
)
#: One markup construct, or a named entity reference outside markup.
#: Comments, CDATA sections, processing instructions and declarations match
#: whole (to the end of the input when unterminated); only a declaration
#: has a group, its body.  A start tag runs to the first ``>`` outside quotes,
#: a declaration to the first outside quotes and its internal subset.
_TOKEN_RE = re.compile(
    r"&(?P<entity>[A-Za-z][A-Za-z0-9]*);"
    r"|<(?:!--.*?(?:-->|\Z)|!\[CDATA\[.*?(?:\]\]>|\Z)|\?(?:>|.*?(?:\?>|\Z))"
    r"|!(?P<declaration>(?:[^>\[\"']+|\"[^\"]*\"?|'[^']*'?|\[(?:<!--.*?(?:-->|\Z)"
    r"|[^\]\"'<]+|<|\"[^\"]*\"?|'[^']*'?)*\]?)*)>?)"
    rf"|</(?P<end>{_NAME_CHAR}*)[^>]*>?"
    rf"|<(?P<start>{_NAME_CHAR}*)(?:[^>\"']+|\"[^\"]*\"?|'[^']*'?)*>?",
    re.S,
)
_ENTITY_DECLARATION_RE = re.compile(r"<!ENTITY\s+([A-Za-z][A-Za-z0-9]*)\s")
_LINE_BREAK_RE = re.compile(r"\r\n?|\n")  # as expat counts lines
_UNDEFINED_ENTITY = xml.parsers.expat.errors.codes[
    xml.parsers.expat.errors.XML_ERROR_UNDEFINED_ENTITY]


# ---------------------------------------------------------------------------
# document model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False)
class MathNode:
    """One XML element: local name, ordered attributes, text, children.

    Mixed content is normalized at construction time upstream: ``text`` holds
    the concatenation of the element's character-data segments with
    surrounding whitespace trimmed, or ``None`` when nothing remains.
    Equality and hashing are structural and iterative.
    """

    name: str
    attributes: tuple[tuple[str, str], ...] = ()
    text: Optional[str] = None
    children: tuple["MathNode", ...] = ()

    def __post_init__(self):
        attrs = self.attributes
        if isinstance(attrs, Mapping):
            attrs = tuple(attrs.items())
        else:
            attrs = tuple((k, v) for k, v in attrs)
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "children", tuple(self.children))
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError(f"invalid element name {self.name!r}")
        keys = [k for k, _ in attrs]
        if len(keys) != len(set(keys)):
            raise ValueError(f"duplicate attribute key on element {self.name!r}")
        for k, _ in attrs:
            if not k or any(c.isspace() for c in k):
                raise ValueError(f"invalid attribute key {k!r}")

    def attr(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """Value of the attribute ``key``, or ``default`` when absent."""
        for k, value in self.attributes:
            if k == key:
                return value
        return default

    def has_attr(self, key: str) -> bool:
        return any(k == key for k, _ in self.attributes)

    def __eq__(self, other):
        # preorder sequences of (name, attributes, text, child count) fix a tree
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or all(
            a.name == b.name and a.attributes == b.attributes and a.text == b.text
            and len(a.children) == len(b.children)
            for a, b in zip(iter_subtree(self), iter_subtree(other))
        )

    def __hash__(self):
        return hash(tuple(
            (n.name, n.attributes, n.text, len(n.children)) for n in iter_subtree(self)
        ))

    def __repr__(self):
        bits = [self.name]
        if self.text is not None:
            bits.append(f"text={self.text!r}")
        if self.children:
            bits.append(f"children={len(self.children)}")
        return f"<MathNode {' '.join(bits)}>"


_set_field = object.__setattr__  # frozen dataclass fields are set through object


def _node(name: str, attributes: tuple[tuple[str, str], ...], text: Optional[str],
          children: tuple[MathNode, ...]) -> MathNode:
    """A :class:`MathNode` from parts already known to be valid: an element
    expat accepted, or a rebuild of existing nodes.  ``attributes`` and
    ``children`` must be tuples; none of the constructor's checks run."""
    node = object.__new__(MathNode)
    _set_field(node, "name", name)
    _set_field(node, "attributes", attributes)
    _set_field(node, "text", text)
    _set_field(node, "children", children)
    return node


#: Ranks of the children of a semantics element, in canonical order.
_PRESENTATION, _CONTENT_XML, _OTHER_XML, _ANNOTATION = range(4)


def _semantics_rank(node: MathNode) -> int:
    """The rank of ``node`` as a child of semantics."""
    if node.name != "annotation-xml":
        return _ANNOTATION if node.name == "annotation" else _PRESENTATION
    return _CONTENT_XML if node.attr("encoding") == CONTENT_ENCODING else _OTHER_XML


def _same(a, b) -> bool:
    """Whether two sequences hold the same objects, in the same order."""
    return len(a) == len(b) and all(map(is_, a, b))


def _rebuild(doc: MathDoc, make) -> Optional[MathNode]:
    """Rebuild ``doc``'s tree bottom up, without recursion.

    ``make(node, children)`` returns the replacement of ``node`` given the
    replacements of its children (those that are not ``None``), or ``None``
    to drop it; the result is the root's replacement.  When every child's
    replacement is that child itself, ``children`` is ``node.children``, and
    ``make`` should then return ``node`` itself unless it changes the node:
    the result shares every unchanged subtree with ``doc``, and only the
    nodes on a path from a change to the root are new."""
    built: list[Optional[MathNode]] = []  # replacements of later subtrees, nearest last
    for node in reversed(doc.nodes):
        children = node.children
        if children:
            cut = len(built) - len(children)
            rebuilt = built[cut:]
            del built[cut:]
            rebuilt.reverse()
            if not all(map(is_, rebuilt, children)):  # a node is never false; None is
                children = tuple(filter(None, rebuilt))
        built.append(make(node, children))
    return built[0]


def _preorder(root: MathNode) -> tuple[tuple, tuple, tuple]:
    """Preorder nodes, parent handles and subtree sizes of ``root``'s tree,
    from one iterative walk; handle ``h``'s subtree is ``nodes[h:h + sizes[h]]``."""
    nodes: list[MathNode] = []
    parents: list[Optional[int]] = []
    stack: list[tuple[MathNode, Optional[int]]] = [(root, None)]
    while stack:
        node, parent = stack.pop()
        handle = len(nodes)
        nodes.append(node)
        parents.append(parent)
        stack.extend((child, handle) for child in reversed(node.children))
    sizes = [1] * len(nodes)
    for handle in range(len(nodes) - 1, 0, -1):
        sizes[parents[handle]] += sizes[handle]
    return tuple(nodes), tuple(parents), tuple(sizes)


def iter_subtree(node: MathNode) -> Iterator[MathNode]:
    """All nodes of ``node``'s subtree in document (preorder) order."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(current.children))


@dataclass(frozen=True)
class Repair:
    """One leniency rule application: what fired and where (byte offset)."""

    kind: str
    location: int


@dataclass(frozen=True)
class ParseReport:
    """Outcome metadata for one parse: applied repairs and dangling xrefs.

    ``repairs`` is empty exactly when the input needed no rewriting, i.e.
    it would also have parsed in strict mode.
    """

    repairs: tuple[Repair, ...] = ()
    dangling_xrefs: tuple[tuple[int, str], ...] = ()


class MathDoc:
    """A parsed formula: the math element plus derived indexes.

    Node handles are stable indices into the document's preorder enumeration
    (the math element itself is handle 0).  Instances are immutable; every
    mutating operation in this module returns a new document.
    """

    def __init__(self, root: MathNode):
        if root.name != "math":
            raise MalformedInput("document root must be a math element")
        self._nodes, self._parents, self._sizes = _preorder(root)
        ids: dict[str, int] = {}
        for handle, node in enumerate(self._nodes):
            id_value = node.attr("id")
            if id_value is not None and ids.setdefault(id_value, handle) != handle:
                raise DuplicateId(id_value)

        xref_map: dict[str, int] = {}
        dangling: list[tuple[int, str]] = []
        for handle, node in enumerate(self._nodes):
            target = node.attr("xref")
            if target is None:
                continue
            if target in ids:
                own = node.attr("id")
                if own is not None:
                    xref_map[own] = ids[target]
                    # reverse direction, unless the partner points elsewhere
                    xref_map.setdefault(target, handle)
            else:
                dangling.append((handle, target))
        self._xref_map = xref_map
        self._dangling = tuple(dangling)
        self._presentation, self._content = self._detect_branches()

    def _detect_branches(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Handles of the top-level presentation and content nodes."""
        nodes, top = self._nodes, self.children_of(0)
        semantics = next((h for h in top if nodes[h].name == "semantics"), None)
        if semantics is None:
            if top and nodes[top[0]].name in CONTENT_ELEMENTS:
                return (), top
            return top, ()
        ranked = [(_semantics_rank(nodes[h]), h) for h in self.children_of(semantics)]
        pres = next(((h,) for rank, h in ranked if rank == _PRESENTATION), ())
        content = next((self.children_of(h) for rank, h in ranked if rank == _CONTENT_XML), ())
        return pres, content

    # -- structure accessors ------------------------------------------------

    @property
    def root(self) -> MathNode:
        return self._nodes[0]

    @property
    def nodes(self) -> tuple[MathNode, ...]:
        """All nodes in preorder; index == handle."""
        return self._nodes

    def node(self, handle: int) -> MathNode:
        return self._nodes[handle]

    def handle(self, node: MathNode) -> int:
        """Handle of a node object belonging to this document, found by
        scanning ``nodes``: a node object that occurs at several places (a
        shared subtree) gets the handle of its first occurrence in preorder.
        One node object may also belong to several documents, such as a
        document and the result of ``clean`` or ``canonicalize``; the handle
        is this document's."""
        for handle, candidate in enumerate(self._nodes):
            if candidate is node:
                return handle
        raise ValueError("node does not belong to this document")

    def parent(self, handle: int) -> Optional[int]:
        return self._parents[handle]

    def children_of(self, handle: Optional[int]) -> tuple[int, ...]:
        """Child handles; ``None`` addresses the virtual document node."""
        if handle is None:
            return (0,)
        children, child, end = [], handle + 1, handle + self._sizes[handle]
        while child < end:  # each child's subtree follows its elder sibling's
            children.append(child)
            child += self._sizes[child]
        return tuple(children)

    def descendants_of(self, handle: Optional[int]) -> range:
        """Proper-descendant handles (preorder is contiguous per subtree)."""
        if handle is None:
            return range(0, len(self._nodes))
        return range(handle + 1, handle + self._sizes[handle])

    # -- branch / annotation accessors ---------------------------------------

    @property
    def presentation_nodes(self) -> tuple[MathNode, ...]:
        """Top-level nodes of the presentation branch (may be empty)."""
        return tuple(self._nodes[h] for h in self._presentation)

    @property
    def content_nodes(self) -> tuple[MathNode, ...]:
        """Top-level nodes of the content branch (may be empty)."""
        return tuple(self._nodes[h] for h in self._content)

    @property
    def presentation_root(self) -> Optional[int]:
        return self._presentation[0] if self._presentation else None

    @property
    def content_root(self) -> Optional[int]:
        return self._content[0] if self._content else None

    def branch(self, name: Optional[str]) -> range:
        """Handles of every node in the ``"presentation"`` or ``"content"``
        branch, or in the whole document for ``None``.  A branch's top-level
        nodes are consecutive siblings, so its nodes are one preorder slice:
        ``doc.nodes[r.start:r.stop]`` for the returned range ``r``."""
        if name is None:
            return range(len(self._nodes))
        top = {"presentation": self._presentation, "content": self._content}.get(name)
        if top is None:
            raise ValueError(f"unknown branch {name!r}")
        if not top:
            raise MissingBranch(f"document has no {name} branch")
        return range(top[0], top[-1] + self._sizes[top[-1]])

    @property
    def annotations(self) -> tuple[tuple[str, str], ...]:
        """(encoding, payload) for every annotation element, document order."""
        return tuple((node.attr("encoding", ""), node.text or "")
                     for node in self._nodes if node.name == "annotation")

    # -- cross references ------------------------------------------------------

    @property
    def xref_map(self) -> dict[str, int]:
        """id value -> handle of its cross-reference partner (both directions)."""
        return dict(self._xref_map)

    @property
    def dangling_xrefs(self) -> tuple[tuple[int, str], ...]:
        """(handle, target id) for xref attributes that resolve to nothing."""
        return self._dangling

    def xref_pairs(self) -> set[tuple[str, str]]:
        """Unordered id pairs linked by cross-references, as sorted tuples."""
        pairs = set()
        for id_value, partner in self._xref_map.items():
            partner_id = self._nodes[partner].attr("id")
            if partner_id is not None:
                pairs.add(tuple(sorted((id_value, partner_id))))
        return pairs

    def __eq__(self, other):
        if not isinstance(other, MathDoc):
            return NotImplemented
        return self._nodes[0] == other._nodes[0]

    def __repr__(self):
        return f"<MathDoc nodes={len(self._nodes)}>"


# ---------------------------------------------------------------------------
# lenient repair pipeline (runs on the raw text, before XML parsing)
# ---------------------------------------------------------------------------

def _char_refs(name: str, declared: set[str]) -> Optional[str]:
    """Character references for a named entity the document does not
    declare (XML's predefined entities count as declared), else None."""
    expansion = None if name in declared else _HTML5_ENTITIES.get(name + ";")
    return expansion and "".join(f"&#{ord(c)};" for c in expansion)


def _mathml_bound(prefix: str, scope: dict[str, bool]) -> bool:
    """Whether ``prefix`` names MathML in ``scope``; undeclared ones are
    taken as an elided MathML binding."""
    return prefix != "xml" and prefix != "xmlns" and scope.get(prefix, True)


def _is_mathml(value: str) -> bool:
    """Whether a raw attribute value names MathML once the XML parser has
    resolved its character and entity references."""
    return unescape(value) == MATHML_NS


def _repair(text: str) -> tuple[str, list[Repair], list[tuple[int, int, int]]]:
    """Apply the three leniency rules in one forward scan over ``text``.

    Returns the rewritten text, the repairs (rule 1, rule 2, then rule 3,
    each located by byte offset into ``text``) and the offset map for
    :func:`_original_index`: ``(start, end, replacement length)`` per edit.
    A prefix is judged in the scope of the element's own and its open
    ancestors' ``xmlns:`` declarations, as in strict mode; an end tag in the
    scope of the element it closes.  Entities that a DOCTYPE's internal
    subset declares are left for the XML parser, as in strict mode.
    """
    out: list[str] = []  # chunks of the repaired text
    marks: list[tuple[int, int, int]] = []
    found: tuple[list[Repair], ...] = ([], [], [])  # per rule
    copied = 0  # text[:copied] is accounted for in out
    located = located_bytes = 0  # the UTF-8 length of text[:located]
    # per open element: its raw name, and prefix -> bound to MathML
    stack: list[tuple[str, dict[str, bool]]] = []
    declared = set(_PREDEFINED_ENTITIES)
    need_math = True

    def edit(start: int, end: int, replacement: str, rule: int, at: Optional[int]) -> None:
        # edits arrive in order of start, and none begins before the last ends
        nonlocal copied, located, located_bytes
        if at is not None:  # never before an earlier repair's location
            # a lone surrogate has no UTF-8 form; expat rejects the input later
            located_bytes += len(text[located:at].encode("utf-8", "surrogatepass"))
            located = at
            found[rule].append(Repair(_REPAIR_KINDS[rule], located_bytes))
        out.append(text[copied:start])
        if text.endswith(replacement, start, end):  # a dropped prefix
            marks.append((start, end - len(replacement), 0))
        else:
            marks.append((start, end, len(replacement)))
        out.append(replacement)
        copied = end

    for token in _TOKEN_RE.finditer(text):
        kind = token.lastgroup
        if kind is None:  # comment, CDATA section, processing instruction
            continue
        if kind == "declaration":
            declared.update(_ENTITY_DECLARATION_RE.findall(token.group(kind)))
            continue
        start, end = token.span()
        if kind == "entity":  # rule 2 in character data
            refs = _char_refs(token.group(kind), declared)
            if refs is not None:
                edit(start, end, refs, 1, start)
            continue

        name = token.group(kind)
        name_pos = token.start(kind)
        name_end = name_pos + len(name)
        opens = kind == "start"
        edits: list[tuple[int, int, str, int, Optional[int]]] = []  # edit() arguments
        attrs = []
        if opens:
            scope = stack[-1][1] if stack else {}
            own: dict[str, bool] = {}  # the element's xmlns: declarations
            is_math = need_math and (name == "math" or name.endswith(":math"))
            # only the math element's declarations and prefixed keys matter
            if is_math or text.find(":", name_end, end) >= 0:
                attrs = list(_ATTR_RE.finditer(text, name_end, end))
                for attr in attrs:
                    if attr["key"].startswith("xmlns:"):
                        prefix = attr["key"][6:]
                        own[prefix] = own.get(prefix, False) or _is_mathml(attr["value"])
                if own:
                    scope = {**scope, **own}
            if not text.endswith("/>", start, end):
                stack.append((name, scope))
            # rule 1: inject the MathML namespace when the math element
            # declares no default namespace and binds no prefix to MathML
            if is_math:
                need_math = False
                if all(attr["key"] != "xmlns" for attr in attrs) and True not in own.values():
                    edits.append((name_end, name_end, f' xmlns="{MATHML_NS}"', 0, start))
        else:
            opened, scope = stack.pop() if stack else (None, {})

        # rule 3: drop namespace prefixes bound (or assumed bound) to MathML;
        # an end tag's repair counts only when it differs from its start tag
        prefix, colon, local = name.partition(":")
        if colon and _mathml_bound(prefix, scope):
            at = start if opens or name != opened else None
            edits.append((name_pos, name_end, local, 2, at))
        for attr in attrs:
            key, key_pos = attr["key"], attr.start()
            if key.startswith("xmlns:"):
                if _is_mathml(attr["value"]):
                    # take the whitespace before the declaration along only
                    # where whitespace, "/", ">" or the end of input (an
                    # empty slice) follows
                    cut = key_pos
                    if text[attr.end():attr.end() + 1] in " \t\r\n/>":
                        while cut > 0 and text[cut - 1] in " \t\r\n":
                            cut -= 1
                    edits.append((cut, attr.end(), "", 2, key_pos))
                continue
            prefix, colon, local = key.partition(":")
            if colon and _mathml_bound(prefix, scope):
                edits.append((key_pos, key_pos + len(key), local, 2, key_pos))

        if text.find("&", start, end) >= 0:  # rule 2 inside the tag
            for entity in _ENTITY_RE.finditer(text, start, end):
                refs = _char_refs(entity.group(1), declared)
                if refs is not None:
                    edits.append((entity.start(), entity.end(), refs, 1, entity.start()))
        if len(edits) > 1:  # in order of start; at one start, in reverse rule order
            edits.sort(key=lambda e: (e[0], -e[3]))
        for args in edits:
            if args[0] >= copied:  # an entity in a dropped declaration goes with it
                edit(*args)

    out.append(text[copied:])
    return "".join(out), sum(found, []), marks


def _original_index(marks: list[tuple[int, int, int]], index: int) -> int:
    """The index in the original text of ``index`` in the repaired text: a
    position inside a replacement maps to the start of what it replaced."""
    shift = 0  # length change made by the edits before ``index``
    for start, end, size in marks:
        if index < start + shift:
            break
        if index < start + shift + size:
            return start
        shift += size - (end - start)
    return index - shift


# ---------------------------------------------------------------------------
# XML parsing
# ---------------------------------------------------------------------------

class _Builder:
    """Expat handlers that build each element's :class:`MathNode` once, when
    it closes.  MathML namespace declarations are dropped on the way (the
    namespace is implicit in the model).  With ``check_prefixes`` the first
    namespace violation in preorder (a math element that declares no default
    namespace only if ``strict``) is recorded in ``violation`` rather than
    raised, so that a later well-formedness error still takes precedence."""

    def __init__(self, strict: bool, check_prefixes: bool):
        self._strict = strict
        self._check_prefixes = check_prefixes
        self._stack: list[list] = []  # [name, attributes, text parts, children, prefix scope]
        self.root: Optional[MathNode] = None
        self.violation: Optional[str] = None

    def start(self, name, attrs):
        if len(self._stack) >= MAX_DEPTH:
            raise MalformedInput(f"elements nested deeper than {MAX_DEPTH} levels")
        pairs = [
            (key, value) for key, value in zip(attrs[0::2], attrs[1::2])
            if value != MATHML_NS or not (key == "xmlns" or key.startswith("xmlns:"))
        ]
        scope = self._stack[-1][4] if self._stack else {}
        if self._check_prefixes and self.violation is None:
            scope = self._check_strict(name, attrs, scope)
        self._stack.append([name, pairs, [], [], scope])

    def _check_strict(self, name, attrs, env: dict) -> dict:
        """Record the element's first strict-mode violation; return the
        prefix scope its children see."""
        keys = attrs[0::2]
        if self._strict and not self._stack and "xmlns" not in keys:
            self.violation = "math element lacks a namespace declaration (strict mode)"
            return env
        scope = env
        for key, value in zip(keys, attrs[1::2]):
            if key.startswith("xmlns:"):
                prefix = key[6:]
                if value == MATHML_NS:
                    self.violation = (
                        f"prefix {prefix!r} bound to the MathML namespace (strict mode)"
                    )
                    return scope
                if scope is env:
                    scope = dict(env)
                scope[prefix] = value
        prefixes = [name.split(":", 1)[0]] if ":" in name and not name.startswith("xml:") else []
        prefixes += [
            key.split(":", 1)[0] for key in keys
            if ":" in key and not key.startswith(("xmlns:", "xml:"))
        ]
        for prefix in prefixes:
            if prefix not in scope:
                self.violation = f"undeclared namespace prefix {prefix!r} (strict mode)"
                break
        return scope

    def end(self, _name):
        name, pairs, text_parts, children, _ = self._stack.pop()
        text = "".join(text_parts).strip(" \t\r\n")
        node = _node(name, tuple(pairs), text or None, tuple(children))
        if self._stack:
            self._stack[-1][3].append(node)
        else:
            self.root = node

    def chars(self, data):
        if self._stack:
            self._stack[-1][2].append(data)


def parse(text: str, mode: str = "lenient") -> tuple[MathDoc, ParseReport]:
    """Parse UTF-8 MathML text into a (MathDoc, ParseReport) pair.

    ``mode`` is ``"strict"`` or ``"lenient"``.  Lenient mode first runs the
    repair pipeline: (1) inject the MathML namespace if the math element
    declares none, (2) replace HTML5/MathML named entities with their code
    points, (3) drop namespace prefixes on MathML-namespace elements and
    attributes.  Strict mode rejects any input those rules would rewrite.
    Where the text declares an entity, whose expansion the repair scan cannot
    see, or names an element with the reserved ``xmlns`` prefix, which the
    scan keeps, lenient mode checks namespace prefixes as strict mode does.
    Both modes reject an undeclared entity that the XML parser would skip
    because the DOCTYPE names an external subset, which it does not read,
    and report an undefined entity in an attribute value at the entity.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown parse mode {mode!r}")
    if not text or text.isspace():
        raise MalformedInput("empty input")

    repairs: list[Repair] = []
    work, marks = text, []
    if mode == "lenient":
        work, repairs, marks = _repair(text)

    parser = xml.parsers.expat.ParserCreate()  # namespace processing off
    parser.ordered_attributes = True
    parser.buffer_text = True
    # the scan neither sees what a declared entity expands to nor drops an
    # element name's xmlns: prefix, so those texts get strict mode's checks
    builder = _Builder(mode == "strict",
                       mode == "strict" or "<!ENTITY" in text or "<xmlns:" in work)
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.chars
    declared = set(_PREDEFINED_ENTITIES)  # general entities

    def entity(name, is_parameter_entity, *_) -> None:
        if not is_parameter_entity:
            declared.add(name)

    parser.EntityDeclHandler = entity

    def where(at: int) -> str:  # ``at`` indexes the parsed text
        lines = _LINE_BREAK_RE.split(text[:_original_index(marks, at)])
        return f"line {len(lines)}, column {len(lines[-1])}"

    def index(byte_index: int) -> int:  # of expat's byte offset into the parsed text
        return len(work.encode("utf-8")[:byte_index].decode("utf-8"))

    def position(byte_index: int, line: int, column: int) -> str:
        if marks:  # expat's position in the repaired text, taken back to the input
            return where(index(byte_index))
        return f"line {line}, column {column}"

    def undefined(tag: re.Match) -> Optional[re.Match]:
        """The first entity reference in a start tag that is neither
        predefined nor declared."""
        return next((ref for ref in _ENTITY_RE.finditer(work, *tag.span())
                     if ref[1] not in declared), None)

    def skipped(name: str, _is_parameter_entity: bool) -> None:
        # expat skips, rather than rejects, an undeclared entity when the
        # DOCTYPE names an external subset, which it does not read
        raise MalformedInput(f"undefined entity &{name};: " + position(
            parser.CurrentByteIndex, parser.CurrentLineNumber, parser.CurrentColumnNumber))

    parser.SkippedEntityHandler = skipped
    try:
        parser.Parse(work, True)
    except xml.parsers.expat.ExpatError as exc:
        at = position(parser.ErrorByteIndex, exc.lineno, exc.offset)
        if exc.code == _UNDEFINED_ENTITY:  # in a value, expat gives the tag's place
            tag = _TOKEN_RE.match(work, index(parser.ErrorByteIndex))
            ref = tag is not None and tag.lastgroup == "start" and undefined(tag)
            if ref:
                at = where(ref.start())
        raise MalformedInput(
            f"not well-formed XML: {xml.parsers.expat.ErrorString(exc.code)}: {at}") from None
    except UnicodeEncodeError as exc:  # a lone surrogate
        at = _original_index(marks, exc.start)
        exc = UnicodeEncodeError(exc.encoding, text, at, at + exc.end - exc.start, exc.reason)
        raise MalformedInput(f"unparseable input: {exc}") from None
    finally:
        parser.SkippedEntityHandler = None  # it refers back to the parser
    if "<!DOCTYPE" in work:  # only then may expat drop an undeclared entity from a value
        for token in _TOKEN_RE.finditer(work):
            ref = token.lastgroup == "start" and undefined(token)
            if ref:
                raise MalformedInput(f"undefined entity &{ref[1]};: " + where(ref.start()))
    root = builder.root
    if root is None:
        raise MalformedInput("input contains no element")
    if root.name != "math":
        raise MalformedInput(
            f"input does not contain a math root element (found {root.name!r})"
        )
    if builder.violation is not None:
        raise MalformedInput(builder.violation)
    if root.has_attr("xmlns"):  # MathML declarations were dropped while building
        raise MalformedInput(f"math element declares a foreign namespace {root.attr('xmlns')!r}")
    doc = MathDoc(root)
    report = ParseReport(repairs=tuple(repairs), dangling_xrefs=doc.dangling_xrefs)
    return doc, report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

#: The references serialization writes: an XML parser would read a raw carriage
#: return as a line feed, and a raw tab or line break in a value as a space.
_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
            "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}
_TEXT_SPECIALS = re.compile("[&<>\r]")
_ATTR_SPECIALS = re.compile('[&<>"\t\n\r]')


def _escape(value: str, specials: re.Pattern = _TEXT_SPECIALS) -> str:
    if specials.search(value) is None:  # most values need none; a search beats a sub
        return value
    return specials.sub(lambda match: _ESCAPES[match[0]], value)


def _emit(nodes: tuple[MathNode, ...], sizes: tuple[int, ...], pretty: bool,
          extra_attrs: tuple[tuple[str, str], ...] = ()) -> str:
    """XML for a tree given by preorder nodes and subtree sizes (as from
    :func:`_preorder`); ``extra_attrs`` go first on the root."""
    out: list[str] = []
    stack: list[tuple[int, str]] = []  # (end of subtree, end tag) per open ancestor
    extra = extra_attrs
    for handle, node in enumerate(nodes):
        name, text = node.name, node.text
        indent = "  " * len(stack) if pretty else ""
        attrs = "".join(
            f' {key}="{_escape(value, _ATTR_SPECIALS)}"' for key, value in extra + node.attributes
        ) if extra or node.attributes else ""
        extra = ()
        if sizes[handle] > 1:
            out.append(f"{indent}<{name}{attrs}>")
            if text is not None:
                out.append(("  " * (len(stack) + 1) if pretty else "") + _escape(text))
            stack.append((handle + sizes[handle], f"{indent}</{name}>"))
            continue
        if text is None:
            out.append(f"{indent}<{name}{attrs}/>")
        else:
            out.append(f"{indent}<{name}{attrs}>{_escape(text)}</{name}>")
        while stack and stack[-1][0] == handle + 1:
            out.append(stack.pop()[1])
    return "\n".join(out) if pretty else "".join(out)


def serialize_node(node: MathNode, pretty: bool = False) -> str:
    """Serialize a node subtree as an XML fragment (no namespace injected)."""
    nodes, _, sizes = _preorder(node)
    return _emit(nodes, sizes, pretty)


def serialize(doc: MathDoc, pretty: bool = False) -> str:
    """Serialize a document as well-formed XML with the MathML namespace
    declared on the math element.  Byte-deterministic for a given input;
    ``parse(serialize(doc), "strict")`` reproduces an equal tree."""
    return _emit(doc.nodes, doc._sizes, pretty, extra_attrs=(("xmlns", MATHML_NS),))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def split_presentation(doc: MathDoc) -> MathDoc:
    """A standalone document holding only the presentation branch.

    Cross-reference attributes are kept verbatim; references into the
    discarded branch show up in the result's dangling list.
    """
    if not doc.presentation_nodes:
        raise MissingBranch("document has no presentation branch")
    return MathDoc(MathNode("math", doc.root.attributes, None, doc.presentation_nodes))


def split_content(doc: MathDoc) -> MathDoc:
    """A standalone document holding only the content branch."""
    if not doc.content_nodes:
        raise MissingBranch("document has no content branch")
    return MathDoc(MathNode("math", doc.root.attributes, None, doc.content_nodes))


def get_tex(doc: MathDoc) -> Optional[str]:
    """Payload of the first application/x-tex annotation, if any."""
    for encoding, payload in doc.annotations:
        if encoding == TEX_ENCODING:
            return payload
    return None


def extract_identifiers(
    doc: MathDoc, branch: str = "both"
) -> list[tuple[str, str, int]]:
    """Identifier elements (mi/ci) in document order as (name, text, handle).

    ``branch`` selects the presentation or content branch; ``"both"`` walks
    the entire document, so the result covers every identifier anywhere.
    """
    handles = doc.branch(None if branch == "both" else branch)
    return [
        (node.name, node.text or "", handle)
        for handle, node in enumerate(doc.nodes[handles.start:handles.stop], handles.start)
        if node.name in ("mi", "ci")
    ]


CLEANABLE_FEATURES = frozenset(
    {"cross_references", "content_branch", "presentation_branch", "annotations"}
)


def clean(doc: MathDoc, features: Iterable[str]) -> MathDoc:
    """Remove the named features and return the resulting document.

    ``cross_references`` deletes every id and xref attribute;
    ``content_branch`` deletes MathML-Content annotation-xml elements;
    ``presentation_branch`` deletes the presentation child of semantics;
    ``annotations`` deletes annotation elements.  When a single branch and no
    annotations remain under semantics, the wrapper is unwrapped.  The result
    shares every unchanged subtree with ``doc``, and is ``doc`` itself when
    nothing changes.
    """
    feature_set = frozenset(features)
    if not feature_set:
        raise ValueError("features must be non-empty")
    unknown = feature_set - CLEANABLE_FEATURES
    if unknown:
        raise ValueError(f"unknown clean features: {sorted(unknown)}")

    drop_content = "content_branch" in feature_set
    drop_presentation = "presentation_branch" in feature_set
    drop_annotations = "annotations" in feature_set
    drop_xrefs = "cross_references" in feature_set
    root = doc.root

    def unwrap_semantics(node: MathNode) -> list[MathNode]:
        kept = [
            child for child in node.children
            if not (drop_presentation and _semantics_rank(child) == _PRESENTATION)
        ]
        if len(kept) == 1 and _semantics_rank(kept[0]) == _PRESENTATION:
            return [kept[0]]  # lone presentation branch: unwrap semantics
        if len(kept) == 1 and _semantics_rank(kept[0]) == _CONTENT_XML:
            return list(kept[0].children)  # lone content branch: unwrap both wrappers
        if len(kept) == len(node.children):
            return [node]
        return [_node(node.name, node.attributes, node.text, tuple(kept))] if kept else []

    def rebuild(node: MathNode, children: tuple[MathNode, ...]) -> Optional[MathNode]:
        rank = _semantics_rank(node)
        if (drop_annotations and rank == _ANNOTATION) or (drop_content and rank == _CONTENT_XML):
            return None
        attributes = node.attributes
        if drop_xrefs:
            kept = tuple((k, v) for k, v in attributes if k not in ("id", "xref"))
            if len(kept) < len(attributes):
                attributes = kept
        if node is root:
            top: list[MathNode] = []
            for child in children:
                top.extend(unwrap_semantics(child) if child.name == "semantics" else (child,))
            if not _same(top, children):
                children = tuple(top)
        if attributes is node.attributes and children is node.children:
            return node
        return _node(node.name, attributes, node.text, children)

    rebuilt = _rebuild(doc, rebuild)
    result = doc if rebuilt is root else MathDoc(rebuilt)
    if not result.presentation_nodes and not result.content_nodes:
        raise WouldBeEmpty("cleaning would leave no math content")
    return result


def resolve_xref(doc: MathDoc, id_value: str) -> Optional[int]:
    """Handle of the cross-reference partner of the node with the given id,
    following links in both directions; ``None`` for unknown or dangling ids."""
    return doc._xref_map.get(id_value)
