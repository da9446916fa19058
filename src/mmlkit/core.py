"""Parse, represent, serialize, split, and clean parallel-markup MathML.

The document model is deliberately small: a MathML formula is a tree of
:class:`MathNode` elements (local names only, ordered attributes, normalized
text) wrapped in a :class:`MathDoc` that indexes branches, annotations, and
id/xref cross-references.  Everything is immutable; operations that "modify"
a document return a new one, so documents can be shared freely across threads.

Parsing is fault tolerant on demand: lenient mode first repairs the raw text
(a missing MathML namespace, named-entity replacement, namespace-prefix
dropping) in one forward scan and records every repair.  The scan skips
comments, CDATA, processing instructions and declarations, and judges a prefix
by the ``xmlns:`` declarations in scope, as strict mode does: each pass keeps
one prefix table, restored as each element closes.  The scan reads the UTF-8
bytes that expat reads, so every offset counts bytes; errors give line and
column in the original input, also after a repair rewrote it.

The XML parser's handlers build no nodes: they fill the document's index,
five columns with one entry per element in preorder (name, attributes,
text, parent and subtree size); the MathML default namespace declaration
is dropped and the namespace checks of both modes run in that same pass.
Elements may nest at most :data:`MAX_DEPTH` levels deep (the math element
is level 1); deeper input raises :class:`MalformedInput`.  The bound limits
input only: ``==``, ``hash``, serialization, ``clean`` and ``canonicalize``
are iterative.

:class:`MathDoc` keeps those columns as its one index: a node's subtree,
and each branch, is one contiguous run of handles.  Names, attributes and
texts are read from the columns, so counting, selecting, serializing and
comparing build no node.  A parsed document builds its :class:`MathNode`
objects on first use, in one bottom-up pass through :func:`_node`, which
skips the public constructor's checks, and keeps them.  Any other tree,
hand-built or rebuilt, keeps its own nodes, listed by :func:`iter_subtree`,
and gets the same columns from them in one pass of :func:`_columns`.  A
node object may occur at several places in a hand-built tree; each
occurrence has its own handle, and :meth:`MathDoc.handle` returns the first
of them in preorder.  ``clean`` and ``canonicalize`` state only their
rules, and :func:`_rebuild` alone decides what they share with their input:
only the nodes on a path from a change to the root are new, and an
unchanged document comes back as itself.
"""

from __future__ import annotations

import re
import xml.parsers.expat
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from html import unescape
from html.entities import html5 as _HTML5_ENTITIES
from operator import attrgetter, is_
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
_PREDEFINED_ENTITIES = {b"amp", b"lt", b"gt", b"quot", b"apos"}

#: The namespaces Namespaces in XML reserves for the ``xml`` and ``xmlns`` prefixes;
#: no other prefix, and not the default namespace, may be bound to either.
_XML_NS = "http://www.w3.org/XML/1998/namespace"
_RESERVED_NAMESPACES = (_XML_NS, "http://www.w3.org/2000/xmlns/")
#: The reserved prefixes, each with the one URI a declaration may bind it to
#: (``xmlns`` may not be declared at all).
_RESERVED_PREFIXES = {"xml": _XML_NS, "xmlns": None}

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

#: A name byte for the repair scan: any byte of an XML name character, no other ASCII.
_NAME_CHAR = rb"[-.:0-9A-Z_a-z\x80-\xff]"
_ENTITY_RE = re.compile(rb"&(%s+);" % _NAME_CHAR)
_ATTR_RE = re.compile(
    rb"(?P<key>%s+)\s*=\s*(?P<quote>[\"'])(?P<value>.*?)(?P=quote)" % _NAME_CHAR, re.S
)
#: One markup construct, or a named entity reference outside markup.
#: Comments, CDATA sections, processing instructions and declarations match
#: whole (to the end of the input when unterminated); only a declaration
#: has a group, its body.  A start tag runs to the first ``>`` outside quotes,
#: a declaration to the first outside quotes and its internal subset.
_TOKEN_RE = re.compile(
    rb"&(?P<entity>[A-Za-z][A-Za-z0-9]*);"
    rb"|<(?:!--.*?(?:-->|\Z)|!\[CDATA\[.*?(?:\]\]>|\Z)|\?(?:>|.*?(?:\?>|\Z))"
    rb"|!(?P<declaration>(?:[^>\[\"']+|\"[^\"]*\"?|'[^']*'?|\[(?:<!--.*?(?:-->|\Z)"
    rb"|[^\]\"'<]+|<|\"[^\"]*\"?|'[^']*'?)*\]?)*)>?)"
    rb"|</(?P<end>%s*)[^>]*>?"
    rb"|<(?P<start>%s*)(?:[^>\"']+|\"[^\"]*\"?|'[^']*'?)*>?" % (_NAME_CHAR, _NAME_CHAR),
    re.S,
)
#: A general entity declaration, or a comment, processing instruction or
#: literal of a DOCTYPE, where ``<!ENTITY`` declares nothing (group 1 empty).
_ENTITY_DECLARATION_RE = re.compile(
    rb"<!--.*?(?:-->|\Z)|<\?.*?(?:\?>|\Z)|\"[^\"]*\"?|'[^']*'?"
    rb"|<!ENTITY\s+([A-Za-z][A-Za-z0-9]*)\s", re.S)
_SAFE_AMP_RE = re.compile(rb"&(?:#|(?:amp|lt|gt|quot|apos);)")  # no repair starts there
_LINE_BREAK_RE = re.compile(r"\r\n?|\n")  # as expat counts lines
_UNDEFINED_ENTITY = xml.parsers.expat.errors.codes[
    xml.parsers.expat.errors.XML_ERROR_UNDEFINED_ENTITY]


# ---------------------------------------------------------------------------
# document model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False)
class MathNode:
    """One XML element: local name, ordered attributes, text, children.

    ``text`` holds the concatenation of the element's character-data
    segments, stripped of the spaces, tabs, carriage returns and line feeds
    around it, or ``None`` when nothing remains.  The parser applies that
    rule, and so does the constructor to the text it is given, so a hand-built
    node serializes to text that parses back to an equal node.  A name,
    attribute key, attribute value or text that is not a string, or a child
    that is not a node, is a ``TypeError``.  Equality and hashing are
    structural and iterative.
    """

    name: str
    attributes: tuple[tuple[str, str], ...] = ()
    text: Optional[str] = None
    children: tuple["MathNode", ...] = ()

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise TypeError(f"name of element {self.name!r} must be a string")
        attrs = self.attributes
        if isinstance(attrs, Mapping):
            attrs = tuple(attrs.items())
        else:
            attrs = tuple((k, v) for k, v in attrs)
        if not all(isinstance(k, str) and isinstance(v, str) for k, v in attrs):
            raise TypeError(f"attribute keys and values of element {self.name!r} must be strings")
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "children", tuple(self.children))
        if not all(isinstance(child, MathNode) for child in self.children):
            raise TypeError(f"children of element {self.name!r} must be MathNode objects")
        if self.text is not None:
            if not isinstance(self.text, str):
                raise TypeError(f"text of element {self.name!r} must be a string")
            object.__setattr__(self, "text", self.text.strip(" \t\r\n") or None)
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
        return _attr(self.attributes, key, default)

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


_set_name, _set_attributes, _set_text, _set_children = (
    getattr(MathNode, field).__set__ for field in ("name", "attributes", "text", "children"))


def _attr(attributes: tuple[tuple[str, str], ...], key: str,
          default: Optional[str] = None) -> Optional[str]:
    """The value paired with ``key`` in ``attributes``, or ``default``."""
    for k, value in attributes:
        if k == key:
            return value
    return default


def _node(name: str, attributes: tuple[tuple[str, str], ...], text: Optional[str],
          children: tuple[MathNode, ...]) -> MathNode:
    """A :class:`MathNode` from parts already known to be valid: an element
    expat accepted, or a rebuild of existing nodes.  ``attributes`` and
    ``children`` must be tuples; none of the constructor's checks run, and
    the slots' own setters bypass the frozen class's ``__setattr__``."""
    node = object.__new__(MathNode)
    _set_name(node, name)
    _set_attributes(node, attributes)
    _set_text(node, text)
    _set_children(node, children)
    return node


#: Ranks of the children of a semantics element, in canonical order.
_PRESENTATION, _CONTENT_XML, _OTHER_XML, _ANNOTATION = range(4)


def _semantics_rank(name: str, attributes: tuple[tuple[str, str], ...]) -> int:
    """The rank, as a child of semantics, of an element with this name and
    these attributes."""
    if name != "annotation-xml":
        return _ANNOTATION if name == "annotation" else _PRESENTATION
    return _CONTENT_XML if _attr(attributes, "encoding") == CONTENT_ENCODING else _OTHER_XML


def _same(a, b) -> bool:
    """Whether two sequences hold the same objects, in the same order."""
    return len(a) == len(b) and all(map(is_, a, b))


def _rebuild(doc: MathDoc, make) -> MathDoc:
    """Rebuild ``doc``'s tree bottom up, without recursion, into a document.

    ``make(handle, node, children)``, given ``node``'s handle in ``doc`` and
    the kept replacements of its children (``node.children`` itself when none
    changed), returns ``None`` to drop ``node``, or its replacement's
    ``(attributes, children)`` as any sequences.  ``node`` itself is kept
    when these equal its attributes and hold its own children in order, so
    only the nodes on a path from a change to the root are new, and an
    unchanged ``doc`` comes back as itself."""
    nodes = doc.nodes
    built: list[Optional[MathNode]] = []  # replacements of later subtrees, nearest last
    for handle in range(len(nodes) - 1, -1, -1):
        node = nodes[handle]
        children = node.children
        if children:
            cut = len(built) - len(children)
            rebuilt = built[cut:]
            del built[cut:]
            rebuilt.reverse()
            if not all(map(is_, rebuilt, children)):  # a node is never false; None is
                children = tuple(filter(None, rebuilt))
        made = make(handle, node, children)
        if made is not None:
            attributes, children = made
            if ((attributes is node.attributes or tuple(attributes) == node.attributes)
                    and (children is node.children or _same(children, node.children))):
                made = node
            else:
                made = _node(node.name, tuple(attributes), node.text, tuple(children))
        built.append(made)
    root = built[0]
    return doc if root is doc.root else MathDoc(root)


_NAME, _ATTRIBUTES, _TEXT = map(attrgetter, ("name", "attributes", "text"))


def _columns(nodes: tuple[MathNode, ...]) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """The index columns of a tree given by its nodes in preorder: names,
    attributes, texts, parent handles and subtree sizes, as ``parse``'s
    handlers fill them.  Parents and sizes come from one reverse pass: a
    node's first child follows it, and each later child follows its elder
    sibling's subtree, whose size the pass already knows.  Handle ``h``'s
    subtree is ``nodes[h:h + sizes[h]]``."""
    parents: list[Optional[int]] = [None] * len(nodes)
    sizes = [1] * len(nodes)
    for handle in range(len(nodes) - 1, -1, -1):
        child = handle + 1
        for _ in nodes[handle].children:
            parents[child] = handle
            child += sizes[child]
        sizes[handle] = child - handle
    return (tuple(map(_NAME, nodes)), tuple(map(_ATTRIBUTES, nodes)), tuple(map(_TEXT, nodes)),
            tuple(parents), tuple(sizes))


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

    The index is five columns, one entry per handle: ``_names``,
    ``_attributes``, ``_texts``, ``_parents`` and ``_sizes`` (handle ``h``'s
    subtree is handles ``h`` to ``h + _sizes[h] - 1``).  ``_parsed``, for
    ``parse`` only, holds the columns its handlers filled, in that order,
    and ``root`` is then ``None``: the document builds its nodes on the
    first use of ``root``, ``nodes``, ``node`` or ``handle``, all at once,
    and keeps them.  Any other tree, hand-built or rebuilt, keeps its nodes
    in preorder, as :func:`iter_subtree` gives them, and derives the
    columns from them through :func:`_columns`.
    """

    def __init__(self, root: Optional[MathNode], *, _parsed: Optional[tuple] = None):
        if _parsed is None:
            if root.name != "math":
                raise MalformedInput("document root must be a math element")
            self._nodes = tuple(iter_subtree(root))
            _parsed = _columns(self._nodes)
        self._names, self._attributes, self._texts, self._parents, self._sizes = _parsed
        ids: dict[str, int] = {}
        links = []  # (handle, own id or None, target) of each node with an xref
        for handle, pairs in enumerate(self._attributes):
            own = target = None
            for key, value in pairs:
                if key == "id":
                    own = value
                elif key == "xref":
                    target = value
            if own is not None and ids.setdefault(own, handle) != handle:
                raise DuplicateId(own)
            if target is not None:
                links.append((handle, own, target))
        xref_map: dict[str, int] = {}
        dangling: list[tuple[int, str]] = []
        for handle, own, target in links:
            if target not in ids:
                dangling.append((handle, target))
            elif own is not None:
                xref_map[own] = ids[target]
                # reverse direction, unless the partner points elsewhere
                xref_map.setdefault(target, handle)
        self._xref_map = xref_map
        self._dangling = tuple(dangling)
        self._presentation, self._content = self._detect_branches()
        self._ted_shapes: dict = {}  # label mode -> similarity._flatten's arrays

    def _detect_branches(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Handles of the top-level presentation and content nodes."""
        names, attributes, top = self._names, self._attributes, self.children_of(0)
        for semantics in top:
            if names[semantics] == "semantics":
                break
        else:
            if top and names[top[0]] in CONTENT_ELEMENTS:
                return (), top
            return top, ()
        pres = content = None  # the first presentation child, the first content one
        for h in self.children_of(semantics):
            rank = _semantics_rank(names[h], attributes[h])
            if rank == _PRESENTATION and pres is None:
                pres = (h,)
            elif rank == _CONTENT_XML and content is None:
                content = self.children_of(h)
        return pres or (), content or ()

    def _build_nodes(self) -> tuple[MathNode, ...]:
        """The nodes of the columns' tree in preorder, built bottom up.  In
        reverse preorder, a node's children are the last subtrees built that
        no parent has taken yet, its first child last, and ``_parents`` says
        how many there are."""
        names, attributes, texts = self._names, self._attributes, self._texts
        counts = Counter(self._parents)
        nodes: list[Optional[MathNode]] = [None] * len(names)
        pending: list[MathNode] = []
        for handle in range(len(names) - 1, -1, -1):
            count = counts[handle]
            if count:
                children = tuple(pending[:-count - 1:-1])
                del pending[-count:]
            else:
                children = ()
            node = nodes[handle] = _node(names[handle], attributes[handle], texts[handle], children)
            pending.append(node)
        return tuple(nodes)

    # -- structure accessors ------------------------------------------------

    @property
    def root(self) -> MathNode:
        return self.nodes[0]

    @property
    def nodes(self) -> tuple[MathNode, ...]:
        """All nodes in preorder; index == handle."""
        try:
            return self._nodes
        except AttributeError:
            # threads that race to the first use may each build; every one
            # gets the nodes the first of them stored
            return self.__dict__.setdefault("_nodes", self._build_nodes())

    def node(self, handle: int) -> MathNode:
        return self.nodes[handle]

    def handle(self, node: MathNode) -> int:
        """Handle of a node object belonging to this document, found by
        scanning ``nodes``: a node object that occurs at several places (a
        shared subtree) gets the handle of its first occurrence in preorder.
        One node object may also belong to several documents, such as a
        document and the result of ``clean`` or ``canonicalize``; the handle
        is this document's."""
        for handle, candidate in enumerate(self.nodes):
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
            return range(0, len(self._names))
        return range(handle + 1, handle + self._sizes[handle])

    # -- branch / annotation accessors ---------------------------------------

    @property
    def presentation_nodes(self) -> tuple[MathNode, ...]:
        """Top-level nodes of the presentation branch (may be empty)."""
        return tuple(self.nodes[h] for h in self._presentation)

    @property
    def content_nodes(self) -> tuple[MathNode, ...]:
        """Top-level nodes of the content branch (may be empty)."""
        return tuple(self.nodes[h] for h in self._content)

    @property
    def presentation_root(self) -> Optional[int]:
        return self._presentation[0] if self._presentation else None

    @property
    def content_root(self) -> Optional[int]:
        return self._content[0] if self._content else None

    def branch_roots(self, name: str) -> tuple[int, ...]:
        """Top-level handles of the ``"presentation"`` or ``"content"`` branch, or ``()``."""
        top = {"presentation": self._presentation, "content": self._content}.get(name)
        if top is None:
            raise ValueError(f"unknown branch {name!r}")
        return top

    def branch(self, name: Optional[str]) -> range:
        """Handles of every node in the ``"presentation"`` or ``"content"``
        branch, or in the whole document for ``None``.  A branch's top-level
        nodes are consecutive siblings, so its nodes are one preorder slice:
        ``doc.nodes[r.start:r.stop]`` for the returned range ``r``."""
        if name is None:
            return range(len(self._names))
        top = self.branch_roots(name)
        if not top:
            raise MissingBranch(f"document has no {name} branch")
        return range(top[0], top[-1] + self._sizes[top[-1]])

    @property
    def annotations(self) -> tuple[tuple[str, str], ...]:
        """(encoding, payload) for every annotation element, document order."""
        attributes, texts = self._attributes, self._texts
        return tuple((_attr(attributes[h], "encoding", ""), texts[h] or "")
                     for h, name in enumerate(self._names) if name == "annotation")

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
            partner_id = _attr(self._attributes[partner], "id")
            if partner_id is not None:
                pairs.add(tuple(sorted((id_value, partner_id))))
        return pairs

    def __eq__(self, other):
        if not isinstance(other, MathDoc):
            return NotImplemented
        # preorder sequences of (name, attributes, text, subtree size) fix a tree
        return self is other or (
            self._names == other._names and self._sizes == other._sizes
            and self._texts == other._texts and self._attributes == other._attributes)

    def __repr__(self):
        return f"<MathDoc nodes={len(self._names)}>"


# ---------------------------------------------------------------------------
# lenient repair pipeline (runs on the UTF-8 input, before XML parsing)
# ---------------------------------------------------------------------------

def _char_refs(name: bytes, declared: set[bytes]) -> Optional[bytes]:
    """Character references for a named entity the document does not
    declare (XML's predefined entities count as declared), else None."""
    expansion = None if name in declared else _HTML5_ENTITIES.get(name.decode() + ";")
    return expansion and b"".join(b"&#%d;" % ord(c) for c in expansion)


def _mathml_bound(prefix: bytes, local: bytes, scope: dict[bytes, bool]) -> bool:
    """Whether the prefix of the name ``prefix:local`` names MathML in
    ``scope``; undeclared ones are taken as an elided MathML binding.  A
    name with an empty local part or a second colon is no qualified name
    and keeps its prefix."""
    return (local != b"" and b":" not in local and prefix != b"xml" and prefix != b"xmlns"
            and scope.get(prefix, True))


def _is_mathml(value: bytes, declared: set[bytes]) -> bool:
    """Whether a raw attribute value names MathML once expat has resolved its
    references; one to an entity the DOCTYPE declares is left to
    :func:`_namespace_violation`, which rules on what expat made of it."""
    referred = set(_ENTITY_RE.findall(value)) - _PREDEFINED_ENTITIES
    return unescape(value.decode()) == MATHML_NS and not referred & declared


def _unbind(scope: dict, replaced: Iterable[tuple]) -> None:
    """Restore a prefix table's ``(prefix, previous binding or None)`` pairs."""
    for prefix, previous in replaced:
        if previous is None:
            scope.pop(prefix, None)  # the judge may stop short of binding it
        else:
            scope[prefix] = previous


def _last_repairable(text: bytes) -> int:
    """Offset of the last ``:`` or ``&`` that may start a repair, else -1."""
    colon, amp = text.rfind(b":"), len(text)
    while (amp := text.rfind(b"&", colon + 1, amp)) >= 0 and _SAFE_AMP_RE.match(text, amp):
        pass
    return max(colon, amp)


def _repair(text: bytes) -> tuple[bytes, list[Repair], list[tuple[int, int, int]]]:
    """Apply the three leniency rules in one forward scan over UTF-8 ``text``.

    Returns the rewritten text, the repairs (rule 1, rule 2, then rule 3,
    each located by byte offset into ``text``) and the offset map for
    :func:`_original_index`: ``(start, end, replacement length)`` per edit.
    A prefix is judged in the scope of the element's own and its open
    ancestors' ``xmlns:`` declarations, as in strict mode; an end tag in the
    scope of the element it closes.  Entities that a DOCTYPE's internal
    subset declares are left for the XML parser, as in strict mode.

    Once rule 1 has run, the scan stops at the first token that starts past
    the last ``:`` and the last ``&`` that can start a repair, which excludes
    character references and the predefined entities: rules 2 and 3 need one
    of those inside the token, so no later token is rewritten, and the rest
    of the text is copied as it stands.
    """
    out: list[bytes] = []  # chunks of the repaired text
    marks: list[tuple[int, int, int]] = []
    found: tuple[list[Repair], ...] = ([], [], [])  # per rule
    copied = 0  # text[:copied] is accounted for in out
    scope: dict[bytes, bool] = {}  # prefix -> bound to MathML, for the open elements
    stack: list[tuple[bytes, Iterable]] = []  # (raw name, bindings replaced) per open element
    declared = set(_PREDEFINED_ENTITIES)
    need_math = True

    def edit(start: int, end: int, replacement: bytes, rule: int, at: Optional[int]) -> None:
        # edits arrive in order of start, and none begins before the last ends
        nonlocal copied
        if at is not None:
            found[rule].append(Repair(_REPAIR_KINDS[rule], at))
        out.append(text[copied:start])
        if text.endswith(replacement, start, end):  # a dropped prefix
            marks.append((start, end - len(replacement), 0))
        else:
            marks.append((start, end, len(replacement)))
        out.append(replacement)
        copied = end

    last = _last_repairable(text)
    for token in _TOKEN_RE.finditer(text):
        kind = token.lastgroup
        if kind is None:  # comment, CDATA section, processing instruction
            continue
        if kind == "declaration":
            declared.update(filter(None, _ENTITY_DECLARATION_RE.findall(token.group(kind))))
            continue
        start, end = token.span()
        if not need_math and start > last:  # no prefix or entity from here on
            break
        if kind == "entity":  # rule 2 in character data
            refs = _char_refs(token.group(kind), declared)
            if refs is not None:
                edit(start, end, refs, 1, start)
            continue

        name = token.group(kind)
        name_pos = token.start(kind)
        name_end = name_pos + len(name)
        opens = kind == "start"
        closes = not opens or text.endswith(b"/>", start, end)
        edits: list[tuple[int, int, bytes, int, Optional[int]]] = []  # edit() arguments
        attrs, replaced = [], ()  # the tag's attributes, and bindings it replaced
        if opens:
            own: dict[bytes, bool] = {}  # the element's xmlns: declarations
            is_math = need_math and (name == b"math" or name.endswith(b":math"))
            # only the math element's declarations and prefixed keys matter
            if is_math or text.find(b":", name_end, end) >= 0:
                attrs = list(_ATTR_RE.finditer(text, name_end, end))
                for attr in attrs:
                    if attr["key"].startswith(b"xmlns:"):
                        prefix = attr["key"][6:]
                        own[prefix] = own.get(prefix, False) or _is_mathml(attr["value"], declared)
                replaced = [(prefix, scope.get(prefix)) for prefix in own]
                scope.update(own)
            if not closes:
                stack.append((name, replaced))
            # rule 1: the math element declares no default namespace and binds no
            # prefix to MathML; the builder would drop a declaration, so add none
            if is_math:
                need_math = False
                if all(attr["key"] != b"xmlns" for attr in attrs) and True not in own.values():
                    edits.append((name_end, name_end, b"", 0, start))
        else:
            opened, replaced = stack.pop() if stack else (None, ())

        # rule 3: drop namespace prefixes bound (or assumed bound) to MathML;
        # an end tag's repair counts only when it differs from its start tag
        prefix, colon, local = name.partition(b":")
        if colon and _mathml_bound(prefix, local, scope):
            at = start if opens or name != opened else None
            edits.append((name_pos, name_end, local, 2, at))
        for attr in attrs:
            key, key_pos = attr["key"], attr.start()
            if key.startswith(b"xmlns:"):
                if _is_mathml(attr["value"], declared):
                    # take the whitespace before the declaration along only
                    # where whitespace, "/", ">" or the end of input (an
                    # empty slice) follows
                    cut = key_pos
                    if text[attr.end():attr.end() + 1] in b" \t\r\n/>":
                        while cut > 0 and text[cut - 1] in b" \t\r\n":
                            cut -= 1
                    edits.append((cut, attr.end(), b"", 2, key_pos))
                continue
            prefix, colon, local = key.partition(b":")
            if colon and _mathml_bound(prefix, local, scope):
                edits.append((key_pos, key_pos + len(key), local, 2, key_pos))
        if closes:  # judged in the element's scope, the tag restores its parent's
            _unbind(scope, replaced)

        if text.find(b"&", start, end) >= 0:  # rule 2 inside the tag
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
    return b"".join(out), sum(found, []), marks


def _original_index(marks: list[tuple[int, int, int]], index: int) -> int:
    """The offset in the original text of ``index`` in the repaired text: a
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

def _namespace_violation(name: str, keys: list[str], values: list[str],
                         scope: dict[str, str], strict_root: bool) -> Optional[str]:
    """The first rule of Namespaces in XML 1.0, or of MathML, that an element
    breaks, or None.  ``scope`` maps each prefix in scope to its URI; the
    element's own ``xmlns:`` declarations are added to it.  ``strict_root``
    asks for the one strict-mode rule: the math element declares a default
    namespace."""
    if strict_root and "xmlns" not in keys:
        return "math element lacks a namespace declaration (strict mode)"
    for key, value in zip(keys, values):
        if key == "xmlns":
            if value in _RESERVED_NAMESPACES:
                return f"reserved namespace {value!r} bound to the default namespace"
            continue
        if not key.startswith("xmlns:"):
            continue
        prefix = key[6:]
        if _RESERVED_PREFIXES.get(prefix, value) != value:
            return f"reserved prefix {prefix!r} bound to {value!r}"
        if value == MATHML_NS:
            return f"prefix {prefix!r} bound to the MathML namespace"
        if not prefix or ":" in prefix:
            return f"{key!r} is not a qualified name"
        if prefix != "xml" and value in _RESERVED_NAMESPACES:
            return f"reserved namespace {value!r} bound to prefix {prefix!r}"
        if not value:
            return f"empty namespace name for prefix {prefix!r}"
        scope[prefix] = value
    expanded: dict[tuple[str, str], str] = {}  # (URI, local part) -> attribute key
    for at, qname in enumerate([name, *keys]):  # the element name, then the keys
        if ":" not in qname or at and qname.startswith("xmlns:"):
            continue
        prefix, _, local = qname.partition(":")
        if ":" in local or (not local and prefix in scope):
            return f"{qname!r} is not a qualified name"
        if prefix not in scope:
            return f"undeclared namespace prefix {prefix!r}"
        if at:
            other = expanded.setdefault((scope[prefix], local), qname)
            if other != qname:
                return f"attributes {other!r} and {qname!r} have the same expanded name"
    return None


class _Builder:
    """Expat handlers that fill the document's index columns in preorder,
    and build no node: an element's handle is the number of elements opened
    before it; ``start`` writes its name, attributes and parent, the open
    element on top of the stack; ``end`` writes its text and its subtree
    size, the elements opened since it opened.  The MathML default namespace
    declaration is dropped on the way (the namespace is implicit in the
    model).  The first namespace violation in preorder (a math element that
    declares no default namespace only if ``strict``) is recorded in
    ``violation`` rather than raised, so that a later well-formedness error
    still takes precedence.  Both modes judge namespaces alike, in one prefix
    table that each element restores as it closes: the repair scan has
    rewritten what it repairs, and what it cannot see, such as an entity's
    expansion, is judged here."""

    def __init__(self, strict: bool):
        self._strict = strict
        self._scope = {"xml": _XML_NS}  # prefix -> URI, for the open elements
        # per open element: (handle, text parts, replaced bindings)
        self._stack: list[tuple[int, list[str], Iterable]] = []
        self.names: list[str] = []
        self.attributes: list[tuple[tuple[str, str], ...]] = []
        self.texts: list[Optional[str]] = []
        self.parents: list[Optional[int]] = []
        self.sizes: list[int] = []  # 0 until the element closes
        self.violation: Optional[str] = None

    def start(self, name, attrs):
        stack = self._stack
        if len(stack) >= MAX_DEPTH:
            raise MalformedInput(f"elements nested deeper than {MAX_DEPTH} levels")
        keys, values = attrs[0::2], attrs[1::2]
        if stack and ":" not in name and "xmlns" not in keys and ":" not in "".join(keys):
            # below the root, no prefix and no declaration: nothing to judge, bind or drop
            pairs, replaced = tuple(zip(keys, values)), ()
        else:
            pairs = tuple(pair for pair in zip(keys, values) if pair != ("xmlns", MATHML_NS))
            replaced = [(k[6:], self._scope.get(k[6:])) for k in keys if k.startswith("xmlns:")]
            if self.violation is None:  # the judge binds the declarations in place
                self.violation = _namespace_violation(
                    name, keys, values, self._scope, self._strict and not stack)
        names = self.names
        self.parents.append(stack[-1][0] if stack else None)
        stack.append((len(names), [], replaced))
        names.append(name)
        self.attributes.append(pairs)
        self.texts.append(None)
        self.sizes.append(0)

    def end(self, _name):
        handle, text_parts, replaced = self._stack.pop()
        if replaced:
            _unbind(self._scope, replaced)
        if text_parts:
            self.texts[handle] = "".join(text_parts).strip(" \t\r\n") or None
        self.sizes[handle] = len(self.names) - handle

    def chars(self, data):
        if self._stack:
            self._stack[-1][1].append(data)


def parse(text: str, mode: str = "lenient") -> tuple[MathDoc, ParseReport]:
    """Parse UTF-8 MathML text into a (MathDoc, ParseReport) pair.

    ``mode`` is ``"strict"`` or ``"lenient"``.  Lenient mode first runs the
    repair pipeline: (1) take the math element as MathML if it declares no
    namespace (a repair that leaves the text as it is), (2) replace
    HTML5/MathML named entities with their code points, (3) drop namespace
    prefixes on MathML-namespace elements and attributes.  Strict mode
    rejects any input those rules would rewrite.
    Both modes then judge namespaces alike, so what the scan cannot see or
    does not repair, such as an entity's expansion or the reserved ``xmlns``
    prefix, gets strict mode's message in lenient mode too.
    Both modes reject an undeclared entity that the XML parser would skip
    because the DOCTYPE names an external subset, which it does not read,
    and a reference to an external entity, which it does not read either,
    and report an undefined entity in an attribute value at the entity.
    Attribute defaults that a DOCTYPE declares are not applied.  A lone
    surrogate, which has no UTF-8 form, is refused before anything else.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown parse mode {mode!r}")
    if not text or text.isspace():
        raise MalformedInput("empty input")
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise MalformedInput(f"unparseable input: {exc}") from None

    repairs: list[Repair] = []
    work, marks = data, []
    if mode == "lenient":
        work, repairs, marks = _repair(data)

    parser = xml.parsers.expat.ParserCreate("utf-8")  # no namespace processing, and UTF-8 always
    parser.ordered_attributes = True
    parser.specified_attributes = True  # no attribute defaults from the DTD
    parser.buffer_text = True
    builder = _Builder(mode == "strict")
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.chars
    declared = dict.fromkeys(_PREDEFINED_ENTITIES, False)  # general entity -> external

    def entity(name, is_parameter_entity, _value, _base, system_id, *_) -> None:
        if not is_parameter_entity:
            declared[name.encode()] = system_id is not None

    parser.EntityDeclHandler = entity

    def where(at: int) -> str:  # the one locator; ``at`` is a byte offset into the parsed text
        # expat may point inside a character; its partial bytes are not counted
        lines = _LINE_BREAK_RE.split(data[:_original_index(marks, at)].decode("utf-8", "ignore"))
        return f"line {len(lines)}, column {len(lines[-1])}"

    def undefined(tags: Iterable[Optional[re.Match]]) -> Optional[re.Match]:
        """The first entity reference in a start tag among ``tags`` that is
        neither predefined nor declared."""
        return next((ref for tag in tags if tag is not None and tag.lastgroup == "start"
                     for ref in _ENTITY_RE.finditer(work, *tag.span())
                     if ref[1] not in declared), None)

    def skipped(name: str, _is_parameter_entity: bool) -> None:
        # expat skips, rather than rejects, an undeclared entity when the
        # DOCTYPE names an external subset, which it does not read
        raise MalformedInput(f"undefined entity &{name};: {where(parser.CurrentByteIndex)}")

    def external_ref(context: str, *_) -> None:
        # ``context`` names the open entities, in no fixed order; only the
        # one referred to is external, since no external entity is ever read
        name = next(name for name in context.split("\f") if declared[name.encode()])
        raise MalformedInput(f"external entity &{name}; is not read: "
                             f"{where(parser.CurrentByteIndex)}")

    parser.SkippedEntityHandler = skipped
    parser.ExternalEntityRefHandler = external_ref
    try:
        parser.Parse(work, True)
    except xml.parsers.expat.ExpatError as exc:
        at = parser.ErrorByteIndex
        if exc.code == _UNDEFINED_ENTITY:  # in a value, expat gives the tag's place
            ref = undefined([_TOKEN_RE.match(work, at)])
            if ref:
                at = ref.start()
        raise MalformedInput(
            f"not well-formed XML: {xml.parsers.expat.ErrorString(exc.code)}: {where(at)}"
        ) from None
    finally:
        # they refer back to the parser
        parser.SkippedEntityHandler = parser.ExternalEntityRefHandler = None
    if b"<!DOCTYPE" in work:  # only then may expat drop an undeclared entity from a value
        ref = undefined(_TOKEN_RE.finditer(work))
        if ref:
            raise MalformedInput(f"undefined entity &{ref[1].decode()};: {where(ref.start())}")
    if builder.names[0] != "math":
        raise MalformedInput(
            f"input does not contain a math root element (found {builder.names[0]!r})"
        )
    if builder.violation is not None:
        raise MalformedInput(builder.violation)
    foreign = _attr(builder.attributes[0], "xmlns")
    if foreign is not None:  # MathML declarations were dropped while building
        raise MalformedInput(f"math element declares a foreign namespace {foreign!r}")
    doc = MathDoc(None, _parsed=tuple(map(tuple, (
        builder.names, builder.attributes, builder.texts, builder.parents, builder.sizes))))
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


def _escape(value: str, specials: re.Pattern) -> str:
    return specials.sub(lambda match: _ESCAPES[match[0]], value)


def _emit(names: tuple, attributes: tuple, texts: tuple, sizes: tuple, pretty: bool) -> str:
    """XML for a tree given by its index columns (as from :func:`_columns`).
    Only a value that its escape pattern matches goes through
    :func:`_escape`: most need no reference."""
    out: list[str] = []
    stack: list[tuple[int, str]] = []  # (end of subtree, end tag) per open ancestor
    attr_special, text_special = _ATTR_SPECIALS.search, _TEXT_SPECIALS.search
    for handle, (name, pairs, text, size) in enumerate(zip(names, attributes, texts, sizes)):
        indent = "  " * len(stack) if pretty else ""
        attrs = ""
        for key, value in pairs:
            attrs += f' {key}="{_escape(value, _ATTR_SPECIALS) if attr_special(value) else value}"'
        if text is not None and text_special(text):
            text = _escape(text, _TEXT_SPECIALS)
        if size > 1:
            out.append(f"{indent}<{name}{attrs}>")
            if text is not None:
                out.append(("  " * (len(stack) + 1) if pretty else "") + text)
            stack.append((handle + size, f"{indent}</{name}>"))
            continue
        if text is None:
            out.append(f"{indent}<{name}{attrs}/>")
        else:
            out.append(f"{indent}<{name}{attrs}>{text}</{name}>")
        while stack and stack[-1][0] == handle + 1:
            out.append(stack.pop()[1])
    return "\n".join(out) if pretty else "".join(out)


def serialize_node(node: MathNode, pretty: bool = False) -> str:
    """Serialize a node subtree as an XML fragment (no namespace injected)."""
    names, attributes, texts, _, sizes = _columns(tuple(iter_subtree(node)))
    return _emit(names, attributes, texts, sizes, pretty)


def serialize_subtree(doc: MathDoc, handle: int, pretty: bool = False) -> str:
    """:func:`serialize_node` of ``doc.node(handle)``, building no node."""
    end = handle + doc._sizes[handle]
    return _emit(doc._names[handle:end], doc._attributes[handle:end],
                 doc._texts[handle:end], doc._sizes[handle:end], pretty)


def serialize(doc: MathDoc, pretty: bool = False) -> str:
    """Serialize a document as well-formed XML with the MathML namespace
    declared on the math element.  Byte-deterministic for a given input;
    ``parse(serialize(doc), "strict")`` reproduces an equal tree."""
    xml = _emit(doc._names, doc._attributes, doc._texts, doc._sizes, pretty)
    return f'<math xmlns="{MATHML_NS}"' + xml[5:]  # "<math"


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
    texts = doc._texts
    return [(name, texts[handle] or "", handle)
            for handle, name in enumerate(doc._names[handles.start:handles.stop], handles.start)
            if name in ("mi", "ci")]


CLEANABLE_FEATURES = frozenset(
    {"cross_references", "content_branch", "presentation_branch", "annotations"}
)


def clean(doc: MathDoc, features: Iterable[str]) -> MathDoc:
    """Remove the named features and return the resulting document.

    ``cross_references`` deletes every id and xref attribute;
    ``content_branch`` deletes MathML-Content annotation-xml elements;
    ``presentation_branch`` deletes the presentation child of each semantics
    child of the root; ``annotations`` deletes annotation elements.  A
    semantics child of the root left with nothing is removed, and one left
    with a single branch and no annotations is unwrapped.  :func:`_rebuild`
    builds every node the result keeps: it shares every unchanged subtree
    with ``doc``, and is ``doc`` itself when nothing changes.
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

    def top_level(child: MathNode) -> tuple[MathNode, ...]:
        """The branch a semantics child of the root holds alone, else that child."""
        if child.name == "semantics" and len(child.children) == 1:
            only = child.children[0]
            rank = _semantics_rank(only.name, only.attributes)
            if rank == _PRESENTATION:
                return child.children
            if rank == _CONTENT_XML:
                return only.children  # unwrap both wrappers
        return (child,)

    def rebuild(handle: int, node: MathNode, children: tuple[MathNode, ...]):
        rank = _semantics_rank(node.name, node.attributes)
        if (drop_annotations and rank == _ANNOTATION) or (drop_content and rank == _CONTENT_XML):
            return None
        attributes = node.attributes
        if drop_xrefs:
            attributes = [(k, v) for k, v in attributes if k not in ("id", "xref")]
        if handle == 0:
            children = [top for child in children for top in top_level(child)]
        elif node.name == "semantics" and doc.parent(handle) == 0:
            if drop_presentation:
                children = [child for child in children
                            if _semantics_rank(child.name, child.attributes) != _PRESENTATION]
            if not children:
                return None
        return attributes, children

    result = _rebuild(doc, rebuild)
    if not result.presentation_nodes and not result.content_nodes:
        raise WouldBeEmpty("cleaning would leave no math content")
    return result


def resolve_xref(doc: MathDoc, id_value: str) -> Optional[int]:
    """Handle of the cross-reference partner of the node with the given id,
    following links in both directions; ``None`` for unknown or dangling ids."""
    return doc._xref_map.get(id_value)
