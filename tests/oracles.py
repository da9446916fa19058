"""Independent reference implementations used only to check the library.

Deliberately naive: exhaustive recursion for tree edit distance, a
recursive walk for its postorder arrays, a test of every two pairs for a
tree mapping and a full table for the string edit distance of two sequences, unit-mass expansion plus Hungarian
assignment (and tiny brute force) for the earth mover's distance, an
ancestor-chain matcher for path selection, a parent test over a branch's
range for where that branch starts, a recursive
walk for a document's preorder index, plain recursive rebuilds, which copy
every node, for canonicalization and cleaning, and ``xml.dom.minidom`` for
namespace well-formedness and for the element tree a parse should build.
None of them share code or algorithmic structure with the implementations
under test.
"""

from __future__ import annotations

import functools
import itertools
import math

import xml.dom.expatbuilder
import xml.dom.minidom
import xml.parsers.expat

import numpy as np
from scipy.optimize import linear_sum_assignment

# label trees are (label, (child, child, ...)) tuples


def as_label_tree(node, with_text=False):
    """Convert a MathNode subtree to a hashable (label, children) tuple."""
    children = tuple(as_label_tree(c, with_text) for c in node.children)
    if with_text and not node.children:
        return ((node.name, node.text), children)
    return (node.name, children)


def tree_size(tree) -> int:
    return 1 + sum(tree_size(c) for c in tree[1])


def ted_reference(a, b, insert=1.0, delete=1.0, rename=1.0) -> float:
    """Exhaustive minimum-cost edit script between two label trees, via the
    memoized rightmost-root forest recursion (the textbook definition)."""

    @functools.lru_cache(maxsize=None)
    def forest_dist(fa, fb):
        if not fa and not fb:
            return 0.0
        best = math.inf
        if fa:
            _, kids = fa[-1]
            best = min(best, delete + forest_dist(fa[:-1] + kids, fb))
        if fb:
            _, kids = fb[-1]
            best = min(best, insert + forest_dist(fa, fb[:-1] + kids))
        if fa and fb:
            (label_a, kids_a), (label_b, kids_b) = fa[-1], fb[-1]
            match = forest_dist(kids_a, kids_b) + forest_dist(fa[:-1], fb[:-1])
            best = min(best, match + (0.0 if label_a == label_b else rename))
        return best

    result = forest_dist((a,), (b,))
    forest_dist.cache_clear()
    return result


def postorder_arrays(node, with_text=False):
    """Zhang/Shasha's view of ``node``'s tree, by plain recursion, as
    1-indexed postorder lists: labels (a leaf's ``(name, text)`` when
    ``with_text``, else the name), leftmost-leaf numbers, the keyroots (the
    last node with each leftmost leaf), ascending, and the postorder numbers
    at each depth, root level first."""
    labels, lml, levels = [None], [0], []

    def visit(current, depth):
        leaves = [visit(child, depth + 1) for child in current.children]
        with_own_text = with_text and not current.children
        labels.append((current.name, current.text) if with_own_text else current.name)
        lml.append(leaves[0] if leaves else len(labels) - 1)
        while len(levels) <= depth:  # children are listed before their parent
            levels.append([])
        levels[depth].append(len(labels) - 1)
        return lml[-1]

    visit(node, 0)
    n = len(labels) - 1
    keyroots = [k for k in range(1, n + 1) if lml[k] not in lml[k + 1:]]
    return labels, lml, keyroots, levels


def is_tree_mapping(a, b, pairs) -> bool:
    """Whether ``pairs`` of 1-indexed postorder numbers of the nodes ``a``
    and ``b`` form a tree mapping, by the definition of Zhang and Shasha:
    for every two pairs ``(x1, y1)`` and ``(x2, y2)``, ``x1 == x2`` iff
    ``y1 == y2``, ``x1`` is an ancestor of ``x2`` iff ``y1`` is one of
    ``y2``, and ``x1`` lies left of ``x2`` iff ``y1`` lies left of ``y2``.
    An ancestor's subtree is the span from its leftmost leaf to itself; a
    node lies left of another that it precedes outside that span."""
    lml_a, lml_b = postorder_arrays(a)[1], postorder_arrays(b)[1]
    if not all(1 <= x < len(lml_a) and 1 <= y < len(lml_b) for x, y in pairs):
        return False

    def ancestor(lml, u, v):
        return lml[u] <= v < u

    def left(lml, u, v):
        return u < lml[v]

    for x1, y1 in pairs:
        for x2, y2 in pairs:
            if ((x1 == x2) != (y1 == y2)
                    or ancestor(lml_a, x1, x2) != ancestor(lml_b, y1, y2)
                    or left(lml_a, x1, x2) != left(lml_b, y1, y2)):
                return False
    return True


def sed_reference(a, b, ins=1.0, dele=1.0, ren=1.0) -> float:
    """String edit distance between the sequences ``a`` and ``b``: the full
    (len(a) + 1) x (len(b) + 1) table of Wagner and Fischer, with ``ren``
    for a substitution of unequal items."""
    table = [[j * ins for j in range(len(b) + 1)]]
    for i, x in enumerate(a, 1):
        row = [i * dele]
        for j, y in enumerate(b, 1):
            row.append(min(table[i - 1][j] + dele, row[j - 1] + ins,
                           table[i - 1][j - 1] + (0.0 if x == y else ren)))
        table.append(row)
    return table[-1][-1]


def emd_half_l1(a_counts, b_counts) -> float:
    """Closed form for discrete-ground EMD: half the L1 distance of the
    normalized histograms."""
    ta = sum(a_counts.values())
    tb = sum(b_counts.values())
    keys = set(a_counts) | set(b_counts)
    return 0.5 * sum(
        abs(a_counts.get(k, 0) / ta - b_counts.get(k, 0) / tb) for k in keys
    )


def emd_assignment(a_counts, b_counts, distance=None) -> float:
    """EMD via unit-mass expansion and optimal one-to-one assignment.

    Both histograms are expanded to lcm(total_a, total_b) unit masses; the
    optimal transport of equal unit masses is an assignment problem, solved
    by the Hungarian algorithm.
    """
    if distance is None:
        distance = lambda x, y: 0.0 if x == y else 1.0
    ta = sum(a_counts.values())
    tb = sum(b_counts.values())
    scale = math.lcm(ta, tb)
    units_a = [k for k in sorted(a_counts) for _ in range(a_counts[k] * (scale // ta))]
    units_b = [k for k in sorted(b_counts) for _ in range(b_counts[k] * (scale // tb))]
    cost = np.array([[distance(x, y) for y in units_b] for x in units_a])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / scale


def emd_bruteforce(a_counts, b_counts, distance=None) -> float:
    """EMD by enumerating all permutations of unit masses; only for tiny
    inputs (lcm-expanded size <= 7)."""
    if distance is None:
        distance = lambda x, y: 0.0 if x == y else 1.0
    ta = sum(a_counts.values())
    tb = sum(b_counts.values())
    scale = math.lcm(ta, tb)
    units_a = [k for k in sorted(a_counts) for _ in range(a_counts[k] * (scale // ta))]
    units_b = [k for k in sorted(b_counts) for _ in range(b_counts[k] * (scale // tb))]
    assert len(units_a) <= 7, "brute force is factorial; keep inputs tiny"
    best = math.inf
    for perm in itertools.permutations(range(len(units_b))):
        total = sum(distance(units_a[i], units_b[j]) for i, j in enumerate(perm))
        best = min(best, total)
    return best / scale


def _step_matches(node, step) -> bool:
    if step.test != "*" and node.name != step.test:
        return False
    return all(node.attr(key) == value for key, value in step.predicates)


def select_reference(doc, query) -> list[int]:
    """Brute-force path matcher: for every node, check whether some chain of
    ancestors satisfies the steps right-to-left.  A branch query keeps the
    nodes of ``doc.branch`` whose parent lies outside that range."""
    branch = getattr(query, "branch", None)
    if branch is not None:
        # imported on use: mmlkit may have been imported afresh since this module was
        from mmlkit.errors import MissingBranch

        try:
            span = doc.branch(branch)
        except MissingBranch:
            return []
        return [h for h in span if doc.parent(h) not in span]
    alternatives = getattr(query, "alternatives", None)
    if alternatives is not None:
        hits: set[int] = set()
        for alt in alternatives:
            hits.update(select_reference(doc, alt))
        return sorted(hits)

    steps = query.steps

    def matches_at(index: int, handle: int) -> bool:
        step = steps[index]
        if not _step_matches(doc.node(handle), step):
            return False
        if index == 0:
            if step.axis == "child":
                return doc.parent(handle) is None
            return True  # any node is a descendant of the document node
        parent = doc.parent(handle)
        if step.axis == "child":
            return parent is not None and matches_at(index - 1, parent)
        ancestor = parent
        while ancestor is not None:
            if matches_at(index - 1, ancestor):
                return True
            ancestor = doc.parent(ancestor)
        return False

    return [h for h in range(len(doc.nodes)) if matches_at(len(steps) - 1, h)]


def naive_walk(root) -> list[tuple[object, object]]:
    """(node, parent position) for every place in the tree, in preorder,
    by plain recursion: the reference for a document's handles, parents,
    children and descendants."""
    places: list[tuple[object, object]] = []

    def visit(node, parent):
        here = len(places)
        places.append((node, parent))
        for child in node.children:
            visit(child, here)

    visit(root, None)
    return places


def count_identifiers(node) -> int:
    """Independent full-tree walk counting mi and ci elements."""
    total = 1 if node.name in ("mi", "ci") else 0
    return total + sum(count_identifiers(c) for c in node.children)


def _semantics_position(node) -> int:
    """Where canonical order puts ``node`` among the children of semantics:
    presentation, content annotation-xml, other annotation-xml, annotation."""
    if node.name == "annotation":
        return 3
    if node.name == "annotation-xml":
        return 1 if node.attr("encoding") == "MathML-Content" else 2
    return 0


def canonicalize_reference(root):
    """A copy of every node of ``root``'s tree, through its public
    constructor: attributes sorted by key, and the children of every
    semantics element stably sorted into canonical order."""
    node_type = type(root)

    def build(node):
        children = [build(child) for child in node.children]
        if node.name == "semantics":
            children.sort(key=_semantics_position)
        attributes = sorted(node.attributes, key=lambda pair: pair[0])
        return node_type(node.name, tuple(attributes), node.text, tuple(children))

    return build(root)


def clean_reference(root, features):
    """A copy of every kept node of ``root``'s tree, following ``clean``'s
    docstring: id and xref attributes, MathML-Content annotation-xml
    elements and annotation elements go anywhere; presentation children go
    from a semantics child of the root, which is then unwrapped when one
    branch alone remains, and removed when nothing does."""
    node_type, features = type(root), set(features)

    def build(node):
        position = _semantics_position(node)
        if ("annotations" in features and position == 3) or (
                "content_branch" in features and position == 1):
            return None
        children = [kept for kept in map(build, node.children) if kept is not None]
        attributes = [(key, value) for key, value in node.attributes
                      if "cross_references" not in features or key not in ("id", "xref")]
        return node_type(node.name, tuple(attributes), node.text, tuple(children))

    copy = build(root)
    top = []
    for child in copy.children:
        if child.name != "semantics":
            top.append(child)
            continue
        kept = [grand for grand in child.children
                if not ("presentation_branch" in features and _semantics_position(grand) == 0)]
        if len(kept) == 1 and _semantics_position(kept[0]) == 0:
            top.append(kept[0])
        elif len(kept) == 1 and _semantics_position(kept[0]) == 1:
            top.extend(kept[0].children)
        elif kept:
            top.append(node_type(child.name, child.attributes, child.text, tuple(kept)))
    return node_type(copy.name, copy.attributes, copy.text, tuple(top))


def namespace_well_formed(text: str) -> bool:
    """Whether ``text`` is a well-formed document under Namespaces in XML
    1.0, as ``xml.dom.minidom`` judges it: its builder runs expat with
    namespace processing on, which the library never does.  It knows no
    MathML rule."""
    try:
        xml.dom.minidom.parseString(text)
    except (xml.parsers.expat.ExpatError, UnicodeEncodeError):
        return False
    return True


MATHML_DECLARATION = ("xmlns", "http://www.w3.org/1998/Math/MathML")


def minidom_tree(text: str):
    """The element tree of ``text`` as ``xml.dom.minidom`` reads it, as
    nested ``(name, attributes, text, children)`` tuples: each element's
    ``tagName``; its attributes in document order, less the MathML default
    namespace declaration; its text and CDATA children joined, then stripped
    of spaces, tabs, carriage returns and line feeds (``None`` when nothing
    is left); and its element children.  Namespace processing is off, as in
    minidom's builder called with ``namespaces=False``, since with it on,
    minidom lists namespace declarations before the other attributes."""
    def build(element):
        attributes = tuple(pair for pair in element.attributes.items()
                           if pair != MATHML_DECLARATION)
        parts = [child.data for child in element.childNodes
                 if child.nodeType in (child.TEXT_NODE, child.CDATA_SECTION_NODE)]
        children = tuple(build(child) for child in element.childNodes
                         if child.nodeType == child.ELEMENT_NODE)
        return element.tagName, attributes, "".join(parts).strip(" \t\r\n") or None, children

    return build(xml.dom.expatbuilder.parseString(text, namespaces=False).documentElement)


def node_tree(node):
    """A :class:`MathNode` tree in the tuple form of :func:`minidom_tree`."""
    return node.name, node.attributes, node.text, tuple(map(node_tree, node.children))
