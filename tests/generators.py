"""Seeded random fixture generators and text-level mutators for tests."""

from __future__ import annotations

import random
import re

from mmlkit import MATHML_NS, MathDoc, MathNode
from mmlkit.query import PathExpr, PathUnion, Step

PRES_INNER = ["mrow", "mfrac", "msqrt", "msup", "msub", "mstyle"]
PRES_LEAVES = ["mi", "mn", "mo", "mtext"]
LEAF_TEXTS = ["a", "b", "x", "y", "2", "+", "α", "β"]
CONTENT_OPS = ["plus", "times", "divide", "minus", "power", "eq"]
CONTENT_LEAVES = ["ci", "cn"]


def random_pres_tree(rng: random.Random, depth: int = 3) -> MathNode:
    if depth <= 0 or rng.random() < 0.35:
        name = rng.choice(PRES_LEAVES)
        return MathNode(name, (), rng.choice(LEAF_TEXTS))
    name = rng.choice(PRES_INNER)
    width = 2 if name in ("mfrac", "msup", "msub") else rng.randint(1, 3)
    children = tuple(random_pres_tree(rng, depth - 1) for _ in range(width))
    return MathNode(name, (), None, children)


def random_content_tree(rng: random.Random, depth: int = 3) -> MathNode:
    if depth <= 0 or rng.random() < 0.35:
        name = rng.choice(CONTENT_LEAVES)
        return MathNode(name, (), rng.choice("abxy12"))
    operator = MathNode(rng.choice(CONTENT_OPS))
    operands = tuple(random_content_tree(rng, depth - 1) for _ in range(rng.randint(1, 3)))
    return MathNode("apply", (), None, (operator,) + operands)


def _with_ids(node: MathNode, prefix: str, counter: list[int]) -> MathNode:
    counter[0] += 1
    attrs = (("id", f"{prefix}.{counter[0]}"),) + node.attributes
    return MathNode(node.name, attrs, node.text,
                    tuple(_with_ids(c, prefix, counter) for c in node.children))


def _link(node: MathNode, own_prefix: str, other_prefix: str, limit: int) -> MathNode:
    """Add xref attributes pairing p.k <-> c.k for k <= limit."""
    own_id = node.attr("id")
    attrs = node.attributes
    if own_id is not None:
        k = int(own_id.split(".")[1])
        if k <= limit:
            attrs = attrs + (("xref", f"{other_prefix}.{k}"),)
    return MathNode(node.name, attrs, node.text,
                    tuple(_link(c, own_prefix, other_prefix, limit) for c in node.children))


def random_parallel_root(rng: random.Random, tex: str = "t") -> MathNode:
    """A math element with semantics, both branches, linked xrefs, and a TeX
    annotation; always strict-parseable once serialized."""
    pres = _with_ids(random_pres_tree(rng, rng.randint(1, 3)), "p", [0])
    content = _with_ids(random_content_tree(rng, rng.randint(1, 3)), "c", [0])
    n_pres = sum(1 for _ in _walk(pres))
    n_content = sum(1 for _ in _walk(content))
    limit = min(n_pres, n_content)
    pres = _link(pres, "p", "c", limit)
    content = _link(content, "c", "p", limit)
    annotation = MathNode("annotation", (("encoding", "application/x-tex"),), tex)
    annotation_xml = MathNode("annotation-xml", (("encoding", "MathML-Content"),),
                              None, (content,))
    semantics = MathNode("semantics", (), None, (pres, annotation_xml, annotation))
    return MathNode("math", (), None, (semantics,))


def random_bare_root(rng: random.Random) -> MathNode:
    """A math element holding only presentation markup, no semantics."""
    return MathNode("math", (), None, (random_pres_tree(rng, rng.randint(1, 3)),))


def random_doc(rng: random.Random) -> MathDoc:
    if rng.random() < 0.25:
        return MathDoc(random_bare_root(rng))
    return MathDoc(random_parallel_root(rng, tex=f"t{rng.randint(0, 99)}"))


#: Attributes added in random order by :func:`shuffled_shared_root`.
EXTRA_ATTRIBUTES = (("class", "k"), ("dir", "rtl"), ("mathvariant", "bold"))


def shuffled_shared_root(rng: random.Random) -> MathNode:
    """The tree of :func:`random_doc`, ids and xrefs kept or dropped at
    random, with extra attributes and every attribute tuple in random order,
    the children of semantics in random order, and subtrees without ids
    occurring at several places: the same node object, not a copy."""
    keep_ids = rng.random() < 0.3
    shared: list[MathNode] = []  # finished subtrees that hold no id

    def build(node: MathNode) -> MathNode:
        children = [build(child) for child in node.children]
        if node.name == "semantics":
            rng.shuffle(children)
        elif node.name != "math" and shared:
            for at in range(len(children)):
                if rng.random() < 0.4:
                    children[at] = rng.choice(shared)
        attributes = [(key, value) for key, value in node.attributes
                      if keep_ids or key not in ("id", "xref")]
        attributes += rng.sample(EXTRA_ATTRIBUTES, rng.randint(0, 2))
        rng.shuffle(attributes)
        built = MathNode(node.name, tuple(attributes), node.text, tuple(children))
        if not any(n.has_attr("id") for n in _walk(built)):
            shared.append(built)
        return built

    return build(random_doc(rng).root)


def _walk(node: MathNode):
    yield node
    for child in node.children:
        yield from _walk(child)


def random_histogram(rng: random.Random, max_keys: int = 6, max_count: int = 9) -> dict:
    universe = ["mi", "mo", "mn", "mrow", "mfrac", "ci", "cn", "apply"]
    keys = rng.sample(universe, rng.randint(1, max_keys))
    return {k: rng.randint(1, max_count) for k in keys}


def random_label_tree(rng: random.Random, max_nodes: int = 7):
    """A (label, children) tuple tree with at most max_nodes nodes."""
    labels = "abcd"
    budget = [rng.randint(1, max_nodes)]

    def build():
        budget[0] -= 1
        children = []
        while budget[0] > 0 and rng.random() < 0.6:
            children.append(build())
        return (rng.choice(labels), tuple(children))

    return build()


def label_tree_to_node(tree) -> MathNode:
    label, children = tree
    return MathNode(label, (), None, tuple(label_tree_to_node(c) for c in children))


def random_path_expr(rng: random.Random) -> PathExpr:
    steps = []
    for i in range(rng.randint(1, 3)):
        axis = rng.choice(["child", "descendant"]) if i else rng.choice(
            ["child", "descendant", "descendant"])
        test = rng.choice(["*", "mi", "ci", "mrow", "apply", "semantics", "math",
                           "annotation", "mfrac"])
        predicates = ()
        if rng.random() < 0.3:
            predicates = ((rng.choice(["id", "xref", "encoding"]),
                           rng.choice(["p.1", "c.2", "MathML-Content", "zzz"])),)
        steps.append(Step(axis, test, predicates))
    return PathExpr(tuple(steps))


def random_selector(rng: random.Random):
    if rng.random() < 0.3:
        return PathUnion(tuple(random_path_expr(rng) for _ in range(rng.randint(2, 3))))
    return random_path_expr(rng)


# -- text-level mutators for leniency tests ---------------------------------

_TAG_OPEN_RE = re.compile(r"<([A-Za-z][A-Za-z0-9._\-]*)")
_TAG_CLOSE_RE = re.compile(r"</([A-Za-z][A-Za-z0-9._\-]*)>")

NAMED_CHARS = {"α": "&alpha;", "β": "&beta;"}


def strip_namespace(text: str) -> str:
    return text.replace(f' xmlns="{MATHML_NS}"', "", 1)


def add_prefix(text: str, prefix: str = "mml", declare: bool = True) -> str:
    """Prefix every element name; optionally turn the default namespace
    declaration into a prefixed one (otherwise leave the prefix undeclared)."""
    mutated = _TAG_OPEN_RE.sub(rf"<{prefix}:\1", text)
    mutated = _TAG_CLOSE_RE.sub(rf"</{prefix}:\1>", mutated)
    if declare:
        return mutated.replace(f' xmlns="{MATHML_NS}"', f' xmlns:{prefix}="{MATHML_NS}"', 1)
    return mutated.replace(f' xmlns="{MATHML_NS}"', "", 1)


def encode_entities(text: str) -> tuple[str, int]:
    """Replace known Greek characters with named entities; returns the new
    text and how many replacements happened."""
    count = 0
    for char, entity in NAMED_CHARS.items():
        count += text.count(char)
        text = text.replace(char, entity)
    return text, count


def _insert(rng: random.Random, text: str, piece: str) -> str:
    at = rng.randint(0, len(text))
    return text[:at] + piece + text[at:]


def _into_start_tag(rng: random.Random, text: str, piece: str) -> str:
    """Append ``piece`` to the attributes of a random start tag."""
    tags = list(_TAG_OPEN_RE.finditer(text))
    if not tags:
        return text
    at = rng.choice(tags).end()
    return text[:at] + piece + text[at:]


def _declare_prefix(rng: random.Random, text: str) -> str:
    prefix = rng.choice(["p", "mml", "f"])
    uri = rng.choice([MATHML_NS, "urn:o"])
    text = _into_start_tag(rng, text, f' xmlns:{prefix}="{uri}"')
    if rng.random() < 0.5:
        text = _into_start_tag(rng, text, f' {rng.choice(["p", "f", "xml"])}:a="1"')
    return text


def _entities(rng: random.Random, text: str) -> str:
    text, _ = encode_entities(text)
    for _ in range(rng.randint(0, 2)):
        text = _insert(rng, text, rng.choice(["&alpha;", "&amp;", "&bogus;", "&#945;", "&"]))
    return text


def _delete_chars(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        if text:
            at = rng.randrange(len(text))
            text = text[:at] + text[at + rng.randint(1, 3):]
    return text


def _nest(rng: random.Random, text: str) -> str:
    """Wrap the math element's content in up to 300 nested mrow elements."""
    depth = rng.choice([1, 126, 127, 128, 129, rng.randint(2, 300)])
    start = text.find(">") + 1
    end = text.rfind("</")
    if start <= 0 or end < start:
        return text
    return text[:start] + "<mrow>" * depth + text[start:end] + "</mrow>" * depth + text[end:]


def _mismatched_prefix_end(rng: random.Random, text: str) -> str:
    """Prefix one end tag only, so that it no longer matches its start tag."""
    tags = list(_TAG_CLOSE_RE.finditer(text))
    if not tags:
        return text
    at = rng.choice(tags).start(1)
    return text[:at] + rng.choice(["mml", "m"]) + ":" + text[at:]


def _doctype_entity(rng: random.Random, text: str) -> str:
    """Declare alpha in a DOCTYPE internal subset and use named entities."""
    value = rng.choice(["a", "x>y", ""])
    text, _ = encode_entities(text)
    return f'<!DOCTYPE math [<!ENTITY alpha "{value}">]>' + text


def _charref_namespace(rng: random.Random, text: str) -> str:
    """Write one character of each namespace URI as a character reference."""
    def encode(match):
        uri = match["uri"]
        at = rng.randrange(len(uri))
        return f'{match["key"]}="{uri[:at]}&#{ord(uri[at])};{uri[at + 1:]}"'
    return re.sub(r'(?P<key>xmlns(?::[^=\s]+)?)="(?P<uri>[^"&]+)"', encode, text)


def _external_doctype(rng: random.Random, text: str) -> str:
    """Name an external DTD subset, which the XML parser does not read, and
    use named entities."""
    text, _ = encode_entities(text)
    return '<!DOCTYPE math SYSTEM "mathml.dtd">' + text


def _entity_markup(rng: random.Random, text: str) -> str:
    """Declare internal-subset entities that the repair scan cannot see into:
    one expanding to prefixed markup, used in the math element's content,
    and one expanding to the MathML URI, bound to a prefix on the math
    element."""
    tag = _TAG_OPEN_RE.search(text)
    if tag is None:
        return text
    at, piece = (text.find(">") + 1, "&e;") if rng.random() < 0.5 else (
        tag.end(), ' xmlns:m="&ns;"')
    return (f'<!DOCTYPE math [<!ENTITY e "<m:mi>x</m:mi>"><!ENTITY ns "{MATHML_NS}">]>'
            + text[:at] + piece + text[at:])


def _control_chars(rng: random.Random, text: str) -> str:
    """Write a tab, line feed or carriage return as a character reference
    after the first character of an attribute value or of some text."""
    spots = [match.end() for match in re.finditer(r'="[^"]|>[^<\s]', text)]
    if not spots:
        return text
    at = rng.choice(spots)
    return text[:at] + rng.choice(["&#9;", "&#10;", "&#13;"]) + "z" + text[at:]


def _xmlns_element(rng: random.Random, text: str) -> str:
    """Put an element whose name has the reserved xmlns prefix, which no
    declaration can bind, first into the math element."""
    at = text.find(">") + 1
    return text[:at] + rng.choice(["<xmlns:mi/>", "<xmlns:mi>x</xmlns:mi>"]) + text[at:]


#: Text mutations for robustness tests, each ``(rng, text) -> text``.
MUTATIONS = {
    "drop-namespace": lambda rng, text: strip_namespace(text),
    "prefix": lambda rng, text: add_prefix(
        text, rng.choice(["mml", "m"]), declare=rng.random() < 0.5),
    "declare-prefix": _declare_prefix,
    "entities": _entities,
    "delete-chars": _delete_chars,
    "nest": _nest,
    "surrogate": lambda rng, text: _insert(rng, text, rng.choice(["\ud800", "\udfff"])),
    "foreign-root": lambda rng, text: text.replace(MATHML_NS, "urn:foreign", 1),
    "junk": lambda rng, text: _insert(
        rng, text, rng.choice(["<", ">", "&", "'", '"', "</mi>", "<mi>"])),
    "mismatched-prefix-end": _mismatched_prefix_end,
    "doctype-entity": _doctype_entity,
    "charref-namespace": _charref_namespace,
    "external-doctype": _external_doctype,
    "entity-markup": _entity_markup,
    "control-chars": _control_chars,
    "xmlns-element": _xmlns_element,
}


def mutate(rng: random.Random, text: str, kinds) -> str:
    """Apply the named ``MUTATIONS`` to ``text`` in order."""
    for kind in kinds:
        text = MUTATIONS[kind](rng, text)
    return text
