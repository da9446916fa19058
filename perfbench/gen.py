"""Seeded inputs for the benchmark, built without mmlkit.

A tree is a plain tuple ``(name, attributes, text, children)``.  The emitter
below writes the exact text mmlkit's ``serialize`` produces for such a tree,
so the pristine text of every formula doubles as an independent expected
output.  Mutations add the three defects the lenient parser repairs, and each
formula records the repairs it must report.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from html.entities import html5

MATHML_NS = "http://www.w3.org/1998/Math/MathML"
TEX = "application/x-tex"
CONTENT = "MathML-Content"
#: Wrappers that mmlkit's histograms leave out by default.
STRUCTURAL = frozenset({"math", "semantics", "annotation", "annotation-xml"})

#: mrow three times over: nested rows are what ``//mrow//mi`` walks.
PRES_INNER = ("mrow", "mrow", "mrow", "mfrac", "msqrt", "msup", "msub", "mstyle")
PRES_LEAVES = ("mi", "mi", "mn", "mo")
LATIN = ("a", "b", "x", "y", "n", "k")
GREEK = ("α", "β", "γ", "θ", "λ", "π", "σ", "ω")
DIGITS = ("0", "1", "2", "10", "3.5")
OPERATORS = ("+", "=", "<", "(", ")", "−", "≤", "∑")
CONTENT_OPS = ("plus", "times", "divide", "minus", "power", "eq", "sin", "log")
CONTENT_LEAVES = ("ci", "cn")

#: Characters the entity mutation writes as HTML named entities.
ENTITY_NAMES = {
    "α": "alpha", "β": "beta", "γ": "gamma", "θ": "theta", "λ": "lambda",
    "π": "pi", "σ": "sigma", "ω": "omega", "−": "minus", "≤": "le", "∑": "sum",
}
for _char, _name in ENTITY_NAMES.items():
    assert html5[_name + ";"] == _char, _name

#: Wide vocabulary for the collections workload (no structural names).
WIDE_PRES_INNER = (
    "mrow", "mfrac", "msqrt", "mroot", "msup", "msub", "msubsup", "munder",
    "mover", "munderover", "mstyle", "mpadded", "mphantom", "menclose",
    "mfenced", "mtable",
)
WIDE_PRES_LEAVES = ("mi", "mn", "mo", "mtext", "ms", "mspace")
WIDE_CONTENT_OPS = (
    "plus", "times", "divide", "minus", "power", "eq", "neq", "lt", "gt",
    "leq", "geq", "sin", "cos", "tan", "log", "ln", "exp", "abs", "root",
    "factorial", "max", "min", "gcd", "lcm", "and", "or", "not", "union",
    "intersect", "in", "subset", "sum", "product", "int", "diff", "limit",
    "floor", "ceiling", "conjugate", "arg", "real", "imaginary",
)
#: Content names every parallel formula uses besides its operators.
CONTENT_FIXED = ("apply", "ci", "cn")


# ---------------------------------------------------------------------------
# emitting text
# ---------------------------------------------------------------------------

def _escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(value: str) -> str:
    return _escape_text(value).replace('"', "&quot;")


def emit(tree, prefix: str = "", namespace: bool = True) -> str:
    """Serialize a tuple tree the way mmlkit does, with the MathML namespace
    on the root; ``prefix`` writes every element as ``prefix:name`` bound
    through ``xmlns:prefix``, and ``namespace=False`` leaves it undeclared."""
    out: list[str] = []
    if not namespace:
        root_attrs = ""
    elif prefix:
        root_attrs = f' xmlns:{prefix}="{MATHML_NS}"'
    else:
        root_attrs = f' xmlns="{MATHML_NS}"'
    tag_prefix = prefix + ":" if prefix else ""
    stack = [(tree, root_attrs)]
    while stack:
        item, extra = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        name, attrs, text, children = item
        tag = tag_prefix + name
        attr_text = extra + "".join(f' {k}="{_escape_attr(v)}"' for k, v in attrs)
        if not children and text is None:
            out.append(f"<{tag}{attr_text}/>")
        elif not children:
            out.append(f"<{tag}{attr_text}>{_escape_text(text)}</{tag}>")
        else:
            out.append(f"<{tag}{attr_text}>")
            if text is not None:
                out.append(_escape_text(text))
            stack.append((f"</{tag}>", ""))
            stack.extend((child, "") for child in reversed(children))
    return "".join(out)


def with_entities(text: str) -> tuple[str, int]:
    """Write every mapped character as a named entity; returns the text and
    the number of entities written."""
    count = 0
    for char, name in ENTITY_NAMES.items():
        count += text.count(char)
        text = text.replace(char, f"&{name};")
    return text, count


def walk(tree):
    """Preorder over a tuple tree."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node[3]))


def size(tree) -> int:
    return sum(1 for _ in walk(tree))


def element_counts(tree) -> Counter:
    """Element-name counts without the structural wrappers."""
    return Counter(node[0] for node in walk(tree) if node[0] not in STRUCTURAL)


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

class _Names:
    """Picks names from a pool; ``cover`` makes it hand out each name once
    before repeating any, so a small corpus still uses the whole pool."""

    def __init__(self, rng: random.Random, pool, cover: bool = False):
        self.rng = rng
        self.pool = tuple(pool)
        self.unused = list(pool) if cover else []
        rng.shuffle(self.unused)

    def pick(self) -> str:
        if self.unused:
            return self.unused.pop()
        return self.rng.choice(self.pool)


def _parts(rng: random.Random, total: int, count: int) -> list[int]:
    """``total`` split into ``count`` positive parts."""
    cuts = sorted(rng.sample(range(1, total), count - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _pres_tree(rng, budget, inner: _Names, leaves: _Names, mi_texts, shape=None, max_depth=24):
    """A presentation tree with exactly ``budget`` nodes; ``shape`` (default
    ``rng``) draws its widths and splits."""
    shape = shape or rng

    def leaf():
        name = leaves.pick()
        if name == "mi":
            return (name, (), rng.choice(mi_texts), ())
        if name == "mn":
            return (name, (), rng.choice(DIGITS), ())
        if name == "mspace":
            return (name, (), None, ())
        if name in ("mtext", "ms"):
            return (name, (), rng.choice(("if", "and", "for all")), ())
        return (name, (), rng.choice(OPERATORS), ())

    def grow(n, depth):
        if n == 1:
            return leaf()
        if depth >= max_depth:
            return (inner.pick(), (), None, tuple(leaf() for _ in range(n - 1)))
        width = min(n - 1, shape.randint(1, 4))
        return (inner.pick(), (), None,
                tuple(grow(p, depth + 1) for p in _parts(shape, n - 1, width)))

    return grow(budget, 0)


def _content_tree(rng, budget, ops: _Names, leaves: _Names, shape=None, max_depth=24):
    """A content tree (apply/operator/operands) with exactly ``budget`` nodes;
    ``shape`` (default ``rng``) draws its widths and splits."""
    shape = shape or rng

    def leaf():
        name = leaves.pick()
        return (name, (), rng.choice(LATIN) if name == "ci" else rng.choice(DIGITS), ())

    def grow(n, depth):
        if n == 1:
            return leaf()
        if n < 5 or depth >= max_depth:
            return ("apply", (), None, ((ops.pick(), (), None, ()),)
                    + tuple(leaf() for _ in range(n - 2)))
        width = min(n - 2, shape.randint(1, 3))
        operands = tuple(grow(p, depth + 1) for p in _parts(shape, n - 2, width))
        return ("apply", (), None, ((ops.pick(), (), None, ()),) + operands)

    return grow(budget, 0)


def _number(tree, prefix: str, counter: list[int]):
    counter[0] += 1
    own = (("id", f"{prefix}.{counter[0]}"),)
    return (tree[0], own, tree[2], tuple(_number(c, prefix, counter) for c in tree[3]))


def _link(tree, other: str, limit: int):
    attrs = tree[1]
    k = int(attrs[0][1].split(".")[1])
    if k <= limit:
        attrs = attrs + (("xref", f"{other}.{k}"),)
    return (tree[0], attrs, tree[2], tuple(_link(c, other, limit) for c in tree[3]))


def _tex(pres) -> str:
    words = []
    for node in walk(pres):
        if node[2] is not None:
            name = ENTITY_NAMES.get(node[2])
            words.append("\\" + name if name else node[2])
    return " ".join(words)


def parallel_formula(rng, total: int, names, mi_texts=LATIN + GREEK, shape=None):
    """A math element with a presentation branch, a content branch linked to
    it through id/xref pairs, and a TeX annotation: ``total`` nodes in all.
    ``names`` holds the pickers for presentation inner and leaf names, content
    operators and content leaves; ``shape`` draws the tree shapes."""
    pres_inner, pres_leaves, content_ops, content_leaves = names
    body = total - 4  # math, semantics, annotation-xml, annotation
    n_pres = max(1, round(body * 0.6))
    n_content = max(1, body - n_pres)
    pres = _number(_pres_tree(rng, n_pres, pres_inner, pres_leaves, mi_texts, shape), "p", [0])
    content = _number(_content_tree(rng, n_content, content_ops, content_leaves, shape),
                      "c", [0])
    limit = min(n_pres, n_content)
    pres = _link(pres, "c", limit)
    content = _link(content, "p", limit)
    semantics = ("semantics", (), None, (
        pres,
        ("annotation-xml", (("encoding", CONTENT),), None, (content,)),
        ("annotation", (("encoding", TEX),), _tex(pres), ()),
    ))
    return ("math", (), None, (semantics,))


def log_grid(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes spread evenly over [lo, hi] on a log scale, each
    jittered within its own slot, so every seed gets the same spread."""
    ratio = hi / lo
    return [min(hi, int(lo * ratio ** ((i + rng.random()) / count))) for i in range(count)]


# ---------------------------------------------------------------------------
# formulas with repairs
# ---------------------------------------------------------------------------

CLEAN, NAMESPACE, ENTITIES, PREFIX = "clean", "namespace", "entities", "prefix"
#: Repair kind per size slot, cycled along each band's size grid so that every
#: kind covers the whole size range: 2/5 clean, 1/5 of each repair.
MUTATION_CYCLE = (CLEAN, NAMESPACE, ENTITIES, PREFIX, CLEAN)


@dataclass(frozen=True)
class Formula:
    tree: tuple
    pristine: str           # strict-parseable; equals mmlkit's serialization
    text: str               # what the program is given
    mutation: str
    repairs: tuple          # sorted (kind, count) the lenient parse must report


def mutate(tree, mutation) -> Formula:
    """The formula for ``tree`` with ``mutation`` applied to its text."""
    pristine = emit(tree)
    if mutation == CLEAN:
        text, repairs = pristine, ()
    elif mutation == NAMESPACE:
        text, repairs = emit(tree, namespace=False), (("namespace-inserted", 1),)
    elif mutation == ENTITIES:
        text, count = with_entities(pristine)
        repairs = (("entity-replaced", count),) if count else ()
    elif mutation == PREFIX:
        # one repair per prefixed start tag plus the dropped xmlns:mml
        text = emit(tree, prefix="mml")
        repairs = (("attribute-namespace-dropped", size(tree) + 1),)
    else:
        raise ValueError(mutation)
    return Formula(tree, pristine, text, mutation, repairs)


def make_formula(rng, total, mutation, names=None, shape=None) -> Formula:
    """One formula of ``total`` nodes carrying ``mutation``; ``names`` are the
    name pickers (see :func:`parallel_formula`), the narrow defaults if None."""
    if names is None:
        names = (_Names(rng, PRES_INNER), _Names(rng, PRES_LEAVES),
                 _Names(rng, CONTENT_OPS), _Names(rng, CONTENT_LEAVES))
    mi_texts = GREEK if mutation == ENTITIES else LATIN + GREEK
    for _ in range(100):
        formula = mutate(parallel_formula(rng, total, names, mi_texts, shape), mutation)
        # an entity formula needs a character to write as an entity
        if formula.repairs or mutation == CLEAN:
            return formula
    raise AssertionError(f"no {mutation} formula of {total} nodes")


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------

#: ingest size bands: (smallest, largest, share of the corpus) in nodes.
INGEST_BANDS = ((10, 99, 0.80), (100, 999, 0.15), (1000, 3000, 0.05))
INGEST_FORMULAS = 200


def ingest_corpus(seed: int, count: int = INGEST_FORMULAS) -> list[Formula]:
    rng = random.Random(f"ingest:{seed}")
    corpus = []
    for lo, hi, share in INGEST_BANDS:
        for i, total in enumerate(log_grid(rng, lo, hi, max(1, round(count * share)))):
            corpus.append(make_formula(rng, total, MUTATION_CYCLE[i % len(MUTATION_CYCLE)]))
    rng.shuffle(corpus)
    return corpus


RETRIEVAL_SIZES = (20, 200)
RETRIEVAL_FAMILY_SIZES = (40, 80)
RETRIEVAL_KEYS = (5, 15)


def _narrow_formula(rng, total, keys: int, mutation, shape=None) -> Formula:
    """A formula whose histogram has exactly ``keys`` element names: apply,
    ci, and a share of the rest for leaves, inner nodes and operators."""
    rest = keys - 2
    n_leaves = min(3, max(1, rest // 4))
    n_inner = min(6, max(1, (rest - n_leaves) // 2))
    n_ops = rest - n_leaves - n_inner
    for _ in range(100):
        names = (
            _Names(rng, rng.sample(("mrow", "mfrac", "msqrt", "msup", "msub", "mstyle"),
                                   n_inner), cover=True),
            _Names(rng, ("mi", "mn", "mo")[:n_leaves], cover=True),
            _Names(rng, rng.sample(CONTENT_OPS, n_ops), cover=True),
            _Names(rng, ("ci",)),
        )
        formula = make_formula(rng, total, mutation, names, shape)
        if len(element_counts(formula.tree)) == keys:
            return formula
    raise AssertionError(f"no formula of {total} nodes with {keys} element names")


def _variant(rng, tree, inner_names, edits: int):
    """A copy of a formula with ``edits`` small edits in its presentation
    branch: a leaf's text changed, an inner node renamed, or a leaf dropped
    (its xref partner then dangles).  Returns the copy and the number of
    renames and drops, which bounds its unit-cost tree edit distance to the
    original (a text change costs nothing when labels are names)."""
    pres = tree[3][0][3][0]
    targets = {rng.randrange(1, size(pres)): rng.choice(("text", "rename", "drop"))
               for _ in range(edits)}
    counter, cost = [0], [0]

    def rebuild(node):
        kind = targets.get(counter[0])
        counter[0] += 1
        name, attrs, text, children = node
        kept = []
        for child in children:
            dropped = targets.get(counter[0]) == "drop" and not child[3] and len(children) > 1
            new = rebuild(child)
            if dropped:
                cost[0] += 1
            else:
                kept.append(new)
        if kind == "rename" and children:
            new_name = rng.choice(inner_names)
            cost[0] += new_name != name
            name = new_name
        elif kind == "text" and name == "mi":
            text = rng.choice(LATIN + GREEK)
        return (name, attrs, text, tuple(kept))

    semantics = tree[3][0]
    new_semantics = semantics[:3] + ((rebuild(pres),) + semantics[3][1:],)
    return tree[:3] + ((new_semantics,),), cost[0]


def _retrieval_keys(total: int) -> int:
    lo, hi = RETRIEVAL_SIZES
    k_lo, k_hi = RETRIEVAL_KEYS
    keys = k_lo + round((k_hi - k_lo) * math.log(total / lo) / math.log(hi / lo))
    return min(k_hi, max(k_lo, keys))


@dataclass(frozen=True)
class SearchFormula:
    formula: Formula
    family: int             # -1 for a distractor
    edits: int              # renames and drops away from the family's base


def retrieval_inputs(seed: int, families: int = 30, variants: int = 2, distractors: int = 10):
    """Formulas for search, with 5-15 histogram keys rising with the size.

    Each family has a base formula of 40-80 nodes.  Its candidates are a copy
    of the base and ``variants`` edited versions (1-3 edits); its one query
    is the base in even families and one more edited version in odd ones.
    The ``distractors`` are unrelated candidates of 20-200 nodes.  Family
    and distractor sizes lie on log grids; the family base shapes do not
    depend on the seed.  Candidates carry the ingest repair mix; queries are
    clean.  Returns (candidates, queries) as :class:`SearchFormula` lists."""
    rng = random.Random(f"retrieval:{seed}")
    candidates, queries = [], []

    def repair_mix():
        return MUTATION_CYCLE[len(candidates) % len(MUTATION_CYCLE)]

    lo, hi = RETRIEVAL_FAMILY_SIZES
    for family in range(families):
        # Zhang-Shasha's work depends on the shape, which varies by a fifth
        # or more between trees of one size: the family shapes are the same
        # for every seed, so that seeds differ in names, texts, edits and
        # repairs but not in how much tree edit work they ask for.
        total = round(lo * (hi / lo) ** ((family + 0.5) / families))
        shape = random.Random(f"retrieval-shape:{family}:{families}")
        base = _narrow_formula(rng, total, _retrieval_keys(total), CLEAN, shape).tree
        inner = sorted({node[0] for node in walk(base[3][0][3][0]) if node[3]})
        edited = [_variant(rng, base, inner, rng.randint(1, 3)) for _ in range(variants + 1)]
        for tree, edits in [(base, 0)] + edited[:variants]:
            candidates.append(SearchFormula(mutate(tree, repair_mix()), family, edits))
        tree, edits = edited[variants] if family % 2 else (base, 0)
        queries.append(SearchFormula(mutate(tree, CLEAN), family, edits))
    for total in log_grid(rng, *RETRIEVAL_SIZES, distractors):
        formula = _narrow_formula(rng, total, _retrieval_keys(total), repair_mix())
        candidates.append(SearchFormula(formula, -1, 0))
    rng.shuffle(candidates)
    rng.shuffle(queries)
    return candidates, queries


COLLECTION_FILES = (20, 200)
COLLECTION_KEYS = (30, 60)
COLLECTION_FORMULA_NODES = (6, 16)
#: collections: one file in four lacks the namespace declaration.
COLLECTION_MUTATIONS = (CLEAN, CLEAN, NAMESPACE, CLEAN)


@dataclass(frozen=True)
class Paper:
    formulas: tuple[Formula, ...]
    counts: Counter         # accumulated element counts of all formulas


def _paper(rng, files: int, keys: int) -> Paper:
    """A paper whose formulas together use exactly ``keys`` element names."""
    lo, hi = COLLECTION_FORMULA_NODES
    for _ in range(100):
        n_leaves = rng.randint(3, len(WIDE_PRES_LEAVES))
        n_inner = rng.randint(6, len(WIDE_PRES_INNER))
        n_ops = keys - len(CONTENT_FIXED) - n_leaves - n_inner
        if not 1 <= n_ops <= len(WIDE_CONTENT_OPS):
            continue
        names = (
            _Names(rng, rng.sample(WIDE_PRES_INNER, n_inner), cover=True),
            _Names(rng, ("mi",) + tuple(rng.sample(WIDE_PRES_LEAVES[1:], n_leaves - 1)),
                   cover=True),
            _Names(rng, rng.sample(WIDE_CONTENT_OPS, n_ops), cover=True),
            _Names(rng, CONTENT_LEAVES, cover=True),
        )
        formulas = tuple(
            make_formula(rng, rng.randint(lo, hi), COLLECTION_MUTATIONS[i % 4], names)
            for i in range(files)
        )
        counts = Counter()
        for formula in formulas:
            counts.update(element_counts(formula.tree))
        if len(counts) == keys:
            return Paper(formulas, counts)
    raise AssertionError(f"no paper of {files} files with {keys} element names")


def collection_papers(seed: int, count: int) -> list[Paper]:
    """Papers of 20-200 formula files on a log grid, smallest first; the
    number of element names a paper uses rises from 30 to 60 with its file
    count."""
    rng = random.Random(f"collections:{seed}")
    lo, hi = COLLECTION_KEYS
    papers = []
    for i, files in enumerate(log_grid(rng, *COLLECTION_FILES, count)):
        keys = lo + round((hi - lo) * (i + rng.random()) / count)
        papers.append(_paper(rng, files, min(hi, keys)))
    return papers


def tiny_trees(seed: int, count: int, max_nodes: int = 7):
    """Pairs of small presentation trees for the exhaustive TED oracle."""
    rng = random.Random(f"tiny:{seed}")
    pairs = []
    for _ in range(count):
        pair = []
        for _ in range(2):
            names = (_Names(rng, ("mrow", "mfrac")), _Names(rng, ("mi", "mn")))
            pair.append(_pres_tree(rng, rng.randint(1, max_nodes), *names, LATIN))
        pairs.append(tuple(pair))
    return pairs

