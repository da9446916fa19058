"""Seeded digests of the comparison measures: one line per case, each value
written with ``float.hex``, or an exception as its class name.

``ted``: one line per pair, cost set and label mode.  Each pair is drawn from
its own ``random.Random(seed)``: a label tree of 4 to 40 nodes and either a
copy of it 1-3 edits away (``near``) or a second tree drawn alone (``far``),
both with random leaf texts.  The cost sets mix integral, dyadic and inexact
costs, so the lines cover the Zhang/Shasha tables and the bounds that settle
a distance without them.

``hist``: one line per pair of histograms and measure: ``hist-abs``,
``hist-rel``, ``cosine``, discrete ``emd`` and ``emd`` under a small
override ground.  Each pair is drawn from its own ``random.Random(seed)``,
0 to 6 keys a side, with counts of a few units, of up to 64 bits, or of up to
2,000 bits, so sums pass the floats and empty sides raise.

``doc``: one line per document and output: the SHA-256 of ``serialize``,
compact and pretty, of ``canonicalize`` (marked ``same`` when it returns
the document itself) and of ``clean`` under every non-empty subset of
``CLEANABLE_FEATURES`` (or ``WouldBeEmpty``).  Each document is drawn from
its own ``random.Random(seed)``: from ``random_doc``, ``multi_semantics_root``
or ``shuffled_shared_root`` in turn, once as drawn and once as the copy
``generators.shuffled`` makes: attributes and the children of semantics
shuffled, some values holding characters that serialization escapes, and
shared subtrees still shared.

``tests/data/<name>_digest.txt`` holds the lines, and a Tier-1 test compares
them; the first differing line names its case.  A file is made on a commit
whose values are known good, by redirecting the printed lines:
``PYTHONPATH=src python tests/digest.py ted > tests/data/ted_digest.txt``.
Only a change that means to alter a value may remake it.  Standard library
only.
"""

from __future__ import annotations

import hashlib
import itertools
import pathlib
import random
import sys

import generators
from mmlkit import (CostConfig, EmptyHistogram, GroundDistance, Histogram, MathDoc,
                    WouldBeEmpty, clean, emd, serialize, tree_edit_distance)
from mmlkit.convert import canonicalize
from mmlkit.core import CLEANABLE_FEATURES
from mmlkit.similarity import HISTOGRAM_MEASURES

DATA = pathlib.Path(__file__).parent / "data"
PAIRS = 300
COSTS = ((1, 1, 1), (1, 1, 0.5), (2, 1, 3), (0.25, 0.5, 0.75), (1, 1, 0.3))
HIST_PAIRS = 2000
KEYS = ("mi", "mo", "mn", "mrow", "mfrac", "ci", "cn", "apply")
GROUND = GroundDistance({("mi", "mo"): 0.5, ("mi", "mn"): 0.25, ("ci", "cn"): 0.75,
                         ("mrow", "apply"): 2.0, ("mfrac", "mo"): 0.0})


def path(name: str) -> pathlib.Path:
    return DATA / f"{name}_digest.txt"


def size(tree) -> int:
    return 1 + sum(size(child) for child in tree[1])


def label_tree(rng: random.Random):
    """A label tree of 4 to 40 nodes."""
    while True:
        tree = generators.random_label_tree(rng, 40)
        if size(tree) >= 4:
            return tree


def pair(seed: int):
    """The kind and the two trees of pair ``seed``."""
    rng = random.Random(seed)
    tree = label_tree(rng)
    a = generators.edited(rng, tree, 0)
    if rng.random() < 0.5:
        return "near", a, generators.edited(rng, tree, rng.randint(1, 3))
    return "far", a, generators.edited(rng, label_tree(rng), 0)


def ted_lines() -> list[str]:
    out = []
    for seed in range(PAIRS):
        kind, a, b = pair(seed)
        for costs in COSTS:
            config = CostConfig(*costs)
            for label_mode in ("name", "name-text"):
                value = tree_edit_distance(a, b, config, label_mode)
                out.append(f"{seed} {kind} {','.join(map(str, costs))} {label_mode} "
                           f"{value.hex()}\n")
    return out


def counts(rng: random.Random) -> dict:
    """0 to 6 keys, all small, all up to 64 bits or all up to 2,000 bits."""
    bits = rng.choice((4, 64, 2000))
    return {key: rng.randint(1, 2 ** rng.randint(1, bits))
            for key in rng.sample(KEYS, rng.randint(0, 6))}


def hist_lines() -> list[str]:
    measures = [(name, HISTOGRAM_MEASURES[name])
                for name in ("hist-abs", "hist-rel", "cosine", "emd")]
    measures.append(("emd-ground", lambda a, b: emd(a, b, GROUND)))
    out = []
    for seed in range(HIST_PAIRS):
        rng = random.Random(seed)
        a, b = Histogram(counts(rng)), Histogram(counts(rng))
        for name, measure in measures:
            try:
                value = measure(a, b).hex()
            except (EmptyHistogram, OverflowError) as error:
                value = type(error).__name__
            out.append(f"{seed} {len(a)}x{len(b)} {name} {value}\n")
    return out


DOCS = 300
FEATURE_SETS = [features for size in range(1, len(CLEANABLE_FEATURES) + 1)
                for features in itertools.combinations(sorted(CLEANABLE_FEATURES), size)]


def document(seed: int) -> tuple[str, MathDoc, MathDoc]:
    """The kind, the drawn document and its shuffled copy of document ``seed``."""
    rng = random.Random(seed)
    kind = ("doc", "multi", "shared")[seed % 3]
    if kind == "doc":
        root = generators.random_doc(rng).root
    elif kind == "multi":
        root = generators.multi_semantics_root(rng)
    else:
        root = generators.shuffled_shared_root(rng)
    return kind, MathDoc(root), MathDoc(generators.shuffled(rng, root))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def documents():
    """``(head, document)`` for every document of the ``doc`` digest, in
    order; ``head`` starts each of its lines."""
    for seed in range(DOCS):
        kind, *docs = document(seed)
        for copy, doc in zip(("drawn", "shuffled"), docs):
            yield f"{seed} {kind} {copy}", doc


def document_lines(head: str, doc: MathDoc) -> list[str]:
    """The ``doc`` digest's lines of one document."""
    out = [f"{head} serialize {sha(serialize(doc))}\n",
           f"{head} pretty {sha(serialize(doc, pretty=True))}\n"]
    canon = canonicalize(doc)
    out.append(f"{head} canonicalize {'same' if canon is doc else 'new'} "
               f"{sha(serialize(canon))}\n")
    for features in FEATURE_SETS:
        try:
            value = sha(serialize(clean(doc, features)))
        except WouldBeEmpty as error:
            value = type(error).__name__
        out.append(f"{head} clean {','.join(features)} {value}\n")
    return out


def doc_lines() -> list[str]:
    return [line for head, doc in documents() for line in document_lines(head, doc)]


DIGESTS = {"ted": ted_lines, "hist": hist_lines, "doc": doc_lines}


if __name__ == "__main__":
    sys.stdout.write("".join(DIGESTS[sys.argv[1]]()))
