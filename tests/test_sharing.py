"""Documents that share node objects: with each other, and within one tree."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmlkit
from mmlkit import MathDoc, MathNode, WouldBeEmpty, core
from mmlkit.convert import canonicalize
from mmlkit.core import CLEANABLE_FEATURES

import generators
import oracles

FEATURE_SETS = [
    frozenset(features)
    for size in range(1, len(CLEANABLE_FEATURES) + 1)
    for features in itertools.combinations(sorted(CLEANABLE_FEATURES), size)
]


def cleaned(doc, features):
    """``clean``'s output and the reference's, serialized; ``None`` where
    nothing would remain."""
    try:
        got = mmlkit.serialize(mmlkit.clean(doc, features))
    except WouldBeEmpty:
        got = None
    reference = MathDoc(oracles.clean_reference(doc.root, features))
    empty = not reference.presentation_nodes and not reference.content_nodes
    return got, None if empty else mmlkit.serialize(reference)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rebuilds_agree_with_plain_rebuilds(seed):
    doc = MathDoc(generators.shuffled_shared_root(random.Random(seed)))
    before = mmlkit.serialize(doc)
    assert mmlkit.serialize(canonicalize(doc)) == mmlkit.serialize(
        MathDoc(oracles.canonicalize_reference(doc.root)))
    for features in FEATURE_SETS:
        got, expected = cleaned(doc, features)
        assert got == expected, sorted(features)
    assert mmlkit.serialize(doc) == before


@pytest.fixture()
def built(monkeypatch) -> list[str]:
    """Names of the nodes built from now on, through either constructor."""
    names: list[str] = []
    post_init, trusted = MathNode.__post_init__, core._node
    monkeypatch.setattr(MathNode, "__post_init__",
                        lambda node: names.append(node.name) or post_init(node))
    monkeypatch.setattr(core, "_node",
                        lambda name, *parts: names.append(name) or trusted(name, *parts))
    return names


def test_a_canonical_document_comes_back_as_itself(listing1_doc, built):
    assert canonicalize(listing1_doc) is listing1_doc
    assert built == []


def test_cleaning_away_nothing_returns_the_document(built):
    doc = MathDoc(MathNode("math", (), None, (
        MathNode("mrow", (), None, (MathNode("mi", (), "x"), MathNode("mn", (), "2"))),)))
    built.clear()
    for features in FEATURE_SETS:
        assert mmlkit.clean(doc, features) is doc
    assert built == []


def with_node_at(depth: int) -> MathDoc:
    """A chain of ``depth + 1`` elements, each with one leaf child besides
    the next; the only unsorted attributes, and the only id and xref, are
    on the element at ``depth``."""
    def leaf():
        return MathNode("mn", (("class", "a"), ("dir", "ltr")), "1")

    node = MathNode("math" if depth == 0 else "mrow", (("xref", "c.1"), ("id", "p.1")),
                    None, (leaf(),))
    for level in range(depth - 1, -1, -1):
        node = MathNode("math" if level == 0 else "mrow", (), None, (node, leaf()))
    return MathDoc(node)


@pytest.mark.parametrize("rebuild", [
    canonicalize, lambda doc: mmlkit.clean(doc, {"cross_references"}),
], ids=["canonicalize", "clean"])
@pytest.mark.parametrize("depth", [0, 1, 2, 7, 40])
def test_only_the_path_to_a_change_is_rebuilt(rebuild, depth, built):
    doc = with_node_at(depth)
    built.clear()
    result = rebuild(doc)
    assert built == ["mrow"] * depth + ["math"]
    # the leaves, one per element on the path, are the input's own objects
    assert [result.node(h) is doc.node(h) for h in range(len(doc.nodes))] == [
        node.name == "mn" for node in doc.nodes]
    built.clear()
    assert rebuild(result) is result
    assert built == []


def naive_walk(root: MathNode) -> list[tuple[MathNode, object]]:
    """(node, parent position) for every place in the tree, in preorder."""
    places: list[tuple[MathNode, object]] = []

    def visit(node, parent):
        here = len(places)
        places.append((node, parent))
        for child in node.children:
            visit(child, here)

    visit(root, None)
    return places


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_handles_are_preorder_positions_in_shared_trees(seed):
    root = generators.shuffled_shared_root(random.Random(seed))
    doc = MathDoc(root)
    places = naive_walk(root)
    assert len(doc.nodes) == len(places)
    for handle, (node, parent) in enumerate(places):
        assert doc.node(handle) is node
        assert doc.parent(handle) == parent
        assert doc.children_of(handle) == tuple(
            child for child, (_, up) in enumerate(places) if up == handle)
        below = []
        for other in range(len(places)):
            up = places[other][1]
            while up is not None and up != handle:
                up = places[up][1]
            if up == handle:
                below.append(other)
        assert list(doc.descendants_of(handle)) == below
        assert doc.handle(node) == next(
            first for first, (candidate, _) in enumerate(places) if candidate is node)
