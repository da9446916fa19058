import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mmlkit
from mmlkit import (
    CostConfig,
    EmptyHistogram,
    GroundDistance,
    Histogram,
    MissingBranch,
)

import digest
import generators
import oracles

NS = mmlkit.MATHML_NS


class TestHistogramType:
    def test_zero_counts_dropped(self):
        assert Histogram({"mi": 0, "mo": 2}) == Histogram({"mo": 2})
        assert Histogram({"mi": 0}).total == 0

    def test_total(self):
        assert Histogram({"mi": 2, "mo": 3}).total == 5
        assert Histogram().total == 0

    def test_getitem_defaults_to_zero(self):
        hist = Histogram({"mi": 2})
        assert hist["mi"] == 2
        assert hist["mo"] == 0

    def test_container_protocol(self):
        hist = Histogram({"mi": 2, "mn": 0, "mo": 1})
        assert len(hist) == 2
        assert list(hist) == ["mi", "mo"]
        assert hist.__eq__(1) is NotImplemented and hist != {"mi": 2, "mo": 1}
        assert repr(hist) == "Histogram({'mi': 2, 'mo': 1})"

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram({"mi": -1})
        with pytest.raises(TypeError):
            Histogram({"mi": 1.5})
        with pytest.raises(TypeError):
            Histogram({"mi": True})
        with pytest.raises(TypeError):
            Histogram({3: 1})

    def test_to_text_sorted(self):
        hist = Histogram({"mi": 2, "apply": 1, "ci": 2})
        assert hist.to_text() == "apply\t1\nci\t2\nmi\t2\n"
        assert Histogram().to_text() == ""

    def test_from_elements(self):
        assert Histogram.from_elements(["mi", "mi", "mo"]) == Histogram({"mi": 2, "mo": 1})


class TestHistogramOp:
    def test_presentation_scope(self, listing1_doc):
        hist = mmlkit.histogram(listing1_doc, "presentation")
        assert dict(hist.counts) == {"mfrac": 1, "mi": 2}
        assert hist.total == 3

    def test_whole_scope_excludes_structural(self, listing1_doc):
        hist = mmlkit.histogram(listing1_doc, "whole")
        assert dict(hist.counts) == {"mfrac": 1, "mi": 2, "apply": 1, "divide": 1, "ci": 2}
        assert hist.total == 7

    def test_whole_scope_with_structural(self, listing1_doc):
        hist = mmlkit.histogram(listing1_doc, "whole", include_structural=True)
        assert hist["math"] == 1
        assert hist["semantics"] == 1
        assert hist["annotation-xml"] == 1
        assert hist["annotation"] == 1
        assert hist.total == 11

    def test_content_scope(self, listing1_doc):
        assert dict(mmlkit.histogram(listing1_doc, "content").counts) == {
            "apply": 1, "divide": 1, "ci": 2
        }

    def test_empty_math_gives_empty_histogram(self):
        doc, _ = mmlkit.parse(f'<math xmlns="{NS}"/>')
        assert mmlkit.histogram(doc, "whole").total == 0

    def test_missing_scope(self):
        doc, _ = mmlkit.parse(f'<math xmlns="{NS}"><mi>x</mi></math>')
        with pytest.raises(MissingBranch):
            mmlkit.histogram(doc, "content")
        with pytest.raises(ValueError):
            mmlkit.histogram(doc, "sideways")

    def test_accumulate(self):
        a = Histogram({"mi": 2})
        b = Histogram({"mi": 1, "mo": 1})
        assert mmlkit.accumulate([a, b]) == Histogram({"mi": 3, "mo": 1})
        assert mmlkit.accumulate([]) == Histogram()
        assert mmlkit.accumulate([a, Histogram()]) == a

    def test_accumulate_associative_commutative(self):
        rng = random.Random(67)
        for _ in range(30):
            hs = [Histogram(generators.random_histogram(rng)) for _ in range(3)]
            a, b, c = hs
            assert mmlkit.accumulate([mmlkit.accumulate([a, b]), c]) == mmlkit.accumulate(
                [a, mmlkit.accumulate([b, c])]
            )
            assert mmlkit.accumulate([a, b]) == mmlkit.accumulate([b, a])


@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=6),
       scope=st.sampled_from(["whole", "presentation", "content"]),
       include_structural=st.booleans())
@example(seeds=[0, 2, 1, 5], scope="content", include_structural=False)  # the third lacks it
def test_a_collection_is_counted_as_the_sum_of_its_histograms(seeds, scope,
                                                               include_structural):
    docs = [generators.random_doc(random.Random(seed)) for seed in seeds]

    def outcome(total):
        """What ``total`` gives on the documents, read one by one, and how
        many it read."""
        read = []

        def each():
            for doc in docs:
                read.append(doc)
                yield doc

        try:
            result = total(each())
        except MissingBranch:
            result = MissingBranch
        return result, len(read)

    counted = outcome(lambda each: mmlkit.similarity.collection_histogram(
        each, scope, include_structural))
    assert counted == outcome(lambda each: mmlkit.accumulate(
        mmlkit.histogram(doc, scope, include_structural) for doc in each))


class TestHistogramDistances:
    def test_absolute_frozen_values(self):
        a = Histogram({"mfrac": 1, "mi": 2})
        assert mmlkit.hist_distance_absolute(a, a) == 0
        assert mmlkit.hist_distance_absolute(a, Histogram({"mi": 3})) == 2
        assert mmlkit.hist_distance_absolute(Histogram(), Histogram({"mi": 3})) == 3

    def test_relative_frozen_values(self):
        a = Histogram({"mfrac": 1, "mi": 2})
        assert mmlkit.hist_distance_relative(a, a) == 0
        assert mmlkit.hist_distance_relative(a, Histogram({"mi": 3})) == pytest.approx(1 / 3)
        assert mmlkit.hist_distance_relative(Histogram({"mi": 2}), Histogram({"mo": 3})) == 1
        assert mmlkit.hist_distance_relative(Histogram(), Histogram()) == 0

    def test_absolute_metric_axioms(self):
        rng = random.Random(71)
        for _ in range(200):
            a = Histogram(generators.random_histogram(rng))
            b = Histogram(generators.random_histogram(rng))
            c = Histogram(generators.random_histogram(rng))
            dab = mmlkit.hist_distance_absolute(a, b)
            assert dab >= 0
            assert (dab == 0) == (a == b)
            assert dab == mmlkit.hist_distance_absolute(b, a)
            assert dab <= (
                mmlkit.hist_distance_absolute(a, c) + mmlkit.hist_distance_absolute(c, b)
            ) + 1e-9

    def test_relative_bounds_and_disjoint_maximum(self):
        rng = random.Random(73)
        for _ in range(100):
            a = Histogram(generators.random_histogram(rng))
            b = Histogram(generators.random_histogram(rng))
            value = mmlkit.hist_distance_relative(a, b)
            assert 0 <= value <= 1
            disjoint = not (set(a.counts) & set(b.counts))
            assert (value == 1) == disjoint

    def test_relative_holds_counts_too_large_for_a_float(self):
        huge = 10 ** 400
        assert mmlkit.hist_distance_relative(Histogram({"x": huge}), Histogram({"y": 1})) == 1.0
        assert mmlkit.hist_distance_relative(
            Histogram({"x": huge, "y": huge}), Histogram({"x": huge})) == 1 / 3
        assert mmlkit.hist_distance_relative(
            Histogram({"x": 3 * huge}), Histogram({"x": huge})) == 0.5


class TestCosine:
    def test_identity_is_exactly_one(self):
        hist = Histogram({"mfrac": 1, "mi": 2})
        assert mmlkit.cosine_similarity(hist, hist) == 1.0

    def test_scale_invariance_exact(self):
        rng = random.Random(79)
        for _ in range(50):
            counts = generators.random_histogram(rng)
            a = Histogram(counts)
            b = Histogram({k: v * 3 for k, v in counts.items()})
            assert abs(mmlkit.cosine_similarity(a, b) - 1.0) <= 1e-12

    def test_disjoint_is_zero(self):
        assert mmlkit.cosine_similarity(Histogram({"mi": 2}), Histogram({"mo": 3})) == 0.0

    def test_frozen_value(self):
        value = mmlkit.cosine_similarity(
            Histogram({"mfrac": 1, "mi": 2}), Histogram({"mi": 3})
        )
        assert value == pytest.approx(2 / math.sqrt(5), abs=1e-12)

    def test_counts_too_large_for_a_float(self):
        big = 10 ** 80
        value = mmlkit.cosine_similarity(
            Histogram({"x": big, "y": 1}), Histogram({"x": 1, "y": big}))
        assert value == pytest.approx(2 / big, rel=1e-12)
        value = mmlkit.cosine_similarity(
            Histogram({"x": 10 * big, "y": big}), Histogram({"x": big}))
        assert value == pytest.approx(10 / math.sqrt(101), rel=1e-12)

    def test_bounds(self):
        rng = random.Random(83)
        for _ in range(200):
            a = Histogram(generators.random_histogram(rng))
            b = Histogram(generators.random_histogram(rng))
            assert 0.0 <= mmlkit.cosine_similarity(a, b) <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyHistogram):
            mmlkit.cosine_similarity(Histogram(), Histogram({"mi": 1}))


# counts of 1 to 2,000 bits, so the L1 distance is often past the floats
_big_counts = st.dictionaries(
    st.sampled_from(["mi", "mo", "mn", "mrow", "ci", "apply"]),
    st.integers(1, 2000).flatmap(lambda bits: st.integers(2 ** (bits - 1), 2 ** bits - 1)),
    max_size=6)


@settings(max_examples=300, deadline=None)
@given(counts_a=_big_counts, counts_b=_big_counts)
def test_histogram_measures_give_the_exact_values_rounded_once(counts_a, counts_b):
    for first, second in ((counts_a, counts_b), (counts_b, counts_a)):
        a, b = Histogram(first), Histogram(second)
        keys = set(first) | set(second)
        l1 = sum(abs(first.get(k, 0) - second.get(k, 0)) for k in keys)
        try:
            expected = float(l1)
        except OverflowError:
            with pytest.raises(OverflowError):
                mmlkit.hist_distance_absolute(a, b)
        else:
            assert mmlkit.hist_distance_absolute(a, b) == expected
        ta, tb = a.total, b.total
        relative = float(Fraction(l1, ta + tb)) if ta + tb else 0.0
        assert mmlkit.hist_distance_relative(a, b).hex() == relative.hex()
        if not (ta and tb):
            for measure in (mmlkit.emd, mmlkit.cosine_similarity):
                with pytest.raises(EmptyHistogram):
                    measure(a, b)
            continue
        moved = sum(abs(Fraction(first.get(k, 0), ta) - Fraction(second.get(k, 0), tb))
                    for k in keys) / 2
        assert mmlkit.emd(a, b).hex() == float(moved).hex()
        assert mmlkit.cosine_similarity(a, b) == mmlkit.cosine_similarity(b, a)


class TestCostConfig:
    def test_defaults(self):
        costs = CostConfig()
        assert (costs.insert, costs.delete, costs.rename) == (1.0, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostConfig(insert=-1)
        with pytest.raises(ValueError):
            CostConfig(delete=math.inf)
        with pytest.raises(ValueError):
            CostConfig(rename=math.nan)
        with pytest.raises(ValueError):  # past the floats, not an OverflowError
            CostConfig(insert=10**400)
        with pytest.raises(TypeError):
            CostConfig(rename="free")


def pres(text):
    doc, _ = mmlkit.parse(f'<math xmlns="{NS}">{text}</math>')
    return doc.node(1)


class TestTreeEditDistance:
    def test_identity(self, listing1_doc):
        assert mmlkit.tree_edit_distance(listing1_doc, listing1_doc) == 0.0

    def test_single_rename(self):
        a = pres("<mfrac><mi>a</mi><mi>b</mi></mfrac>")
        b = pres("<mrow><mi>a</mi><mi>b</mi></mrow>")
        assert mmlkit.tree_edit_distance(a, b) == 1.0

    def test_fraction_to_leaf(self):
        # one mi maps across, mfrac and the other mi are deleted
        a = pres("<mfrac><mi>a</mi><mi>b</mi></mfrac>")
        b = pres("<mi>a</mi>")
        assert mmlkit.tree_edit_distance(a, b) == 2.0
        assert oracles.ted_reference(
            oracles.as_label_tree(a), oracles.as_label_tree(b)
        ) == 2.0

    def test_accepts_docs_and_nodes(self, listing1_doc):
        node = listing1_doc.root
        assert mmlkit.tree_edit_distance(listing1_doc, node) == 0.0

    def test_asymmetric_costs(self):
        a = pres("<mrow><mi>x</mi></mrow>")
        b = pres("<mi>x</mi>")
        # removal of the mrow wrapper costs delete; opposite direction costs insert
        assert mmlkit.tree_edit_distance(a, b, CostConfig(delete=3.0)) == 3.0
        assert mmlkit.tree_edit_distance(b, a, CostConfig(insert=5.0)) == 5.0

    def test_zero_rename_collapses_labels(self):
        a = pres("<mrow><mi>x</mi><mo>+</mo></mrow>")
        b = pres("<mfrac><mn>1</mn><mn>2</mn></mfrac>")
        assert mmlkit.tree_edit_distance(a, b, CostConfig(rename=0.0)) == 0.0

    def test_label_mode_name_text(self):
        a = pres("<mi>x</mi>")
        b = pres("<mi>y</mi>")
        assert mmlkit.tree_edit_distance(a, b) == 0.0
        assert mmlkit.tree_edit_distance(a, b, label_mode="name-text") == 1.0
        with pytest.raises(ValueError):
            mmlkit.tree_edit_distance(a, b, label_mode="full")

    def test_matches_reference_random_unit_costs(self):
        rng = random.Random(89)
        for _ in range(60):
            ta = generators.random_label_tree(rng)
            tb = generators.random_label_tree(rng)
            expected = oracles.ted_reference(ta, tb)
            actual = mmlkit.tree_edit_distance(
                generators.label_tree_to_node(ta), generators.label_tree_to_node(tb)
            )
            assert actual == pytest.approx(expected, abs=1e-9)

    def test_matches_reference_random_costs(self):
        rng = random.Random(97)
        for _ in range(40):
            ta = generators.random_label_tree(rng)
            tb = generators.random_label_tree(rng)
            ins = rng.choice([0.0, 0.5, 1.0, 2.5])
            dele = rng.choice([0.0, 0.5, 1.0, 3.0])
            ren = rng.choice([0.0, 0.7, 1.0, 2.0])
            expected = oracles.ted_reference(ta, tb, ins, dele, ren)
            actual = mmlkit.tree_edit_distance(
                generators.label_tree_to_node(ta),
                generators.label_tree_to_node(tb),
                CostConfig(insert=ins, delete=dele, rename=ren),
            )
            assert actual == pytest.approx(expected, abs=1e-9)

    def test_name_text_mode_matches_reference_random_costs(self):
        # leaves are labeled (name, text) and inner nodes by name alone, so a
        # leaf "a" without text must still differ from an inner "a"
        rng = random.Random(131)

        def with_leaf_texts(tree):
            label, children = tree
            kids = tuple(with_leaf_texts(c) for c in children)
            return mmlkit.MathNode(label, (), None if kids else rng.choice(["x", "y", None]), kids)

        for _ in range(60):
            a = with_leaf_texts(generators.random_label_tree(rng))
            b = with_leaf_texts(generators.random_label_tree(rng))
            ins = rng.choice([0.0, 0.5, 1.0, 2.5])
            dele = rng.choice([0.0, 0.5, 1.0, 3.0])
            ren = rng.choice([0.0, 0.7, 1.0, 2.0])
            expected = oracles.ted_reference(
                oracles.as_label_tree(a, with_text=True),
                oracles.as_label_tree(b, with_text=True),
                ins, dele, ren,
            )
            actual = mmlkit.tree_edit_distance(
                a, b, CostConfig(insert=ins, delete=dele, rename=ren), label_mode="name-text"
            )
            assert actual == pytest.approx(expected, abs=1e-9)

    def test_documents_and_bare_trees_agree_with_reference(self):
        # a document is read through its own preorder index, a bare tree
        # through a fresh walk; one tree holds the same subtree object twice
        rng = random.Random(137)

        def tree():
            node = generators.label_tree_to_node(generators.random_label_tree(rng, 5))
            leaves = tuple(mmlkit.MathNode("mi", (), rng.choice(["x", "y", None]))
                           for _ in range(rng.randint(0, 2)))
            kids = (node, *leaves, node) if rng.random() < 0.3 else (*leaves, node)
            return mmlkit.MathNode("math", (), None, kids)

        for _ in range(40):
            a, b = tree(), tree()
            for label_mode, with_text in (("name", False), ("name-text", True)):
                expected = oracles.ted_reference(oracles.as_label_tree(a, with_text),
                                                 oracles.as_label_tree(b, with_text))
                for x, y in ((a, b), (mmlkit.MathDoc(a), b), (a, mmlkit.MathDoc(b)),
                             (mmlkit.MathDoc(a), mmlkit.MathDoc(b))):
                    actual = mmlkit.tree_edit_distance(x, y, label_mode=label_mode)
                    assert actual == pytest.approx(expected, abs=1e-9)

    def test_metric_axioms_unit_costs(self):
        rng = random.Random(101)
        trees = [generators.random_label_tree(rng, 6) for _ in range(12)]
        nodes = [generators.label_tree_to_node(t) for t in trees]
        for i, a in enumerate(nodes):
            assert mmlkit.tree_edit_distance(a, a) == 0.0
            for b in nodes[i + 1:]:
                dab = mmlkit.tree_edit_distance(a, b)
                assert dab == mmlkit.tree_edit_distance(b, a)
                assert dab >= 0
        for a in nodes[:6]:
            for b in nodes[:6]:
                for c in nodes[:6]:
                    assert mmlkit.tree_edit_distance(a, b) <= (
                        mmlkit.tree_edit_distance(a, c) + mmlkit.tree_edit_distance(c, b)
                    ) + 1e-9

    def test_delete_all_insert_all_upper_bound(self):
        rng = random.Random(103)
        for _ in range(40):
            ta = generators.random_label_tree(rng)
            tb = generators.random_label_tree(rng)
            ins = rng.uniform(0.1, 2.0)
            dele = rng.uniform(0.1, 2.0)
            bound = dele * oracles.tree_size(ta) + ins * oracles.tree_size(tb)
            actual = mmlkit.tree_edit_distance(
                generators.label_tree_to_node(ta),
                generators.label_tree_to_node(tb),
                CostConfig(insert=ins, delete=dele, rename=1.0),
            )
            assert actual <= bound + 1e-9


def marked(node, mark):
    """A copy of ``node`` with ``mark`` in every text and attribute value."""
    return mmlkit.MathNode(node.name, (("class", mark),),
                           None if node.text is None else node.text + mark,
                           tuple(marked(child, mark) for child in node.children))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_trees_equal_under_the_label_mode_are_at_distance_zero(seed):
    # every text and attribute differs, so only name mode sees equal trees
    rng = random.Random(seed)
    tree = generators.random_pres_tree(rng, rng.randint(0, 2))
    a, b = marked(tree, "a"), marked(tree, "b")
    assert a != b
    for costs in (None, CostConfig(0.3, 1.7, 0.9)):
        assert mmlkit.tree_edit_distance(a, b, costs) == 0.0
        costs = costs or CostConfig()
        expected = oracles.ted_reference(
            oracles.as_label_tree(a, with_text=True), oracles.as_label_tree(b, with_text=True),
            costs.insert, costs.delete, costs.rename)
        actual = mmlkit.tree_edit_distance(a, b, costs, label_mode="name-text")
        assert actual == pytest.approx(expected, abs=1e-9)


def test_equal_postorder_labels_do_not_make_equal_trees():
    # x(y(z)) and x(z, y) list z, y, x in postorder
    z, y = mmlkit.MathNode("z"), mmlkit.MathNode("y")
    a = mmlkit.MathNode("x", children=(mmlkit.MathNode("y", children=(z,)),))
    b = mmlkit.MathNode("x", children=(z, y))
    expected = oracles.ted_reference(oracles.as_label_tree(a), oracles.as_label_tree(b))
    assert expected > 0
    assert mmlkit.tree_edit_distance(a, b) == expected == mmlkit.tree_edit_distance(b, a)


def test_trees_equal_under_the_label_mode_build_no_tables():
    # 1,501 nodes: the two distance tables would take about 36 MB
    terms = tuple(mmlkit.MathNode("msup", (), None, (
        mmlkit.MathNode("mi", (), "x"), mmlkit.MathNode("mn", (), str(k)))) for k in range(500))
    tree = mmlkit.MathNode("math", (), None, terms)
    a, b = mmlkit.MathDoc(marked(tree, "a")), mmlkit.MathDoc(marked(tree, "b"))
    assert len(a.nodes) == 1501 and a != b
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert mmlkit.tree_edit_distance(a, b) == 0.0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_near_duplicates_agree_with_reference(seed):
    # few edits apart, the postorder string edit distance and the top-down
    # distance often meet and settle the distance; else the tables run
    rng = random.Random(seed)
    tree = generators.random_label_tree(rng)
    a, b = generators.edited(rng, tree, 0), generators.edited(rng, tree, rng.randint(0, 3))
    # integral and dyadic costs sum exactly, whatever the order; 0.3 and 0.7 do not
    exact, choices = rng.choice([(True, [0.0, 1.0, 2.0, 3.0]), (True, [0.0, 0.5, 1.0, 2.5]),
                                 (False, [0.3, 0.7, 1.0])])
    costs = CostConfig(*(rng.choice(choices) for _ in range(3)))
    for label_mode, with_text in (("name", False), ("name-text", True)):
        expected = oracles.ted_reference(
            oracles.as_label_tree(a, with_text), oracles.as_label_tree(b, with_text),
            costs.insert, costs.delete, costs.rename)
        actual = mmlkit.tree_edit_distance(a, b, costs, label_mode)
        if exact:
            assert actual == expected
        else:
            assert actual == pytest.approx(expected, abs=1e-9)


def test_bounds_settle_only_costs_whose_sums_are_exact(monkeypatch):
    a = pres("<mfrac><mi>a</mi><mi>b</mi></mfrac>")
    b = pres("<mrow><mi>a</mi><mi>b</mi></mrow>")
    settled = []
    bounds = mmlkit.similarity._bounds_meet
    monkeypatch.setattr(mmlkit.similarity, "_bounds_meet",
                        lambda *args: settled.append(bounds(*args)) or settled[-1])
    assert mmlkit.tree_edit_distance(a, b) == 1.0
    assert mmlkit.tree_edit_distance(a, b, CostConfig(rename=0.5)) == 0.5
    assert mmlkit.tree_edit_distance(a, b, CostConfig(0.25, 0.5, 0.75)) == 0.75
    assert settled == [1.0, 0.5, 0.75]
    # 0.3 is no multiple of a power of two, so the tables run
    assert mmlkit.tree_edit_distance(a, b, CostConfig(rename=0.3)) == 0.3
    # 5e-324 is 2**-1074: on that scale 1.7e308 is far past 2**52, and the
    # gate works in integers, so this reaches the tables and does not overflow
    assert mmlkit.tree_edit_distance(a, b, CostConfig(5e-324, 1, 1.7e308)) == 1.0
    assert settled == [1.0, 0.5, 0.75]


def test_bounds_settle_a_swap_of_two_leaves(monkeypatch):
    # x(a, b) against x(b, a): equal label multisets, so a label-count bound
    # would be 0; the postorder strings a b x and b a x are 2 apart
    a = generators.label_tree_to_node(("x", (("a", ()), ("b", ()))))
    b = generators.label_tree_to_node(("x", (("b", ()), ("a", ()))))
    settled = []
    bounds = mmlkit.similarity._bounds_meet
    monkeypatch.setattr(mmlkit.similarity, "_bounds_meet",
                        lambda *args: settled.append(bounds(*args)) or settled[-1])
    assert mmlkit.tree_edit_distance(a, b) == 2.0
    assert settled == [2.0]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_postorder_string_edit_distance_is_a_lower_bound_on_tree_edit_distance(seed):
    # a mapping that keeps ancestors and sibling order keeps postorder, so
    # every edit script is an alignment of the postorder label strings
    rng = random.Random(seed)
    tree = generators.random_label_tree(rng, rng.choice([4, 7, 10]))
    a = generators.label_tree_to_node(tree)
    b = (generators.edited(rng, tree, rng.randint(1, 4)) if rng.random() < 0.5
         else generators.label_tree_to_node(generators.random_label_tree(rng, 10)))
    costs = [rng.choice([0.0, 0.25, 0.5, 1.0, 2.25, 3.0]) for _ in range(3)]
    labels_a = mmlkit.similarity._flatten(a, "name")[0]
    labels_b = mmlkit.similarity._flatten(b, "name")[0]
    bound = mmlkit.similarity._postorder_sed(labels_a, labels_b, *costs)
    assert bound == oracles.sed_reference(oracles.postorder_arrays(a)[0][1:],
                                          oracles.postorder_arrays(b)[0][1:], *costs)
    assert bound <= oracles.ted_reference(oracles.as_label_tree(a),
                                          oracles.as_label_tree(b), *costs)


_sed_labels = st.lists(st.sampled_from("abc"), max_size=6)


@settings(max_examples=300, deadline=None)
@given(prefix=_sed_labels, middle_a=_sed_labels, middle_b=_sed_labels, suffix=_sed_labels,
       costs=st.tuples(*[st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.25, 3.0])] * 3))
@example(prefix=["a"], middle_a=[], middle_b=[], suffix=["b"], costs=(1.0, 1.0, 1.0))
@example(prefix=["a", "b"], middle_a=[], middle_b=["c", "a"], suffix=["b"], costs=(2.25, 0.5, 3.0))
@example(prefix=[], middle_a=["b", "c"], middle_b=[], suffix=["c"], costs=(0.25, 1.0, 0.0))
def test_postorder_string_edit_distance_trims_common_ends_exactly(
        prefix, middle_a, middle_b, suffix, costs):
    # equal end labels align with each other in some best alignment, so
    # dropping a shared prefix and suffix first keeps the distance
    a, b = prefix + middle_a + suffix, prefix + middle_b + suffix
    assert mmlkit.similarity._postorder_sed((None, *a), (None, *b), *costs) == \
        oracles.sed_reference(a, b, *costs)


def test_tree_edit_distance_past_the_largest_float_raises():
    a = generators.label_tree_to_node(("a", ()))
    b = generators.label_tree_to_node(("b", (("c", ()), ("d", ()))))
    huge = CostConfig(1e308, 1e308, 1e308)
    assert mmlkit.tree_edit_distance(a, generators.label_tree_to_node(("b", ())), huge) == 1e308
    for x, y in ((a, b), (b, a)):
        with pytest.raises(OverflowError, match="past the largest float"):
            mmlkit.tree_edit_distance(x, y, huge)


def test_costs_too_large_for_exact_sums_give_the_kernel_value(monkeypatch):
    # c against c(a(c(b)), d(b, d, b)): seven inserts, which the kernel sums
    # one at a time and the lower bound multiplies, rounding apart
    a = generators.label_tree_to_node(("c", ()))
    b = generators.label_tree_to_node(
        ("c", (("a", (("c", (("b", ()),)),)), ("d", (("b", ()), ("d", ()), ("b", ()))))))
    cases = [(x, y, CostConfig(cost, cost, cost))
             for cost in (2**60, 2**60 + 256) for x, y in ((a, b), (b, a))]
    values = [mmlkit.tree_edit_distance(*case) for case in cases]
    monkeypatch.setattr(mmlkit.similarity, "_bounds_meet", lambda *args: None)
    assert [v.hex() for v in values] == [
        mmlkit.tree_edit_distance(*case).hex() for case in cases]


def test_flatten_matches_recursive_postorder():
    # a document is read through its own preorder index, its bare root
    # through a fresh walk; the last tree holds one subtree object twice
    rng = random.Random(139)

    def with_leaf_texts(tree):
        label, children = tree
        kids = tuple(with_leaf_texts(c) for c in children)
        return mmlkit.MathNode(label, (), None if kids else rng.choice(["x", "y", None]), kids)

    roots = [mmlkit.MathNode("math", (), None, (with_leaf_texts(
        generators.random_label_tree(rng, 12)),)) for _ in range(60)]
    shared = pres("<msup><mi>x</mi><mrow><mn>2</mn><mi>y</mi></mrow></msup>")
    roots.append(mmlkit.MathNode("math", (), None, (
        shared, mmlkit.MathNode("mo", (), "+"), mmlkit.MathNode("mfrac", (), None, (shared, shared)))))
    for root in roots:
        doc = mmlkit.MathDoc(root)
        for label_mode, with_text in (("name", False), ("name-text", True)):
            labels, lml, keyroots, levels = oracles.postorder_arrays(root, with_text)
            expected = (tuple(labels), tuple(lml), tuple(keyroots), tuple(map(tuple, levels)))
            for tree in (doc, doc.root):
                assert mmlkit.similarity._flatten(tree, label_mode) == expected


def test_a_document_flattens_once_per_label_mode():
    flatten = mmlkit.similarity._flatten
    doc, _ = mmlkit.parse(f'<math xmlns="{NS}"><mfrac><mi>x</mi><mn>2</mn></mfrac></math>')
    by_name = flatten(doc, "name")
    by_text = flatten(doc, "name-text")
    assert by_name[0] != by_text[0]  # the leaves carry their texts apart
    assert flatten(doc, "name") is by_name and flatten(doc, "name-text") is by_text
    # tuples throughout, so no caller can change what the document keeps
    assert all(type(part) is tuple for part in (*by_name, *by_name[3], *by_text, *by_text[3]))
    # a bare node has nowhere to keep its arrays: a fresh, equal copy each time
    assert flatten(doc.root, "name") == by_name
    assert flatten(doc.root, "name") is not flatten(doc.root, "name")
    # many distances flatten each document once per label mode, from its
    # index columns: no node of a parsed document is built
    other, _ = mmlkit.parse(f'<math xmlns="{NS}"><mi>y</mi></math>')
    stores = []

    class Recording(dict):
        def __setitem__(self, key, value):
            stores.append((self.doc, key))
            super().__setitem__(key, value)

    for tree in (doc, other):
        tree._ted_shapes = Recording(tree._ted_shapes)
        tree._ted_shapes.doc = tree
    for label_mode in ("name", "name-text", "name", "name-text"):
        for x, y in ((doc, other), (other, doc), (other, other)):
            mmlkit.tree_edit_distance(x, y, label_mode=label_mode)
    assert stores == [(other, "name"), (other, "name-text")]
    assert "_nodes" not in vars(other)


def test_deep_chains_one_rename_apart():
    def chain(middle):
        node = mmlkit.MathNode("mi", (), "x")
        for level in range(998):
            node = mmlkit.MathNode(middle if level == 500 else "mrow", (), None, (node,))
        return mmlkit.MathNode("math", (), None, (node,))

    a, b = chain("mrow"), chain("mstyle")
    assert mmlkit.tree_edit_distance(a, b) == 1.0
    assert mmlkit.tree_edit_distance(mmlkit.MathDoc(a), mmlkit.MathDoc(b)) == 1.0


def test_costs_must_be_a_cost_config():
    a, b = pres("<mi>x</mi>"), pres("<mn>1</mn>")
    with pytest.raises(TypeError, match="costs must be a CostConfig, not tuple"):
        mmlkit.tree_edit_distance(a, b, costs=(1, 1, 1))


@pytest.mark.parametrize("a,b,kind", [("x", "y", "str"), (None, None, "NoneType"),
                                      (pres("<mi>x</mi>"), ("mi", ()), "tuple")])
def test_trees_must_be_documents_or_nodes(a, b, kind):
    with pytest.raises(TypeError, match=f"trees must be a MathDoc or a MathNode, not {kind}$"):
        mmlkit.tree_edit_distance(a, b)


def test_tree_edit_distances_match_the_digest():
    # float.hex of seeded near-duplicate and unrelated pairs under integral,
    # dyadic and inexact costs, both label modes; tests/digest.py draws them
    expected = digest.path("ted").read_text(encoding="utf-8").splitlines(keepends=True)
    assert digest.ted_lines() == expected


def test_histogram_measures_match_the_digest():
    # float.hex, or the exception's class name, of all five histogram
    # measures on seeded pairs with counts of up to 2,000 bits
    expected = digest.path("hist").read_text(encoding="utf-8").splitlines(keepends=True)
    assert digest.hist_lines() == expected


class TestGroundDistance:
    def test_discrete_default(self):
        ground = GroundDistance()
        assert ground.distance("mi", "mi") == 0.0
        assert ground.distance("mi", "mo") == 1.0

    def test_overrides_symmetric(self):
        ground = GroundDistance({("mo", "mi"): 0.25})
        assert ground.distance("mi", "mo") == 0.25
        assert ground.distance("mo", "mi") == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            GroundDistance({("mi", "mo"): -1.0})
        with pytest.raises(ValueError):
            GroundDistance({("mi", "mi"): 2.0})
        with pytest.raises(ValueError):  # past the floats, not an OverflowError
            GroundDistance({("mi", "mo"): 10**400})
        with pytest.raises(TypeError, match="must be a number"):
            GroundDistance({("mi", "mo"): "0.5"})
        # a key is a pair of strings: a two-letter string is no pair
        for key in ["ab", ("a", 1), ("a", "b", "c"), "mimo"]:
            with pytest.raises(TypeError, match=re.escape(f"key {key!r}")):
                GroundDistance({key: 0.5})
        GroundDistance({("mi", "mi"): 0.0})  # explicit zero diagonal is fine


class TestEmd:
    def test_identical_is_zero(self):
        hist = Histogram({"mi": 2, "mo": 1})
        assert mmlkit.emd(hist, hist) == 0.0

    def test_two_point_case(self):
        assert mmlkit.emd(Histogram({"mi": 1}), Histogram({"mo": 1})) == 1.0

    def test_frozen_value(self):
        value = mmlkit.emd(Histogram({"mfrac": 1, "mi": 2}), Histogram({"mi": 3}))
        assert value == pytest.approx(1 / 3, abs=1e-12)

    def test_normalization_makes_scaling_invisible(self):
        a = Histogram({"mi": 1, "mo": 2})
        b = Histogram({"mi": 3, "mo": 6})
        assert mmlkit.emd(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyHistogram):
            mmlkit.emd(Histogram(), Histogram({"mi": 1}))

    def test_matches_half_l1_closed_form(self):
        rng = random.Random(107)
        for _ in range(300):
            a = generators.random_histogram(rng)
            b = generators.random_histogram(rng)
            expected = oracles.emd_half_l1(a, b)
            assert mmlkit.emd(Histogram(a), Histogram(b)) == pytest.approx(
                expected, abs=1e-9
            )

    def test_flow_solver_matches_closed_form(self):
        # an override of 1.0 keeps the discrete metric but takes the flow
        # solver instead of the half-L1 form, and both are exact
        rng = random.Random(127)
        pairs = [
            (generators.random_histogram(rng), generators.random_histogram(rng))
            for _ in range(200)
        ]
        universe = [f"k{i}" for i in range(80)]
        for _ in range(10):
            pairs.append(tuple(
                {k: rng.randint(1, 200) for k in rng.sample(universe, rng.randint(30, 60))}
                for _ in "ab"
            ))
        ground = GroundDistance({("mi", "mo"): 1.0})
        for a, b in pairs:
            assert mmlkit.emd(Histogram(a), Histogram(b)) == mmlkit.emd(
                Histogram(a), Histogram(b), ground
            )

    def test_matches_assignment_oracle_with_overrides(self):
        rng = random.Random(109)
        for _ in range(40):
            a = generators.random_histogram(rng, max_keys=4, max_count=4)
            b = generators.random_histogram(rng, max_keys=4, max_count=4)
            keys = sorted(set(a) | set(b))
            overrides = {}
            for i, x in enumerate(keys):
                for y in keys[i + 1:]:
                    if rng.random() < 0.5:
                        overrides[(x, y)] = rng.choice([0.25, 0.5, 2.0])
            ground = GroundDistance(overrides)
            expected = oracles.emd_assignment(a, b, ground.distance)
            assert mmlkit.emd(Histogram(a), Histogram(b), ground) == pytest.approx(
                expected, abs=1e-9
            )

    def test_oracles_agree_on_tiny_cases(self):
        rng = random.Random(113)
        for _ in range(15):
            a = generators.random_histogram(rng, max_keys=2, max_count=2)
            b = generators.random_histogram(rng, max_keys=2, max_count=2)
            if math.lcm(sum(a.values()), sum(b.values())) > 6:
                continue
            ground = GroundDistance({("mi", "mo"): 0.5})
            brute = oracles.emd_bruteforce(a, b, ground.distance)
            hungarian = oracles.emd_assignment(a, b, ground.distance)
            assert brute == pytest.approx(hungarian, abs=1e-12)
            assert mmlkit.emd(Histogram(a), Histogram(b), ground) == pytest.approx(
                brute, abs=1e-9
            )

    def test_override_ground_changes_cost(self):
        ground = GroundDistance({("mi", "mo"): 0.5})
        assert mmlkit.emd(Histogram({"mi": 1}), Histogram({"mo": 1}), ground) == 0.5


class TestDocumentDistance:
    def test_identity(self, listing1_doc):
        docs = [listing1_doc]
        assert mmlkit.document_distance(docs, docs, "emd") == 0.0
        assert mmlkit.document_distance(docs, docs, "cosine") == 1.0

    def test_duplication_is_invisible(self, listing1_doc):
        a = [listing1_doc]
        b = [listing1_doc, listing1_doc]
        assert abs(mmlkit.document_distance(a, b, "cosine") - 1.0) <= 1e-12
        assert abs(mmlkit.document_distance(a, b, "emd")) <= 1e-12

    def test_accumulates_before_comparing(self, listing1_doc):
        doc2, _ = mmlkit.parse(f'<math xmlns="{NS}"><mrow><mi>x</mi><mo>!</mo></mrow></math>')
        expected = mmlkit.emd(
            mmlkit.accumulate([
                mmlkit.histogram(listing1_doc), mmlkit.histogram(doc2)
            ]),
            mmlkit.histogram(doc2),
        )
        assert mmlkit.document_distance([listing1_doc, doc2], [doc2], "emd") == expected

    def test_scope_passthrough(self, listing1_doc):
        value = mmlkit.document_distance(
            [listing1_doc], [listing1_doc], "cosine", scope="presentation"
        )
        assert value == 1.0

    def test_validation(self, listing1_doc):
        with pytest.raises(ValueError):
            mmlkit.document_distance([], [listing1_doc], "emd")
        with pytest.raises(ValueError):
            mmlkit.document_distance([listing1_doc], [listing1_doc], "ted")

    @pytest.mark.parametrize("measure", list(mmlkit.similarity.HISTOGRAM_MEASURES))
    def test_every_measure_of_the_table_on_lists_and_one_shot_iterators(
            self, measure, listing1_doc):
        doc2, _ = mmlkit.parse(f'<math xmlns="{NS}"><mrow><mi>x</mi><mo>!</mo></mrow></math>')
        a, b = [listing1_doc, doc2], [doc2]
        expected = mmlkit.similarity.HISTOGRAM_MEASURES[measure](
            mmlkit.accumulate(map(mmlkit.histogram, a)), mmlkit.histogram(doc2))
        assert mmlkit.document_distance(a, b, measure) == expected
        assert mmlkit.document_distance(iter(a), (d for d in b), measure) == expected

    def test_the_table_calls_the_function_the_module_holds_now(self, listing1_doc,
                                                               monkeypatch):
        # a tracer wraps the module's functions after import; the table must see it
        monkeypatch.setattr(mmlkit.similarity, "cosine_similarity", lambda a, b: -1.0)
        assert mmlkit.document_distance([listing1_doc], [listing1_doc], "cosine") == -1.0

    def test_measure_and_ground_are_checked_before_any_document_is_read(self, listing1_doc):
        read = []

        def docs():
            read.append(1)
            yield listing1_doc

        ground = GroundDistance({("mi", "mo"): 0.5})
        for measure in ("hist-abs", "hist-rel", "cosine"):
            with pytest.raises(ValueError, match="ground distance"):
                mmlkit.document_distance(docs(), docs(), measure, ground=ground)
        with pytest.raises(ValueError, match="unknown measure 'ted'"):
            mmlkit.document_distance(docs(), docs(), "ted")
        assert read == []
        assert mmlkit.document_distance(docs(), docs(), "emd", ground=ground) == 0.0
