import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmlkit
from mmlkit import MathDoc, PathExpr, PathSyntaxError, PathUnion, UnknownName
from mmlkit.query import BranchRoots, Step, default_library

import generators
import oracles

NS = mmlkit.MATHML_NS


class TestParsePath:
    def test_single_descendant_step(self):
        expr = mmlkit.parse_path("//mi")
        assert expr == PathExpr((Step("descendant", "mi"),))

    def test_child_chain(self):
        expr = mmlkit.parse_path("math/semantics/mfrac")
        assert [s.axis for s in expr.steps] == ["child", "child", "child"]
        assert [s.test for s in expr.steps] == ["math", "semantics", "mfrac"]

    def test_mixed_axes(self):
        expr = mmlkit.parse_path("//mfrac/mi")
        assert [s.axis for s in expr.steps] == ["descendant", "child"]

    def test_descendant_in_the_middle(self):
        expr = mmlkit.parse_path("math//ci")
        assert [s.axis for s in expr.steps] == ["child", "descendant"]

    def test_predicate(self):
        expr = mmlkit.parse_path("//annotation[@encoding='application/x-tex']")
        assert expr.steps[0].predicates == (("encoding", "application/x-tex"),)

    def test_multiple_predicates_and_wildcard(self):
        expr = mmlkit.parse_path("//*[@id='p.1'][@xref='c.2']")
        assert expr.steps[0].test == "*"
        assert expr.steps[0].predicates == (("id", "p.1"), ("xref", "c.2"))

    @pytest.mark.parametrize("bad,position", [
        ("", 0),
        ("/mi", 0),
        ("mi/", 3),
        ("//", 2),
        ("mi[", 2),
        ("mi[@k=v]", 2),
        ('mi[@k="v"]', 2),
        ("mi$", 2),
        ("mi//", 4),
    ])
    def test_syntax_errors_carry_position(self, bad, position):
        with pytest.raises(PathSyntaxError) as info:
            mmlkit.parse_path(bad)
        assert info.value.position == position

    @pytest.mark.parametrize("bad,position", [
        ("//mi | //m!", 10),
        ("  //m!", 5),
        ("  ", 2),
        (" /mi", 1),
        ("//mi |", 6),
        ("//mi | | //ci", 7),
        ("//mi[@k='a|b'] | x/", 19),
    ])
    def test_selector_error_positions_index_the_text_as_given(self, bad, position):
        with pytest.raises(PathSyntaxError) as info:
            mmlkit.parse_selector(bad)
        assert info.value.position == position

    def test_union_selector(self):
        query = mmlkit.parse_selector("//mi | //ci")
        assert isinstance(query, PathUnion)
        assert len(query.alternatives) == 2

    def test_union_single_part_is_plain_expr(self):
        assert isinstance(mmlkit.parse_selector("//mi"), PathExpr)

    def test_pipe_inside_quoted_value_is_literal(self):
        query = mmlkit.parse_selector("//mi[@class='a|b']")
        assert isinstance(query, PathExpr)
        assert query.steps[0].predicates == (("class", "a|b"),)

    def test_render_round_trip_handcrafted(self):
        for text in [
            "//mi",
            "math/semantics/mfrac/mi",
            "//annotation[@encoding='application/x-tex']",
            "//mi | //ci",
            "math//*[@id='p.2']",
            "_m-i.2//mi[@xlink:href='a|b]/[@c'][@id='']",
        ]:
            query = mmlkit.parse_selector(text)
            assert mmlkit.render(query) == text
            assert mmlkit.parse_selector(mmlkit.render(query)) == query

    @pytest.mark.parametrize("name", ["content-root", "presentation-root"])
    def test_a_branch_query_has_no_text_to_render(self, name):
        with pytest.raises(TypeError, match="a branch query has no selector text"):
            mmlkit.render(mmlkit.library_get(name))

    def test_render_round_trip_random(self):
        rng = random.Random(43)
        for _ in range(100):
            query = generators.random_selector(rng)
            assert mmlkit.parse_selector(mmlkit.render(query)) == query

    @pytest.mark.parametrize("test,predicates", [
        ("m i", ()),                       # renders text that does not parse
        ("", ()),
        ("1mi", ()),
        ("mi[@a='x']", ()),
        ("mi", (("a", "x']|//*[@b='y"),)),  # renders as a two-path union
        ("mi", (("a", "it's"),)),
        ("mi", (("a b", "x"),)),
        ("mi", (("", "x"),)),
        ("mi", (("@a", "x"),)),
    ])
    def test_step_refuses_what_the_grammar_cannot_write(self, test, predicates):
        with pytest.raises(ValueError):
            Step("child", test, predicates)

    def test_no_axis_or_empty_chain_the_grammar_cannot_write(self):
        with pytest.raises(ValueError, match="unknown axis 'parent'"):
            Step("parent", "mi")
        with pytest.raises(ValueError, match="at least one step"):
            PathExpr(())
        with pytest.raises(ValueError, match="at least one alternative"):
            PathUnion([])


def best_of_3(call):
    best = None
    for _ in range(3):
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


class TestSelect:
    def test_root_is_child_of_document_node(self, listing1_doc):
        assert mmlkit.select(listing1_doc, mmlkit.parse_path("math")) == [0]
        assert mmlkit.select(listing1_doc, mmlkit.parse_path("//math")) == [0]
        assert mmlkit.select(listing1_doc, mmlkit.parse_path("mi")) == []

    def test_star_selects_every_node_once(self, listing1_doc):
        assert mmlkit.select(listing1_doc, mmlkit.parse_path("//*")) == list(
            range(len(listing1_doc.nodes))
        )

    def test_descendant_mi(self, listing1_doc):
        assert mmlkit.select(listing1_doc, mmlkit.parse_path("//mi")) == [3, 4]

    def test_absent_element(self, listing1_doc):
        assert mmlkit.select(listing1_doc, mmlkit.parse_path("//mtable")) == []

    def test_child_after_descendant(self, listing1_doc):
        assert mmlkit.select(listing1_doc, mmlkit.parse_path("//mfrac/mi")) == [3, 4]
        assert mmlkit.select(listing1_doc, mmlkit.parse_path("//apply/ci")) == [8, 9]

    def test_predicate_select(self, listing1_doc):
        assert mmlkit.select(listing1_doc, mmlkit.parse_path("//*[@id='c.2']")) == [8]
        assert mmlkit.select(
            listing1_doc,
            mmlkit.parse_path("//annotation-xml[@encoding='MathML-Content']"),
        ) == [5]

    def test_union_merges_in_document_order(self, listing1_doc):
        query = mmlkit.parse_selector("//ci | //mi")
        assert mmlkit.select(listing1_doc, query) == [3, 4, 8, 9]

    def test_overlapping_union_deduplicates(self, listing1_doc):
        query = mmlkit.parse_selector("//mi | //*")
        assert mmlkit.select(listing1_doc, query) == list(range(len(listing1_doc.nodes)))

    def test_matches_reference_on_random_docs(self):
        rng = random.Random(47)
        for _ in range(60):
            doc = generators.random_doc(rng)
            for _ in range(4):
                query = generators.random_selector(rng)
                assert mmlkit.select(doc, query) == oracles.select_reference(doc, query)

    @pytest.mark.parametrize("text", [
        "//mrow//mi", "//mrow/mi", "//*/*", "//*//*", "//mrow//mrow/mi", None])
    def test_matches_reference_on_deep_docs(self, text):
        # deep trees give nested contexts: a descendant step must not scan a
        # nested interval twice, and a child step must merge their children
        rng = random.Random(71)
        for _ in range(100):
            doc = mmlkit.MathDoc(mmlkit.MathNode(
                "math", (), None, (generators.random_pres_tree(rng, 7),)))
            query = generators.random_selector(rng) if text is None else mmlkit.parse_selector(text)
            result = mmlkit.select(doc, query)
            assert result == oracles.select_reference(doc, query)
            assert all(a < b for a, b in zip(result, result[1:]))

    def test_a_comb_selects_faster_than_it_parses(self):
        # 120 nested mrow elements over 16,000 leaves: each leaf lies in 120
        # contexts of the descendant step, and is read once
        text = (f'<math xmlns="{NS}">' + "<mrow>" * 120 + "<mi>x</mi>" * 16000
                + "</mrow>" * 120 + "</math>")
        parse_s, (doc, _) = best_of_3(lambda: mmlkit.parse(text, "strict"))
        select_s, result = best_of_3(
            lambda: mmlkit.select(doc, mmlkit.parse_selector("//mrow//mi")))
        assert result == list(range(121, 121 + 16000))
        assert select_s < parse_s

    def test_results_strictly_increasing(self):
        rng = random.Random(53)
        for _ in range(20):
            doc = generators.random_doc(rng)
            query = generators.random_selector(rng)
            result = mmlkit.select(doc, query)
            assert all(a < b for a, b in zip(result, result[1:]))


#: The catalog's branch entries, each with the branch whose roots it selects.
BRANCH_ENTRIES = {"content-root": "content", "presentation-root": "presentation"}
#: Document shapes for the branch entries, each drawn from a seeded generator.
BRANCH_SHAPES = {
    "random_doc": generators.random_doc,
    "multi_semantics_root": lambda rng: MathDoc(generators.multi_semantics_root(rng)),
    "branch_root_shapes": lambda rng: MathDoc(generators.branch_root_shapes(rng)),
}


class TestLibrary:
    def test_ships_required_entries(self):
        names = set(default_library().names())
        assert {
            "all-identifiers",
            "all-presentation-identifiers",
            "all-content-identifiers",
            "all-operators",
            "all-numbers",
            "content-root",
            "presentation-root",
            "tex-annotation",
        } <= names

    def test_every_entry_parses_from_its_text(self):
        # the branch entries are no selectors; the property below covers them
        library = default_library()
        for name in library.names():
            entry = library.entry(name)
            assert entry.description
            if isinstance(entry.query, BranchRoots):
                continue
            assert mmlkit.parse_selector(entry.text) == entry.query

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            mmlkit.library_get("no-such-entry")

    def test_catalog_results_on_fixture(self, listing1_doc):
        doc = listing1_doc
        get = mmlkit.library_get
        assert mmlkit.select(doc, get("all-identifiers")) == [3, 4, 8, 9]
        assert mmlkit.select(doc, get("all-presentation-identifiers")) == [3, 4]
        assert mmlkit.select(doc, get("all-content-identifiers")) == [8, 9]
        assert mmlkit.select(doc, get("all-operators")) == []
        assert mmlkit.select(doc, get("all-numbers")) == []
        assert mmlkit.select(doc, get("tex-annotation")) == [10]
        assert mmlkit.select(doc, get("presentation-root")) == [doc.presentation_root]
        assert mmlkit.select(doc, get("content-root")) == [doc.content_root]

    def test_presentation_root_on_bare_doc(self):
        doc, _ = mmlkit.parse(f'<math xmlns="{NS}"><mrow><mi>x</mi></mrow></math>')
        assert mmlkit.select(doc, mmlkit.library_get("presentation-root")) == [
            doc.presentation_root
        ]

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           shape=st.sampled_from(sorted(BRANCH_SHAPES)))
    def test_branch_entries_select_where_the_document_says_each_branch_starts(
            self, seed, shape):
        doc = BRANCH_SHAPES[shape](random.Random(seed))
        for name, branch in BRANCH_ENTRIES.items():
            query = mmlkit.library_get(name)
            assert mmlkit.select(doc, query) == list(doc.branch_roots(branch))
            assert mmlkit.select(doc, query) == oracles.select_reference(doc, query)

    @pytest.mark.parametrize("body,content,presentation", [
        ("<apply><plus/><ci>a</ci><ci>b</ci></apply>", [1], []),
        ('<semantics><mglyph/><annotation-xml encoding="MathML-Content"><ci>x</ci>'
         "</annotation-xml></semantics>", [4], [2]),
    ])
    def test_branch_entries_where_no_selector_can_tell(self, body, content, presentation):
        doc, _ = mmlkit.parse(f'<math xmlns="{NS}">{body}</math>')
        assert mmlkit.select(doc, mmlkit.library_get("content-root")) == content
        assert mmlkit.select(doc, mmlkit.library_get("presentation-root")) == presentation

    def test_catalog_agrees_with_reference_on_random_docs(self):
        rng = random.Random(59)
        library = default_library()
        for _ in range(50):
            doc = generators.random_doc(rng)
            for name in library.names():
                query = library.get(name)
                assert mmlkit.select(doc, query) == oracles.select_reference(doc, query)

    def test_select_matches_extract_identifiers(self):
        rng = random.Random(61)
        query = mmlkit.library_get("all-identifiers")
        for _ in range(25):
            doc = generators.random_doc(rng)
            handles = [h for _, _, h in mmlkit.extract_identifiers(doc, "both")]
            assert mmlkit.select(doc, query) == handles

    def test_from_tsv_rejects_bad_lines(self):
        from mmlkit.query import PathLibrary

        with pytest.raises(ValueError):
            PathLibrary.from_tsv("only-two\tfields")
        with pytest.raises(ValueError):
            PathLibrary.from_tsv("a\t//mi\tx\na\t//ci\ty")
        library = PathLibrary.from_tsv("# comment\n\nq\t//mi\tident\n")
        assert library.names() == ["q"]
        assert len(library) == 1
        assert "q" in library and "r" not in library
