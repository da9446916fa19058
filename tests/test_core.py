import gc
import random
import time

import pytest

import mmlkit
from mmlkit import (
    DuplicateId,
    MalformedInput,
    MathDoc,
    MathNode,
    MissingBranch,
    Repair,
    WouldBeEmpty,
)
from mmlkit import core
from mmlkit.core import (
    REPAIR_ATTRIBUTE_NAMESPACE_DROPPED,
    REPAIR_ENTITY_REPLACED,
    REPAIR_NAMESPACE_INSERTED,
)

import generators
import oracles

NS = mmlkit.MATHML_NS

CANONICAL_LISTING1 = (
    '<math xmlns="http://www.w3.org/1998/Math/MathML"><semantics>'
    '<mfrac id="p.2" xref="c.1"><mi id="p.1" xref="c.2">a</mi>'
    '<mi id="p.3" xref="c.3">b</mi></mfrac>'
    '<annotation-xml encoding="MathML-Content"><apply>'
    '<divide id="c.1" xref="p.2"/><ci id="c.2" xref="p.1">a</ci>'
    '<ci id="c.3" xref="p.3">b</ci></apply></annotation-xml>'
    '<annotation encoding="application/x-tex">\\frac{a}{b}</annotation>'
    "</semantics></math>"
)


def doc_of(text, mode="lenient"):
    doc, _ = mmlkit.parse(text, mode)
    return doc


class TestFixtureParsing:
    def test_lenient_parse_reports_one_namespace_repair(self, listing1_text):
        _, report = mmlkit.parse(listing1_text, "lenient")
        assert [r.kind for r in report.repairs] == [REPAIR_NAMESPACE_INSERTED]
        assert report.repairs[0].location == 0
        assert report.dangling_xrefs == ()

    def test_strict_mode_rejects_missing_namespace(self, listing1_text):
        with pytest.raises(MalformedInput):
            mmlkit.parse(listing1_text, "strict")

    def test_branch_shapes(self, listing1_doc):
        doc = listing1_doc
        assert doc.node(doc.presentation_root).name == "mfrac"
        assert doc.node(doc.content_root).name == "apply"
        assert [c.name for c in doc.node(doc.presentation_root).children] == ["mi", "mi"]
        apply_node = doc.node(doc.content_root)
        assert [c.name for c in apply_node.children] == ["divide", "ci", "ci"]

    def test_xref_map_has_six_entries_three_pairs(self, listing1_doc):
        doc = listing1_doc
        assert len(doc.xref_map) == 6
        assert doc.xref_pairs() == {("c.1", "p.2"), ("c.2", "p.1"), ("c.3", "p.3")}

    def test_xref_map_is_symmetric(self, listing1_doc):
        doc = listing1_doc
        for id_value, partner in doc.xref_map.items():
            partner_id = doc.node(partner).attr("id")
            assert doc.node(doc.xref_map[partner_id]).attr("id") == id_value

    def test_tex_annotation(self, listing1_doc):
        assert mmlkit.get_tex(listing1_doc) == "\\frac{a}{b}"
        assert listing1_doc.annotations == (("application/x-tex", "\\frac{a}{b}"),)

    def test_canonical_serialization(self, listing1_doc):
        assert mmlkit.serialize(listing1_doc) == CANONICAL_LISTING1

    def test_round_trip_is_tree_equal(self, listing1_doc):
        text = mmlkit.serialize(listing1_doc)
        reparsed, report = mmlkit.parse(text, "strict")
        assert report.repairs == ()
        assert reparsed == listing1_doc


    def test_each_element_is_built_once(self, listing1_text, monkeypatch):
        # count constructions through the public constructor and the
        # parser's unchecked one alike
        built = []
        post_init, trusted = MathNode.__post_init__, core._node
        monkeypatch.setattr(MathNode, "__post_init__",
                            lambda node: built.append(node.name) or post_init(node))
        monkeypatch.setattr(core, "_node",
                            lambda name, *parts: built.append(name) or trusted(name, *parts))
        for text, mode in ((listing1_text, "lenient"), (CANONICAL_LISTING1, "strict")):
            built.clear()
            doc, _ = mmlkit.parse(text, mode)
            assert len(built) == len(doc.nodes) == 11


class TestLenientRepairs:
    def test_namespace_insertion_minimal(self):
        doc, report = mmlkit.parse("<math><mi>x</mi></math>")
        assert [r.kind for r in report.repairs] == [REPAIR_NAMESPACE_INSERTED]
        assert doc.root.children[0].text == "x"

    def test_entity_replacement(self):
        doc, report = mmlkit.parse(f'<math xmlns="{NS}"><mi>&alpha;</mi></math>')
        assert [r.kind for r in report.repairs] == [REPAIR_ENTITY_REPLACED]
        assert doc.root.children[0].text == "α"

    def test_entity_replacement_multi_codepoint(self):
        # some HTML5 entities expand to more than one code point
        doc, report = mmlkit.parse(f'<math xmlns="{NS}"><mo>&nGt;</mo></math>')
        assert [r.kind for r in report.repairs] == [REPAIR_ENTITY_REPLACED]
        assert doc.root.children[0].text == "≫⃒"

    def test_entity_in_attribute_value(self):
        doc, report = mmlkit.parse(
            f'<math xmlns="{NS}"><mi class="&alpha;x">a</mi></math>'
        )
        assert [r.kind for r in report.repairs] == [REPAIR_ENTITY_REPLACED]
        assert doc.root.children[0].attr("class") == "αx"

    def test_unknown_entity_fails_both_modes(self):
        for mode in ("lenient", "strict"):
            with pytest.raises(MalformedInput):
                mmlkit.parse(f'<math xmlns="{NS}"><mi>&nosuchentity;</mi></math>', mode)

    def test_predefined_entities_untouched(self):
        doc, report = mmlkit.parse(f'<math xmlns="{NS}"><mo>&lt;&amp;</mo></math>')
        assert report.repairs == ()
        assert doc.root.children[0].text == "<&"

    def test_declared_prefix_dropped(self):
        text = f'<m:math xmlns:m="{NS}"><m:mi>x</m:mi></m:math>'
        doc, report = mmlkit.parse(text)
        kinds = {r.kind for r in report.repairs}
        assert kinds == {REPAIR_ATTRIBUTE_NAMESPACE_DROPPED}
        # two element starts plus the declaration itself
        assert len(report.repairs) == 3
        assert doc.root.name == "math"
        assert doc.root.children[0].name == "mi"

    def test_undeclared_prefix_dropped_and_namespace_inserted(self):
        doc, report = mmlkit.parse("<m:math><m:mi>x</m:mi></m:math>")
        kinds = [r.kind for r in report.repairs]
        assert kinds.count(REPAIR_NAMESPACE_INSERTED) == 1
        assert kinds.count(REPAIR_ATTRIBUTE_NAMESPACE_DROPPED) == 2
        assert doc.root.children[0].name == "mi"

    def test_prefixed_attribute_dropped(self):
        text = f'<math xmlns="{NS}" xmlns:m="{NS}"><mi m:var="x">a</mi></math>'
        doc, report = mmlkit.parse(text)
        assert {r.kind for r in report.repairs} == {REPAIR_ATTRIBUTE_NAMESPACE_DROPPED}
        assert doc.root.children[0].attr("var") == "x"

    def test_foreign_prefix_kept_verbatim(self):
        text = (
            f'<math xmlns="{NS}" xmlns:svg="http://www.w3.org/2000/svg">'
            "<mstyle><svg:svg/></mstyle></math>"
        )
        doc, report = mmlkit.parse(text)
        assert report.repairs == ()
        assert doc.root.children[0].children[0].name == "svg:svg"
        # and therefore strict mode accepts the same input
        strict_doc, _ = mmlkit.parse(text, "strict")
        assert strict_doc == doc

    def test_repair_locations_are_byte_offsets(self):
        text = f'<math xmlns="{NS}"><mi>αβ</mi><mi>&gamma;</mi></math>'
        _, report = mmlkit.parse(text)
        index = text.find("&gamma;")
        assert report.repairs[0].location == len(text[:index].encode("utf-8"))

    def test_all_three_rules_together(self):
        text = '<m:math><m:mi>&alpha;</m:mi></m:math>'
        doc, report = mmlkit.parse(text)
        kinds = [r.kind for r in report.repairs]
        assert kinds[0] == REPAIR_NAMESPACE_INSERTED
        assert REPAIR_ENTITY_REPLACED in kinds
        assert REPAIR_ATTRIBUTE_NAMESPACE_DROPPED in kinds
        assert doc.root.children[0].text == "α"
        with pytest.raises(MalformedInput):
            mmlkit.parse(text, "strict")

    def test_strict_rejects_mathml_bound_prefix_declaration(self):
        text = f'<math xmlns="{NS}" xmlns:m="{NS}"><mi>x</mi></math>'
        with pytest.raises(MalformedInput):
            mmlkit.parse(text, "strict")
        doc, report = mmlkit.parse(text)  # lenient drops the declaration
        assert {r.kind for r in report.repairs} == {REPAIR_ATTRIBUTE_NAMESPACE_DROPPED}
        assert not any(k.startswith("xmlns") for k, _ in doc.root.attributes)

    def test_strict_rejects_undeclared_prefix(self):
        text = f'<math xmlns="{NS}"><m:mi>x</m:mi></math>'
        with pytest.raises(MalformedInput):
            mmlkit.parse(text, "strict")

    def test_prefix_declaration_is_scoped_to_its_subtree(self):
        # f is declared on the empty mrow only, so f:mi is outside its scope
        text = f'<math xmlns="{NS}"><mrow xmlns:f="urn:o"/><f:mi>x</f:mi></math>'
        doc, report = mmlkit.parse(text)
        assert report.repairs == (
            Repair(REPAIR_ATTRIBUTE_NAMESPACE_DROPPED, text.index("<f:mi")),)
        assert [c.name for c in doc.root.children] == ["mrow", "mi"]
        with pytest.raises(MalformedInput, match="undeclared namespace prefix 'f'"):
            mmlkit.parse(text, "strict")
        # inside the declaring element's subtree the prefix stays foreign
        text = f'<math xmlns="{NS}"><mrow xmlns:f="urn:o"><f:mi>x</f:mi></mrow></math>'
        doc, report = mmlkit.parse(text)
        assert report.repairs == ()
        assert doc == mmlkit.parse(text, "strict")[0]

    def test_prefixed_end_tag_of_an_unprefixed_element_is_a_repair(self):
        text = f'<math xmlns="{NS}"><mi>x</mml:mi></math>'
        doc, report = mmlkit.parse(text)
        assert report.repairs == (
            Repair(REPAIR_ATTRIBUTE_NAMESPACE_DROPPED, text.index("</mml:mi>")),)
        assert doc.root.children[0].name == "mi"
        with pytest.raises(MalformedInput, match="mismatched tag"):
            mmlkit.parse(text, "strict")
        # a matching prefixed pair is one repair, made at its start tag
        text = f'<math xmlns="{NS}"><mml:mi>x</mml:mi><mi>y</m:mi></math>'
        _, report = mmlkit.parse(text)
        assert report.repairs == (
            Repair(REPAIR_ATTRIBUTE_NAMESPACE_DROPPED, text.index("<mml:mi>")),
            Repair(REPAIR_ATTRIBUTE_NAMESPACE_DROPPED, text.index("</m:mi>")),
        )

    def test_entities_declared_in_the_doctype_are_left_to_the_xml_parser(self):
        # the internal subset holds a '>' and, in a comment, an apostrophe
        text = (f"<!DOCTYPE math [<!-- don't --><!ENTITY alpha \"a>b\">]>"
                f'<math xmlns="{NS}"><mi>&alpha;</mi></math>')
        doc, report = mmlkit.parse(text)
        assert report.repairs == ()
        assert doc.root.children[0].text == "a>b"
        assert doc == mmlkit.parse(text, "strict")[0]
        # an entity the subset does not declare is still replaced
        doc, report = mmlkit.parse(text.replace("<mi>&alpha;", "<mi>&alpha;&beta;"))
        assert [r.kind for r in report.repairs] == [REPAIR_ENTITY_REPLACED]
        assert doc.root.children[0].text == "a>bβ"

    def test_dropped_declaration_keeps_its_tag_apart_from_what_follows(self):
        # the value runs straight into ":plus"; taking the space before the
        # declaration as well would glue "mrow" to it
        text = f'<math xmlns="{NS}"><mrow xmlns:f="{NS}":plus id="c"/></math>'
        for mode in ("lenient", "strict"):
            with pytest.raises(MalformedInput, match="not well-formed"):
                mmlkit.parse(text, mode)
        # followed by whitespace, "/" or ">", the space goes with it
        for tail in (" ></mrow>", "/>", "></mrow>"):
            text = f'<math xmlns="{NS}"><mrow xmlns:f="{NS}"{tail}</math>'
            doc, report = mmlkit.parse(text)
            assert [r.kind for r in report.repairs] == [REPAIR_ATTRIBUTE_NAMESPACE_DROPPED]
            assert mmlkit.serialize(doc) == f'<math xmlns="{NS}"><mrow/></math>'

    def test_namespace_values_are_compared_after_character_references(self):
        text = (f'<math xmlns="{NS}" xmlns:m="&#104;ttp://www.w3.org/1998/Math/MathML">'
                "<m:mi>x</m:mi></math>")
        with pytest.raises(MalformedInput, match="prefix 'm' bound to the MathML"):
            mmlkit.parse(text, "strict")
        doc, report = mmlkit.parse(text)
        assert report.repairs == (
            Repair(REPAIR_ATTRIBUTE_NAMESPACE_DROPPED, text.index("xmlns:m")),
            Repair(REPAIR_ATTRIBUTE_NAMESPACE_DROPPED, text.index("<m:mi>")),
        )
        assert mmlkit.serialize(doc) == f'<math xmlns="{NS}"><mi>x</mi></math>'

    def test_entities_skipped_under_an_external_subset_raise(self):
        # expat does not read mathml.dtd and would skip the entity silently
        text = (f'<!DOCTYPE math SYSTEM "mathml.dtd">\n<math xmlns="{NS}">'
                "<mi>&alpha;</mi>\n<mi>&bogus;</mi></math>")
        with pytest.raises(MalformedInput, match=r"undefined entity &alpha;: line 2, column 53"):
            mmlkit.parse(text, "strict")
        # lenient mode replaces the known entity, then fails at the unknown one
        with pytest.raises(MalformedInput, match=r"undefined entity &bogus;: line 3, column 4"):
            mmlkit.parse(text)
        doc, report = mmlkit.parse(text.replace("&bogus;", "y"))
        assert [r.kind for r in report.repairs] == [REPAIR_ENTITY_REPLACED]
        assert [node.text for node in doc.nodes[1:]] == ["α", "y"]

    def test_entities_skipped_in_attribute_values_raise(self):
        # expat drops an undeclared entity from an attribute value under an
        # external subset without calling any handler
        text = (f'<!DOCTYPE math PUBLIC "-//W3C//DTD MathML 2.0//EN" "mathml2.dtd">\n'
                f'<math xmlns="{NS}">\n<mi a="&bogus;&foo;">x</mi></math>')
        for mode in ("lenient", "strict"):
            with pytest.raises(MalformedInput,
                               match=r"^undefined entity &bogus;: line 3, column 7$"):
                mmlkit.parse(text, mode)
        # lenient mode replaces a known entity first; a declared one is expat's
        text = text.replace("&bogus;&foo;", "&alpha;&foo;").replace(
            "mathml2.dtd\">", 'mathml2.dtd" [<!ENTITY foo "f">]>')
        with pytest.raises(MalformedInput, match="undefined entity &alpha;: line 3, column 7"):
            mmlkit.parse(text, "strict")
        doc, report = mmlkit.parse(text)
        assert [r.kind for r in report.repairs] == [REPAIR_ENTITY_REPLACED]
        assert doc.root.children[0].attr("a") == "αf"

    def test_undefined_entity_in_a_value_is_reported_where_it_stands(self):
        # expat gives the place of the start tag; the message gives the entity's
        text = f'<math xmlns="{NS}">\n  <mi a="x&bogus;">y</mi></math>'
        for mode in ("lenient", "strict"):
            with pytest.raises(MalformedInput, match=(
                    r"^not well-formed XML: undefined entity: line 2, column 10$")):
                mmlkit.parse(text, mode)
        # after the repairs, in the original input; strict mode fails at &alpha;
        text = '<math>\n  <mi a="é&alpha;&bogus;">y</mi></math>'
        for mode, column in (("lenient", 17), ("strict", 10)):
            with pytest.raises(MalformedInput, match=f"undefined entity: line 2, column {column}$"):
                mmlkit.parse(text, mode)
        # in character data expat's own place is the entity's
        text = f'<math xmlns="{NS}">\n  <mi>x&b-gus;</mi></math>'
        for mode in ("lenient", "strict"):
            with pytest.raises(MalformedInput, match="undefined entity: line 2, column 7$"):
                mmlkit.parse(text, mode)

    def test_an_element_name_with_the_xmlns_prefix_is_rejected(self):
        # no declaration binds the xmlns prefix, and the scan never drops it
        text = f'<math xmlns="{NS}"><xmlns:foo/></math>'
        for mode in ("lenient", "strict"):
            with pytest.raises(MalformedInput) as info:
                mmlkit.parse(text, mode)
            assert str(info.value) == "undeclared namespace prefix 'xmlns' (strict mode)"

    @pytest.mark.parametrize("text", [
        f'<math xmlns="{NS}"><mi &p:a="1">x</mi></math>',
        f'<math xmlns="{NS}"><mi !p:a="1">x</mi></math>',
        f'<math xmlns="{NS}"><mi ;p:a="1">x</mi></math>',
        "<mml:math><mml:mi>x</mm&bogus;l:mi></mml:math>",
    ])
    def test_text_that_is_not_a_name_is_never_a_prefix(self, text):
        with pytest.raises(MalformedInput) as strict:
            mmlkit.parse(text, "strict")
        with pytest.raises(MalformedInput) as lenient:
            mmlkit.parse(text)
        assert str(lenient.value) == str(strict.value)

    @pytest.mark.parametrize("text, message", [
        (f'<!DOCTYPE math [<!ENTITY e "<m:mi>x</m:mi>">]><math xmlns="{NS}">&e;</math>',
         "undeclared namespace prefix 'm' (strict mode)"),
        (f'<!DOCTYPE math [<!ENTITY ns "{NS}">]><math xmlns="{NS}" xmlns:m="&ns;">'
         "<m:mi>x</m:mi></math>", "prefix 'm' bound to the MathML namespace (strict mode)"),
    ])
    def test_markup_from_entity_expansions_gets_strict_checks(self, text, message):
        # the repair scan never sees what an internal-subset entity expands to
        for mode in ("lenient", "strict"):
            with pytest.raises(MalformedInput) as info:
                mmlkit.parse(text, mode)
            assert str(info.value) == message

    def test_an_entity_in_a_dropped_declaration_goes_with_it(self):
        # html.unescape reads "&colon;" as ":", so the value names MathML
        text = '<math xmlns:m="http&colon;//www.w3.org/1998/Math/MathML"><m:mi>x</m:mi></math>'
        doc, report = mmlkit.parse(text)
        assert report.repairs == (
            Repair(REPAIR_ATTRIBUTE_NAMESPACE_DROPPED, text.index("xmlns:m")),
            Repair(REPAIR_ATTRIBUTE_NAMESPACE_DROPPED, text.index("<m:mi>")),
        )
        assert mmlkit.serialize(doc) == f'<math xmlns="{NS}"><mi>x</mi></math>'

    def test_entity_expansions_are_checked_also_after_repairs(self):
        text = (f'<!DOCTYPE math [<!ENTITY e "<m:mi>x</m:mi>">]>'
                f'<math xmlns="{NS}"><mi>&alpha;</mi>&e;</math>')
        with pytest.raises(MalformedInput,
                           match=r"^undeclared namespace prefix 'm' \(strict mode\)$"):
            mmlkit.parse(text)
        # a math element bound to MathML through a prefix is still repaired
        doc, report = mmlkit.parse(f'<!DOCTYPE math [<!ENTITY a "y">]>'
                                   f'<m:math xmlns:m="{NS}"><m:mi>&a;</m:mi></m:math>')
        assert {r.kind for r in report.repairs} == {REPAIR_ATTRIBUTE_NAMESPACE_DROPPED}
        assert mmlkit.serialize(doc) == f'<math xmlns="{NS}"><mi>y</mi></math>'

    def test_repair_locations_are_byte_offsets_of_their_constructs(self):
        # rule 1 on the math element, entities in text and attribute values,
        # prefixed element names and attribute keys, and dropped MathML
        # declarations, among 1- to 4-byte characters; nothing inside
        # comments or CDATA is repaired
        rng = random.Random(3)
        parts = ["<m:math>"]
        expected = {REPAIR_NAMESPACE_INSERTED: [0], REPAIR_ENTITY_REPLACED: [],
                    REPAIR_ATTRIBUTE_NAMESPACE_DROPPED: [0]}

        def add(piece, kind=None, at=None):
            if kind is not None:
                expected[kind].append(sum(map(len, parts)) + piece.index(at))
            parts.append(piece)

        for _ in range(60):
            chars = "".join(rng.choice("xé€𝔸") for _ in range(rng.randint(0, 3)))
            choice = rng.randrange(6)
            if choice == 0:
                add(f"<mi>{chars}")
                add("&alpha;", REPAIR_ENTITY_REPLACED, "&")
                add(f"{chars}</mi>")
            elif choice == 1:
                add(f'<mi class="{chars}')
                add('&beta;">', REPAIR_ENTITY_REPLACED, "&")
                add(f"{chars}</mi>")
            elif choice == 2:
                add(f"<m:mo>{chars}</m:mo>", REPAIR_ATTRIBUTE_NAMESPACE_DROPPED, "<")
            elif choice == 3:
                add("<mn")
                add(f' m:k="{chars}">', REPAIR_ATTRIBUTE_NAMESPACE_DROPPED, "m:")
                add("1</mn>")
            elif choice == 4:
                add("<mrow")
                add(f' xmlns:q="{NS}"', REPAIR_ATTRIBUTE_NAMESPACE_DROPPED, "x")
                add(">")
                add(f"<q:mi>{chars}</q:mi></mrow>", REPAIR_ATTRIBUTE_NAMESPACE_DROPPED, "<")
            else:
                add(f"<!-- &gamma; {chars} --><mtext><![CDATA[&delta;{chars}]]></mtext>")
        add("</m:math>")
        text = "".join(parts)

        doc, report = mmlkit.parse(text)
        locations = [index for kind in expected for index in sorted(expected[kind])]
        assert [r.kind for r in report.repairs] == [
            kind for kind in expected for _ in expected[kind]]
        assert [r.location for r in report.repairs] == [
            len(text[:index].encode("utf-8")) for index in locations]
        assert len(doc.root.children) == 60

    def test_repair_scan_is_linear_in_entities_and_comments(self):
        # 16 k entities in text and 16 k comments that hold entities: only
        # the entities outside comments are repaired
        unit = "<mi>&alpha;</mi><!-- &beta; -->"
        text = f'<math xmlns="{NS}"><mrow>' + unit * 16384 + "</mrow></math>"
        started = time.perf_counter()
        doc, report = mmlkit.parse(text)
        elapsed = time.perf_counter() - started
        assert len(text) > 480_000
        assert [r.location for r in report.repairs] == [
            text.index("<mrow>") + 6 + 4 + i * len(unit) for i in range(16384)]
        assert {r.kind for r in report.repairs} == {REPAIR_ENTITY_REPLACED}
        assert len(doc.nodes) == 16386
        assert elapsed < 5.0


class TestParsingEdges:
    def test_parse_leaves_no_reference_cycles(self, listing1_text):
        # a cycle through the XML parser would keep each input and its
        # repaired text alive until the cyclic collector runs
        texts = [listing1_text, "<math><mi>x</math>",
                 f'<!DOCTYPE math SYSTEM "m.dtd"><math xmlns="{NS}">&bogus;</math>']
        gc.collect()
        gc.disable()
        try:
            for text in texts:
                for mode in ("lenient", "strict"):
                    try:
                        mmlkit.parse(text, mode)
                    except MalformedInput:
                        pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_empty_and_whitespace_input(self):
        for bad in ("", "   \n\t"):
            with pytest.raises(MalformedInput):
                mmlkit.parse(bad)

    def test_non_math_root(self):
        with pytest.raises(MalformedInput):
            mmlkit.parse(f'<mrow xmlns="{NS}"><mi>x</mi></mrow>')

    def test_foreign_root_namespace_rejected_both_modes(self):
        text = '<math xmlns="http://example.org/not-mathml"><mi>x</mi></math>'
        for mode in ("lenient", "strict"):
            with pytest.raises(MalformedInput):
                mmlkit.parse(text, mode)

    def test_unbalanced_markup(self):
        with pytest.raises(MalformedInput):
            mmlkit.parse(f'<math xmlns="{NS}"><mi>x</mi>')

    def test_multiple_top_level_elements(self):
        with pytest.raises(MalformedInput):
            mmlkit.parse(f'<math xmlns="{NS}"/><math xmlns="{NS}"/>')

    def test_duplicate_id_is_hard_error_even_lenient(self):
        text = f'<math xmlns="{NS}"><mi id="k">x</mi><mi id="k">y</mi></math>'
        with pytest.raises(DuplicateId) as info:
            mmlkit.parse(text)
        assert "k" in str(info.value)

    @pytest.mark.parametrize("text,modes,message", [
        ("<math><mi>x</mi></math>", ("strict",),
         "math element lacks a namespace declaration (strict mode)"),
        (f'<math xmlns="{NS}"><mi xmlns:m="{NS}">x</mi></math>', ("strict",),
         "prefix 'm' bound to the MathML namespace (strict mode)"),
        (f'<math xmlns="{NS}"><f:mi>x</f:mi></math>', ("strict",),
         "undeclared namespace prefix 'f' (strict mode)"),
        (f'<math xmlns="{NS}"><mi f:a="1">x</mi></math>', ("strict",),
         "undeclared namespace prefix 'f' (strict mode)"),
        # a declaration is scoped to its element's subtree
        (f'<math xmlns="{NS}"><mrow xmlns:f="urn:o"/><f:mi>x</f:mi></math>', ("strict",),
         "undeclared namespace prefix 'f' (strict mode)"),
        # the first violation in preorder wins; the element name before its attributes
        (f'<math xmlns="{NS}"><g:mi f:a="1">x</g:mi><mi xmlns:m="{NS}">y</mi></math>',
         ("strict",), "undeclared namespace prefix 'g' (strict mode)"),
        ('<math xmlns="urn:o"><mi>x</mi></math>', ("lenient", "strict"),
         "math element declares a foreign namespace 'urn:o'"),
        # strict violations take precedence over a foreign root namespace
        ('<math xmlns="urn:o"><f:mi>x</f:mi></math>', ("strict",),
         "undeclared namespace prefix 'f' (strict mode)"),
        ('<math xmlns="urn:o"><f:mi>x</f:mi></math>', ("lenient",),
         "math element declares a foreign namespace 'urn:o'"),
        # well-formedness and the root name take precedence over strict checks
        ("<math><mi>x</mi>", ("strict",), "not well-formed XML: "),
        ("<mrow><f:mi>x</f:mi></mrow>", ("lenient", "strict"),
         "input does not contain a math root element (found 'mrow')"),
    ])
    def test_error_messages_and_precedence(self, text, modes, message):
        for mode in modes:
            with pytest.raises(MalformedInput) as info:
                mmlkit.parse(text, mode)
            assert str(info.value).startswith(message)

    @pytest.mark.parametrize("mode", ["lenient", "strict"])
    def test_lone_surrogate_is_malformed(self, mode):
        with pytest.raises(MalformedInput, match="unparseable input"):
            mmlkit.parse("<math>\ud800&alpha;</math>", mode)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            mmlkit.parse("<math/>", "relaxed")

    def test_comments_and_xml_declaration_ignored(self):
        text = (
            '<?xml version="1.0"?><!-- leading -->'
            f'<math xmlns="{NS}"><!-- inner --><mi>x</mi></math>'
        )
        doc, report = mmlkit.parse(text, "strict")
        assert report.repairs == ()
        assert [c.name for c in doc.root.children] == ["mi"]

    def test_entity_not_replaced_inside_comment(self):
        text = f'<math xmlns="{NS}"><!-- &alpha; --><mi>x</mi></math>'
        _, report = mmlkit.parse(text)
        assert report.repairs == ()

    def test_text_whitespace_trimmed_but_nbsp_kept(self):
        doc = doc_of(f'<math xmlns="{NS}"><mi>  a b \n</mi></math>')
        assert doc.root.children[0].text == "a b"
        doc = doc_of(f'<math xmlns="{NS}"><mtext>&#160;</mtext></math>')
        assert doc.root.children[0].text == " "

    def test_inter_element_whitespace_dropped(self):
        doc = doc_of(f'<math xmlns="{NS}">\n  <mrow>\n    <mi>x</mi>\n  </mrow>\n</math>')
        assert doc.root.text is None
        assert doc.root.children[0].text is None

    def test_cdata_becomes_text(self):
        doc = doc_of(f'<math xmlns="{NS}"><mtext><![CDATA[a < b]]></mtext></math>')
        assert doc.root.children[0].text == "a < b"


class TestModel:
    def test_node_validation(self):
        with pytest.raises(ValueError):
            MathNode("")
        with pytest.raises(ValueError):
            MathNode("bad name")
        with pytest.raises(ValueError):
            MathNode("mi", (("k", "1"), ("k", "2")))

    def test_node_accepts_mapping_attributes(self):
        node = MathNode("mi", {"id": "a"}, "x")
        assert node.attributes == (("id", "a"),)
        assert node.attr("id") == "a"
        assert node.attr("missing") is None
        assert node.attr("missing", "d") == "d"

    def test_tree_equality_is_structural(self):
        a = MathNode("mrow", (), None, (MathNode("mi", (), "x"),))
        b = MathNode("mrow", (), None, (MathNode("mi", (), "x"),))
        c = MathNode("mrow", (), None, (MathNode("mi", (), "y"),))
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_doc_requires_math_root(self):
        with pytest.raises(MalformedInput):
            MathDoc(MathNode("mrow"))

    def test_handles_are_preorder_indices(self, listing1_doc):
        doc = listing1_doc
        names = [doc.node(h).name for h in range(len(doc.nodes))]
        assert names == [
            "math", "semantics", "mfrac", "mi", "mi",
            "annotation-xml", "apply", "divide", "ci", "ci", "annotation",
        ]
        for handle, node in enumerate(doc.nodes):
            assert doc.handle(node) == handle

    def test_shared_subtree_gets_a_handle_per_occurrence(self):
        leaf = MathNode("mi", (), "x")
        doc = MathDoc(MathNode("math", (), None, (MathNode("mrow", (), None, (leaf, leaf)),)))
        assert mmlkit.extract_identifiers(doc) == [("mi", "x", 2), ("mi", "x", 3)]
        assert mmlkit.histogram(doc) == mmlkit.Histogram({"mrow": 1, "mi": 2})
        assert doc.handle(leaf) == 2

    def test_parent_child_consistency(self):
        rng = random.Random(7)
        for _ in range(20):
            doc = generators.random_doc(rng)
            for handle in range(len(doc.nodes)):
                for child in doc.children_of(handle):
                    assert doc.parent(child) == handle
                subtree = list(doc.descendants_of(handle))
                assert len(subtree) == sum(
                    1 for _ in mmlkit.iter_subtree(doc.node(handle))
                ) - 1

    def test_foreign_node_rejected_by_handle(self, listing1_doc):
        with pytest.raises(ValueError):
            listing1_doc.handle(MathNode("mi", (), "x"))

    def test_doc_equality_by_tree(self, listing1_text):
        assert doc_of(listing1_text) == doc_of(listing1_text)
        assert doc_of(listing1_text) != doc_of(f'<math xmlns="{NS}"><mi>x</mi></math>')


class TestSerialization:
    def test_serialize_is_deterministic(self, listing1_doc):
        assert mmlkit.serialize(listing1_doc) == mmlkit.serialize(listing1_doc)

    def test_escaping_round_trips(self):
        doc = MathDoc(MathNode("math", (), None, (
            MathNode("mtext", (("data-note", 'a<b&"c'),), "x < y & z"),
        )))
        reparsed, report = mmlkit.parse(mmlkit.serialize(doc), "strict")
        assert report.repairs == ()
        assert reparsed == doc

    @pytest.mark.parametrize("text", [
        '<mi a="x&#10;y&#9;z&#13;">z</mi>',
        "<mi>x&#13;y</mi>",
        "<mi>\tx&#13;\ny\t</mi>",
    ])
    @pytest.mark.parametrize("pretty", [False, True])
    def test_tabs_and_line_breaks_round_trip(self, text, pretty):
        doc, _ = mmlkit.parse(f'<math xmlns="{NS}">{text}</math>', "strict")
        assert mmlkit.parse(mmlkit.serialize(doc, pretty=pretty), "strict")[0] == doc

    def test_pretty_output_parses_to_equal_tree(self, listing1_doc):
        pretty = mmlkit.serialize(listing1_doc, pretty=True)
        assert "\n" in pretty
        assert doc_of(pretty) == listing1_doc

    def test_serialize_node_has_no_namespace(self, listing1_doc):
        fragment = mmlkit.serialize_node(listing1_doc.node(3))
        assert fragment == '<mi id="p.1" xref="c.2">a</mi>'

    def test_random_docs_round_trip_strict(self):
        rng = random.Random(11)
        for _ in range(40):
            doc = generators.random_doc(rng)
            text = mmlkit.serialize(doc)
            reparsed, report = mmlkit.parse(text, "strict")
            assert report.repairs == ()
            assert reparsed == doc


class TestSplit:
    def test_split_presentation_listing1(self, listing1_doc):
        pres = mmlkit.split_presentation(listing1_doc)
        assert mmlkit.serialize(pres) == (
            f'<math xmlns="{NS}"><mfrac id="p.2" xref="c.1">'
            '<mi id="p.1" xref="c.2">a</mi><mi id="p.3" xref="c.3">b</mi>'
            "</mfrac></math>"
        )
        assert len(pres.dangling_xrefs) == 3
        assert mmlkit.resolve_xref(pres, "p.2") is None

    def test_split_content_listing1(self, listing1_doc):
        content = mmlkit.split_content(listing1_doc)
        assert content.node(1).name == "apply"
        assert len(content.dangling_xrefs) == 3

    def test_split_node_sets_disjoint(self, listing1_doc):
        pres = set(mmlkit.split_presentation(listing1_doc).nodes[1:])
        content = set(mmlkit.split_content(listing1_doc).nodes[1:])
        assert not pres & content

    def test_split_missing_branch(self):
        bare = doc_of(f'<math xmlns="{NS}"><mrow><mi>x</mi></mrow></math>')
        with pytest.raises(MissingBranch):
            mmlkit.split_content(bare)
        pres = mmlkit.split_presentation(bare)
        assert pres == bare

    def test_split_content_only_doc(self):
        content_only = doc_of(f'<math xmlns="{NS}"><apply><plus/><ci>x</ci></apply></math>')
        assert content_only.content_root is not None
        assert content_only.presentation_root is None
        with pytest.raises(MissingBranch):
            mmlkit.split_presentation(content_only)
        assert mmlkit.split_content(content_only) == content_only


class TestTexAndIdentifiers:
    def test_get_tex_absent(self):
        assert mmlkit.get_tex(doc_of(f'<math xmlns="{NS}"><mi>x</mi></math>')) is None

    def test_get_tex_first_wins(self):
        doc = doc_of(
            f'<math xmlns="{NS}"><semantics><mi>x</mi>'
            '<annotation encoding="application/x-tex">first</annotation>'
            '<annotation encoding="application/x-tex">second</annotation>'
            "</semantics></math>"
        )
        assert mmlkit.get_tex(doc) == "first"

    def test_extract_identifiers_branches(self, listing1_doc):
        both = mmlkit.extract_identifiers(listing1_doc, "both")
        assert [(n, t) for n, t, _ in both] == [
            ("mi", "a"), ("mi", "b"), ("ci", "a"), ("ci", "b")
        ]
        handles = [h for _, _, h in both]
        assert handles == sorted(handles)
        pres = mmlkit.extract_identifiers(listing1_doc, "presentation")
        assert [(n, t) for n, t, _ in pres] == [("mi", "a"), ("mi", "b")]
        content = mmlkit.extract_identifiers(listing1_doc, "content")
        assert [(n, t) for n, t, _ in content] == [("ci", "a"), ("ci", "b")]

    def test_extract_identifiers_missing_branch(self):
        bare = doc_of(f'<math xmlns="{NS}"><mi>x</mi></math>')
        with pytest.raises(MissingBranch):
            mmlkit.extract_identifiers(bare, "content")
        with pytest.raises(ValueError):
            mmlkit.extract_identifiers(bare, "everything")

    def test_identifier_completeness_on_random_docs(self):
        rng = random.Random(13)
        for _ in range(30):
            doc = generators.random_doc(rng)
            found = mmlkit.extract_identifiers(doc, "both")
            assert len(found) == oracles.count_identifiers(doc.root)


class TestResolveXref:
    def test_forward_and_backward(self, listing1_doc):
        doc = listing1_doc
        assert doc.node(mmlkit.resolve_xref(doc, "p.1")).attr("id") == "c.2"
        assert doc.node(mmlkit.resolve_xref(doc, "c.2")).attr("id") == "p.1"

    def test_unknown_id(self, listing1_doc):
        assert mmlkit.resolve_xref(listing1_doc, "zzz") is None

    def test_dangling_reported_and_unresolvable(self):
        doc, report = mmlkit.parse(
            f'<math xmlns="{NS}"><mi id="a" xref="ghost">x</mi></math>'
        )
        assert report.dangling_xrefs == ((1, "ghost"),)
        assert mmlkit.resolve_xref(doc, "a") is None
        assert mmlkit.resolve_xref(doc, "ghost") is None

    def test_one_sided_xref_resolves_both_ways(self):
        doc = doc_of(
            f'<math xmlns="{NS}"><mrow id="a" xref="b"><mi id="b">x</mi></mrow></math>'
        )
        assert doc.node(mmlkit.resolve_xref(doc, "a")).attr("id") == "b"
        assert doc.node(mmlkit.resolve_xref(doc, "b")).attr("id") == "a"


class TestClean:
    def test_strip_to_presentation(self, listing1_doc):
        cleaned = mmlkit.clean(
            listing1_doc, {"cross_references", "content_branch", "annotations"}
        )
        assert mmlkit.serialize(cleaned) == (
            f'<math xmlns="{NS}"><mfrac><mi>a</mi><mi>b</mi></mfrac></math>'
        )

    def test_cross_references_only(self, listing1_doc):
        cleaned = mmlkit.clean(listing1_doc, {"cross_references"})
        assert not any(
            node.attr("id") or node.attr("xref") for node in cleaned.nodes
        )
        # structure untouched
        assert [n.name for n in cleaned.nodes] == [n.name for n in listing1_doc.nodes]

    def test_keep_content_only(self, listing1_doc):
        cleaned = mmlkit.clean(listing1_doc, {"presentation_branch", "annotations"})
        assert [c.name for c in cleaned.root.children] == ["apply"]
        assert cleaned.content_root is not None

    def test_presentation_branch_removal_keeps_wrapper_with_annotation(self, listing1_doc):
        cleaned = mmlkit.clean(listing1_doc, {"presentation_branch"})
        assert [c.name for c in cleaned.root.children] == ["semantics"]
        assert [c.name for c in cleaned.root.children[0].children] == [
            "annotation-xml", "annotation"
        ]

    def test_would_be_empty(self, listing1_doc):
        with pytest.raises(WouldBeEmpty):
            mmlkit.clean(
                listing1_doc,
                {"presentation_branch", "content_branch", "annotations"},
            )

    def test_idempotent_per_feature_set(self, listing1_doc):
        feature_sets = [
            {"cross_references"},
            {"content_branch"},
            {"annotations"},
            {"content_branch", "annotations"},
            {"cross_references", "content_branch", "annotations"},
            {"presentation_branch"},
        ]
        for features in feature_sets:
            once = mmlkit.clean(listing1_doc, features)
            twice = mmlkit.clean(once, features)
            assert once == twice, features

    def test_monotone_node_count(self):
        rng = random.Random(17)
        feature_sets = [
            {"cross_references"}, {"annotations"}, {"content_branch"},
            {"cross_references", "annotations"},
        ]
        for _ in range(15):
            doc = generators.random_doc(rng)
            for features in feature_sets:
                try:
                    cleaned = mmlkit.clean(doc, features)
                except WouldBeEmpty:
                    continue
                assert len(cleaned.nodes) <= len(doc.nodes)

    def test_no_semantics_doc_content_branch_is_noop(self):
        bare = doc_of(f'<math xmlns="{NS}"><mrow><mi>x</mi></mrow></math>')
        assert mmlkit.clean(bare, {"content_branch"}) == bare

    def test_bad_features(self, listing1_doc):
        with pytest.raises(ValueError):
            mmlkit.clean(listing1_doc, set())
        with pytest.raises(ValueError):
            mmlkit.clean(listing1_doc, {"everything"})


class TestLeniencyMutants:
    """Every mutated pristine document parses back to the pristine tree."""

    def _pristine(self, rng):
        root = generators.random_parallel_root(rng, tex="t")
        doc = MathDoc(root)
        return doc, mmlkit.serialize(doc)

    def test_namespace_stripped(self):
        rng = random.Random(23)
        for _ in range(10):
            doc, text = self._pristine(rng)
            mutant = generators.strip_namespace(text)
            parsed, report = mmlkit.parse(mutant)
            assert parsed == doc
            assert [r.kind for r in report.repairs] == [REPAIR_NAMESPACE_INSERTED]
            with pytest.raises(MalformedInput):
                mmlkit.parse(mutant, "strict")

    def test_prefixed_with_declaration(self):
        rng = random.Random(29)
        for _ in range(10):
            doc, text = self._pristine(rng)
            mutant = generators.add_prefix(text, declare=True)
            parsed, report = mmlkit.parse(mutant)
            assert parsed == doc
            assert {r.kind for r in report.repairs} == {
                REPAIR_ATTRIBUTE_NAMESPACE_DROPPED
            }
            with pytest.raises(MalformedInput):
                mmlkit.parse(mutant, "strict")

    def test_prefixed_without_declaration(self):
        rng = random.Random(31)
        for _ in range(10):
            doc, text = self._pristine(rng)
            mutant = generators.add_prefix(text, declare=False)
            parsed, report = mmlkit.parse(mutant)
            assert parsed == doc
            kinds = {r.kind for r in report.repairs}
            assert kinds == {
                REPAIR_NAMESPACE_INSERTED, REPAIR_ATTRIBUTE_NAMESPACE_DROPPED
            }
            with pytest.raises(MalformedInput):
                mmlkit.parse(mutant, "strict")

    def test_entities_encoded(self):
        rng = random.Random(37)
        seen = 0
        while seen < 10:
            doc, text = self._pristine(rng)
            mutant, count = generators.encode_entities(text)
            if count == 0:
                continue
            seen += 1
            parsed, report = mmlkit.parse(mutant)
            assert parsed == doc
            assert [r.kind for r in report.repairs] == [REPAIR_ENTITY_REPLACED] * count
            with pytest.raises(MalformedInput):
                mmlkit.parse(mutant, "strict")

    def test_lenient_superset_of_strict(self):
        rng = random.Random(41)
        for _ in range(20):
            _, text = self._pristine(rng)
            strict_doc, _ = mmlkit.parse(text, "strict")
            lenient_doc, report = mmlkit.parse(text, "lenient")
            assert report.repairs == ()
            assert lenient_doc == strict_doc
