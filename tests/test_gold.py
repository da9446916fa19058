import json
import math
import re

import pytest

import mmlkit
from mmlkit import (
    Finding,
    GoldEntry,
    InvalidGoldMathML,
    MmlError,
    SchemaError,
    load_gold,
    save_gold,
    validate_entry,
)

NS = mmlkit.MATHML_NS

PARALLEL_SUM = (
    f'<math xmlns="{NS}"><semantics>'
    '<mrow><mi id="p.1" xref="c.1">a</mi><mo>+</mo><mi id="p.2" xref="c.2">b</mi></mrow>'
    '<annotation-xml encoding="MathML-Content">'
    '<apply><plus/><ci id="c.1" xref="p.1">a</ci><ci id="c.2" xref="p.2">b</ci></apply>'
    "</annotation-xml>"
    '<annotation encoding="application/x-tex">a+b</annotation>'
    "</semantics></math>"
)

PRESENTATION_ONLY = (
    f'<math xmlns="{NS}"><semantics>'
    "<mrow><mi>x</mi></mrow>"
    '<annotation encoding="application/x-tex">x</annotation>'
    "</semantics></math>"
)

CONTENT_ONLY = (
    f'<math xmlns="{NS}"><semantics>'
    '<annotation-xml encoding="MathML-Content"><ci>x</ci></annotation-xml>'
    "</semantics></math>"
)


def entry_obj(entry_id=1, **overrides):
    obj = {"id": entry_id, "tex": "a+b", "mathml": PARALLEL_SUM}
    obj.update(overrides)
    return obj


def as_json(*objs):
    return json.dumps(list(objs))


class TestLoad:
    def test_minimal_entry(self):
        entries = load_gold(as_json(entry_obj()))
        assert len(entries) == 1
        entry = entries[0]
        assert entry.id == 1
        assert entry.tex == "a+b"
        assert entry.mathml == PARALLEL_SUM
        assert entry.title is None
        assert entry.uri is None
        assert entry.check == {}
        assert entry.extra == {}

    def test_optional_and_unknown_fields(self):
        obj = entry_obj(
            title="sum", uri="https://example.org/1",
            check={"reviewed": "yes"}, source="survey", rank=3,
        )
        entry = load_gold(as_json(obj))[0]
        assert entry.title == "sum"
        assert entry.uri == "https://example.org/1"
        assert entry.check == {"reviewed": "yes"}
        assert entry.extra == {"source": "survey", "rank": 3}

    def test_listing_fixture_loads(self, listing1_doc):
        mathml = mmlkit.serialize(listing1_doc)
        entry = load_gold(as_json({"id": 7, "tex": "\\frac{a}{b}", "mathml": mathml}))[0]
        assert entry.id == 7
        assert validate_entry(entry) == []

    def test_not_json(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_gold("{nope")

    def test_not_an_array(self):
        with pytest.raises(SchemaError, match="array"):
            load_gold("{}")

    def test_entry_not_an_object(self):
        with pytest.raises(SchemaError, match="position 1"):
            load_gold(as_json(entry_obj(), "oops"))

    @pytest.mark.parametrize("bad_id", [None, 0, -3, True, "1", 1.0])
    def test_bad_id(self, bad_id):
        obj = entry_obj()
        obj["id"] = bad_id
        if bad_id is None:
            del obj["id"]
        with pytest.raises(SchemaError, match="position 0.*id"):
            load_gold(as_json(obj))

    @pytest.mark.parametrize("field,bad", [
        ("tex", ""), ("tex", None), ("tex", 5),
        ("mathml", ""), ("mathml", None),
        ("title", 5), ("uri", ["x"]),
        ("check", "yes"), ("check", {"k": 1}),
    ])
    def test_bad_field_names_entry_id(self, field, bad):
        obj = entry_obj(entry_id=42)
        if bad is None:
            del obj[field]
        else:
            obj[field] = bad
        with pytest.raises(SchemaError, match="entry 42"):
            load_gold(as_json(obj))

    def test_duplicate_id(self):
        with pytest.raises(SchemaError, match="duplicate entry id 5"):
            load_gold(as_json(entry_obj(5), entry_obj(5)))

    def test_rejects_unwrapped_mathml(self):
        bare = PARALLEL_SUM.replace(f' xmlns="{NS}"', "")
        with pytest.raises(InvalidGoldMathML) as exc_info:
            load_gold(as_json(entry_obj(9, mathml=bare)))
        assert exc_info.value.entry_id == 9
        assert "strict parse failed" in str(exc_info.value)

    def test_rejects_missing_content_branch(self):
        with pytest.raises(InvalidGoldMathML, match="missing content branch") as exc_info:
            load_gold(as_json(entry_obj(3, tex="x", mathml=PRESENTATION_ONLY)))
        assert exc_info.value.entry_id == 3

    def test_rejects_missing_presentation_branch(self):
        with pytest.raises(InvalidGoldMathML, match="missing presentation branch"):
            load_gold(as_json(entry_obj(4, tex="x", mathml=CONTENT_ONLY)))

    def test_dangling_xref_is_not_a_load_error(self):
        mathml = PARALLEL_SUM.replace('xref="c.2"', 'xref="ghost"')
        entry = load_gold(as_json(entry_obj(mathml=mathml)))[0]
        assert entry.id == 1


class TestSave:
    def test_round_trip_identity(self, listing1_doc):
        entries = [
            GoldEntry(2, "a+b", PARALLEL_SUM, title="sum", check={"reviewed": "yes"}),
            GoldEntry(1, "\\frac{a}{b}", mmlkit.serialize(listing1_doc),
                      uri="https://example.org/frac", extra={"source": "survey"}),
        ]
        text = save_gold(entries)
        reloaded = load_gold(text)
        assert reloaded == sorted(entries, key=lambda e: e.id)
        assert save_gold(reloaded) == text

    def test_orders_by_id(self):
        text = save_gold([GoldEntry(2, "a+b", PARALLEL_SUM),
                          GoldEntry(1, "a+b", PARALLEL_SUM)])
        assert [obj["id"] for obj in json.loads(text)] == [1, 2]

    def test_empty_collection(self):
        assert save_gold([]) == "[]\n"
        assert load_gold(save_gold([])) == []

    def test_deterministic_layout(self):
        text = save_gold([GoldEntry(1, "a+b", PARALLEL_SUM, title="t",
                                    uri="u", check={"k": "v"})])
        assert text.endswith("\n")
        keys = list(json.loads(text)[0])
        assert keys == sorted(keys)

    def test_optional_fields_omitted_when_unset(self):
        obj = json.loads(save_gold([GoldEntry(1, "a+b", PARALLEL_SUM)]))[0]
        assert set(obj) == {"id", "tex", "mathml"}

    def test_non_ascii_kept_readable(self):
        text = save_gold([GoldEntry(1, "\\alpha", PARALLEL_SUM, title="α sum")])
        assert "α sum" in text

    def test_rejects_non_entries(self):
        with pytest.raises(SchemaError, match="not a gold entry"):
            save_gold([{"id": 1}])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(SchemaError, match="duplicate entry id 1"):
            save_gold([GoldEntry(1, "a", PARALLEL_SUM), GoldEntry(1, "b", PARALLEL_SUM)])

    def test_rejects_shadowing_extra_fields(self):
        entry = GoldEntry(1, "a+b", PARALLEL_SUM, extra={"tex": "other"})
        with pytest.raises(SchemaError, match="entry 1.*shadow"):
            save_gold([entry])

    @pytest.mark.parametrize("fields", [
        {"id": 0}, {"id": True}, {"tex": ""}, {"mathml": "<math/>"},
        {"mathml": f'<math xmlns="{NS}"/>'}, {"check": {"a": 1}}, {"title": 5},
    ], ids=["id-zero", "id-true", "empty-tex", "bare-math", "no-branches", "check-value",
            "title"])
    def test_refuses_what_load_refuses(self, fields):
        obj = {"id": 1, "tex": "a+b", "mathml": PARALLEL_SUM, **fields}
        with pytest.raises(MmlError) as refused:
            load_gold(json.dumps([obj]))
        with pytest.raises(type(refused.value), match=re.escape(str(refused.value))):
            save_gold([GoldEntry(**obj)])

    @pytest.mark.parametrize("value", [
        (1, 2), math.nan, math.inf, -math.inf, {1: "a"}, {"pages": [1, (2, 3)]},
        [{"n": math.nan}],
    ], ids=["tuple", "nan", "inf", "minus-inf", "int-key", "nested-tuple", "nested-nan"])
    def test_refuses_extra_values_that_reload_unequal(self, value):
        entry = GoldEntry(1, "a+b", PARALLEL_SUM, extra={"pages": value})
        with pytest.raises(SchemaError, match="entry 1: extra field 'pages'"):
            save_gold([entry])

    def test_extra_values_that_reload_equal_are_kept(self):
        shared = [1, 2.5, None, True, "x"]
        extra = {"pages": [1, 2], "n": -0.0, "meta": {"a": shared, "b": shared}}
        entry = GoldEntry(1, "a+b", PARALLEL_SUM, extra=extra)
        assert load_gold(save_gold([entry])) == [entry]

    def test_refuses_extra_values_json_cannot_hold(self):
        entry = GoldEntry(1, "a+b", PARALLEL_SUM, extra={"source": object()})
        with pytest.raises(SchemaError, match="not writable as JSON"):
            save_gold([entry])

    def test_refuses_a_cyclic_extra_value(self):
        cyclic: list = []
        cyclic.append({"again": cyclic})
        entry = GoldEntry(1, "a+b", PARALLEL_SUM, extra={"source": cyclic})
        with pytest.raises(SchemaError, match="not writable as JSON"):
            save_gold([entry])


class TestValidateEntry:
    def test_clean(self):
        assert validate_entry(GoldEntry(1, "a+b", PARALLEL_SUM)) == []

    def test_lenient_about_namespace(self):
        bare = PARALLEL_SUM.replace(f' xmlns="{NS}"', "")
        assert validate_entry(GoldEntry(1, "a+b", bare)) == []

    def test_tex_mismatch(self):
        findings = validate_entry(GoldEntry(1, "a-b", PARALLEL_SUM))
        assert findings == [Finding("tex-mismatch", "tex field 'a-b' != annotation 'a+b'")]

    def test_missing_tex_annotation(self):
        mathml = (
            f'<math xmlns="{NS}"><semantics>'
            "<mrow><mi>x</mi></mrow>"
            '<annotation-xml encoding="MathML-Content"><ci>x</ci></annotation-xml>'
            "</semantics></math>"
        )
        findings = validate_entry(GoldEntry(1, "x", mathml))
        assert findings == [Finding("missing-tex-annotation",
                                    "no application/x-tex annotation")]

    def test_dangling_xref(self):
        mathml = PARALLEL_SUM.replace('xref="c.2"', 'xref="ghost"')
        findings = validate_entry(GoldEntry(1, "a+b", mathml))
        assert findings == [Finding("dangling-xref",
                                    "mi node refers to unknown id 'ghost'")]

    def test_missing_branches(self):
        kinds = [f.kind for f in validate_entry(GoldEntry(1, "x", PRESENTATION_ONLY))]
        assert kinds == ["missing-content"]
        kinds = [f.kind for f in validate_entry(GoldEntry(1, "x", CONTENT_ONLY))]
        assert kinds == ["missing-presentation", "missing-tex-annotation"]

    def test_unparseable(self):
        findings = validate_entry(GoldEntry(1, "x", f'<math xmlns="{NS}"><mi>x</mi>'))
        assert len(findings) == 1
        assert findings[0].kind == "unparseable"

    def test_multiple_findings_accumulate(self):
        mathml = PARALLEL_SUM.replace('xref="c.2"', 'xref="ghost"')
        findings = validate_entry(GoldEntry(1, "a-b", mathml))
        assert [f.kind for f in findings] == ["dangling-xref", "tex-mismatch"]
