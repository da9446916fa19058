import io
import json
import random
import shlex
import subprocess
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmlkit
from mmlkit import (
    ConverterRegistry,
    ConverterSpec,
    DuplicateName,
    OutputNotMathML,
    SchemaError,
    ToolFailed,
    ToolTimeout,
    ToolUnavailable,
    UnknownConverter,
    canonicalize,
    cli,
    load_converters,
    stub_registry,
)
from mmlkit.convert import INPUT_MODES, convert, list_converters, register

import generators

NS = mmlkit.MATHML_NS


class TestConverterSpec:
    def test_defaults(self):
        spec = ConverterSpec("t", "tool {input}")
        assert spec.input_mode == "argument"
        assert spec.timeout == 30.0

    def test_timeout_coerced_to_float(self):
        assert ConverterSpec("t", "tool {input}", timeout=5).timeout == 5.0

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "  "},
        {"input_mode": "file"},
        {"timeout": 0},
        {"timeout": -1},
        {"timeout": "fast"},
        {"timeout": True},  # a bool is no number of seconds
        {"timeout": float("nan")},
        {"timeout": float("inf")},
        {"timeout": 10 ** 400},  # more than any float holds
        {"timeout": 2_147_484},  # more than subprocess can wait, 2**31 - 1 ms
        {"command": "'' {input}"},  # an empty program name
    ])
    def test_field_validation(self, kwargs):
        base = {"name": "t", "command": "tool {input}"}
        base.update(kwargs)
        with pytest.raises(ValueError):
            ConverterSpec(**base)

    def test_placeholder_count(self):
        with pytest.raises(ValueError, match="exactly one"):
            ConverterSpec("t", "tool")
        with pytest.raises(ValueError, match="exactly one"):
            ConverterSpec("t", "tool {input} {input}")
        with pytest.raises(ValueError, match="must not contain"):
            ConverterSpec("t", "tool {input}", input_mode="standard-input")
        ConverterSpec("t", "tool", input_mode="standard-input")


class TestRegistry:
    def test_register_get_contains(self):
        registry = ConverterRegistry()
        spec = ConverterSpec("t", "tool {input}")
        registry.register(spec)
        assert registry.get("t") is spec
        assert "t" in registry
        assert "u" not in registry

    def test_listing_preserves_registration_order(self):
        registry = ConverterRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.register(ConverterSpec(name, "tool {input}"))
        assert registry.list_converters() == ["zeta", "alpha", "mid"]

    def test_duplicate_rejected(self):
        registry = ConverterRegistry()
        registry.register(ConverterSpec("t", "tool {input}"))
        with pytest.raises(DuplicateName, match="'t'"):
            registry.register(ConverterSpec("t", "other {input}"))

    def test_unknown_name(self):
        with pytest.raises(UnknownConverter, match="'missing'"):
            ConverterRegistry().get("missing")

    def test_module_level_helpers_take_explicit_registry(self):
        registry = ConverterRegistry()
        register(ConverterSpec("t", "tool {input}"), registry)
        assert list_converters(registry) == ["t"]

    def test_concurrent_registration(self):
        registry = ConverterRegistry()
        errors = []

        def add(tag):
            try:
                for i in range(50):
                    registry.register(ConverterSpec(f"{tag}-{i}", "tool {input}"))
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=add, args=(t,)) for t in "abcd"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(registry.list_converters()) == 200


@pytest.fixture(scope="module")
def stubs():
    return stub_registry()


class TestStubs:

    def test_catalog(self, stubs):
        assert stubs.list_converters() == [
            "identity", "echo-frac", "fail", "slow", "garbage",
        ]

    def test_identity_round_trips_markup(self, stubs, listing1_text):
        result = convert("identity", listing1_text, stubs)
        assert result.tool == "identity"
        assert result.raw == listing1_text
        assert result.elapsed >= 0
        expected, _ = mmlkit.parse(listing1_text)
        assert result.mathml == expected
        assert [r.kind for r in result.report.repairs] == ["namespace-inserted"]

    def test_identity_on_strict_markup_reports_no_repairs(self, stubs):
        text = f'<math xmlns="{NS}"><mi>x</mi></math>'
        result = convert("identity", text, stubs)
        assert result.report.repairs == ()

    def test_echo_frac_ignores_input(self, stubs):
        result = convert("echo-frac", "e^{i\\pi}", stubs)
        assert mmlkit.get_tex(result.mathml) == "\\frac{a}{b}"
        assert result.mathml.presentation_nodes[0].name == "mfrac"
        assert [r.kind for r in result.report.repairs] == ["namespace-inserted"]

    def test_fail_maps_to_tool_failed(self, stubs):
        with pytest.raises(ToolFailed) as exc_info:
            convert("fail", "x", stubs)
        assert exc_info.value.tool == "fail"
        assert exc_info.value.exit_code == 1
        assert exc_info.value.stderr_excerpt

    def test_slow_maps_to_timeout(self, stubs):
        with pytest.raises(ToolTimeout, match="slow.*timeout"):
            convert("slow", "x", stubs)

    def test_garbage_maps_to_output_not_mathml(self, stubs):
        with pytest.raises(OutputNotMathML) as exc_info:
            convert("garbage", "x", stubs)
        assert exc_info.value.tool == "garbage"
        assert "not markup" in exc_info.value.raw

    def test_missing_binary_maps_to_unavailable(self):
        registry = ConverterRegistry()
        registry.register(ConverterSpec("ghost", "mml-no-such-tool-zz {input}"))
        with pytest.raises(ToolUnavailable, match="ghost"):
            convert("ghost", "x", registry)

    def test_unknown_converter_name(self, stubs):
        with pytest.raises(UnknownConverter):
            convert("latexmlmath", "x", stubs)


PYTHON = shlex.quote(sys.executable)
ECHO = "python3 -c 'import sys; sys.stdout.buffer.write(sys.stdin.buffer.read())'"


# One converter object each (a str names a converters file under tests/data,
# which the CI runs through the installed mml script too), the TeX it is run
# on, and the one error that the spec or the run raises.
@pytest.mark.parametrize("fields,tex,error", [
    ({"name": "t", "command": "", "input_mode": "standard-input"}, "x", ValueError),
    ({"name": "t", "command": "   ", "input_mode": "standard-input"}, "x", ValueError),
    ("converter_unclosed_quote.json", "x", ValueError),
    ({"name": 5, "command": "x {input}"}, "x", TypeError),
    ({"name": "t", "command": 5}, "x", TypeError),
    ({"name": "t", "command": "NOEXEC {input}"}, "x", ToolUnavailable),
    ({"name": "t", "command": "python3 -c pass {input}"}, "a\0b", ToolUnavailable),
    ({"name": "t", "command": ECHO, "input_mode": "standard-input"}, "\ud800", ToolUnavailable),
    # what a shell hands over for --tex "$(printf 'x\xff')"
    ({"name": "t", "command": ECHO, "input_mode": "standard-input"}, "x\udcff", OutputNotMathML),
    ("converter_raw_bytes.json", "x", OutputNotMathML),
    ({"name": "t", "input_mode": "standard-input", "command":
      "python3 -c 'import sys; sys.stderr.buffer.write(b\"\\xe9\"); sys.exit(3)'"},
     "x", ToolFailed),
], ids=["empty-command", "blank-command", "unclosed-quote", "int-name", "int-command",
        "not-executable", "nul-argument", "surrogate-stdin", "undecodable-stdin",
        "undecodable-stdout", "undecodable-stderr"])
def test_converter_faults_end_in_one_typed_error(tmp_path, data_dir, fields, tex, error):
    if isinstance(fields, str):
        fields = json.loads((data_dir / fields).read_text(encoding="utf-8"))[0]
    noexec = tmp_path / "noexec"
    noexec.write_text("not a program\n")  # and no execute bit
    if isinstance(fields["command"], str):
        fields = {**fields, "command": fields["command"].replace("python3", PYTHON, 1)
                  .replace("NOEXEC", shlex.quote(str(noexec)))}
    converters = tmp_path / "converters.json"
    converters.write_text(json.dumps([fields]), encoding="utf-8")
    registry = ConverterRegistry()
    if error in (TypeError, ValueError):
        with pytest.raises(error):
            ConverterSpec(**fields)
        with pytest.raises(SchemaError):
            load_converters(converters.read_text(encoding="utf-8"), registry)
        assert registry.list_converters() == []
    else:
        load_converters(converters.read_text(encoding="utf-8"), registry)
        with pytest.raises(error) as exc_info:
            convert(fields["name"], tex, registry)
        if error is ToolFailed:
            assert "'\\udce9'" in str(exc_info.value)  # the excerpt, through repr
    out, err = io.StringIO(), io.StringIO()
    argv = ["convert", "--converters", str(converters), "--name", str(fields["name"]),
            "--tex", tex]
    assert cli.run(argv, stdout=out, stderr=err) == 1
    assert err.getvalue().startswith("mml convert: error: ")
    assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


def _json_values():
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                        max_leaves=6)


# a missing name or command reads as null, which the JSON values hold
_converter_objects = st.fixed_dictionaries({
    "name": st.sampled_from(["a", "b", " "]) | _json_values(),
    "command": st.sampled_from(["tool {input}", "tool", "", "   ", "'' {input}",
                                'tool "x {input}']) | st.text("tool {input}\"' \\")
    | _json_values(),
}, optional={
    "input_mode": st.sampled_from(INPUT_MODES) | _json_values(),
    "timeout_ms": st.integers(1, 2 ** 31) | _json_values(),
})


@settings(max_examples=300, deadline=None)
@given(objects=st.lists(_converter_objects, max_size=3))
def test_load_converters_registers_only_runnable_specs(objects):
    registry = ConverterRegistry()
    with mock.patch.object(subprocess, "Popen", side_effect=AssertionError("spawned")):
        try:
            load_converters(json.dumps(objects), registry)
        except (SchemaError, DuplicateName):
            assert registry.list_converters() == []
            return
    assert len(registry.list_converters()) == len(objects)
    for name in registry.list_converters():
        assert shlex.split(registry.get(name).command)[0]


def test_package_name_convert_is_the_function():
    module = sys.modules["mmlkit.convert"]
    assert mmlkit.convert is module.convert
    from mmlkit.convert import canonicalize as from_module
    assert from_module is module.canonicalize is canonicalize


class TestLoadConverters:
    def test_loads_specs(self):
        registry = ConverterRegistry()
        text = json.dumps([
            {"name": "arg-tool", "command": "tool --tex {input}"},
            {"name": "pipe-tool", "command": "tool --stdin",
             "input_mode": "standard-input", "timeout_ms": 5000},
        ])
        returned = load_converters(text, registry)
        assert returned is registry
        assert registry.list_converters() == ["arg-tool", "pipe-tool"]
        assert registry.get("pipe-tool").timeout == 5.0
        assert registry.get("pipe-tool").input_mode == "standard-input"

    @pytest.mark.parametrize("text,pattern", [
        ("{bad", "not valid JSON"),
        ("{}", "array"),
        ('["x"]', "position 0"),
        ('[{"command": "tool {input}"}]', "name and command"),
        ('[{"name": "t", "command": 5}]', "name and command"),
        ('[{"name": "t", "command": "tool {input}", "timeout_ms": 0}]', "timeout_ms"),
        ('[{"name": "t", "command": "tool {input}", "timeout_ms": "fast"}]', "timeout_ms"),
        ('[{"name": "t", "command": "tool {input}", "timeout_ms": true}]', "timeout_ms"),
        ('[{"name": "t", "command": "tool {input}", "timeout_ms": NaN}]', "timeout_ms"),
        ('[{"name": "t", "command": "tool {input}", "timeout_ms": Infinity}]', "timeout_ms"),
        ('[{"name": "t", "command": "tool {input}", "timeout_ms": 1%s}]' % ("0" * 400),
         "timeout_ms"),
        ('[{"name": "t", "command": "tool {input}", "timeout_ms": 1e10}]', "timeout_ms"),
        ('[{"name": "t", "command": "tool"}]', "placeholder"),
        # the spec's type check comes first, and a name that is not a string
        # never appears in a message
        ('[{"name": 5, "command": "tool {input}", "timeout_ms": 0}]',
         "^converter at position 0: name and command must be strings$"),
        pytest.param('[{"name": %s, "command": "tool {input}", "timeout_ms": 0}]'
                     % ("[" * 900 + "]" * 900),
                     "^converter at position 0: name and command must be strings$",
                     id="name-nested-900-deep"),
    ])
    def test_schema_errors(self, text, pattern):
        with pytest.raises(SchemaError, match=pattern):
            load_converters(text, ConverterRegistry())

    def test_longest_timeout_is_accepted(self):
        text = '[{"name": "t", "command": "tool {input}", "timeout_ms": 2147483647}]'
        timeout = load_converters(text, ConverterRegistry()).get("t").timeout
        assert timeout == 2147483.647
        assert ConverterSpec("t", "tool {input}", timeout=timeout).timeout == timeout

    def test_duplicate_across_load(self):
        registry = ConverterRegistry()
        text = json.dumps([{"name": "t", "command": "tool {input}"}])
        load_converters(text, registry)
        with pytest.raises(DuplicateName):
            load_converters(text, registry)

    @pytest.mark.parametrize("refused,error", [
        ([{"name": "a", "command": "x {input}"}, {"name": "b", "command": "y"}], SchemaError),
        ([{"name": "a", "command": "x {input}"}, {"name": "a", "command": "y {input}"}],
         DuplicateName),
    ], ids=["schema", "repeated-name"])
    def test_a_refused_file_registers_nothing(self, refused, error):
        registry = ConverterRegistry()
        with pytest.raises(error):
            load_converters(json.dumps(refused), registry)
        assert registry.list_converters() == []
        load_converters(json.dumps(refused[:1]), registry)
        assert registry.list_converters() == ["a"]

    def test_shipped_example_file_loads(self, data_dir):
        example = data_dir.parent.parent / "converters.example.json"
        registry = load_converters(example.read_text(encoding="utf-8"),
                                   ConverterRegistry())
        assert "latexml" in registry
        assert registry.get("mathjax").input_mode == "standard-input"


class TestCanonicalize:
    def test_sorts_attributes(self, listing1_text):
        reordered = listing1_text.replace(
            '<mfrac id="p.2" xref="c.1">', '<mfrac xref="c.1" id="p.2">'
        )
        assert reordered != listing1_text
        doc, _ = mmlkit.parse(listing1_text)
        other, _ = mmlkit.parse(reordered)
        assert mmlkit.serialize(canonicalize(other)) == mmlkit.serialize(canonicalize(doc))

    def test_orders_semantics_children(self):
        text = (
            f'<math xmlns="{NS}"><semantics>'
            '<annotation encoding="application/x-tex">x</annotation>'
            '<annotation-xml encoding="OpenMath"><om/></annotation-xml>'
            '<annotation-xml encoding="MathML-Content"><ci>x</ci></annotation-xml>'
            "<mi>x</mi>"
            "</semantics></math>"
        )
        doc, _ = mmlkit.parse(text)
        ordered = canonicalize(doc)
        semantics = ordered.root.children[0]
        labels = [
            (child.name, child.attr("encoding")) for child in semantics.children
        ]
        assert labels == [
            ("mi", None),
            ("annotation-xml", "MathML-Content"),
            ("annotation-xml", "OpenMath"),
            ("annotation", "application/x-tex"),
        ]

    def test_idempotent(self, listing1_doc):
        once = canonicalize(listing1_doc)
        assert canonicalize(once) == once

    def test_idempotent_on_random_docs(self):
        rng = random.Random(127)
        for _ in range(25):
            doc = generators.random_doc(rng)
            once = canonicalize(doc)
            assert canonicalize(once) == once

    def test_preserves_element_multiset(self):
        rng = random.Random(131)
        for _ in range(25):
            doc = generators.random_doc(rng)
            before = mmlkit.histogram(doc, include_structural=True)
            after = mmlkit.histogram(canonicalize(doc), include_structural=True)
            assert before == after

    def test_preserves_text_and_xrefs(self, listing1_doc):
        ordered = canonicalize(listing1_doc)
        assert mmlkit.get_tex(ordered) == "\\frac{a}{b}"
        assert set(ordered.xref_pairs()) == set(listing1_doc.xref_pairs())

    def test_adapter_route(self, listing1_doc):
        result = canonicalize(listing1_doc, adapter="identity", registry=stub_registry())
        assert result == listing1_doc

    def test_adapter_failures(self, listing1_doc):
        stubs = stub_registry()
        with pytest.raises(OutputNotMathML):
            canonicalize(listing1_doc, adapter="garbage", registry=stubs)
        with pytest.raises(ToolFailed):
            canonicalize(listing1_doc, adapter="fail", registry=stubs)
        with pytest.raises(UnknownConverter):
            canonicalize(listing1_doc, adapter="nope", registry=stubs)
