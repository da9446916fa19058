import io
import math
import pathlib
import re
import sys
import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmlkit
from mmlkit import cli


@pytest.fixture
def invoke(monkeypatch):
    def _invoke(argv, stdin=None):
        out, err = io.StringIO(), io.StringIO()
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = cli.run(argv, stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()
    return _invoke


@pytest.fixture(scope="session")
def paths(data_dir):
    return {
        "L1": str(data_dir / "listing1.mml"),
        "XY": str(data_dir / "x_plus_y.mml"),
        "THREE": str(data_dir / "three_mi.mml"),
        "BARE": str(data_dir / "bare_content.mml"),
        "MGLYPH": str(data_dir / "mglyph_semantics.mml"),
        "UNCLOSED": str(data_dir / "unclosed.mml"),
        "EMPTY": str(data_dir / "empty_math.mml"),
        "GOLD": str(data_dir / "gold_small.json"),
        "CONVERTERS": str(data_dir / "converters.json"),
    }


def fill(argv, paths):
    return [paths.get(token, token) for token in argv]


GOLDEN_CASES = [
    ("parse_listing1.txt", ["parse", "L1"]),
    ("parse_pretty.txt", ["parse", "--pretty", "L1"]),
    ("clean_presentation_only.txt",
     ["clean", "--features", "cross-references,content-branch,annotations", "L1"]),
    ("split_presentation.txt", ["split", "--branch", "presentation", "L1"]),
    ("split_content.txt", ["split", "--branch", "content", "L1"]),
    ("extract_both.txt", ["extract", "L1"]),
    ("extract_presentation.txt", ["extract", "--branch", "presentation", "L1"]),
    ("select_identifiers.txt", ["select", "--expr", "//mi | //ci", "L1"]),
    ("select_lib_tex.txt", ["select", "--lib", "tex-annotation", "L1"]),
    # where each branch starts on documents no selector reads right
    ("select_lib_content_root.txt", ["select", "--lib", "content-root", "BARE"]),
    ("select_lib_presentation_root.txt", ["select", "--lib", "presentation-root", "MGLYPH"]),
    ("select_descendant_chain.txt", ["select", "--expr", "//semantics//mi", "L1"]),
    ("select_wildcard_chain.txt", ["select", "--expr", "math/*/*", "L1"]),
    ("select_wildcard_predicate.txt", ["select", "--expr", "//*[@xref='c.1']", "L1"]),
    ("histogram_accumulated.txt", ["histogram", "L1", "XY"]),
    ("histogram_presentation.txt", ["histogram", "--scope", "presentation", "L1"]),
    ("histogram_structural.txt", ["histogram", "--include-structural", "L1"]),
    ("dist_hist_abs.txt", ["dist", "--measure", "hist-abs", "L1", "XY"]),
    ("dist_hist_rel.txt", ["dist", "--measure", "hist-rel", "L1", "XY"]),
    ("dist_emd.txt", ["dist", "--measure", "emd", "L1", "XY"]),
    ("dist_cosine.txt", ["dist", "--measure", "cosine", "L1", "XY"]),
    ("dist_ted.txt", ["dist", "--measure", "ted", "XY", "THREE"]),
    ("dist_ted_costs.txt",
     ["dist", "--measure", "ted", "--costs", "1,1,0.5", "XY", "THREE"]),
    ("dist_ted_costs_inexact.txt",
     ["dist", "--measure", "ted", "--costs", "1,1,0.3", "XY", "THREE"]),
    ("dist_ted_nametext.txt",
     ["dist", "--measure", "ted", "--label-mode", "name-text", "XY", "THREE"]),
    ("doc_dist_cosine.txt",
     ["doc-dist", "--measure", "cosine", "-a", "L1", "-b", "L1"]),
    ("doc_dist_emd_dup.txt",
     ["doc-dist", "--measure", "emd", "-a", "L1", "-a", "L1", "-b", "L1"]),
    ("convert_echo_frac.txt", ["convert", "--name", "echo-frac", "--tex", "x"]),
    ("gold_validate.txt", ["gold-validate", "--gold", "GOLD"]),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("golden_name,argv",
                             GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
    def test_matches_golden_and_repeats(self, golden_name, argv, paths,
                                        golden_dir, invoke):
        expected = (golden_dir / golden_name).read_text(encoding="utf-8")
        first = invoke(fill(argv, paths))
        second = invoke(fill(argv, paths))
        assert first == (0, expected, "")
        assert second == first

    def test_every_subcommand_has_a_golden(self):
        covered = {argv[0] for _, argv in GOLDEN_CASES}
        assert covered == set(cli._COMMANDS)


class TestStdin:
    def test_parse_reads_stdin(self, invoke, listing1_text, golden_dir):
        expected = (golden_dir / "parse_listing1.txt").read_text(encoding="utf-8")
        assert invoke(["parse", "-"], stdin=listing1_text) == (0, expected, "")

    def test_histogram_reads_stdin(self, invoke, listing1_text, golden_dir):
        expected = (golden_dir / "histogram_presentation.txt").read_text(encoding="utf-8")
        code, out, err = invoke(["histogram", "--scope", "presentation", "-"],
                                stdin=listing1_text)
        assert (code, out, err) == (0, expected, "")

    def test_convert_reads_tex_from_stdin(self, invoke):
        markup = '<math xmlns="http://www.w3.org/1998/Math/MathML"><mi>x</mi></math>'
        code, out, err = invoke(["convert", "--name", "identity", "-"], stdin=markup)
        assert (code, out, err) == (0, markup + "\n", "")


class TestConvertWiring:
    def test_external_spec_file(self, invoke, paths):
        markup = '<math xmlns="http://www.w3.org/1998/Math/MathML"><mi>x</mi></math>'
        code, out, err = invoke([
            "convert", "--converters", paths["CONVERTERS"],
            "--name", "cat-tool", "--tex", markup,
        ])
        assert (code, out, err) == (0, markup + "\n", "")

    def test_pretty_flag(self, invoke, golden_dir):
        expected = (golden_dir / "parse_pretty.txt").read_text(encoding="utf-8")
        code, out, err = invoke(["convert", "--name", "echo-frac",
                                 "--tex", "x", "--pretty"])
        assert (code, out, err) == (0, expected, "")


_ANNOTATION_XML = '<annotation-xml encoding="MathML-Content"><ci>x</ci></annotation-xml>'


@pytest.mark.parametrize("body,expected", [
    ('<mi>x</mi><semantics><annotation encoding="t">t</annotation></semantics>',
     "<mi>x</mi>"),
    ("<mi>x</mi><semantics/>", "<mi>x</mi>"),
    (f"<semantics><mi>x</mi>{_ANNOTATION_XML}</semantics>"
     '<semantics><annotation encoding="t">t</annotation></semantics>',
     f"<semantics><mi>x</mi>{_ANNOTATION_XML}</semantics>"),
], ids=["emptied", "trailing-empty", "second-emptied"])
def test_clean_removes_a_semantics_child_left_with_nothing(body, expected, invoke, tmp_path):
    path = tmp_path / "input.mml"
    path.write_text(f'<math xmlns="{mmlkit.MATHML_NS}">{body}</math>', encoding="utf-8")
    assert invoke(["clean", "--features", "annotations", str(path)]) == (
        0, f'<math xmlns="{mmlkit.MATHML_NS}">{expected}</math>\n', "")


@pytest.mark.parametrize("scope", ["presentation", "content"])
def test_ted_on_a_branch_is_the_distance_of_the_split_documents(scope, invoke, paths,
                                                                 listing1_text):
    other = listing1_text.replace("mfrac", "msup").replace("divide", "power")
    split = cli._SPLITTERS[scope]
    expected = mmlkit.tree_edit_distance(split(mmlkit.parse(listing1_text)[0]),
                                         split(mmlkit.parse(other)[0]))
    assert expected > 0
    argv = ["dist", "--measure", "ted", "--scope", scope, paths["L1"], "-"]
    assert invoke(argv, stdin=other) == (0, cli.format_number(expected) + "\n", "")


ERROR_CASES = [
    (["parse", "--strict", "L1"], 1, "mml parse: error:"),
    (["parse", "UNCLOSED"], 1, "mml parse: error:"),
    (["split", "--branch", "content", "XY"], 1, "content"),
    (["histogram", "--scope", "content", "XY"], 1, "content"),
    (["dist", "--measure", "cosine", "EMPTY", "L1"], 1, "mml dist: error:"),
    (["clean", "--features",
      "presentation-branch,content-branch,annotations", "L1"], 1, "no math content"),
    (["select", "--expr", "mi[", "L1"], 1, "mml select: error:"),
    (["select", "--lib", "nope", "L1"], 1, "nope"),
    (["convert", "--name", "fail", "--tex", "x"], 1, "exited with status 1"),
    (["convert", "--name", "slow", "--tex", "x"], 1, "timeout"),
    (["convert", "--name", "garbage", "--tex", "x"], 1, "non-MathML"),
    (["convert", "--name", "latexml", "--tex", "x"], 1, "latexml"),
    (["gold-validate", "--gold", "CONVERTERS"], 1, "id must be a positive integer"),
    (["dist", "--measure", "emd", "--costs", "1,1,1", "L1", "XY"], 2,
     "--costs only applies"),
    # refused before any input is read, so the unclosed file is no parse error
    (["dist", "--measure", "emd", "--costs", "1,1,1", "UNCLOSED", "XY"], 2,
     "mml dist: error: --costs only applies to --measure ted\n"),
    (["dist", "--measure", "cosine", "--label-mode", "name", "UNCLOSED", "XY"], 2,
     "mml dist: error: --label-mode only applies to --measure ted\n"),
    (["dist", "--measure", "hist-abs", "--label-mode", "name-text", "L1", "XY"], 2,
     "--label-mode only applies"),
    (["dist", "--measure", "ted", "--include-structural", "UNCLOSED", "XY"], 2,
     "mml dist: error: --include-structural does not apply to --measure ted\n"),
    (["dist", "--measure", "ted", "--costs", "1,1", "L1", "XY"], 2,
     "three comma-separated"),
    (["clean", "--features", "bogus", "L1"], 2, "unknown feature"),
    (["clean", "--features", ",", "L1"], 2, "no features given"),
    (["clean", "L1"], 2, "--features"),
    (["select", "L1"], 2, ""),
    (["select", "--expr", "//mi", "--lib", "all-operators", "L1"], 2, ""),
    (["dist", "--measure", "ted", "L1"], 2, ""),
    (["dist", "--measure", "manhattan", "L1", "XY"], 2, ""),
    (["doc-dist", "--measure", "emd", "-a", "L1"], 2, ""),
    (["parse", "--lenient", "--strict", "L1"], 2, ""),
    (["parse", "missing-file.mml"], 2, "input file not found"),
    (["gold-validate", "--gold", "missing.json"], 2, "input file not found"),
    (["convert", "--name", "identity"], 2, "needs --tex"),
    (["frobnicate"], 2, ""),
    ([], 2, ""),
]


@pytest.mark.parametrize("measure", list(mmlkit.similarity.HISTOGRAM_MEASURES))
def test_doc_dist_with_one_file_a_side_prints_what_dist_prints(measure, invoke, paths):
    dist = invoke(["dist", "--measure", measure, paths["L1"], paths["XY"]])
    assert dist[0] == 0
    assert invoke(["doc-dist", "--measure", measure,
                   "-a", paths["L1"], "-b", paths["XY"]]) == dist


def test_dist_refuses_ted_options_before_reading_any_input(invoke, paths, monkeypatch):
    read = []
    monkeypatch.setattr(cli, "_read_input", read.append)
    for option in (["--costs", "1,1,1"], ["--label-mode", "name"]):
        for measure in mmlkit.similarity.HISTOGRAM_MEASURES:
            code, out, _ = invoke(["dist", "--measure", measure, *option,
                                   paths["L1"], paths["XY"]])
            assert (code, out) == (2, "")
    assert read == []


@pytest.mark.parametrize("argv", [
    ["gold-validate", "--gold", "JSON"],
    ["convert", "--converters", "JSON", "--name", "x", "--tex", "y"],
])
@pytest.mark.parametrize("text", ["[" * 100_000, "[" + "1" * 5000 + "]"],
                         ids=["nested-too-deeply", "int-of-too-many-digits"])
def test_json_that_json_loads_refuses_is_a_schema_error(argv, text, invoke, tmp_path):
    path = tmp_path / "refused.json"
    path.write_text(text)
    code, out, err = invoke([str(path) if arg == "JSON" else arg for arg in argv])
    assert (code, out) == (1, "")
    assert err.startswith(f"mml {argv[0]}: error:") and err.count("\n") == 1


def test_ted_past_the_largest_float_is_one_error_line(invoke, paths):
    # each cost is a float, but their sum is not
    argv = ["dist", "--measure", "ted", "--costs", "1e308,1e308,1e308",
            paths["L1"], paths["THREE"]]
    assert invoke(argv) == (
        1, "", "mml dist: error: tree edit distance is past the largest float\n")


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv,code,fragment", ERROR_CASES,
        ids=[" ".join(argv) or "(empty)" for argv, _, _ in ERROR_CASES])
    def test_mapping(self, argv, code, fragment, paths, invoke):
        got_code, out, err = invoke(fill(argv, paths))
        assert got_code == code
        assert fragment in err

    def test_success_code_is_zero(self, invoke, paths):
        code, out, err = invoke(["extract", paths["L1"]])
        assert code == 0 and err == ""

    def test_empty_match_is_success(self, invoke, paths):
        assert invoke(["select", "--expr", "//mo", paths["L1"]]) == (0, "", "")

    def test_empty_histogram_is_success(self, invoke, paths):
        assert invoke(["histogram", paths["EMPTY"]]) == (0, "", "")


class TestFormatNumber:
    @pytest.mark.parametrize("value,expected", [
        (0.0, "0.0"),
        (1.0, "1.0"),
        (7.0, "7.0"),
        (-2.0, "-2.0"),
        (0.5, "0.5"),
        (1 / 3, "0.3333333333"),
        (5 / 7, "0.7142857143"),
        (2 / math.sqrt(5), "0.894427191"),
        (1e-12, "1e-12"),
        (1234567890123.0, "1.23456789e+12"),
    ])
    def test_rendering(self, value, expected):
        assert cli.format_number(value) == expected


class TestHelp:
    def test_help_exits_zero(self, invoke):
        code, out, err = invoke(["--help"])
        assert code == 0
        assert "subcommand" in err or "subcommand" in out

    def test_subcommand_help(self, invoke):
        code, out, err = invoke(["dist", "--help"])
        assert code == 0
        assert "--measure" in err + out


class TestParserReuse:
    CALLS = [
        ["histogram", "L1", "XY"],
        ["parse", "--strict", "L1"],
        ["clean", "--features", "bogus", "L1"],
        ["parse", "missing-file.mml"],
        ["--help"],
        ["dist", "--help"],
        ["frobnicate"],
        ["extract", "L1"],
    ]

    def test_one_parser_serves_every_call(self, invoke, paths):
        cli._build_parser.cache_clear()
        first = [invoke(fill(argv, paths)) for argv in self.CALLS]
        for _ in range(2):
            assert [invoke(fill(argv, paths)) for argv in self.CALLS] == first
        assert cli._build_parser.cache_info().misses == 1
        assert [code for code, _, _ in first] == [0, 1, 2, 2, 0, 0, 2, 0]
        help_code, help_out, help_err = first[4]
        assert help_out == "" and help_err.startswith("usage: mml [-h]")

    def test_usage_errors_name_the_argument(self, invoke, paths):
        code, out, err = invoke(["parse", "missing-file.mml"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: mml parse ")
        assert err.endswith(
            "mml parse: error: argument input: input file not found: missing-file.mml\n")
        code, out, err = invoke(["clean"])
        assert (code, out) == (2, "")
        assert err.endswith("the following arguments are required: --features, input\n")
        code, _, err = invoke(fill(["doc-dist", "--measure", "emd",
                                    "-a", "L1", "-b", "nope.mml"], paths))
        assert code == 2
        assert "argument -b/--right: input file not found: nope.mml" in err
        code, _, err = invoke(fill(["dist", "--measure", "ted", "--costs=-1,1,1",
                                    "L1", "XY"], paths))
        assert code == 2
        assert err.endswith("mml dist: error: argument --costs: "
                            "insert cost must be finite and non-negative\n")


#: The same two collections, left L1 and XY, right THREE and L1, in each
#: form that doc-dist takes; ``-`` reads L1 from standard input.
DOC_DIST_SIDES = {
    "repeated": ["-a", "L1", "-a", "XY", "-b", "THREE", "-b", "L1"],
    "long": ["--left", "L1", "--left", "XY", "--right", "THREE", "--right", "L1"],
    "equals": ["--left=L1", "--left=XY", "--right=THREE", "--right=L1"],
    "interleaved": ["-b", "THREE", "-a", "L1", "--right", "L1", "--left", "XY"],
    "stdin": ["-a", "-", "-a", "XY", "-b", "THREE", "-b", "L1"],
    "list": ["-a", "L1", "XY", "-b", "THREE", "L1"],
    "list-and-repeated": ["-a", "L1", "-b", "THREE", "L1", "-a", "XY"],
}


@pytest.mark.parametrize("form", list(DOC_DIST_SIDES))
@pytest.mark.parametrize("measure", list(mmlkit.similarity.HISTOGRAM_MEASURES))
def test_every_form_of_the_doc_dist_sides_prints_the_same_value(form, measure, invoke, paths,
                                                                listing1_text):
    sides = [re.sub("L1|XY|THREE", lambda name: paths[name[0]], token)
             for token in DOC_DIST_SIDES[form]]
    docs = {name: mmlkit.parse(pathlib.Path(paths[name]).read_text(encoding="utf-8"))[0]
            for name in ("L1", "XY", "THREE")}
    value = mmlkit.similarity.document_distance(
        [docs["L1"], docs["XY"]], [docs["THREE"], docs["L1"]], measure)
    assert invoke(["doc-dist", "--measure", measure, *sides], stdin=listing1_text) == (
        0, cli.format_number(value) + "\n", "")


def test_doc_dist_arguments_parse_in_linear_time(paths, monkeypatch):
    # argparse scans every option's place before each option it reads, so
    # one flag per file would be quadratic; the flags of a side are folded
    # into one, as a list of files is given.  The file check is stubbed out
    # so that only the parse is timed.
    monkeypatch.setattr(cli, "_path", str)
    parser = cli._build_parser()

    def seconds(n):
        argv = ["doc-dist", "--measure", "emd"]
        argv += [token for _ in range(n) for token in ("-a", paths["L1"])]
        argv += [token for _ in range(n) for token in ("--right", paths["XY"])]
        folded = cli._fold_sides(argv)
        assert folded == ["doc-dist", "--measure", "emd", "-a", *[paths["L1"]] * n,
                          "--right", *[paths["XY"]] * n]
        args = parser.parse_args(folded)
        assert (args.left, args.right) == ([paths["L1"]] * n, [paths["XY"]] * n)
        return min(timeit.repeat(lambda: parser.parse_args(cli._fold_sides(argv)),
                                 number=1, repeat=7))

    assert seconds(1600) <= 6 * seconds(400)


def parse_outcome(argv):
    """What argparse makes of a command line: its namespace, or its exit."""
    try:
        return vars(cli._build_parser().parse_args(argv))
    except cli._Exit as exc:
        return exc.args


@pytest.mark.parametrize("argv", [
    ["-a", "L1", "-a", "-b", "XY"],
    ["-a", "L1", "-a", "--", "-b", "XY"],
    ["--left", "-x", "-b", "XY"],
    ["-aL1", "-a", "XY", "-b", "XY"],
    ["--lef", "L1", "-a", "XY", "-b", "XY", "-b", "-5"],
    ["-a", "L1", "--", "-a", "XY", "-b", "XY"],
    ["-a", "L1", "-b", "XY", "--", "-a", "L1", "-a", "XY"],
    ["-a", "L1", "--left", "-", "-a", "XY", "-b", "XY", "-b", "L1", "--", "L1"],
    ["-b", "XY", "--right", "missing", "-a", "L1", "-a", "-5"],
])
def test_folding_the_sides_leaves_what_argparse_reads(argv, paths):
    # a pair whose value starts with "-", an attached value, an
    # abbreviation and whatever follows "--" are left as they are
    argv = ["doc-dist", "--measure", "emd", *fill(argv, paths)]
    assert parse_outcome(cli._fold_sides(argv)) == parse_outcome(argv)


SIDE_FLAGS = ["-a", "--left", "-b", "--right"]
SIDE_VALUES = ["-", "--", "--lef", "-x", "-5", "L1", "XY", "missing"]
#: Mostly flag-and-value pairs, so that about a third of the vectors fold.
side_pair = st.tuples(st.sampled_from(SIDE_FLAGS), st.sampled_from(SIDE_VALUES))
side_chunk = st.one_of(side_pair, side_pair, side_pair,
                       st.tuples(st.sampled_from(SIDE_FLAGS + SIDE_VALUES)))


@settings(max_examples=300, deadline=None)
@given(chunks=st.lists(side_chunk, max_size=10))
def test_folding_random_sides_leaves_what_argparse_reads(chunks, paths):
    tokens = [token for chunk in chunks for token in chunk]
    argv = ["doc-dist", "--measure", "emd", *fill(tokens, paths)]
    assert parse_outcome(cli._fold_sides(argv)) == parse_outcome(argv)


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
def test_parse_reads_any_line_ending(ending, invoke, listing1_text, golden_dir, tmp_path):
    # the file is read as bytes; the XML parser normalizes line breaks
    path = tmp_path / "listing1.mml"
    path.write_bytes(listing1_text.replace("\n", ending).encode("utf-8"))
    assert "\r" in path.read_bytes().decode("utf-8")
    expected = (golden_dir / "parse_listing1.txt").read_text(encoding="utf-8")
    assert invoke(["parse", str(path)]) == (0, expected, "")


def test_a_late_byte_that_is_not_utf8_is_named_by_its_offset(invoke, listing1_text, tmp_path):
    path = tmp_path / "late.mml"
    body = listing1_text.encode("utf-8")
    path.write_bytes(body + b" " * (9013 - len(body)) + b"\xff</math>")
    assert invoke(["parse", str(path)]) == (
        1, "", f"mml parse: error: {path}: not UTF-8 text: 'utf-8' codec can't decode "
               "byte 0xff in position 9013: invalid start byte\n")
