"""Inputs at the edges: nesting depth, non-UTF-8 files, mutated documents,
generated command lines."""

import io
import json
import os
import random
import re
import tempfile
import xml.parsers.expat
from operator import is_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmlkit
from mmlkit import DuplicateId, MalformedInput, MathDoc, MmlError, cli, core
from mmlkit.convert import canonicalize
from mmlkit.core import MAX_DEPTH

import generators
import oracles

NS = mmlkit.MATHML_NS


def nested(levels: int) -> str:
    """A document whose elements nest ``levels`` deep, math included."""
    inner = levels - 2
    return f'<math xmlns="{NS}">' + "<mrow>" * inner + "<mi>x</mi>" + "</mrow>" * inner + "</math>"


def with_frames(frames: int, fn):
    """Call ``fn`` with ``frames`` extra Python frames on the stack."""
    return fn() if frames == 0 else with_frames(frames - 1, fn)


class TestDepthLimit:
    @pytest.mark.parametrize("mode", ["lenient", "strict"])
    def test_limit_is_inclusive(self, mode):
        doc, _ = mmlkit.parse(nested(MAX_DEPTH), mode)
        assert len(doc.nodes) == MAX_DEPTH
        assert doc.parent(MAX_DEPTH - 1) == MAX_DEPTH - 2

    @pytest.mark.parametrize("mode", ["lenient", "strict"])
    @pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 500, 10_000])
    def test_deeper_input_is_malformed(self, mode, levels):
        with pytest.raises(MalformedInput, match=f"deeper than {MAX_DEPTH} levels"):
            mmlkit.parse(nested(levels), mode)

    def test_operations_at_the_limit_with_a_deep_caller(self):
        text = nested(MAX_DEPTH)
        doc, _ = mmlkit.parse(text, "strict")
        other, _ = mmlkit.parse(text, "strict")
        checks = {
            "==": lambda: doc == other,
            "serialize": lambda: mmlkit.serialize(doc) == text,
            "canonicalize": lambda: canonicalize(doc) == doc,
            "clean": lambda: mmlkit.clean(doc, {"annotations"}) == doc,
            "tree_edit_distance": lambda: mmlkit.tree_edit_distance(doc, other) == 0.0,
            "strict round trip": lambda: mmlkit.parse(mmlkit.serialize(doc), "strict")[0] == doc,
        }
        for name, check in checks.items():
            assert with_frames(200, check), name


def hand_built_chain(levels: int, leaf: str = "x") -> mmlkit.MathNode:
    """The tree of ``nested(levels)``, built through the constructor."""
    node = mmlkit.MathNode("mi", (), leaf)
    for _ in range(levels - 2):
        node = mmlkit.MathNode("mrow", (), None, (node,))
    return mmlkit.MathNode("math", (), None, (node,))


def test_hand_built_tree_deeper_than_the_recursion_limit():
    # MAX_DEPTH bounds parsed input only; a hand-built tree may nest deeper
    chain = hand_built_chain(1000)
    assert mmlkit.serialize(MathDoc(chain)) == nested(1000)
    assert mmlkit.serialize(MathDoc(chain), pretty=True).split("\n") == (
        [f'<math xmlns="{NS}">'] + ["  " * level + "<mrow>" for level in range(1, 999)]
        + ["  " * 999 + "<mi>x</mi>"]
        + ["  " * level + "</mrow>" for level in range(998, 0, -1)] + ["</math>"])
    assert mmlkit.serialize_node(chain) == nested(1000).replace(f' xmlns="{NS}"', "")
    assert mmlkit.tree_edit_distance(chain, mmlkit.MathNode("math")) == 999.0
    assert mmlkit.tree_edit_distance(MathDoc(chain), mmlkit.MathNode("math")) == 999.0
    assert mmlkit.serialize(mmlkit.clean(MathDoc(chain), {"annotations"})) == nested(1000)
    assert mmlkit.serialize(canonicalize(MathDoc(chain))) == nested(1000)
    # equality and hashing walk two distinct chains without recursion
    twin, other = hand_built_chain(1000), hand_built_chain(1000, leaf="y")
    assert chain == twin and not chain != twin
    assert hash(chain) == hash(twin)
    assert chain != other and not chain == other  # only the deepest leaf differs
    assert hash(chain) != hash(other)


def test_cli_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.mml"
    path.write_bytes("<math><mi>é</mi></math>".encode("latin-1"))
    assert cli.run(["parse", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"mml parse: error: {path}: not UTF-8 text")


@pytest.mark.parametrize("text", [
    "<math><mi>x</mi>",
    "<math>\ud800&alpha;</math>",
    # a repair would drop the surrogate along with a prefix or a declaration
    "<math><\ud800:mi>x</\ud800:mi></math>",
    f'<math xmlns:\ud800="{NS}"><mi>x</mi></math>',
    # the repair drops a line break along with the declaration
    f'<m:math\n  xmlns:m="{NS}">\r\n<m:mi>&#945;é</m:mi>\n<mi>𝔸</mo></m:math>',
])
def test_errors_after_repairs_point_into_the_original_input(text):
    messages = []
    for mode in ("lenient", "strict"):
        with pytest.raises(MalformedInput) as info:
            mmlkit.parse(text, mode)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def mutated_text(seed: int, kinds) -> str:
    rng = random.Random(seed)
    text = mmlkit.serialize(generators.random_doc(rng), pretty=rng.random() < 0.3)
    return generators.mutate(rng, text, kinds)


mutation_lists = st.lists(st.sampled_from(sorted(generators.MUTATIONS)), max_size=4)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kinds=mutation_lists)
def test_mutated_documents_parse_or_raise_mml_errors(seed, kinds):
    text = mutated_text(seed, kinds)
    for mode in ("lenient", "strict"):
        try:
            doc, _ = mmlkit.parse(text, mode)
        except MmlError:
            continue
        assert isinstance(doc, MathDoc)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kinds=mutation_lists)
def test_lenient_repairs_nothing_exactly_when_strict_parses(seed, kinds):
    # the ParseReport invariant
    text = mutated_text(seed, kinds)
    try:
        doc, report = mmlkit.parse(text, "lenient")
    except MmlError:
        return
    try:
        strict_doc, _ = mmlkit.parse(text, "strict")
    except MmlError:
        assert report.repairs != ()
    else:
        assert report.repairs == ()
        assert strict_doc == doc


#: The mutations whose every defect lenient mode repairs, in the order
#: :func:`repairable_text` applies them.  "prefix" uses ``m``, which none of
#: the others declares, and "entities" writes only HTML5 named entities.
REPAIRABLE = {
    "declare-prefix": generators.MUTATIONS["declare-prefix"],
    "prefix": lambda rng, text: generators.add_prefix(text, "m", declare=rng.random() < 0.5),
    "rebind": generators.MUTATIONS["rebind"],
    "entities": lambda rng, text: generators.encode_entities(text)[0],
    "drop-namespace": generators.MUTATIONS["drop-namespace"],
}


def repairable_text(seed: int, kinds) -> str:
    rng = random.Random(seed)
    text = mmlkit.serialize(generators.random_doc(rng), pretty=rng.random() < 0.3)
    for kind, mutation in REPAIRABLE.items():
        if kind in kinds:
            text = mutation(rng, text)
    return text


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       kinds=st.sets(st.sampled_from(sorted(REPAIRABLE))))
def test_lenient_mode_repairs_every_repairable_defect(seed, kinds):
    # the scan judges each prefix in the scope of the declarations around it
    doc, _ = mmlkit.parse(repairable_text(seed, kinds))
    assert mmlkit.parse(mmlkit.serialize(doc), "strict")[0] == doc


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kinds=mutation_lists,
       pretty=st.booleans())
def test_parsed_documents_round_trip_through_strict_mode(seed, kinds, pretty):
    text = mutated_text(seed, kinds)
    for mode in ("lenient", "strict"):
        try:
            doc, _ = mmlkit.parse(text, mode)
        except MmlError:
            continue
        again, report = mmlkit.parse(mmlkit.serialize(doc, pretty=pretty), "strict")
        assert report.repairs == ()
        assert again == doc


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kinds=mutation_lists)
def test_the_parser_writes_the_index_a_walk_of_its_tree_gives(seed, kinds):
    text = mutated_text(seed, kinds)
    for mode in ("lenient", "strict"):
        try:
            doc, _ = mmlkit.parse(text, mode)
        except MmlError:
            continue
        walked = MathDoc(doc.root)
        assert len(walked.nodes) == len(doc.nodes) and all(map(is_, walked.nodes, doc.nodes))
        assert walked._names == doc._names
        assert walked._attributes == doc._attributes
        assert walked._texts == doc._texts
        assert walked._parents == doc._parents
        assert walked._sizes == doc._sizes
        assert walked.xref_map == doc.xref_map
        assert walked.dangling_xrefs == doc.dangling_xrefs
        assert walked.presentation_root == doc.presentation_root
        assert walked.content_root == doc.content_root


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kinds=mutation_lists)
def test_the_index_of_a_parsed_document_agrees_with_a_recursive_walk(seed, kinds):
    text = mutated_text(seed, kinds)
    for mode in ("lenient", "strict"):
        try:
            doc, _ = mmlkit.parse(text, mode)
        except MmlError:
            # an unmutated text is a serialization, which parses in both
            # modes; a wrong index that breaks serialization must not leave
            # this test nothing to check
            assert kinds
            continue
        places = oracles.naive_walk(doc.root)
        assert len(doc.nodes) == len(places)
        children = [[] for _ in places]
        below = [[] for _ in places]
        for handle, (node, parent) in enumerate(places):
            assert doc.node(handle) is node
            assert doc.parent(handle) == parent
            if parent is not None:
                children[parent].append(handle)
            while parent is not None:  # each ancestor, nearest first
                below[parent].append(handle)
                parent = places[parent][1]
        for handle in range(len(places)):
            assert doc.children_of(handle) == tuple(children[handle])
            assert list(doc.descendants_of(handle)) == below[handle]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kinds=mutation_lists)
def test_the_repair_scan_stops_only_where_nothing_is_left_to_repair(seed, kinds):
    # a ":" at the very end keeps the scan of the longer text from stopping early
    # parse refuses a lone surrogate before the scan, which reads UTF-8
    text = mutated_text(seed, kinds).encode("utf-8", "replace")
    repaired, repairs, marks = core._repair(text)
    assert core._repair(text + b"<!--:-->") == (repaired + b"<!--:-->", repairs, marks)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kinds=mutation_lists)
def test_strict_mode_accepts_only_namespace_well_formed_xml(seed, kinds):
    text = mutated_text(seed, kinds)
    try:
        mmlkit.parse(text, "strict")
    except MmlError:
        return
    assert oracles.namespace_well_formed(text)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kinds=mutation_lists)
def test_strict_mode_builds_the_tree_minidom_reads(seed, kinds):
    text = mutated_text(seed, kinds)
    try:
        doc, _ = mmlkit.parse(text, "strict")
        expected = oracles.minidom_tree(text)
    except (MmlError, xml.parsers.expat.ExpatError):
        return
    assert oracles.node_tree(doc.root) == expected


#: What strict mode adds to Namespaces in XML: the depth limit, the MathML
#: rules, and an entity that expat skips under an external subset.
MATHML_RULES = re.compile(
    rf"elements nested deeper than {MAX_DEPTH} levels$"
    r"|math element lacks a namespace declaration \(strict mode\)$"
    r"|math element declares a foreign namespace "
    r"|prefix '[^']*' bound to the MathML namespace$"
    r"|input does not contain a math root element \(found '"
    r"|undefined entity &")
EXTERNAL_SUBSET = re.compile(r"<!DOCTYPE[^>\[]*\b(?:SYSTEM|PUBLIC)\b")


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kinds=mutation_lists)
def test_strict_mode_rejects_namespace_well_formed_xml_only_by_mathml_rules(seed, kinds):
    text = mutated_text(seed, kinds)
    if not oracles.namespace_well_formed(text):
        return
    try:
        mmlkit.parse(text, "strict")
    except DuplicateId:
        pass
    except MalformedInput as exc:
        message = str(exc)
        assert MATHML_RULES.match(message), message
        if message.startswith("undefined entity &"):
            assert EXTERNAL_SUBSET.search(text), message


UNDEFINED_ENTITY = xml.parsers.expat.errors.codes[
    xml.parsers.expat.errors.XML_ERROR_UNDEFINED_ENTITY]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kinds=mutation_lists)
def test_error_positions_in_unrepaired_input_are_expats(seed, kinds):
    text = mutated_text(seed, kinds)
    data = text.encode("utf-8", "replace")
    if core._repair(data)[0] != data:
        return
    try:
        mmlkit.parse(text)
    except MalformedInput as exc:
        message = str(exc)
    else:
        return
    if not message.startswith("not well-formed XML: "):
        return
    parser = xml.parsers.expat.ParserCreate()
    with pytest.raises(xml.parsers.expat.ExpatError) as info:
        parser.Parse(text, True)
    error = info.value
    at = len(text.encode("utf-8")[:parser.ErrorByteIndex].decode("utf-8"))
    if error.code == UNDEFINED_ENTITY and text.startswith("<", at):
        return  # in a value, expat gives the tag's place and parse the entity's
    assert message == (f"not well-formed XML: {xml.parsers.expat.ErrorString(error.code)}: "
                       f"line {error.lineno}, column {error.offset}")


seeds = st.integers(min_value=0, max_value=2**32 - 1)
documents = st.builds(mutated_text, seeds, mutation_lists)
selector_text = st.one_of(
    st.builds(lambda seed: mmlkit.render(generators.random_selector(random.Random(seed))), seeds),
    st.text(max_size=30))
#: What the files of a CLI run hold: documents, bytes that need not be UTF-8,
#: JSON nested deeper than ``json.loads`` recurses, JSON holding an integer
#: too long to convert, a gold collection, and selector text.
file_contents = st.one_of(
    documents,
    st.binary(max_size=64),
    st.integers(min_value=1, max_value=100_000).map(lambda depth: "[" * depth),
    st.integers(min_value=4_000, max_value=5_000).map(lambda digits: f"[{'9' * digits}]"),
    documents.map(lambda text: json.dumps([{"id": 1, "tex": "a", "mathml": text}])),
    selector_text,
)
#: File arguments: the run writes three files; a tenth of the arguments name none.
FILE_NAMES = ("file0", "file1", "file2")
FILES = st.sampled_from(FILE_NAMES * 3 + ("missing",))
#: The files of one doc-dist side flag: one, or a list of them.
SIDE_FILES = st.one_of(FILES, st.lists(FILES, min_size=1, max_size=3))
MODE = st.sampled_from(["--strict", "--lenient"])
BRANCHES = st.sampled_from(["presentation", "content", "both", ""])
MEASURES = st.sampled_from(["ted", "hist-abs", "hist-rel", "emd", "cosine", "l2"])
HISTOGRAM_FLAGS = (("--scope", st.sampled_from(["whole", "presentation", "content", "all"])),
                   ("--include-structural", None))
#: Per subcommand: the flags it requires, then the others, each with a
#: strategy for its value (``None`` for a switch).
COMMAND_FLAGS = {
    "parse": ((), (("--pretty", None),)),
    "clean": ((("--features", st.sampled_from([
        "cross-references,annotations", "content_branch", "presentation-branch", ",", "x"])),),
              (("--pretty", None),)),
    "split": ((("--branch", BRANCHES),), (("--pretty", None),)),
    "extract": ((), (("--branch", BRANCHES),)),
    "select": ((("--expr", selector_text),), (("--lib", st.sampled_from(
        ["all-identifiers", "tex-annotation", "content-root", "presentation-root",
         "no-such-entry"])),)),
    "histogram": ((), HISTOGRAM_FLAGS),
    "dist": ((("--measure", MEASURES),), HISTOGRAM_FLAGS + (
        ("--costs", st.sampled_from(["1,1,1", "1,1,0.5", "nan,1,1", "-1,0,0", "1e400,1,1", "1"])),
        ("--label-mode", st.sampled_from(["name", "name-text", "text"])))),
    "doc-dist": ((("--measure", MEASURES), ("-a", SIDE_FILES), ("-b", SIDE_FILES)),
                 HISTOGRAM_FLAGS),
    "convert": ((("--name", st.sampled_from(["identity", "echo-frac", "fail", "garbage", "x"])),),
                (("--pretty", None), ("--converters", FILES), ("--tex", selector_text))),
    "gold-validate": ((("--gold", FILES),), ()),
}
#: How many file arguments each subcommand takes.
FILE_COUNTS = {"dist": st.just(2), "doc-dist": st.just(0), "gold-validate": st.just(0),
               "convert": st.integers(min_value=0, max_value=1)}


@st.composite
def cli_runs(draw):
    """File contents and an argument vector for ``cli.run``: a subcommand,
    its required flags (one in ten left out), some other flags (repeats and
    a mode switch included), and file arguments, now and then one too many
    or an unknown flag.  A doc-dist side flag takes one file or a list."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    required, optional = COMMAND_FLAGS[command]
    flags = [flag for flag in required if draw(st.integers(min_value=0, max_value=9))]
    flags += draw(st.lists(st.sampled_from(optional), max_size=3)) if optional else []
    argv = [command]
    for flag, values in flags:
        value = [] if values is None else draw(values)
        argv += [flag, *value] if isinstance(value, list) else [flag, value]
    if command not in ("convert", "gold-validate"):
        argv += draw(st.lists(MODE, max_size=2))
    count = draw(FILE_COUNTS.get(command, st.integers(min_value=1, max_value=3)))
    argv += [draw(FILES) for _ in range(count)]
    argv += draw(st.sampled_from([[]] * 18 + [["--help"], ["file0"]]))
    return draw(st.lists(file_contents, min_size=3, max_size=3)), argv


@settings(max_examples=300, deadline=None)
@given(run=cli_runs())
def test_every_cli_run_ends_in_an_exit_status(run):
    contents, argv = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        for name, content in zip(FILE_NAMES, contents):
            path = os.path.join(directory, name)
            if isinstance(content, bytes):
                with open(path, "wb") as handle:
                    handle.write(content)
            else:
                with open(path, "w", encoding="utf-8", errors="surrogatepass") as handle:
                    handle.write(content)
        files = {name: os.path.join(directory, name) for name in FILE_NAMES + ("missing",)}
        status = cli.run([files.get(token, token) for token in argv], out, err)
    assert status in (0, 1, 2)
    if status:
        assert any(line.startswith("mml") for line in err.getvalue().splitlines()), err.getvalue()
