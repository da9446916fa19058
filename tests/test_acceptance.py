"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single ``criterion NN PASS|FAIL`` line (visible under
``pytest -s``; under plain ``pytest -v`` the test name carries the same
information), and the timed criteria assert their own runtime budgets.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

import pytest

import mmlkit
from mmlkit import (
    CostConfig,
    GoldEntry,
    GroundDistance,
    Histogram,
    InvalidGoldMathML,
    OutputNotMathML,
    SchemaError,
    ToolFailed,
    ToolTimeout,
    cosine_similarity,
    emd,
    hist_distance_absolute,
    tree_edit_distance,
)
from mmlkit import cli
from mmlkit.convert import canonicalize, convert, stub_registry
from mmlkit.query import default_library, parse_selector, select

import generators
import oracles
from test_cli import GOLDEN_CASES

NS = mmlkit.MATHML_NS


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL  {title}")
        raise
    print(f"criterion {number:02d} PASS  {title}")


def test_criterion_01_fixture_parse_and_round_trip(listing1_text):
    with criterion(1, "reference fixture parses and round-trips in under 1s"):
        start = time.perf_counter()

        doc, report = mmlkit.parse(listing1_text)
        assert [r.kind for r in report.repairs] == ["namespace-inserted"]

        assert [n.name for n in doc.presentation_nodes] == ["mfrac"]
        mfrac = doc.presentation_nodes[0]
        assert [c.name for c in mfrac.children] == ["mi", "mi"]
        assert [c.text for c in mfrac.children] == ["a", "b"]
        assert [n.name for n in doc.content_nodes] == ["apply"]
        apply_node = doc.content_nodes[0]
        assert [c.name for c in apply_node.children] == ["divide", "ci", "ci"]

        assert sorted(doc.xref_pairs()) == [
            ("c.1", "p.2"), ("c.2", "p.1"), ("c.3", "p.3"),
        ]
        assert doc.dangling_xrefs == ()
        assert mmlkit.get_tex(doc) == "\\frac{a}{b}"

        round_tripped, report2 = mmlkit.parse(mmlkit.serialize(doc), "strict")
        assert report2.repairs == ()
        assert round_tripped == doc

        assert time.perf_counter() - start < 1.0


def test_criterion_02_lenient_repairs_recover_pristine_trees(listing1_text):
    with criterion(2, "mutated fixtures repair back to pristine trees in under 1s"):
        start = time.perf_counter()

        pristine_texts = [
            mmlkit.serialize(mmlkit.parse(listing1_text)[0]),
            f'<math xmlns="{NS}"><mrow><mi>α</mi><mo>+</mo><mi>β</mi></mrow></math>',
            f'<math xmlns="{NS}"><msup><mi>x</mi><mn>2</mn></msup></math>',
            f'<math xmlns="{NS}"><mi>αβ</mi></math>',
        ]
        mutants = []
        for text in pristine_texts:
            mutants.append((text, generators.strip_namespace(text),
                            {"namespace-inserted"}))
            mutants.append((text, generators.add_prefix(text, declare=True),
                            {"attribute-namespace-dropped"}))
            mutants.append((text, generators.add_prefix(text, declare=False),
                            {"namespace-inserted", "attribute-namespace-dropped"}))
            mutated, count = generators.encode_entities(text)
            if count:
                mutants.append((text, mutated, {"entity-replaced"}))
        assert len(mutants) >= 10

        for original, mutated, expected_kinds in mutants:
            pristine_doc, pristine_report = mmlkit.parse(original, "strict")
            assert pristine_report.repairs == ()

            repaired_doc, repaired_report = mmlkit.parse(mutated, "lenient")
            assert repaired_doc == pristine_doc
            assert {r.kind for r in repaired_report.repairs} == expected_kinds
            with pytest.raises(mmlkit.MalformedInput):
                mmlkit.parse(mutated, "strict")

        assert time.perf_counter() - start < 1.0


def test_criterion_03_query_matches_bruteforce_oracle():
    with criterion(3, "path selection equals the brute-force oracle"):
        library = default_library()
        selectors = [library.entry(name).query for name in library.names()]
        selectors += [
            parse_selector("//*"),
            parse_selector("math/semantics/mfrac/mi | //cn"),
            parse_selector("//apply/ci[@id='c.2']"),
        ]
        rng = random.Random(2003)
        docs = [generators.random_doc(rng) for _ in range(50)]
        for doc in docs:
            for selector in selectors:
                assert select(doc, selector) == oracles.select_reference(doc, selector)


def _normalized(hist):
    return {k: Fraction(v, hist.total) for k, v in hist.counts.items()}


def test_criterion_04_metric_axioms_hold():
    with criterion(4, "histogram L1 and discrete EMD satisfy the metric axioms"):
        rng = random.Random(4001)
        for _ in range(1000):
            a = Histogram(generators.random_histogram(rng, 4, 6))
            b = Histogram(generators.random_histogram(rng, 4, 6))
            c = Histogram(generators.random_histogram(rng, 4, 6))

            for dist in (hist_distance_absolute, emd):
                dab, dba = dist(a, b), dist(b, a)
                assert dab >= 0
                assert abs(dab - dba) <= 1e-9
                assert dab <= dist(a, c) + dist(c, b) + 1e-9
                assert dist(a, a) == 0

            assert (hist_distance_absolute(a, b) == 0) == (a == b)

            if _normalized(a) == _normalized(b):
                assert emd(a, b) <= 1e-9
            else:
                assert emd(a, b) > 1e-9
            scaled = Histogram({k: 3 * v for k, v in a.counts.items()})
            assert emd(a, scaled) <= 1e-9


def test_criterion_05_ted_matches_exhaustive_oracle():
    with criterion(5, "tree edit distance equals the exhaustive oracle in under 60s"):
        start = time.perf_counter()
        rng = random.Random(5003)
        configs = [(1.0, 1.0, 1.0)]
        for _ in range(5):
            configs.append((
                rng.choice([0.3, 0.5, 1.5, 2.0]),
                rng.choice([0.4, 1.0, 2.5]),
                rng.choice([0.2, 0.8, 1.0, 3.0]),
            ))
        for _ in range(200):
            ta = generators.random_label_tree(rng, 7)
            tb = generators.random_label_tree(rng, 7)
            na = generators.label_tree_to_node(ta)
            nb = generators.label_tree_to_node(tb)
            for ins, dele, ren in configs:
                expected = oracles.ted_reference(ta, tb, ins, dele, ren)
                actual = tree_edit_distance(
                    na, nb, CostConfig(insert=ins, delete=dele, rename=ren)
                )
                assert abs(actual - expected) <= 1e-9
        assert time.perf_counter() - start < 60.0


def test_criterion_06_emd_closed_form_and_transport_oracle():
    with criterion(6, "EMD matches the half-L1 closed form and transport oracle"):
        rng = random.Random(6007)
        for _ in range(1000):
            a = generators.random_histogram(rng)
            b = generators.random_histogram(rng)
            closed_form = oracles.emd_half_l1(a, b)
            assert abs(emd(Histogram(a), Histogram(b)) - closed_form) <= 1e-9

        universe = ["mi", "mo", "mn", "mrow", "ci"]

        def small_histogram():
            names = rng.sample(universe, rng.randint(1, 3))
            return {k: rng.randint(1, 4) for k in names}

        for _ in range(150):
            a = small_histogram()
            b = small_histogram()
            keys = sorted(set(a) | set(b))
            assert len(keys) <= 5
            overrides = {}
            for i, x in enumerate(keys):
                for y in keys[i + 1:]:
                    if rng.random() < 0.6:
                        overrides[(x, y)] = rng.choice([0.25, 0.5, 1.5, 3.0])
            ground = GroundDistance(overrides)
            expected = oracles.emd_assignment(a, b, ground.distance)
            assert abs(emd(Histogram(a), Histogram(b), ground) - expected) <= 1e-9


def test_criterion_07_cosine_bounds_and_fixpoints():
    with criterion(7, "cosine is bounded, 1 on scalings, 0 on disjoint vectors"):
        rng = random.Random(7001)
        for _ in range(500):
            counts = generators.random_histogram(rng)
            a = Histogram(counts)
            b = Histogram(generators.random_histogram(rng))
            assert 0.0 <= cosine_similarity(a, b) <= 1.0

            factor = rng.randint(1, 9)
            scaled = Histogram({k: factor * v for k, v in counts.items()})
            assert abs(cosine_similarity(a, scaled) - 1.0) <= 1e-12

            disjoint = Histogram({k + "-other": v for k, v in counts.items()})
            assert abs(cosine_similarity(a, disjoint)) <= 1e-12


def test_criterion_08_document_accumulation_is_scale_invariant():
    with criterion(8, "duplicated collections are indistinguishable"):
        rng = random.Random(8009)
        for _ in range(20):
            docs = [generators.random_doc(rng) for _ in range(rng.randint(1, 4))]
            doubled = docs + docs
            cos = mmlkit.document_distance(docs, doubled, "cosine")
            dist = mmlkit.document_distance(docs, doubled, "emd")
            assert abs(cos - 1.0) <= 1e-12
            assert abs(dist) <= 1e-12


def test_criterion_09_gold_round_trip_and_schema_errors(listing1_text):
    with criterion(9, "gold collections round-trip and violations name the entry"):
        rng = random.Random(9001)
        listing_doc, _ = mmlkit.parse(listing1_text)
        entries = [GoldEntry(1, "\\frac{a}{b}", mmlkit.serialize(listing_doc),
                             title="reference fraction")]
        for i in range(2, 21):
            root = generators.random_parallel_root(rng, tex=f"t_{{{i}}}")
            doc = mmlkit.MathDoc(root)
            kwargs = {}
            if i % 3 == 0:
                kwargs["title"] = f"entry {i}"
            if i % 4 == 0:
                kwargs["uri"] = f"https://example.org/{i}"
            if i % 5 == 0:
                kwargs["check"] = {"reviewed": "yes"}
            if i % 7 == 0:
                kwargs["extra"] = {"source": "generated"}
            entries.append(GoldEntry(i, f"t_{{{i}}}", mmlkit.serialize(doc), **kwargs))
        assert len(entries) == 20

        text = mmlkit.save_gold(entries)
        reloaded = mmlkit.load_gold(text)
        assert reloaded == entries
        assert mmlkit.save_gold(reloaded) == text

        good = json.loads(text)

        def corrupted(mutate):
            data = json.loads(text)
            mutate(data)
            return json.dumps(data)

        def set_field(index, key, value):
            def mutate(data):
                data[index][key] = value
            return mutate

        with pytest.raises(SchemaError, match="position 3"):
            mmlkit.load_gold(corrupted(lambda d: d.__setitem__(3, "oops")))
        with pytest.raises(SchemaError, match="position 2.*id"):
            mmlkit.load_gold(corrupted(set_field(2, "id", -1)))
        with pytest.raises(SchemaError, match="entry 5.*tex"):
            mmlkit.load_gold(corrupted(set_field(4, "tex", "")))
        with pytest.raises(SchemaError, match="entry 6.*mathml"):
            mmlkit.load_gold(corrupted(set_field(5, "mathml", 7)))
        with pytest.raises(SchemaError, match="entry 7.*title"):
            mmlkit.load_gold(corrupted(set_field(6, "title", 1)))
        with pytest.raises(SchemaError, match="entry 8.*check"):
            mmlkit.load_gold(corrupted(set_field(7, "check", "yes")))
        with pytest.raises(SchemaError, match="duplicate entry id 1"):
            mmlkit.load_gold(corrupted(set_field(9, "id", 1)))

        bare = good[0]["mathml"].replace(f' xmlns="{NS}"', "")
        with pytest.raises(InvalidGoldMathML, match="entry 1"):
            mmlkit.load_gold(corrupted(set_field(0, "mathml", bare)))
        pres_only = f'<math xmlns="{NS}"><mi>x</mi></math>'
        with pytest.raises(InvalidGoldMathML, match="entry 2.*content"):
            mmlkit.load_gold(corrupted(set_field(1, "mathml", pres_only)))


def test_criterion_10_converter_contract_and_canonical_form(listing1_text, data_dir):
    with criterion(10, "converter stubs map failures and canonicalize is stable"):
        stubs = stub_registry()

        result = convert("identity", listing1_text, stubs)
        assert result.mathml == mmlkit.parse(listing1_text)[0]
        result = convert("echo-frac", "\\frac{a}{b}", stubs)
        assert mmlkit.get_tex(result.mathml) == "\\frac{a}{b}"

        with pytest.raises(ToolFailed):
            convert("fail", "x", stubs)
        with pytest.raises(ToolTimeout):
            convert("slow", "x", stubs)
        with pytest.raises(OutputNotMathML):
            convert("garbage", "x", stubs)

        fixtures = []
        for path in sorted(data_dir.glob("*.mml")):
            if path.name == "unclosed.mml":
                continue
            fixtures.append(mmlkit.parse(path.read_text(encoding="utf-8"))[0])
        rng = random.Random(10007)
        fixtures += [generators.random_doc(rng) for _ in range(25)]
        for doc in fixtures:
            once = canonicalize(doc)
            assert canonicalize(once) == once
            assert mmlkit.histogram(doc, include_structural=True) == \
                mmlkit.histogram(once, include_structural=True)


def test_criterion_11_cli_golden_determinism_and_exit_codes(data_dir, golden_dir):
    with criterion(11, "CLI output is byte-stable and exit codes map by class"):
        paths = {
            "L1": str(data_dir / "listing1.mml"),
            "XY": str(data_dir / "x_plus_y.mml"),
            "THREE": str(data_dir / "three_mi.mml"),
            "BARE": str(data_dir / "bare_content.mml"),
            "MGLYPH": str(data_dir / "mglyph_semantics.mml"),
            "GOLD": str(data_dir / "gold_small.json"),
        }

        def invoke(argv):
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(argv, stdout=out, stderr=err)
            return code, out.getvalue(), err.getvalue()

        covered = set()
        for golden_name, template in GOLDEN_CASES:
            argv = [paths.get(token, token) for token in template]
            expected = (golden_dir / golden_name).read_text(encoding="utf-8")
            assert invoke(argv) == (0, expected, "")
            assert invoke(argv) == (0, expected, "")
            covered.add(template[0])
        assert covered == set(cli._COMMANDS)

        code, _, _ = invoke(["parse", "--strict", paths["L1"]])
        assert code == 1
        code, _, _ = invoke(["split", "--branch", "content", paths["XY"]])
        assert code == 1
        code, _, _ = invoke(["convert", "--name", "fail", "--tex", "x"])
        assert code == 1
        code, _, _ = invoke(["dist", "--measure", "manhattan",
                             paths["L1"], paths["XY"]])
        assert code == 2
        code, _, _ = invoke(["parse", "no-such-file.mml"])
        assert code == 2
