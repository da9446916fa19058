"""The three workloads: their inputs, one op each, and the checks of its output.

Every workload object is built from a seed (input generation, not timed),
then ``setup(m)`` makes the program calls that precede the timed loop, where
``m`` holds the freshly imported mmlkit modules.  ``op(i)`` runs op ``i`` of a
round, ``check(i, out)`` compares its output with computations made apart
from mmlkit (``None`` when correct, else a reason), and ``summary(out)`` gives
a value that must repeat exactly in every later round.  The program is always
reached through module attributes (``m.core.parse``), so the tracer can
rebind them.
"""

from __future__ import annotations

import io
import math
import os
import shutil
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import gen
import oracles

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
DESCENDANT = "//mrow//mi"
CATALOG_QUERIES = ("all-identifiers", "content-root")


def to_node(m, tree):
    """Build the mmlkit tree for a generated tuple tree."""
    name, attrs, text, children = tree
    return m.core.MathNode(name, attrs, text, tuple(to_node(m, c) for c in children))


def repair_counts(report) -> tuple:
    return tuple(sorted(Counter(r.kind for r in report.repairs).items()))


def expected_identifiers(tree) -> list:
    return [(node[0], node[2] or "", handle)
            for handle, node in enumerate(gen.walk(tree)) if node[0] in ("mi", "ci")]


def tex_of(tree) -> str:
    return next(node[2] for node in gen.walk(tree) if node[0] == "annotation")


def format_value(value) -> str:
    """A number as the CLI prints it: 10 significant digits, a trailing
    ``.0`` on integral values."""
    text = f"{float(value):.10g}"
    if text.lstrip("-").isdigit():
        text += ".0"
    return text


def half_l1(a: Counter, b: Counter) -> Fraction:
    ta, tb = sum(a.values()), sum(b.values())
    return sum((abs(Fraction(a[k], ta) - Fraction(b[k], tb)) for k in a.keys() | b.keys()),
               Fraction(0)) / 2


def exact_cosine(a: Counter, b: Counter) -> float:
    dot = sum(count * b[key] for key, count in a.items())
    norms = sum(c * c for c in a.values()) * sum(c * c for c in b.values())
    if dot == 0:
        return 0.0
    if dot * dot == norms:
        return 1.0
    with localcontext() as ctx:
        ctx.prec = 40
        return float(Decimal(dot) / Decimal(norms).sqrt())


def label_l1(a, b) -> int:
    """L1 distance of the node-label multisets of two mmlkit trees."""
    ca = Counter(n.name for n in a.nodes)
    cb = Counter(n.name for n in b.nodes)
    return sum(abs(ca[k] - cb[k]) for k in ca.keys() | cb.keys())


class Workload:
    name = ""
    setup_reps = 25

    def setup(self, m) -> None:
        self.m = m
        self.queries = tuple(m.query.library_get(q) for q in CATALOG_QUERIES)
        self.queries += (m.query.parse_selector(DESCENDANT),)

    def setup_errors(self) -> list:
        return []

    def repair_pairs(self) -> list:
        """(text given to the program, pristine text) of every repaired input."""
        return []

    def sweep_texts(self) -> list:
        """Three small inputs for the layers the workload's ops leave out."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Ingest(Workload):
    """One op takes one formula through the whole parse-and-access path."""

    name = "ingest"

    def __init__(self, seed: int, formulas: int = gen.INGEST_FORMULAS):
        self.corpus = gen.ingest_corpus(seed, formulas)
        self.n_ops = len(self.corpus)

    def op(self, i):
        m = self.m
        doc, report = m.core.parse(self.corpus[i].text, "lenient")
        return (
            doc,
            report,
            m.core.get_tex(doc),
            m.core.extract_identifiers(doc),
            tuple(m.query.select(doc, q) for q in self.queries),
            m.similarity.histogram(doc),
            m.convert.canonicalize(doc),
            m.core.serialize(doc),
        )

    def summary(self, out):
        doc, report, tex, ids, selected, hist, canon, text = out
        return (report.repairs, tex, tuple(ids), selected, dict(hist.counts),
                self.m.core.serialize(canon), text)

    def check(self, i, out):
        m, formula = self.m, self.corpus[i]
        doc, report, tex, ids, selected, hist, canon, text = out
        root = to_node(m, formula.tree)
        if doc != m.core.MathDoc(root):
            return "lenient parse differs from the generated tree"
        if doc != m.core.parse(formula.pristine, "strict")[0]:
            return "lenient parse differs from the strict parse of the pristine text"
        if repair_counts(report) != formula.repairs:
            return f"repairs {repair_counts(report)} != {formula.repairs}"
        if tex != tex_of(formula.tree):
            return "wrong TeX annotation"
        if len(ids) != oracles.count_identifiers(root) or ids != expected_identifiers(
                formula.tree):
            return "wrong identifiers"
        for q, got in zip(self.queries, selected):
            if got != oracles.select_reference(doc, q):
                return f"select {m.query.render(q)} differs from the reference"
        if dict(hist.counts) != gen.element_counts(formula.tree):
            return "histogram differs from the generated counts"
        if m.convert.canonicalize(canon) != canon:
            return "canonicalize is not idempotent"
        if m.similarity.histogram(canon) != hist:
            return "canonicalize changed the histogram"
        if text != formula.pristine:
            return "serialization differs from the pristine text"
        return None

    def repair_pairs(self):
        return [(f.text, f.pristine) for f in self.corpus if f.repairs]

    def sweep_texts(self):
        return [f.text for f in sorted(self.corpus, key=lambda f: len(f.text))[:3]]


class Retrieval(Workload):
    """One op ranks every candidate against one query by cosine and EMD,
    then computes the tree edit distance to the best ``top_k``."""

    name = "retrieval"
    setup_reps = 5
    top_k = 3

    def __init__(self, seed: int, **sizes):
        self.candidates, self.queries_in = gen.retrieval_inputs(seed, **sizes)
        self.tiny = gen.tiny_trees(seed, 25)
        self.n_ops = len(self.queries_in)

    def setup(self, m):
        super().setup(m)
        parse, histogram = m.core.parse, m.similarity.histogram
        self.cand_docs = [parse(c.formula.text, "lenient")[0] for c in self.candidates]
        self.cand_hists = [histogram(d) for d in self.cand_docs]
        self.query_docs = [parse(q.formula.text, "lenient")[0] for q in self.queries_in]
        self.query_hists = [histogram(d) for d in self.query_docs]

    def setup_errors(self):
        errors = []
        m = self.m
        for item, doc, hist in zip(self.candidates + self.queries_in,
                                   self.cand_docs + self.query_docs,
                                   self.cand_hists + self.query_hists):
            if doc != m.core.MathDoc(to_node(m, item.formula.tree)):
                errors.append("set-up parse differs from the generated tree")
            elif dict(hist.counts) != gen.element_counts(item.formula.tree):
                errors.append("set-up histogram differs from the generated counts")
        # the exhaustive oracle only runs on trees of a few nodes
        for a, b in self.tiny:
            got = m.similarity.tree_edit_distance(to_node(m, a), to_node(m, b))
            want = oracles.ted_reference(oracles.as_label_tree(to_node(m, a)),
                                         oracles.as_label_tree(to_node(m, b)))
            if abs(got - want) > 1e-9:
                errors.append(f"TED {got} != exhaustive {want} on a small pair")
        return errors

    def op(self, i):
        s = self.m.similarity
        hq = self.query_hists[i]
        cosines = [s.cosine_similarity(hq, hc) for hc in self.cand_hists]
        emds = [s.emd(hq, hc) for hc in self.cand_hists]
        top = sorted(range(len(cosines)), key=lambda j: (-cosines[j], j))[:self.top_k]
        teds = [s.tree_edit_distance(self.query_docs[i], self.cand_docs[j]) for j in top]
        return cosines, emds, top, teds

    def summary(self, out):
        return tuple(tuple(part) for part in out)

    def check(self, i, out):
        cosines, emds, top, teds = out
        query = self.queries_in[i]
        q_counts = gen.element_counts(query.formula.tree)
        for cand, cos, e in zip(self.candidates, cosines, emds):
            c_counts = gen.element_counts(cand.formula.tree)
            if abs(cos - exact_cosine(q_counts, c_counts)) > 1e-12:
                return "cosine differs from the exact value"
            if abs(e - oracles.emd_half_l1(q_counts, c_counts)) > 1e-9:
                return "EMD differs from half the L1 distance"
        qdoc = self.query_docs[i]
        for j, ted in zip(top, teds):
            cdoc, cand = self.cand_docs[j], self.candidates[j]
            na, nb = len(qdoc.nodes), len(cdoc.nodes)
            low = max(abs(na - nb), math.ceil(label_l1(qdoc, cdoc) / 2))
            high = na + nb
            if cand.family == query.family:  # edit scripts through the base
                high = min(high, query.edits + cand.edits)
            if not (low <= ted <= high and ted == int(ted)):
                return f"TED {ted} outside [{low}, {high}]"
        return None

    def repair_pairs(self):
        return [(c.formula.text, c.formula.pristine) for c in self.candidates
                if c.formula.repairs]

    def sweep_texts(self):
        texts = sorted((c.formula.text for c in self.candidates), key=len)
        return texts[:3]


class Collections(Workload):
    """One op compares two papers through the batch CLI, run in-process."""

    name = "collections"

    def __init__(self, seed: int, papers: int = 12):
        self.papers = gen.collection_papers(seed, papers)
        self.dir = os.path.join(OUT, f"collections-{seed}-{os.getpid()}")
        self.files = []
        for p, paper in enumerate(self.papers):
            os.makedirs(os.path.join(self.dir, str(p)), exist_ok=True)
            paths = []
            for f, formula in enumerate(paper.formulas):
                path = os.path.join(self.dir, str(p), f"{f}.mml")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(formula.text)
                paths.append(path)
            self.files.append(paths)
        # Each paper is the left side of one op and the right side of another,
        # paired with the paper half the size grid away, so that the cost of
        # each op depends on the grid and not on how the seed pairs papers.
        half = len(self.papers) // 2
        self.pairs = [(i, (i + half) % len(self.papers)) for i in range(len(self.papers))]
        self.n_ops = len(self.pairs)

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        code = self.m.cli.run(argv, stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def op(self, i):
        a, b = self.pairs[i]
        sides = [arg for path in self.files[a] for arg in ("-a", path)]
        sides += [arg for path in self.files[b] for arg in ("-b", path)]
        return (
            self._run(["doc-dist", "--measure", "emd", *sides]),
            self._run(["doc-dist", "--measure", "cosine", *sides]),
            self._run(["histogram", *self.files[a]]),
        )

    def summary(self, out):
        return out

    def check(self, i, out):
        a, b = (self.papers[k].counts for k in self.pairs[i])
        expected = (
            format_value(half_l1(a, b)) + "\n",
            format_value(exact_cosine(a, b)) + "\n",
            "".join(f"{k}\t{a[k]}\n" for k in sorted(a)),
        )
        for (code, stdout, stderr), want in zip(out, expected):
            if code != 0 or stderr:
                return f"exit code {code}: {stderr.strip()}"
            if stdout != want:
                return f"printed {stdout!r}, expected {want!r}"
        return None

    def repair_pairs(self):
        return [(f.text, f.pristine) for paper in self.papers for f in paper.formulas
                if f.repairs]

    def sweep_texts(self):
        return [f.text for f in self.papers[0].formulas[:3]]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Ingest, Retrieval, Collections)}
