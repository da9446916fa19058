"""Benchmark for mmlkit: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  It generates the workload's inputs from
the seed, times the set-up (importing mmlkit, then the workload's own program
calls) several times, runs a first round of ops whose outputs are checked
against computations made apart from mmlkit, and then repeats whole rounds
for ``--seconds``, each output compared with the first round's.  Timings
are scaled to a reference machine speed (see ``Calibration``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 1`` the metrics are the
per-layer figures of ``tracing.py`` instead of the end-to-end ones, and the
spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from types import SimpleNamespace
from xml.dom import minidom

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
#: Each run keeps going past ``--seconds`` until it has this many timed ops,
#: so that at least ten latencies lie beyond the 90th percentile.
MIN_OPS = 100
MODULES = ("core", "query", "similarity", "convert", "cli")
#: A calibration sample follows every this many seconds spent in ops.
CALIBRATE_EVERY_S = 0.2
#: Time of one calibration sample at the reference speed.
REFERENCE_S = 0.02


class Calibration:
    """The speed of the machine while a run measures.

    A shared host's speed can drift by a third over minutes, and every
    timing with it.  A fixed unit of work that does not touch mmlkit is timed between
    ops: the standard library's minidom parsing 16 fixed formulas (expat and
    Python objects, like mmlkit's parse) and an edit-distance table over two
    fixed strings (list indexing and ``min``, like tree edit distance and
    EMD).  ``factor()`` turns times measured meanwhile into times at the
    reference speed, where the unit takes ``REFERENCE_S``."""

    def __init__(self):
        rng = random.Random("calibration")
        self.texts = [gen.make_formula(rng, 60, gen.CLEAN).pristine for _ in range(16)]
        self.strings = ["".join(rng.choice("abcdefgh") for _ in range(200)) for _ in "ab"]
        self.samples: list[float] = []

    def _edit_distance(self) -> int:
        a, b = self.strings
        previous = list(range(len(b) + 1))
        for i, x in enumerate(a, 1):
            current = [i] + [0] * len(b)
            for j, y in enumerate(b, 1):
                current[j] = min(previous[j] + 1, current[j - 1] + 1,
                                 previous[j - 1] + (x != y))
            previous = current
        return previous[-1]

    def sample(self) -> None:
        start = time.perf_counter()
        for text in self.texts:
            minidom.parseString(text).unlink()
        self._edit_distance()
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Scale for the times measured since the last call."""
        if not self.samples:
            self.sample()
        factor = REFERENCE_S / statistics.median(self.samples)
        self.samples = []
        return factor


def _import_mmlkit():
    """Import mmlkit afresh: drop any earlier import, then load the package
    and the five layer modules."""
    for name in [n for n in sys.modules if n == "mmlkit" or n.startswith("mmlkit.")]:
        del sys.modules[name]
    importlib.import_module("mmlkit")
    return SimpleNamespace(**{n: importlib.import_module(f"mmlkit.{n}") for n in MODULES})


def timed_setup(workload, calibration):
    """Median time of ``setup_reps`` set-ups, at the reference speed; the
    workload keeps the modules and state of the last one."""
    calibration.factor()
    times = []
    for _ in range(workload.setup_reps):
        start = time.perf_counter()
        m = _import_mmlkit()
        workload.setup(m)
        times.append(time.perf_counter() - start)
        calibration.sample()
    return statistics.median(times) * calibration.factor(), m


class Loop:
    """Runs rounds of ops, times each op, and checks every output: the first
    round against the independent computations, later ones against the
    first round."""

    def __init__(self, workload, calibration, tracer=None):
        self.w = workload
        self.calibration = calibration
        self.since_calibration = 0.0
        self.tracer = tracer
        self.reference = [None] * workload.n_ops
        self.failed_ops = set()  # op indices whose first output was wrong
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def _note(self, text):
        if len(self.notes) < 5:
            self.notes.append(text)

    def _verdict(self, i, out, first):
        if self.tracer:
            self.tracer.on = False
        try:
            if first:
                reason = self.w.check(i, out)
                self.reference[i] = self.w.summary(out)
                return reason
            if i in self.failed_ops:
                return "same wrong output as in the first round"
            if self.w.summary(out) != self.reference[i]:
                return "output differs from the first round"
            return None
        finally:
            if self.tracer:
                self.tracer.on = True

    def round(self, first=False) -> tuple[list[float], int]:
        """One round; returns the op latencies (s) and the completed count."""
        w, latencies, completed = self.w, [], 0
        for i in range(w.n_ops):
            if self.tracer:
                self.tracer.op = i
            start = time.perf_counter()
            try:
                out, error = w.op(i), None
            except Exception:  # an op that raises is a failed op; the run goes on
                error = traceback.format_exc()
            latencies.append(time.perf_counter() - start)
            self.attempted += 1
            self.since_calibration += latencies[-1]
            if self.since_calibration >= CALIBRATE_EVERY_S:
                self.calibration.sample()
                self.since_calibration = 0.0
            if error is not None:
                self.failed += 1
                self._note(f"op {i} raised:\n{error}")
                continue
            reason = self._verdict(i, out, first)
            if reason is None:
                completed += 1
                continue
            self.failed += 1
            self.wrong += 1
            if first:
                self.failed_ops.add(i)
            self._note(f"op {i}: {reason}")
        return latencies, completed

    def timed(self, seconds, min_ops=MIN_OPS):
        """Whole rounds until ``seconds`` have passed and ``min_ops`` ops ran.
        Returns the op latencies (s), the completed ops per second of each
        round, the number of rounds and the calibration factor."""
        latencies, rates, rounds = [], [], 0
        self.calibration.factor()
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds or len(latencies) < min_ops:
            lat, completed = self.round()
            latencies += lat
            rates.append(completed / sum(lat))
            rounds += 1
        return latencies, rates, rounds, self.calibration.factor()


def sweep(m, workload):
    """Calls every traced layer once on three small inputs of the workload,
    for the layers its own ops leave out."""
    docs = [m.core.parse(text, "lenient")[0] for text in workload.sweep_texts()]
    hists = []
    for doc in docs:
        m.core.serialize(doc)
        m.core.extract_identifiers(doc)
        m.convert.canonicalize(doc)
        for q in workload.queries:
            m.query.select(doc, q)
        hists.append(m.similarity.histogram(doc))
    m.similarity.accumulate(hists)
    m.similarity.cosine_similarity(hists[0], hists[1])
    m.similarity.emd(hists[0], hists[1])
    m.similarity.tree_edit_distance(docs[0], docs[1])
    m.similarity.document_distance(docs[:2], docs[1:], measure="cosine")
    path = os.path.join(OUT, f"sweep-{os.getpid()}.mml")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(workload.sweep_texts()[0])
    try:
        m.cli.run(["histogram", path], stdout=io.StringIO(), stderr=io.StringIO())
    finally:
        os.remove(path)


def repair_ms(parse, pairs):
    """Mean over repaired inputs of (lenient parse of the repaired input) -
    (strict parse of its pristine text)."""

    def timed(text, mode):
        start = time.perf_counter()
        parse(text, mode)
        return time.perf_counter() - start

    return 1000 * statistics.fmean(
        timed(text, "lenient") - timed(pristine, "strict") for text, pristine in pairs)


def run(workload_name, seed, seconds, trace, corrupt=None, min_ops=MIN_OPS, **sizes):
    """Run one workload; returns (result dict, notes).  ``corrupt(m)`` may
    alter the program after set-up, and ``sizes`` shrink the inputs, for the
    self-test."""
    import workloads
    import tracing

    os.makedirs(OUT, exist_ok=True)
    w = workloads.WORKLOADS[workload_name](seed, **sizes)
    try:
        calibration = Calibration()
        setup_s, m = timed_setup(w, calibration)
        if corrupt is not None:
            corrupt(m)
        loop = Loop(w, calibration)
        setup_errors = w.setup_errors()
        loop.round(first=True)  # warm-up and full check
        gc.collect()
        gc.freeze()  # the inputs and references are the benchmark's own
        if not trace:
            latencies, rates, _, factor = loop.timed(seconds, min_ops)
            p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
            metrics = {
                "ops_per_s": statistics.median(rates) / factor,
                "op_p50_ms": 1000 * statistics.median(latencies) * factor,
                "op_p90_ms": 1000 * p90 * factor,
                "peak_rss_MiB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": setup_s,
            }
        else:
            _, plain_rates, _, plain_factor = loop.timed(seconds / 2, 1)
            tracer = tracing.Tracer(w.queries[-1])
            tracer.install(m)
            loop.tracer = tracer
            tracer.on, tracer.phase = True, "setup"
            w.setup(m)
            tracer.phase = "loop"
            _, traced_rates, rounds, traced_factor = loop.timed(seconds / 2, 1)
            tracer.phase = "sweep"
            sweep(m, w)
            tracer.on = False
            metrics = tracer.layer_metrics(rounds)
            pairs = w.repair_pairs()
            metrics["core.repair.ms"] = repair_ms(tracer.originals["core.parse"], pairs)
            plain = statistics.median(plain_rates) / plain_factor
            traced = statistics.median(traced_rates) / traced_factor
            metrics["trace.overhead_pct"] = 100 * (plain / traced - 1)
            tracer.write(os.path.join(OUT, f"trace-{workload_name}-{seed}.jsonl"))
        notes = loop.notes + setup_errors[:5]
        result = {
            "correct": loop.wrong == 0 and not setup_errors,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": metrics,
        }
        return result, notes
    finally:
        gc.unfreeze()
        w.close()


def prepare() -> list[str]:
    """Put the checkout's mmlkit, its test oracles and this directory on the
    import path; returns the files of a checkout that are missing."""
    missing = [p for p in (os.path.join(ROOT, "src", "mmlkit", "__init__.py"),
                           os.path.join(ROOT, "tests", "oracles.py"),
                           os.path.join(ROOT, "BENCHMARK.json"))
               if not os.path.isfile(p)]
    if not missing:
        sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    return missing


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = prepare()
    if missing:
        print(f"run.py: not a checkout of mmlkit, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    result, notes = run(args.workload, args.seed, args.seconds, args.trace)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(result["metrics"]):
        raise AssertionError(f"metrics {sorted(result['metrics'])} do not match {sorted(units)}")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    for note in notes:
        print(note, file=sys.stderr)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
