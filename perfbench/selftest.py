"""Quick self-test of the benchmark, kept apart from the test suite.

    python3 perfbench/selftest.py

On small inputs, every workload must run its checks and pass them, untraced
and traced; then, with the program deliberately broken after set-up, the
wrong results must come out as failed ops.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import sys

import run

SMALL = {
    "ingest": {"formulas": 20},
    "retrieval": {"families": 3, "distractors": 3},
    "collections": {"papers": 2},
}


def _histogram_off_by_one(m):
    original = m.similarity.histogram

    def broken(*args, **kwargs):
        counts = dict(original(*args, **kwargs).counts)
        counts["mi"] = counts.get("mi", 0) + 1
        return m.similarity.Histogram(counts)

    m.similarity.histogram = broken


def _ted_plus_one(m):
    original = m.similarity.tree_edit_distance
    m.similarity.tree_edit_distance = lambda *args, **kwargs: original(*args, **kwargs) + 1


def _emd_scaled(m):
    original = m.similarity.emd
    m.similarity.emd = lambda *args, **kwargs: original(*args, **kwargs) * 1.01


CORRUPTIONS = {
    "ingest": _histogram_off_by_one,
    "retrieval": _ted_plus_one,
    "collections": _emd_scaled,
}


def main() -> int:
    missing = run.prepare()
    if missing:
        print(f"selftest: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = run.load_spec()
    problems = []
    for name, sizes in SMALL.items():
        before = len(problems)
        for trace in (0, 1):
            result, notes = run.run(name, 3, 0.2, trace, min_ops=1, **sizes)
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {result} {notes}")
            elif set(result["metrics"]) != wanted:
                problems.append(f"{name} trace={trace}: metrics {sorted(result['metrics'])}")
        result, _ = run.run(name, 3, 0.2, 0, corrupt=CORRUPTIONS[name], min_ops=1, **sizes)
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{name}: a corrupted result was not reported: {result}")
        print(f"{name}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
