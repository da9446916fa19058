"""Spans around the public functions of mmlkit's layers, and the per-layer
metrics computed from them.

``Tracer.install(m)`` rebinds functions of the imported modules to wrappers
that record one span per call: (name, start, end, parent span, op, phase).
Spans stay in memory and are written out once at the end.  Counts that need
the call's arguments or result (bytes parsed, repairs, TED cells, EMD
support) are taken after the span has ended, so they are not part of it.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter


def _tree_size(tree) -> int:
    nodes = getattr(tree, "nodes", None)
    if nodes is not None:
        return len(nodes)
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def _note_parse(counts, args, result):
    counts["core.parse.bytes"] += len(args[0].encode("utf-8"))
    counts["core.parse.repairs"] += len(result[1].repairs)


def _note_ted(counts, args, result):
    counts["similarity.tree_edit_distance.calls"] += 1
    counts["similarity.tree_edit_distance.cells"] += _tree_size(args[0]) * _tree_size(args[1])


def _note_emd(counts, args, result):
    counts["similarity.emd.calls"] += 1
    counts["similarity.emd.support"] += (len(args[0]) + len(args[1])) / 2


class Tracer:
    def __init__(self, descendant_query):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = defaultdict(lambda: defaultdict(float))  # phase -> name -> value
        self.on = False
        self.op = -1
        self.phase = ""
        self.originals: dict[str, object] = {}
        self._descendant = descendant_query

    def _wrap(self, owner, attr, name, note=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.on:
                return original(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            spans, stack = tracer.spans, tracer.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, tracer.op, tracer.phase)
            if note is not None:
                note(tracer.counts[tracer.phase], args, result)
            return result

        setattr(owner, attr, traced)
        self.originals[name if isinstance(name, str) else attr] = original

    def install(self, m) -> None:
        core, query, sim, convert, cli = m.core, m.query, m.similarity, m.convert, m.cli
        self._wrap(core, "parse", "core.parse", _note_parse)
        self._wrap(core.MathDoc, "__init__", "core.MathDoc")
        for attr in ("serialize", "get_tex", "extract_identifiers"):
            self._wrap(core, attr, f"core.{attr}")
        self._wrap(query, "select", lambda args: "query.select.descendant"
                   if args[1] == self._descendant else "query.select")
        self._wrap(query, "library_get", "query.library_get")
        self._wrap(query, "parse_selector", "query.parse_selector")
        for attr in ("histogram", "accumulate", "cosine_similarity", "document_distance"):
            self._wrap(sim, attr, f"similarity.{attr}")
        self._wrap(sim, "tree_edit_distance", "similarity.tree_edit_distance", _note_ted)
        self._wrap(sim, "emd", "similarity.emd", _note_emd)
        self._wrap(convert, "canonicalize", "convert.canonicalize")
        self._wrap(cli, "run", "cli.run")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                name, start, end, parent, op, phase = span
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "phase": phase}) + "\n")

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures.  Times are means per call in ms over the traced
        set-up and loop; a layer those never call is timed on the sweep
        instead.  Counts are per set-up plus one round, so they repeat
        exactly for a seed."""
        spans = self.spans
        by_group: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
        child_time = defaultdict(float)
        for index, (name, start, end, parent, _op, phase) in enumerate(spans):
            by_group["sweep" if phase == "sweep" else "work"][name].append(index)
            if parent >= 0:
                child_time[parent] += end - start

        def pick(*names):
            """Indices of the spans of ``names``: from set-up and loop, else
            from the sweep."""
            for group in ("work", "sweep"):
                found = [i for n in names for i in by_group[group].get(n, ())]
                if found:
                    return found, group
            return [], "work"

        def mean_ms(found):
            if not found:
                return 0.0
            return 1000 * statistics.fmean(spans[i][2] - spans[i][1] for i in found)

        metrics = {}
        for name in ("core.parse", "core.MathDoc", "core.serialize", "core.extract_identifiers",
                     "convert.canonicalize", "similarity.histogram", "similarity.accumulate",
                     "similarity.tree_edit_distance", "similarity.emd",
                     "similarity.cosine_similarity", "similarity.document_distance"):
            metrics[f"{name}.ms"] = mean_ms(pick(name)[0])
        selects = ("query.select", "query.select.descendant")
        # a union's alternatives are nested select calls: count the outer one
        metrics["query.select.ms"] = mean_ms([
            i for i in pick(*selects)[0]
            if spans[i][3] < 0 or spans[spans[i][3]][0] not in selects])
        metrics["query.select.descendant_ms"] = mean_ms(pick("query.select.descendant")[0])
        runs = pick("cli.run")[0]
        metrics["cli.run.self_ms"] = 1000 * statistics.fmean(
            spans[i][2] - spans[i][1] - child_time[i] for i in runs) if runs else 0.0

        parses, group = pick("core.parse")
        phases = ("sweep",) if group == "sweep" else ("setup", "loop")
        parse_bytes = sum(self.counts[p]["core.parse.bytes"] for p in phases)
        parse_s = sum(spans[i][2] - spans[i][1] for i in parses)
        metrics["core.parse.MiB_per_s"] = parse_bytes / 2**20 / parse_s if parse_s else 0.0

        def per_round(key):
            return self.counts["setup"][key] + self.counts["loop"][key] / max(rounds, 1)

        metrics["core.parse.repairs"] = per_round("core.parse.repairs")
        metrics["similarity.tree_edit_distance.calls"] = per_round(
            "similarity.tree_edit_distance.calls")
        metrics["similarity.tree_edit_distance.cells"] = per_round(
            "similarity.tree_edit_distance.cells")
        metrics["similarity.emd.calls"] = per_round("similarity.emd.calls")
        _, group = pick("similarity.emd")
        phases = ("sweep",) if group == "sweep" else ("setup", "loop")
        calls = sum(self.counts[p]["similarity.emd.calls"] for p in phases)
        support = sum(self.counts[p]["similarity.emd.support"] for p in phases)
        metrics["similarity.emd.keys"] = support / calls if calls else 0.0
        return metrics
