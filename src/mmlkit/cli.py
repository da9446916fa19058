"""Batch command-line interface.

One subcommand per library operation family: parse, clean, split, extract,
select, histogram, dist, doc-dist, convert, gold-validate.  Inputs are file
paths (``-`` reads standard input); all output is written to standard output
and is byte-deterministic for a given input set.

Exit codes: 0 success, 1 domain error (malformed input, missing branch,
tool failure, ...), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Iterator, Optional, TextIO

from . import core, gold, query, similarity
from .convert import convert as run_converter
from .convert import load_converters, stub_registry
from .errors import MalformedInput, MmlError

_FEATURE_ALIASES = {name.replace("_", "-"): name for name in core.CLEANABLE_FEATURES}
_SPLITTERS = {"presentation": core.split_presentation, "content": core.split_content}
_SIDES = {"-a": "-a", "--left": "-a", "-b": "-b", "--right": "-b"}  # doc-dist's, short form


class _Exit(Exception):
    """Raised with an exit status and the text for stderr: where argparse
    would print and exit, and where a command finds a usage error."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises :class:`_Exit` where argparse would print
    and exit, so that one parser serves every :func:`run` call."""

    def exit(self, status=0, message=None):
        raise _Exit(status, message or "")

    def error(self, message):
        self.exit(2, f"{self.format_usage()}{self.prog}: error: {message}\n")

    def print_help(self, file=None):
        self.exit(0, self.format_help())


def format_number(value: float) -> str:
    """Render a measure value with 10 significant digits; integral values
    keep a trailing ``.0`` so the output stays visibly a float."""
    text = f"{value:.10g}"
    if not any(c in text for c in ".eE") and text.lstrip("+-").isdigit():
        text += ".0"
    return text


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "rb", buffering=0) as handle:
            return handle.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: not UTF-8 text: {exc}") from None


def _path(text: str) -> str:
    """A file argument: an existing path, or ``-`` for standard input."""
    if text != "-" and not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"input file not found: {text}")
    return text


def _parse_features(text: str) -> set[str]:
    features = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        normalized = token.replace("_", "-")
        if normalized not in _FEATURE_ALIASES:
            raise argparse.ArgumentTypeError(f"unknown feature {token!r}")
        features.add(_FEATURE_ALIASES[normalized])
    if not features:
        raise argparse.ArgumentTypeError("no features given")
    return features


def _parse_costs(text: str) -> similarity.CostConfig:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "costs must be three comma-separated numbers: ins,del,ren")
    try:
        ins, dele, ren = (float(p) for p in parts)
        return similarity.CostConfig(insert=ins, delete=dele, rename=ren)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="mml", description="parallel-markup MathML toolkit")
    modes = _Parser(add_help=False)  # --lenient | --strict, for the commands that parse
    group = modes.add_mutually_exclusive_group()
    group.add_argument("--lenient", dest="mode", action="store_const", const="lenient",
                       default="lenient", help="repair recoverable defects (default)")
    group.add_argument("--strict", dest="mode", action="store_const", const="strict",
                       default="lenient", help="reject inputs needing repair")

    def add_histogram_flags(sub):
        sub.add_argument("--scope", default="whole",
                         choices=("whole", "presentation", "content"))
        sub.add_argument("--include-structural", action="store_true")

    subs = parser.add_subparsers(dest="command", metavar="subcommand",
                                 parser_class=_Parser)
    subs.required = True

    sub = subs.add_parser("parse", parents=[modes], help="parse inputs and print canonical XML")
    sub.add_argument("--pretty", action="store_true", help="indented output")
    sub.add_argument("inputs", nargs="+", type=_path, metavar="input")
    sub.set_defaults(transform=lambda doc, args: doc)

    sub = subs.add_parser("clean", parents=[modes],
                          help="remove markup features and print the result")
    sub.add_argument("--features", required=True, type=_parse_features,
                     help="comma-separated: cross-references, content-branch, "
                          "presentation-branch, annotations")
    sub.add_argument("--pretty", action="store_true")
    sub.add_argument("inputs", nargs="+", type=_path, metavar="input")
    sub.set_defaults(transform=lambda doc, args: core.clean(doc, args.features))

    sub = subs.add_parser("split", parents=[modes],
                          help="extract one branch as a standalone document")
    sub.add_argument("--branch", required=True, choices=tuple(_SPLITTERS))
    sub.add_argument("--pretty", action="store_true")
    sub.add_argument("inputs", nargs="+", type=_path, metavar="input")
    sub.set_defaults(transform=lambda doc, args: _SPLITTERS[args.branch](doc))

    sub = subs.add_parser("extract", parents=[modes],
                          help="list identifier elements as name<TAB>text")
    sub.add_argument("--branch", default="both",
                     choices=("presentation", "content", "both"))
    sub.add_argument("inputs", nargs="+", type=_path, metavar="input")

    sub = subs.add_parser("select", parents=[modes], help="print nodes matching a path query")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="inline query, e.g. \"//mi | //ci\"")
    group.add_argument("--lib", help="named query from the built-in catalog")
    sub.add_argument("inputs", nargs="+", type=_path, metavar="input")

    sub = subs.add_parser("histogram", parents=[modes], help="print an element-name histogram")
    add_histogram_flags(sub)
    sub.add_argument("inputs", nargs="+", type=_path, metavar="input")

    sub = subs.add_parser("dist", parents=[modes],
                          help="distance or similarity between two documents")
    sub.add_argument("--measure", required=True,
                     choices=("ted", *similarity.HISTOGRAM_MEASURES))
    add_histogram_flags(sub)
    sub.add_argument("--costs", type=_parse_costs, metavar="INS,DEL,REN",
                     help="tree edit costs (ted only), default 1,1,1")
    sub.add_argument("--label-mode", choices=("name", "name-text"),
                     help="tree edit labels (ted only), default name")
    sub.add_argument("inputs", nargs=2, type=_path, metavar="input")

    sub = subs.add_parser("doc-dist", parents=[modes],
                          help="distance between two document collections")
    sub.add_argument("--measure", required=True,
                     choices=tuple(similarity.HISTOGRAM_MEASURES))
    add_histogram_flags(sub)
    for flag, side in (("-a", "left"), ("-b", "right")):
        sub.add_argument(flag, f"--{side}", action="extend", nargs="+", required=True, type=_path,
                         metavar="FILE", help=f"{side} documents, one or more; repeatable; "
                                              f"one {flag} list always parses in linear time")

    sub = subs.add_parser("convert",
                          help="run a registered TeX-to-MathML converter")
    sub.add_argument("--name", required=True, help="converter name")
    sub.add_argument("--converters", type=_path, metavar="FILE",
                     help="JSON file describing additional converters")
    sub.add_argument("--tex", help="TeX source (default: read from input file)")
    sub.add_argument("--pretty", action="store_true")
    sub.add_argument("inputs", nargs="?", type=_path, metavar="input",
                     help="file holding TeX source, or - for stdin")

    sub = subs.add_parser("gold-validate",
                          help="check a gold collection and report findings")
    sub.add_argument("--gold", required=True, type=_path, metavar="FILE",
                     help="gold collection JSON file")
    return parser


def _fold_sides(argv):
    """A doc-dist ``argv`` with each run of ``-a V`` or ``--left V`` pairs, each ``V`` ``-`` or
    starting with no ``-``, as one ``-a V1 V2 ...`` (alike for ``-b``), up to any ``--``.  It
    parses as ``argv`` does, but in linear time: argparse scans all options for each it reads."""
    if not argv or argv[0] != "doc-dist":
        return argv
    end = argv.index("--") if "--" in argv else len(argv)
    plain = [i < end and (t == "-" or t[:1] != "-") for i, t in enumerate(argv)] + [False]
    return [token for i, token in enumerate(argv) if not (
        2 < i and token in _SIDES and plain[i + 1] and plain[i - 1]
        and _SIDES.get(argv[i - 2]) == _SIDES[token])]


def _load_docs(paths, mode) -> Iterator[core.MathDoc]:
    """Parse the inputs lazily: each result is written before the next is read."""
    for path in paths:
        yield core.parse(_read_input(path), mode)[0]


def _cmd_write_docs(args, out):
    """parse, clean and split: each input, transformed, as XML."""
    for doc in _load_docs(args.inputs, args.mode):
        out.write(core.serialize(args.transform(doc, args), pretty=args.pretty) + "\n")
    return 0


def _cmd_extract(args, out):
    for doc in _load_docs(args.inputs, args.mode):
        for name, text, _handle in core.extract_identifiers(doc, args.branch):
            out.write(f"{name}\t{text}\n")
    return 0


def _cmd_select(args, out):
    if args.expr is not None:
        selector = query.parse_selector(args.expr)
    else:
        selector = query.library_get(args.lib)
    for doc in _load_docs(args.inputs, args.mode):
        for handle in query.select(doc, selector):
            out.write(core.serialize_node(doc.node(handle)) + "\n")
    return 0


def _cmd_histogram(args, out):
    hist = similarity.collection_histogram(_load_docs(args.inputs, args.mode),
                                           args.scope, args.include_structural)
    out.write(hist.to_text())
    return 0


def _cmd_dist(args, out):
    ted = args.measure == "ted"
    for flag, refused, verb in (
            ("--costs", args.costs is not None and not ted, "only applies"),
            ("--label-mode", args.label_mode is not None and not ted, "only applies"),
            ("--include-structural", args.include_structural and ted, "does not apply")):
        if refused:  # before any input is read
            raise _Exit(2, f"mml dist: error: {flag} {verb} to --measure ted\n")
    doc_a, doc_b = _load_docs(args.inputs, args.mode)
    if ted:
        split = _SPLITTERS.get(args.scope)  # None for the whole document
        if split is not None:
            doc_a, doc_b = split(doc_a), split(doc_b)
        value = similarity.tree_edit_distance(doc_a, doc_b, costs=args.costs,
                                              label_mode=args.label_mode or "name")
    else:
        value = similarity.document_distance([doc_a], [doc_b], args.measure,
                                             args.scope, args.include_structural)
    out.write(format_number(value) + "\n")
    return 0


def _cmd_doc_dist(args, out):
    value = similarity.document_distance(
        _load_docs(args.left, args.mode), _load_docs(args.right, args.mode),
        args.measure, args.scope, args.include_structural)
    out.write(format_number(value) + "\n")
    return 0


def _cmd_convert(args, out):
    registry = stub_registry()
    if args.converters:
        load_converters(_read_input(args.converters), registry)
    if args.tex is not None:
        tex = args.tex
    elif args.inputs is not None:
        tex = _read_input(args.inputs)
    else:
        raise _Exit(2, "mml convert: error: convert needs --tex or an input file\n")
    result = run_converter(args.name, tex, registry)
    out.write(core.serialize(result.mathml, pretty=args.pretty) + "\n")
    return 0


def _cmd_gold_validate(args, out):
    entries = gold.load_gold(_read_input(args.gold))
    for entry in entries:
        findings = gold.validate_entry(entry)
        if not findings:
            out.write(f"{entry.id}\tok\n")
        for finding in findings:
            out.write(f"{entry.id}\t{finding.kind}\t{finding.detail}\n")
    return 0


_COMMANDS = {
    "parse": _cmd_write_docs,
    "clean": _cmd_write_docs,
    "split": _cmd_write_docs,
    "extract": _cmd_extract,
    "select": _cmd_select,
    "histogram": _cmd_histogram,
    "dist": _cmd_dist,
    "doc-dist": _cmd_doc_dist,
    "convert": _cmd_convert,
    "gold-validate": _cmd_gold_validate,
}


def run(argv, stdout: Optional[TextIO] = None, stderr: Optional[TextIO] = None) -> int:
    """Run the CLI on an argument vector; returns the exit code."""
    out = stdout or sys.stdout
    err = stderr or sys.stderr
    try:
        args = _build_parser().parse_args(_fold_sides(argv))
        return _COMMANDS[args.command](args, out)
    except _Exit as exc:
        status, text = exc.args
        err.write(text)
        return status
    except (MmlError, OSError, OverflowError) as exc:
        err.write(f"mml {args.command}: error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
