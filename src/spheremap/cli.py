"""Command-line surface: construct / verify / search / table / suspend / insert.

Exit codes: 0 success, 1 validation or degree failure, 2 usage error.
One output rule holds for the five commands that write a document
(construct, suspend, insert, table, and search when it finds a witness):
with --out the document goes to that file and the human-readable summary to
stdout, ending in ``wrote: PATH``; without it the document goes alone to
stdout and the summary to stderr, so output stays pipeable.  verify, and
search without a witness, print only their summary, on stdout.

The grammar is one table, ``_COMMANDS``.  A plain command line is read
against it directly; argparse is built from it only to answer help and
usage errors, so their text is argparse's.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .complexes import is_sphere
from .constructions import (
    construct,
    insertion_step,
    one_point_suspension,
    vertex_bound,
)
from .degree import degree
from .documents import _dump, _read_json, load_certificate, parse_with_metadata, serialize
from .errors import DocumentSyntaxError, SpheremapError
from .search import lambda_search, lambda_table


def _facet_arg(text: str) -> tuple:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated vertex ids, got {text!r}"
        ) from None
    if len(parts) < 2:
        raise argparse.ArgumentTypeError("a facet needs at least 2 vertices")
    return parts


def build_parser() -> argparse.ArgumentParser:
    """A fresh argparse tree for the grammar in ``_COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="spheremap",
        description="Build, verify, and search labeled sphere triangulations "
        "with prescribed map degree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for dest, text in positionals:
            p.add_argument(dest, help=text)
        for flag, convert, required, text in options:
            p.add_argument(flag, type=convert, required=required, help=text)
    return parser


def _emit(text: str, summary: list[str], out: str | None) -> int:
    """Write a document and its summary by the one output rule (see above)."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        summary = [*summary, f"wrote: {out}"]
    else:
        sys.stdout.write(text)
    print("\n".join(summary), file=sys.stdout if out else sys.stderr)
    return 0


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise DocumentSyntaxError(f"{path} is not UTF-8 text: {e}") from None


def _cmd_construct(args) -> int:
    cert = construct(args.n, args.d)
    bound = vertex_bound(args.n, args.d)
    lines = [
        f"vertices: {cert.vertex_count}",
        f"degree: {cert.claimed_degree}",
        f"vertex bound ((n+2)/n*|d| + 2n+2): {bound}",
        f"bound met: {'yes' if cert.vertex_count <= bound else 'no'}",
    ]
    return _emit(serialize(cert), lines, args.out)


def _cmd_verify(args) -> int:
    ls, metadata = parse_with_metadata(_read_text(args.file))
    rep = degree(ls)
    verdict = is_sphere(ls.complex)
    print(f"dimension: {ls.dimension}")
    print(f"vertices: {len(ls.oriented.vertices)}")
    print(f"facets: {len(ls.complex.facets)}")
    print(f"sphere checks ({verdict.status.value}):")
    for name, ok in verdict.checks:
        print(f"  {name}: {'pass' if ok else 'FAIL'}")
    print("per-target signed preimage sums:")
    for color in sorted(rep.per_target_sums):
        entries = rep.per_target_facet[color]
        print(
            f"  omitting color {color}: sum {rep.per_target_sums[color]:+d} "
            f"over {len(entries)} preimage facet(s)"
        )
    print(f"consistent: {rep.consistent}")
    print(f"degree: {rep.degree}")
    claimed = metadata.get("claimed_degree")
    if claimed is not None:
        print(f"claimed degree: {claimed} (matches)")
    print("PASS")
    return 0


def _cmd_search(args) -> int:
    result = lambda_search(args.n, args.d, args.max_vertices)
    lines = [
        f"n: {result.n}",
        f"d: {result.d}",
        f"max vertices: {result.v_max}",
        f"triangulations examined: {result.triangulations_examined}",
        f"partial colorings examined: {result.labelings_examined}",
    ]
    if result.found:
        lines.append(f"lambda: {result.lambda_value}")
        return _emit(serialize(result.witness), lines, args.out)
    print("\n".join([*lines, "lambda: NotFoundWithinBudget"]))
    return 0


def _cmd_table(args) -> int:
    spec = _read_json(_read_text(args.spec))
    rows = spec.get("rows") if isinstance(spec, dict) else None
    if not isinstance(rows, list):
        raise SpheremapError('table spec must be {"rows": [{"n":..,"d":..}, ...]}')
    table = lambda_table(rows)

    header = f"{'n':>3} {'d':>4} {'lambda':>7} {'status':<24} {'l/|d|':>7} {'l/n':>7}  note"
    lines = [header, "-" * len(header)]
    payload_rows = []
    for row in table.rows:
        lam, rd, rn = (
            None if x is None else str(x)
            for x in (row.lambda_value, row.ratio_over_d, row.ratio_over_n)
        )
        lines.append(
            f"{row.n:>3} {row.d:>4} {lam or '-':>7} {row.status:<24} "
            f"{rd or '-':>7} {rn or '-':>7}  {row.note}"
        )
        payload_rows.append({
            "n": row.n,
            "d": row.d,
            "lambda": row.lambda_value,
            "status": row.status,
            "note": row.note,
            "ratio_lambda_over_abs_d": rd,
            "ratio_lambda_over_n": rn,
        })
    lines.append("(ratios are finite-sample values from the rows above, not limits)")
    return _emit(_dump({"rows": payload_rows}, "") + "\n", lines, args.out)


def _emit_move(new, out: str | None) -> int:
    """Document and summary of a suspend or insert result."""
    lines = [
        f"dimension: {new.dimension}",
        f"vertices: {new.vertex_count}",
        f"degree: {new.claimed_degree}",
    ]
    return _emit(serialize(new), lines, out)


def _cmd_suspend(args) -> int:
    cert = load_certificate(_read_text(args.file))
    return _emit_move(one_point_suspension(cert, args.pivot), args.out)


def _cmd_insert(args) -> int:
    cert = load_certificate(_read_text(args.file))
    return _emit_move(insertion_step(cert, args.facet), args.out)


# The grammar, read both by build_parser and by _read_argv: each command's
# handler, help, positionals as (name, help) and options as
# (flag, type, required, help).
_COMMANDS = {
    "construct": (_cmd_construct, "generate a degree-d n-sphere certificate", (), (
        ("--n", int, True, "sphere dimension"),
        ("--d", int, True, "target degree"),
        ("--out", None, False, "write the certificate document here"),
    )),
    "verify": (_cmd_verify, "re-validate a document end to end", (
        ("file", "document to verify"),
    ), ()),
    "search": (_cmd_search, "exhaustive minimal vertex count search", (), (
        ("--n", int, True, None),
        ("--d", int, True, None),
        ("--max-vertices", int, True, None),
        ("--out", None, False, "write the witness document here"),
    )),
    "table": (_cmd_table, "tabulate minimal vertex counts", (), (
        ("--spec", None, True, 'JSON file: {"rows": [{"n":..,"d":..,"v_max":..}]}'),
        ("--out", None, False, "write the JSON table here (default: stdout)"),
    )),
    "suspend": (_cmd_suspend, "one-point suspension of a document", (("file", None),), (
        ("--pivot", int, False, "pivot vertex (default: smallest id)"),
        ("--out", None, False, "write the result document here"),
    )),
    "insert": (_cmd_insert, "apply one insertion step to a document", (("file", None),), (
        ("--facet", _facet_arg, True, "comma-separated vertex ids, e.g. 1,2,3"),
        ("--out", None, False, "write the result document here"),
    )),
}


def _read_argv(argv) -> argparse.Namespace | None:
    """The Namespace argparse would give for a plain, well-formed command
    line, or None for anything else, which is left to argparse.

    Plain means: a command name, then tokens that are either an exact flag
    of that command followed by its one value, or a positional; no flag
    twice, every required flag present, exactly the command's positionals.
    A token starting with "-" counts as a value only as "-" and ASCII
    digits, which argparse reads as a negative number because no option
    here looks like one.  Help, "--", "--flag=value", abbreviations and
    every error are argparse's.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, _, positionals, options = _COMMANDS[argv[0]]
    converters = {flag: convert for flag, convert, _, _ in options}
    values, found = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in converters:
            if not _is_value(token):
                return None
            found.append(token)
            continue
        value = next(tokens, None)
        if token in values or value is None or not _is_value(value):
            return None
        convert = converters[token]
        try:
            values[token] = convert(value) if convert else value
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
    if len(found) != len(positionals) or any(
        required and flag not in values for flag, _, required, _ in options
    ):
        return None
    args = argparse.Namespace(command=argv[0])
    for (dest, _), value in zip(positionals, found):
        setattr(args, dest, value)
    for flag in converters:
        setattr(args, flag.lstrip("-").replace("-", "_"), values.get(flag))
    return args


def _is_value(token: str) -> bool:
    """Whether argparse surely reads token as a value, not as an option."""
    return not token.startswith("-") or (token[1:].isdigit() and token[1:].isascii())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` falls back on for help and usage errors, built
    on its first call; parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except SpheremapError as e:
        print(f"FAIL: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
