"""Command-line surface: construct / verify / search / table / suspend / insert.

Exit codes: 0 success, 1 validation or degree failure, 2 usage error.
One output rule holds for the five commands that write a document
(construct, suspend, insert, table, and search when it finds a witness):
with --out the document goes to that file and the human-readable summary to
stdout, ending in ``wrote: PATH``; without it the document goes alone to
stdout and the summary to stderr, so output stays pipeable.  verify, and
search without a witness, print only their summary, on stdout.
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
    parser = argparse.ArgumentParser(
        prog="spheremap",
        description="Build, verify, and search labeled sphere triangulations "
        "with prescribed map degree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a degree-d n-sphere certificate")
    p.add_argument("--n", type=int, required=True, help="sphere dimension")
    p.add_argument("--d", type=int, required=True, help="target degree")
    p.add_argument("--out", help="write the certificate document here")

    p = sub.add_parser("verify", help="re-validate a document end to end")
    p.add_argument("file", help="document to verify")

    p = sub.add_parser("search", help="exhaustive minimal vertex count search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--out", help="write the witness document here")

    p = sub.add_parser("table", help="tabulate minimal vertex counts")
    p.add_argument("--spec", required=True, help='JSON file: {"rows": [{"n":..,"d":..,"v_max":..}]}')
    p.add_argument("--out", help="write the JSON table here (default: stdout)")

    p = sub.add_parser("suspend", help="one-point suspension of a document")
    p.add_argument("file")
    p.add_argument("--pivot", type=int, help="pivot vertex (default: smallest id)")
    p.add_argument("--out", help="write the result document here")

    p = sub.add_parser("insert", help="apply one insertion step to a document")
    p.add_argument("file")
    p.add_argument("--facet", type=_facet_arg, required=True,
                   help="comma-separated vertex ids, e.g. 1,2,3")
    p.add_argument("--out", help="write the result document here")
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


_COMMANDS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "table": _cmd_table,
    "suspend": _cmd_suspend,
    "insert": _cmd_insert,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call: a build costs
    about 1 ms, and parsing leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SpheremapError as e:
        print(f"FAIL: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
