"""The four workloads: inputs made from a seed, CLI operations, checks.

Each workload function sets up one pass: it writes the documents and specs
the pass needs into ``tmp`` and returns the operations, each a CLI argument
list and a check of its output.  A check returns None when the output is
right and a one-line description of the first problem otherwise.  The
checks recompute what they can without spheremap (degrees, vertex counts)
and compare documents with digests recorded from the seed code.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[str], "str | None"]


# -- independent oracles ----------------------------------------------------


def parity(seq) -> int:
    """Sign of the permutation that sorts ``seq``."""
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def doc_degree(doc: dict) -> int:
    """Degree of a document's coloring: the signed count of facets colored
    {1..n+1}, each sign being its orientation times the parity of its
    colors in the listed vertex order."""
    n = doc["dimension"]
    labels = {int(v): c for v, c in doc["labels"].items()}
    target = set(range(1, n + 2))
    total = 0
    for sign, *verts in doc["orientation"]:
        cols = [labels[v] for v in verts]
        if set(cols) == target:
            total += sign * parity(cols)
    return total


def doc_vertices(doc: dict) -> int:
    return len({v for f in doc["facets"] for v in f})


def construct_vertices(n: int, d: int) -> int:
    """Vertex count of construct(n, d), from the recipe it documents:
    |d| = k*n + l with 1 <= l <= n, a seed of n+2 (l = 1) or n+l+3
    vertices, then k insertions of n+2 vertices each."""
    a = abs(d)
    if n == 1:
        return 3 * a if a else 3
    if a <= 1:
        return n + 2
    k, l = divmod(a, n)
    if l == 0:
        k, l = k - 1, n
    return (n + 2 if l == 1 else n + l + 3) + k * (n + 2)


def vertex_bound(n: int, d: int) -> int:
    """The guaranteed budget floor(((n+2)/n)*|d|) + 2n+2."""
    return ((n + 2) * abs(d)) // n + 2 * n + 2


def check_document(path: Path, dimension: int, vertices: int, degree: int) -> "str | None":
    doc = json.loads(path.read_text())
    if doc["dimension"] != dimension:
        return f"{path.name}: dimension {doc['dimension']}, expected {dimension}"
    if doc_vertices(doc) != vertices:
        return f"{path.name}: {doc_vertices(doc)} vertices, expected {vertices}"
    if doc_degree(doc) != degree:
        return f"{path.name}: degree {doc_degree(doc)}, expected {degree}"
    if doc["metadata"]["claimed_degree"] != degree:
        return f"{path.name}: claims degree {doc['metadata']['claimed_degree']}, expected {degree}"
    return None


def random_perm(rng: random.Random, k: int) -> dict[int, int]:
    images = list(range(1, k + 1))
    rng.shuffle(images)
    return dict(zip(range(1, k + 1), images))


def perm_sign(perm: dict[int, int]) -> int:
    return parity([perm[c] for c in sorted(perm)])


def scramble(doc: dict, rng: random.Random, perm: dict[int, int], degree: int) -> dict:
    """The same sphere with vertices renumbered at random and colors
    permuted by ``perm``; ``degree`` is the input's, and the result claims
    degree * sign(perm).  The recipe is dropped: it names old vertex ids."""
    old = sorted(int(v) for v in doc["labels"])
    renumber = dict(zip(old, rng.sample(range(1, 4 * len(old) + 1), len(old))))
    orientation = []
    for sign, *verts in doc["orientation"]:
        mapped = [renumber[v] for v in verts]
        orientation.append([sign * parity(mapped), *sorted(mapped)])
    out = {
        "format_version": doc["format_version"],
        "dimension": doc["dimension"],
        "facets": sorted(sorted(renumber[v] for v in f) for f in doc["facets"]),
        "labels": {str(renumber[int(v)]): perm[c] for v, c in doc["labels"].items()},
        "orientation": sorted(orientation, key=lambda e: e[1:]),
        "metadata": {
            "claimed_degree": degree * perm_sign(perm),
            "claimed_vertex_count": len(old),
        },
    }
    if doc_degree(out) != out["metadata"]["claimed_degree"]:
        raise RuntimeError("benchmark input generator broke the degree law")
    return out


def write_json(path: Path, obj) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    path.write_text(text)
    return text


# -- workloads --------------------------------------------------------------


def build_high_degree(seed: int, tmp: Path, corrupt: bool) -> list[Op]:
    """`construct --out` at n=2 and n=3, |d|=300; the seed picks each sign."""
    rng = random.Random(seed)
    ops = []
    for n in (2, 3):
        d = rng.choice((1, -1)) * 300
        out = tmp / f"construct-{n}.json"

        def check(stdout, n=n, d=d, out=out):
            problem = check_document(out, n, construct_vertices(n, d), d)
            if problem:
                return problem
            if construct_vertices(n, d) > vertex_bound(n, d):
                return f"{out.name}: over the vertex bound"
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            if digest != EXPECTED["construct_sha256"][f"{n},{d}"]:
                return f"{out.name}: bytes differ from the recorded document"
            return None

        ops.append(Op(["construct", "--n", str(n), "--d", str(d), "--out", str(out)], check))
    return ops


def _verify_check(doc: dict):
    lines_wanted = [
        f"vertices: {doc_vertices(doc)}",
        f"facets: {len(doc['facets'])}",
        "sphere checks (NecessaryConditionsOnly):",
        "consistent: True",
        f"degree: {doc['metadata']['claimed_degree']}",
        "PASS",
    ]

    def check(stdout):
        lines = stdout.splitlines()
        for want in lines_wanted:
            if want not in lines:
                return f"verify output lacks {want!r}"
        return None

    return check


def verify_high_dim(seed: int, tmp: Path, corrupt: bool) -> list[Op]:
    """`verify` of construct(4, 40) and construct(5, 10), vertices
    renumbered and colors permuted by the seed, then `suspend` -> `insert`
    on a scrambled construct(3, +-6).  ``corrupt`` flips one orientation
    sign in the first document, which verify must reject."""
    from spheremap import construct, degree, one_point_suspension, parse, serialize

    rng = random.Random(seed)
    ops = []
    for n, d in ((4, 40), (5, 10)):
        doc = scramble(json.loads(serialize(construct(n, d))), rng, random_perm(rng, n + 2), d)
        path = tmp / f"verify-{n}.json"
        check = _verify_check(doc)
        if corrupt and not ops:
            doc["orientation"][0][0] *= -1
        write_json(path, doc)
        ops.append(Op(["verify", str(path)], check))

    # the chain starts at degree +6 whatever the permutation, so the
    # suspended sphere has a facet that `insert` accepts
    perm = random_perm(rng, 5)
    d = 6 * perm_sign(perm)
    doc = scramble(json.loads(serialize(construct(3, d))), rng, perm, d)
    source, suspended, inserted = (tmp / f"chain-{k}.json" for k in range(3))
    text = write_json(source, doc)
    v = doc_vertices(doc)
    lifted = one_point_suspension(parse(text))
    facet = min(f for f, s in degree(lifted.labeled).per_target_facet[6] if s == 1)
    ops.append(
        Op(
            ["suspend", str(source), "--out", str(suspended)],
            lambda stdout: check_document(suspended, 4, v + 1, 6),
        )
    )
    ops.append(
        Op(
            ["insert", str(suspended), "--facet", ",".join(map(str, facet)),
             "--out", str(inserted)],
            lambda stdout: check_document(inserted, 4, v + 1 + 6, 6 + 4),
        )
    )
    return ops


# (n, |d|, v_max, lambda, status); a v_max of None asks for a closed form
# or the generator's upper bound
TABLE_ROWS = [
    (2, 3, 9, 8, "exact_search"),
    (2, 4, 10, 10, "exact_search"),
    (2, 5, 10, None, "not_found_within_budget"),
    (3, 4, None, 10, "exact_formula"),
    (4, 9, None, construct_vertices(4, 9), "upper_bound"),
    (1, 4, 12, 12, "exact_search"),
]


def search_sphere(seed: int, tmp: Path, corrupt: bool) -> list[Op]:
    """A six-row `table`; the seed picks the sign of each d."""
    rng = random.Random(seed)
    rows, expected = [], []
    for n, a, v_max, lam, status in TABLE_ROWS:
        d = rng.choice((1, -1)) * a
        rows.append({"n": n, "d": d} if v_max is None else {"n": n, "d": d, "v_max": v_max})
        expected.append({"n": n, "d": d, "lambda": lam, "status": status})
    spec, out = tmp / "rows.json", tmp / "table.json"
    write_json(spec, {"rows": rows})

    def check(stdout):
        got = [
            {k: row[k] for k in ("n", "d", "lambda", "status")}
            for row in json.loads(out.read_text())["rows"]
        ]
        if got != expected:
            return f"table rows {got} != {expected}"
        return None

    return [Op(["table", "--spec", str(spec), "--out", str(out)], check)]


def search_circle(seed: int, tmp: Path, corrupt: bool) -> list[Op]:
    """`search --n 1 --d +-6 --max-vertices 18`; the seed picks the sign.
    The minimum is 3|d| = 18, found at the last vertex count searched."""
    d = random.Random(seed).choice((1, -1)) * 6
    out = tmp / "witness.json"

    def check(stdout):
        if "lambda: 18" not in stdout.splitlines():
            return "search did not report lambda: 18"
        return check_document(out, 1, 18, d)

    argv = ["search", "--n", "1", "--d", str(d), "--max-vertices", "18", "--out", str(out)]
    return [Op(argv, check)]


WORKLOADS = {
    "build_high_degree": build_high_degree,
    "verify_high_dim": verify_high_dim,
    "search_sphere": search_sphere,
    "search_circle": search_circle,
}
