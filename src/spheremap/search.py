"""Exhaustive minimal-vertex search for prescribed-degree colorings.

Dimension 1 and 2 only: circles are enumerated directly, 2-spheres by
vertex splitting from the boundary tetrahedron with canonical-form
deduplication.  For a fixed complex, colorings are searched with two
reductions that never lose witnesses:

* color-permutation quotient: colors are forced to appear in first-use
  order along a fixed vertex ordering, and both degrees d and -d are
  accepted (an odd color swap flips a -d witness back to +d);
* interval pruning: a partial coloring is abandoned when, for every
  accepted degree D, some target facet's completed signed sum can no
  longer reach D given the number of facets still open for that target.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .complexes import (
    Complex,
    build_complex,
    canonical_form,
    orient,
    parity_to_sorted,
)
from .constructions import construct
from .degree import LabeledSphere, Labeling, _is_int, degree, labeled_sphere
from .errors import (
    BudgetExceeded,
    InvalidDimension,
    UnsupportedDimension,
    ValidationError,
)

__all__ = [
    "LambdaResult",
    "LambdaRow",
    "LambdaTable",
    "enumerate_spheres",
    "exists_labeling",
    "lambda_search",
    "lambda_table",
    "known_lambda",
    "MAX_SPLIT_VERTICES",
]

# class counts for 2-spheres grow steeply past this; desk-scale contract
MAX_SPLIT_VERTICES = 12


def enumerate_spheres(n: int, v: int):
    """Stream one representative per isomorphism class, deterministically.

    n=1 yields the single v-cycle; n=2 yields all triangulated 2-spheres on
    v vertices, canonically relabeled and ordered by canonical key.
    """
    if n not in (1, 2):
        raise UnsupportedDimension(f"enumeration covers n in {{1, 2}}, got {n}")
    if v < n + 2:
        raise InvalidDimension(f"no {n}-sphere has fewer than {n + 2} vertices")
    if n == 1:
        yield build_complex([(i, i % v + 1) for i in range(1, v + 1)])
        return
    if v > MAX_SPLIT_VERTICES:
        raise BudgetExceeded(
            f"2-sphere enumeration is capped at {MAX_SPLIT_VERTICES} vertices"
        )
    yield from _sphere_classes(v)


@lru_cache(maxsize=None)
def _sphere_classes(v: int) -> tuple[Complex, ...]:
    if v == 4:
        tetra = build_complex([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
        return (canonical_form(tetra).canonical,)
    classes: dict[bytes, Complex] = {}
    for parent in _sphere_classes(v - 1):
        for child in _vertex_splits(parent):
            cf = canonical_form(child)
            if cf.key not in classes:
                classes[cf.key] = cf.canonical
    return tuple(classes[k] for k in sorted(classes))


def _link_cycle(K: Complex, z: int) -> list[int]:
    """Link of z in a triangulated surface, as a deterministic cycle walk."""
    adj: dict[int, list[int]] = {}
    for f in K.facets_at[z]:
        a, b = (u for u in f if u != z)
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = min(adj)
    cycle = [start, min(adj[start])]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == start:
            return cycle
        cycle.append(nxt)


def _vertex_splits(K: Complex):
    """All single-vertex splits of a triangulated 2-sphere.

    Splitting z along two cut vertices of its link cycle divides the star
    into two fans, one kept by z and one taken by a new vertex; two facets
    {z, new, cut} glue the fans back into a sphere with one more vertex.
    Every triangulated 2-sphere with at least 5 vertices has a contractible
    edge, so every class at v+1 arises from some class at v this way.
    """
    new = max(K.vertices) + 1
    for z in K.vertices:
        cycle = _link_cycle(K, z)
        k = len(cycle)
        rest = [f for f in K.facets if z not in f]
        for i in range(k):
            for j in range(i + 1, k):
                facets = list(rest)
                for t in range(i, j):
                    facets.append(tuple(sorted((z, cycle[t], cycle[t + 1]))))
                for t in range(j, i + k):
                    a, b = cycle[t % k], cycle[(t + 1) % k]
                    facets.append(tuple(sorted((new, a, b))))
                facets.append(tuple(sorted((z, new, cycle[i]))))
                facets.append(tuple(sorted((z, new, cycle[j]))))
                yield Complex(2, tuple(sorted(facets)))


def _order_vertices(K: Complex) -> list[int]:
    """Fixed search order: the lex-smallest facet first, then always the
    vertex completing the most facets whose other vertices are placed."""
    order = list(K.facets[0])
    placed = set(order)
    while len(placed) < len(K.vertices):
        best = None
        for v in K.vertices:
            if v in placed:
                continue
            score = sum(
                1
                for f in K.facets_at[v]
                if all(u in placed for u in f if u != v)
            )
            if best is None or score > best[0] or (score == best[0] and v < best[1]):
                best = (score, v)
        order.append(best[1])
        placed.add(best[1])
    return order


def _search_labelings(K: Complex, d: int) -> tuple[Labeling | None, int]:
    """First degree-d coloring in canonical scan order, or None.

    Returns (witness, partial colorings examined).  Complete with respect
    to the reductions in the module docstring: a coloring of degree d
    exists iff this scan returns one.
    """
    n = K.dimension
    ncolors = n + 2
    facet_size = n + 1
    oriented = orient(K)
    order = _order_vertices(K)
    facets = K.facets
    eps = oriented.signs
    nf = len(facets)
    facets_of = {v: [] for v in order}
    for fi, f in enumerate(facets):
        for v in f:
            facets_of[v].append(fi)

    full_mask = (1 << (ncolors + 1)) - 2  # bits 1..ncolors
    count = [0] * nf
    mask = [0] * nf
    degen = [False] * nf
    sums = [0] * (ncolors + 1)
    open_for = [nf] * (ncolors + 1)
    color_of: dict[int, int] = {}
    accepted = (d,) if d == 0 else (d, -d)
    stats = {"nodes": 0}

    def feasible() -> bool:
        for D in accepted:
            if all(abs(D - sums[m]) <= open_for[m] for m in range(1, ncolors + 1)):
                return True
        return False

    def assign(v: int, c: int, trail: list) -> None:
        color_of[v] = c
        bit = 1 << c
        for fi in facets_of[v]:
            trail.append((fi, count[fi], mask[fi], degen[fi]))
            count[fi] += 1
            if degen[fi]:
                continue
            if mask[fi] & bit:
                # facet just became degenerate: it was open for every color
                # missing from its mask, and is now open for none
                degen[fi] = True
                for m in range(1, ncolors + 1):
                    if not mask[fi] & (1 << m):
                        open_for[m] -= 1
                        trail.append(("open", m))
                continue
            mask[fi] |= bit
            open_for[c] -= 1
            trail.append(("open", c))
            if count[fi] == facet_size:
                missing = full_mask & ~mask[fi]
                m = missing.bit_length() - 1
                open_for[m] -= 1
                trail.append(("open", m))
                sigma = parity_to_sorted([color_of[u] for u in facets[fi]])
                val = eps[fi] * sigma * (-1 if (n + m) % 2 else 1)
                sums[m] += val
                trail.append(("sum", m, val))

    def undo(v: int, trail: list) -> None:
        del color_of[v]
        for entry in reversed(trail):
            tag = entry[0]
            if tag == "open":
                open_for[entry[1]] += 1
            elif tag == "sum":
                sums[entry[1]] -= entry[2]
            else:
                fi, c0, m0, d0 = entry
                count[fi], mask[fi], degen[fi] = c0, m0, d0

    def dfs(pos: int, max_used: int) -> Labeling | None:
        if pos == len(order):
            value = sums[1]
            if value == d:
                return dict(color_of)
            # value == -d by the feasibility check; an odd swap flips it
            return {
                v: (2 if c == 1 else 1 if c == 2 else c)
                for v, c in color_of.items()
            }
        v = order[pos]
        for c in range(1, min(max_used + 1, ncolors) + 1):
            trail: list = []
            assign(v, c, trail)
            stats["nodes"] += 1
            if feasible():
                found = dfs(pos + 1, max(max_used, c))
                if found is not None:
                    return found
            undo(v, trail)
        return None

    witness = dfs(0, 0)
    return witness, stats["nodes"]


def exists_labeling(K: Complex, d: int) -> Labeling | None:
    """Witness coloring of degree exactly d, or None if none exists."""
    return _search_labelings(K, d)[0]


@dataclass(frozen=True)
class LambdaResult:
    """Outcome of a minimal-vertex search up to a budget."""

    n: int
    d: int
    v_max: int
    lambda_value: int | None
    witness: LabeledSphere | None
    triangulations_examined: int
    labelings_examined: int

    @property
    def found(self) -> bool:
        return self.lambda_value is not None

    @property
    def status(self) -> str:
        return "found" if self.found else "NotFoundWithinBudget"


def lambda_search(n: int, d: int, v_max: int) -> LambdaResult:
    """Smallest vertex count admitting a degree-d coloring, up to v_max.

    Scans vertex counts upward, streaming every isomorphism class at each
    count; the reported witness is the first in deterministic enumeration
    order.
    """
    if n not in (1, 2):
        raise UnsupportedDimension(f"search covers n in {{1, 2}}, got {n}")
    if n == 2 and v_max > MAX_SPLIT_VERTICES:
        raise BudgetExceeded(
            f"v_max {v_max} above the n=2 guard ({MAX_SPLIT_VERTICES})"
        )
    triangulations = 0
    labelings = 0
    for v in range(n + 2, v_max + 1):
        for K in enumerate_spheres(n, v):
            witness, nodes = _search_labelings(K, d)
            triangulations += 1
            labelings += nodes
            if witness is not None:
                ls = labeled_sphere(orient(K), witness)
                assert degree(ls).degree == d
                return LambdaResult(
                    n=n,
                    d=d,
                    v_max=v_max,
                    lambda_value=v,
                    witness=ls,
                    triangulations_examined=triangulations,
                    labelings_examined=labelings,
                )
    return LambdaResult(
        n=n,
        d=d,
        v_max=v_max,
        lambda_value=None,
        witness=None,
        triangulations_examined=triangulations,
        labelings_examined=labelings,
    )


def known_lambda(n: int, d: int) -> tuple[int, str] | None:
    """Exact minimal vertex count where a closed form is known, with a note.

    Covers: circles (3|d|), degree 0 and +-1 (n+2), and degrees 2..4 at
    n >= |d|-1 (n+|d|+3).  Returns None when no exact value is known.
    """
    if n < 1:
        raise InvalidDimension(f"need n >= 1, got {n}")
    a = abs(d)
    if n == 1:
        return (3 * a, "cycle colored 1,2,3 repeating") if a else (3, "duplicated color")
    if a == 0:
        return n + 2, "duplicated color on the boundary simplex"
    if a == 1:
        return n + 2, "boundary simplex"
    if a in (2, 3, 4) and n >= a - 1:
        return n + a + 3, "exact small-degree family n+|d|+3"
    return None


@dataclass(frozen=True)
class LambdaRow:
    """One (n, d) table entry; lambda_value is exact unless status says
    upper_bound, and None when a bounded search came up empty."""

    n: int
    d: int
    lambda_value: int | None
    status: str  # exact_search | exact_formula | upper_bound | not_found_within_budget
    note: str
    witness_vertices: int | None = None

    @property
    def ratio_over_d(self) -> Fraction | None:
        if self.lambda_value is None or self.d == 0:
            return None
        return Fraction(self.lambda_value, abs(self.d))

    @property
    def ratio_over_n(self) -> Fraction | None:
        if self.lambda_value is None:
            return None
        return Fraction(self.lambda_value, self.n)


@dataclass(frozen=True)
class LambdaTable:
    rows: tuple[LambdaRow, ...]

    def ratios_over_d_by_n(self) -> dict[int, dict[int, Fraction]]:
        out: dict[int, dict[int, Fraction]] = {}
        for row in self.rows:
            r = row.ratio_over_d
            if r is not None:
                out.setdefault(row.n, {})[row.d] = r
        return out

    def ratios_over_n_by_d(self) -> dict[int, dict[int, Fraction]]:
        out: dict[int, dict[int, Fraction]] = {}
        for row in self.rows:
            r = row.ratio_over_n
            if r is not None:
                out.setdefault(row.d, {})[row.n] = r
        return out


def lambda_table(requests) -> LambdaTable:
    """Build a table of exact and bounded entries from request dicts.

    Each request is {"n": int, "d": int, "v_max": optional int}; any other
    request raises ValidationError.  With a v_max and n in {1, 2} the entry
    is computed by exhaustive search; otherwise a closed form is used when
    one exists, and the construct generator's vertex count is reported as
    an upper bound when not.
    """
    rows = []
    for req in requests:
        if not (
            isinstance(req, dict)
            and _is_int(req.get("n"))
            and _is_int(req.get("d"))
            and (req.get("v_max") is None or _is_int(req["v_max"]))
        ):
            raise ValidationError(
                f'table row {req!r} must be {{"n": int, "d": int, "v_max": optional int}}'
            )
        n, d = req["n"], req["d"]
        v_max = req.get("v_max")
        if v_max is not None and n in (1, 2):
            res = lambda_search(n, d, v_max)
            if res.found:
                rows.append(
                    LambdaRow(
                        n=n,
                        d=d,
                        lambda_value=res.lambda_value,
                        status="exact_search",
                        note=f"exhaustive search to v_max={v_max}",
                        witness_vertices=res.lambda_value,
                    )
                )
            else:
                rows.append(
                    LambdaRow(
                        n=n,
                        d=d,
                        lambda_value=None,
                        status="not_found_within_budget",
                        note=f"no witness with up to {v_max} vertices",
                    )
                )
            continue
        formula = known_lambda(n, d)
        if formula is not None:
            value, note = formula
            rows.append(
                LambdaRow(n=n, d=d, lambda_value=value, status="exact_formula", note=note)
            )
            continue
        cert = construct(n, d)
        rows.append(
            LambdaRow(
                n=n,
                d=d,
                lambda_value=cert.vertex_count,
                status="upper_bound",
                note="generator vertex count; true minimum may be lower",
                witness_vertices=cert.vertex_count,
            )
        )
    return LambdaTable(tuple(rows))
