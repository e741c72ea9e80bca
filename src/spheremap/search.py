"""Exhaustive minimal-vertex search for prescribed-degree colorings.

Dimension 1 and 2 only: circles are enumerated directly, 2-spheres by
vertex splitting from the boundary tetrahedron, by McKay's canonical
construction path.  Each parent is split once per orbit of its
automorphisms, which canonical_form finds, and each split child is the
parent's rotation system with the split's entries replaced.  A child is
kept only when its new edge lies in the orbit of its canonical edge.  A
degree rank on contractible edges, its ties settled on the degrees of
the vertices around each edge, settles most children before any
canonical form: a child whose new edge is not lowest is dropped.  For
the rest, the child's canonical form picks, among the lowest-ranked
edges, the one with the smallest canonical labels, and gives the
automorphisms whose orbit of it is tested; a new edge with no rival left
is canonical with no test (``_canonical_child``).  Each split is ranked
from its parent before its child is built: every contractible parent
edge that avoids the split vertex, other than the split pair, stays
contractible in the child, and the split is dropped when one of them
outranks the new edge there on degrees alone; a split vertex whose every
split is so dropped is skipped whole.  So most children the rank drops
are never built (541 of 995 to v = 10 are not).  Kept children are
pairwise non-isomorphic, one per class, and come from one generator
(``_kept_children``).  ``_sphere_classes`` computes each kept child's
canonical form, giving its representative, its place in the class order
and its automorphisms; the few children still tied in rank and then
dropped cost one canonical form each (190 up to v = 12, against 9,149
kept).  One existence scan (``_lambda_scan``) finds the minimum, walking
each vertex count once and searching there only the classes whose
degrees allow a degree-d coloring: a table row searches them as they are
generated, with no class list at that count, and ``lambda_search`` in
canonical key order, so its witness is the first in class order.

One pass plans the vertex order and each facet's closing (last) vertex,
and the plan becomes per-depth lists: the facets a vertex leaves open,
and those it closes with their orientation signs.  A depth-first loop
over a trail of per-vertex frames, with no recursion, colors the
vertices in that order with one state per facet: the bit mask of its
placed colors, or a degenerate mark once a color repeats.  A facet is
decided at its closing vertex by the degree module's sign rule, applied
once per color pattern in a search: a facet's sign is its orientation
sign times a factor of its color tuple alone.  Two reductions never lose
witnesses:

* color-permutation quotient: colors are forced to appear in first-use
  order along the vertex order, and both degrees d and -d are accepted
  (an odd color swap flips a -d witness back to +d);
* counting bound: a live facet (undecided, no repeated color) can still
  land on at most one target, so a partial coloring is abandoned when, for
  every accepted degree D, sum_t |D - s_t| over the targets' signed sums
  s_t exceeds the number of live facets.  Each of these sums is kept as
  the search goes: closing a facet on target t moves it by
  |D - new s_t| - |D - old s_t|, and no node re-sums the targets.

enumerate_spheres caps v, and the scan caps v_max, at MAX_SPLIT_VERTICES
for 2-spheres and at MAX_CIRCLE_VERTICES for circles.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .complexes import (
    CanonicalForm,
    Complex,
    OrientedComplex,
    _is_int,
    _orbit,
    _Record,
    build_complex,
    canonical_form,
    orient,
)
from .constructions import construct
from .degree import (
    LabeledSphere,
    Labeling,
    _check_ints,
    _facet_sign,
    degree,
    labeled_sphere,
)
from .errors import (
    BudgetExceeded,
    InvalidDimension,
    SpheremapError,
    UnsupportedDimension,
    ValidationError,
    _shown,
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
    "MAX_CIRCLE_VERTICES",
]

# class counts for 2-spheres grow steeply past this; desk-scale contract
MAX_SPLIT_VERTICES = 12
# a circle scan skips sizes below 3|d| and always finds a witness on the
# first cycle it tries, so it builds and searches at most one cycle; this
# cap bounds that cycle, and 99 covers |d| <= 33 in about 0.002 s
MAX_CIRCLE_VERTICES = 99
# a table row's n and |d| stay below this, so every number a row reports (at
# most 3|d| or n + |d| + 3) prints in far fewer than the interpreter's 4,300
# digits of int-to-str conversion
_TABLE_ARGUMENT_LIMIT = 10 ** 100

# facet state once a color repeats on it; otherwise the state is a color mask
_DEGENERATE = -1


def enumerate_spheres(n: int, v: int) -> Iterator[Complex]:
    """Iterate over one representative per isomorphism class, deterministically.

    n=1 gives the single v-cycle; n=2 gives all triangulated 2-spheres on
    v vertices, canonically relabeled and ordered by canonical key.  The
    call checks its arguments: a v above MAX_CIRCLE_VERTICES (n=1) or
    MAX_SPLIT_VERTICES (n=2) raises BudgetExceeded before anything is built.
    """
    _check_ints(n=n, v=v)
    if n not in (1, 2):
        raise UnsupportedDimension(f"enumeration covers n in {{1, 2}}, got {_shown(n)}")
    if v < n + 2:
        raise InvalidDimension(f"no {n}-sphere has fewer than {n + 2} vertices")
    cap = MAX_CIRCLE_VERTICES if n == 1 else MAX_SPLIT_VERTICES
    if v > cap:
        raise BudgetExceeded(
            f"{'circle' if n == 1 else '2-sphere'} enumeration is capped at {cap} vertices"
        )
    if n == 1:
        return iter([build_complex([(i, i % v + 1) for i in range(1, v + 1)])])
    return (cf.canonical for cf in _sphere_classes(v))


class _SphereClass(_Record):
    """A 2-sphere class as the enumeration keeps it: its canonical
    representative and generators of its automorphism group, in canonical
    ids."""

    __match_args__ = ("canonical", "automorphisms")


@lru_cache(maxsize=None)
def _sphere_classes(v: int) -> tuple[_SphereClass, ...]:
    """The 2-sphere classes on v vertices, in canonical key order: the kept
    children on v (``_kept_children``), each under its canonical form."""
    return tuple(cls for _, cls in sorted(_classes(v, math.inf)))


def _classes(v: int, room: float):
    """(canonical key, class) for each kept child of ``_kept_children(v,
    room)``, in generation order, each under its canonical form; raises
    SpheremapError if two of them share one."""
    keys: set[bytes] = set()
    for K, cf in _kept_children(v, room):
        if cf is None:
            cf = canonical_form(K)
        if cf.key in keys:
            raise SpheremapError(f"two planar classes on {v} vertices share a canonical form")
        keys.add(cf.key)
        yield cf.key, _SphereClass(cf.canonical, cf.automorphisms)


def _kept_children(v: int, room: float):
    """The 2-spheres on v vertices, one per class, in generation order: on
    4 vertices the tetrahedron, and above that each class on v - 1 vertices
    split once per orbit of its automorphisms (``_vertex_splits``), with
    the children whose new edge is canonical (``_canonical_child``).  Each
    is yielded as (complex, canonical form or None), the form only when
    the canonical-edge test needed one.

    Only the classes with at most ``room`` off-vertices (vertices whose
    degree is not a multiple of 3) are yielded, each once; ``math.inf``
    yields every class.
    Contracting a child's new edge {z, new} changes the degrees of z, c_i
    and c_j alone (z's becomes deg z + deg new - 4, the two common
    neighbours' drop by one), so a class with m off-vertices has its
    canonical parent among the classes with at most m + 3.  The parents
    are therefore those of ``_kept_children(v - 1, room + 3)``, in
    generation order, and the splits whose child has more than ``room``
    off-vertices are dropped before their child is built.  A sphere on
    v - 1 vertices has at most v - 1 off-vertices, so once room + 3 >=
    v - 1 the parents are every class, ``_sphere_classes(v - 1)`` in key
    order."""
    if v == 4:
        yield build_complex([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]), None
        return
    if room + 3 >= v - 1:
        parents = _sphere_classes(v - 1)
    else:
        parents = (parent for _, parent in _classes(v - 1, room + 3))
    for parent in parents:
        for child in _vertex_splits(parent.canonical, parent.automorphisms, room):
            kept = _canonical_child(child)
            if kept is not None:
                yield kept


Rotation = dict[int, tuple[int, ...]]


def _rotation(K: Complex) -> Rotation:
    """Each vertex's link cycle, all turning the way orient(K) turns them:
    w follows u around x exactly when (x, u, w) is a positive facet.  K
    must be a 2-sphere.

    One walk over K's edges gives the cycles orient would: K.facets[0],
    (a, b, c), is placed as the positive triangle, as orient's sign +1 on
    it places it, and the triangle across each edge of a placed triangle
    is placed in the opposite sense, which is orient's coherence.  Each
    cycle starts at its smallest neighbour.  Nothing is cached on K."""
    across: dict[tuple[int, int], list[int]] = {}  # edge -> its two opposite vertices
    for a, b, c in K.facets:
        across.setdefault((a, b), []).append(c)
        across.setdefault((a, c), []).append(b)
        across.setdefault((b, c), []).append(a)
    after: dict[int, dict[int, int]] = {x: {} for x in K.vertices}
    a, b, c = K.facets[0]
    after[a][b], after[b][c], after[c][a] = c, a, b
    placed = [(a, b, c)]
    while placed:
        x, y, z = placed.pop()
        for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
            if p in after[q]:  # the triangle (q, p, w) across {p, q} is placed
                continue
            u, w = across[(p, q) if p < q else (q, p)]
            if w == r:
                w = u
            after[q][p], after[p][w], after[w][q] = w, q, p
            placed.append((q, p, w))
    rotation = {}
    for x, nxt in after.items():
        cycle = [min(nxt)]
        while nxt[cycle[-1]] != cycle[0]:
            cycle.append(nxt[cycle[-1]])
        rotation[x] = tuple(cycle)
    return rotation


def _rotation_complex(rotation: Rotation) -> Complex:
    """The 2-sphere whose facets are the triangles around each vertex."""
    facets = [
        (x, u, w) if u < w else (x, w, u)
        for x, cycle in rotation.items()
        for u, w in zip(cycle, cycle[1:] + cycle[:1])
        if x < u and x < w  # each triangle from its smallest vertex alone
    ]
    return Complex(2, tuple(sorted(facets)))


def _vertex_splits(
    K: Complex, automorphisms: tuple[dict[int, int], ...] = (), room: float = math.inf
):
    """The rotation of the single-vertex splits of a triangulated 2-sphere,
    one per orbit of the given automorphisms of K.

    Splitting z at two vertices c_i, c_j of its link cycle keeps the fan
    c_i..c_j at z and hands the fan c_j..c_i to a new vertex; the facets
    {z, new, c_i} and {z, new, c_j} glue the fans back into a sphere with
    one more vertex.  Every triangulated 2-sphere with at least 5 vertices
    has a contractible edge, so every class at v+1 arises from some class
    at v this way.  A split is local: only z, the new vertex and z's link
    change their rotations, so each child is the parent's rotation with
    those entries replaced.

    The split (z, {c_i, c_j}) is yielded only when it is the first of its
    orbit under ``automorphisms``; with none, every split is.  An
    automorphism g of K maps it to the split (g z, {g c_i, g c_j}), whose
    child is isomorphic to its own.  Conversely, let two children kept by
    ``_canonical_child`` be isomorphic, with canonical complex C.  Each
    canonical labeling takes its child's new edge into the orbit, under
    Aut(C), of the edge that C's labels pick, so composing one labeling
    with an automorphism of C and the other labeling's inverse gives an
    isomorphism taking one new edge onto the other.  Contracting that edge
    gives back each child's parent, so both come from one class K and the
    map is an automorphism of K taking one split to the other.  One split
    per orbit thus keeps each class once.

    A split is dropped, before its child is built, when ``_canonical_child``
    would drop that child on degrees alone.  Let k = deg z.  The child of
    (z; c_i, c_j) has the new edge {z, new}, of degree sum k + 4 and min
    degree min(j - i, k - j + i) + 2.  A contractible parent edge {a, b}
    (exactly two common neighbours) avoiding z stays contractible in that
    child unless it is {c_i, c_j}:

    (A) at most one end, say a, lies in lk(z).  Then b's rotation is the
        same in the child and holds neither z nor new, and a's changes only
        by new taking z's place or joining it, so a and b keep exactly
        their two common neighbours;
    (B) both ends lie in lk(z).  Then z is one of their two common
        neighbours, so {z, a, b} is a facet: a and b are consecutive on
        z's link cycle, and x, the other common neighbour, keeps its edges
        to a and b.  Unless {a, b} = {c_i, c_j}, the facet {z, a, b} lies
        in exactly one of the two fans, so exactly one of z and new joins
        x as a common neighbour in the child.

    In both cases an end's degree rises by one exactly when it is c_i or
    c_j.  When such an edge's (degree sum, min degree) in the child is
    below the new edge's, the new edge is not lowest in rank and the split
    is dropped (``_outranked``).  Its every-split case skips z whole:
    raising every end in lk(z) at once, and passing over edges with both
    ends there, bounds each edge's rank in every child, and the new edge's
    rank is at least (k + 4, 3).  The rule reads only degrees, links and
    contractibility, which automorphisms keep, so it drops whole orbits:
    the kept children, their order and their canonical forms are those of
    splitting every orbit.

    A split is also dropped, before its child is built, when that child
    has more than ``room`` off-vertices (vertices whose degree is not a
    multiple of 3; none by default).  Only four degrees differ from K's:
    z's becomes j - i + 2, the new vertex's k - j + i + 2, and c_i's and
    c_j's rise by one, so the count is K's, corrected at those vertices,
    in O(1).  Degrees are kept by automorphisms, so this rule too drops
    whole orbits and leaves every other split's child as it was.
    """
    rotation = _rotation(K)
    deg = {x: len(cycle) for x, cycle in rotation.items()}
    seen: set[tuple[int, int, int]] = set()  # orbits of the splits yielded
    off = sum(k % 3 != 0 for k in deg.values())  # K's off-vertices
    new = max(rotation) + 1
    # contractible edges as (degree sum, min degree, a, b), lowest first
    contractible = sorted(
        (deg[a] + deg[b], min(deg[a], deg[b]), a, b)
        for a, cycle in rotation.items()
        for b in cycle
        if a < b and len(set(cycle).intersection(rotation[b])) == 2
    )
    for z, cycle in rotation.items():
        k = len(cycle)
        # the edges avoiding z that can rank below a degree sum of k + 4
        staying = []
        for edge in contractible:
            if edge[0] > k + 4:
                break
            if z != edge[2] and z != edge[3]:
                staying.append(edge)
        if _outranked(staying, deg, (k + 4, 3), cycle):
            continue
        # the off-vertices a child may add once z's own is gone, and the
        # change at each c_t as its degree rises by one
        spare = room - off + (k % 3 != 0)
        gain = [((deg[c] + 1) % 3 != 0) - (deg[c] % 3 != 0) for c in cycle]
        moved = None
        for i in range(k):
            for j in range(i + 1, k):
                ci, cj = cycle[i], cycle[j]
                split = (z, ci, cj) if ci < cj else (z, cj, ci)
                if split in seen or (
                    # z and new have degrees j - i + 2 and k - j + i + 2
                    gain[i] + gain[j] + ((j - i + 2) % 3 != 0) + ((k - j + i + 2) % 3 != 0)
                    > spare
                ):
                    continue
                rank = (k + 4, min(j - i, k - j + i) + 2)
                if _outranked(staying, deg, rank, split[1:]):
                    continue
                seen |= _orbit(split, automorphisms, _split_image)
                if moved is None:
                    # around each c_t: new instead of z, new inserted after z, or before it
                    moved, after_z, before_z = [], [], []
                    for c in cycle:
                        r = rotation[c]
                        p = r.index(z)
                        moved.append(r[:p] + (new,) + r[p + 1:])
                        after_z.append(r[:p + 1] + (new,) + r[p + 1:])
                        before_z.append(r[:p] + (new,) + r[p:])
                child = dict(rotation)
                child[z] = cycle[i:j + 1] + (new,)
                child[new] = cycle[j:] + cycle[:i + 1] + (z,)
                for t in chain(range(i), range(j + 1, k)):
                    child[cycle[t]] = moved[t]
                child[cycle[i]] = after_z[i]
                child[cycle[j]] = before_z[j]
                yield child


def _outranked(
    staying: list[tuple[int, int, int, int]],
    deg: dict[int, int],
    rank: tuple[int, int],
    raised: tuple[int, ...],
) -> bool:
    """Whether an edge of ``staying``, (degree sum, min degree, a, b) lowest
    first, ranks below ``rank``, the new edge's (degree sum, min degree),
    once each end in ``raised`` gains a neighbour; an edge with both ends
    raised is passed over."""
    for s, m, a, b in staying:
        if (s, m) >= rank:  # and so is every later edge, raised or not
            return False
        if a in raised:
            if b in raised:
                continue
            m = min(deg[a] + 1, deg[b])
        elif b in raised:
            m = min(deg[a], deg[b] + 1)
        else:
            return True
        if (s + 1, m) < rank:
            return True
    return False


def _canonical_child(rotation: Rotation) -> tuple[Complex, CanonicalForm | None] | None:
    """A split child whose new edge is canonical, as (complex, canonical
    form or None), or None when the new edge is not.

    In a split child the new vertex is the largest id, and the split vertex
    z closes its cycle.  An edge {a, b} is contractible when a and b have
    exactly two common neighbours, the vertices c, c' opposite it; the new
    edge {z, new} always is.  Contractible edges are ranked by (deg a +
    deg b, min deg, deg c + deg c', min(deg c, deg c')), and edges tied on
    that by the sorted degrees of the vertices adjacent to a or b.  A child
    with a contractible edge ranked below its new edge is dropped before
    any canonical form is computed.  Otherwise the canonical edge is, among
    the new edge and its rivals (the contractible edges of equal rank), the
    one whose sorted pair of canonical labels is smallest, and the child is
    kept when its new edge lies in that edge's orbit under the recorded
    automorphisms; with no rival left the new edge is the canonical edge,
    and neither the canonical form nor an orbit is computed.  The rank,
    with its tie-break, is an invariant, so the labels pick the canonical
    edge in the canonical complex alone, and two canonical labelings of one
    child differ by an automorphism of it: whether the new edge lies in
    that orbit is an isomorphism invariant.  Every contractible edge of a
    class at v+1 contracts to a class at v, and splitting that class's
    representative at the matching link pair gives the child back with
    that edge as {z, new}, so every class is kept at least once (McKay's
    canonical construction path, J. Algorithms 26, 1998).
    """
    deg = {x: len(cycle) for x, cycle in rotation.items()}
    new = max(rotation)
    z = rotation[new][-1]

    def rank(a: int, b: int, c: int, c2: int) -> tuple[int, int, int, int]:
        return (deg[a] + deg[b], min(deg[a], deg[b]), deg[c] + deg[c2], min(deg[c], deg[c2]))

    def around(a: int, b: int) -> list[int]:
        # the sorted degrees of the vertices adjacent to a or b
        return sorted(map(deg.__getitem__, set(rotation[a]).union(rotation[b])))

    cycle = rotation[z]
    p = cycle.index(new)
    mine = rank(z, new, cycle[p - 1], cycle[(p + 1) % len(cycle)])
    rivals = []
    for a, cycle in rotation.items():
        k = len(cycle)
        for p, b in enumerate(cycle):
            if b <= a or deg[a] + deg[b] > mine[0] or (a, b) == (z, new):
                continue
            r = rank(a, b, cycle[p - 1], cycle[(p + 1) % k])
            if r <= mine and len(set(rotation[a]).intersection(rotation[b])) == 2:
                if r < mine:
                    return None
                rivals.append((a, b))
    if rivals:
        mine_around, tied = around(z, new), []
        for a, b in rivals:
            theirs = around(a, b)
            if theirs < mine_around:
                return None
            if theirs == mine_around:
                tied.append((a, b))
        rivals = tied
    K = _rotation_complex(rotation)
    if not rivals:
        return K, None
    cf = canonical_form(K)
    label = cf.relabeling
    edges = [tuple(sorted((label[a], label[b]))) for a, b in [(z, new), *rivals]]
    return (K, cf) if edges[0] in _orbit(min(edges), cf.automorphisms, _edge_image) else None


def _edge_image(g: dict[int, int], edge: tuple[int, int]) -> tuple[int, int]:
    return tuple(sorted((g[edge[0]], g[edge[1]])))


def _split_image(g: dict[int, int], split: tuple[int, int, int]) -> tuple[int, int, int]:
    return (g[split[0]], *_edge_image(g, split[1:]))


def _search_plan(K: Complex) -> tuple[list[int], dict[int, list[tuple[int, bool]]]]:
    """Search order, and per vertex its facets as (facet index, closes).

    The lex-smallest facet's vertices come first, then always the vertex
    completing the most facets whose other vertices are placed, the smallest
    id winning a tie.  One pass counts each facet's unplaced vertices: at 1
    the last one is credited, at 0 the vertex just placed closes the facet.
    """
    index = {f: fi for fi, f in enumerate(K.facets)}
    unplaced = dict.fromkeys(K.facets, K.dimension + 1)
    score = dict.fromkeys(K.vertices, 0)
    heap = [(0, v) for v in K.vertices]  # (-score, vertex); stale entries are skipped
    first = list(reversed(K.facets[0]))
    plan: dict[int, list[tuple[int, bool]]] = {}
    while len(plan) < len(score):
        if first:
            v = first.pop()
        else:
            s, v = heapq.heappop(heap)
            if v in plan or -s != score[v]:
                continue
        plan[v] = []
        for f in K.facets_at[v]:
            unplaced[f] -= 1
            if unplaced[f] == 1:
                (u,) = (u for u in f if u not in plan)
                score[u] += 1
                heapq.heappush(heap, (-score[u], u))
            plan[v].append((index[f], unplaced[f] == 0))
    return list(plan), plan


def _search_labelings(oriented: OrientedComplex, d: int) -> tuple[Labeling | None, int]:
    """First degree-d coloring of the oriented sphere in canonical scan
    order, or None.

    Returns (witness, partial colorings examined).  Complete with respect
    to the reductions in the module docstring: a coloring of degree d
    exists iff this scan returns one.  Each color pattern is signed once
    per search, and each node moves the counting bound's two sums (for d
    and -d; equal at d = 0) only by the facets it closes, so a node's work
    is that of the facets at its vertex plus one copy of the target sums.
    """
    K, eps = oriented.base, oriented.signs
    ncolors = K.dimension + 2
    order, plan = _search_plan(K)
    # per depth: the facets its vertex touches and leaves open, and
    # (index, facet, eps) of those it closes
    opens = [[fi for fi, closes in plan[v] if not closes] for v in order]
    closing = [[(fi, K.facets[fi], eps[fi]) for fi, closes in plan[v] if closes] for v in order]
    state = [0] * len(K.facets)  # bit mask of placed colors, or _DEGENERATE
    sums = [0] * (ncolors + 1)  # signed sum of the closed facets over each target
    live = len(K.facets)  # undecided facets without a repeated color
    color_of: dict[int, int] = {}
    # (sign before eps, target) per color tuple of a facet being closed
    pattern_sign: dict[tuple[int, ...], tuple[int, int | None]] = {}
    # the counting bound's sum_t |D - s_t| for D = d and for D = -d
    off = off_neg = ncolors * abs(d)
    nodes = 0
    # per colored vertex: color, highest allowed color, and the masks of its
    # open facets, sums, live and both bound sums before it
    trail: list[tuple[int, int, list[int], list[int], int, int, int]] = []
    c = top = 1  # next color to try at the next uncolored vertex, and its highest
    while True:
        if c <= top:
            depth = len(trail)
            v = order[depth]
            touched = opens[depth]
            trail.append((c, top, [state[fi] for fi in touched], sums[:], live, off, off_neg))
            color_of[v] = c
            nodes += 1
            bit = 1 << c
            for fi in touched:
                mask = state[fi]
                if not mask & bit:
                    state[fi] = mask | bit
                elif mask != _DEGENERATE:
                    # a repeated color: the facet can no longer hit any target
                    state[fi] = _DEGENERATE
                    live -= 1
            # no later node reads a closed facet's state, so it is left as is
            for fi, facet, e in closing[depth]:
                mask = state[fi]
                if mask == _DEGENERATE:
                    continue
                live -= 1
                if mask & bit:  # a repeated color
                    continue
                cols = tuple(map(color_of.__getitem__, facet))
                pattern = pattern_sign.get(cols)
                if pattern is None:
                    pattern = pattern_sign[cols] = _facet_sign(color_of, ncolors, 1, facet)
                sign, target = pattern
                old = sums[target]
                new = sums[target] = old + e * sign
                off += abs(d - new) - abs(d - old)
                off_neg += abs(d + new) - abs(d + old)
            if off <= live or off_neg <= live:
                if depth + 1 == len(order):
                    # every sum is d, or -d by the counting bound and an odd swap flips it
                    swap = {} if sums[1] == d else {1: 2, 2: 1}
                    return {u: swap.get(k, k) for u, k in color_of.items()}, nodes
                c, top = 1, min(top + (c == top), ncolors)
                continue
        elif not trail:
            return None, nodes
        # uncolor the last colored vertex and go on with its next color
        c, top, masks, saved_sums, live, off, off_neg = trail.pop()
        for fi, mask in zip(opens[len(trail)], masks):
            state[fi] = mask
        sums[:] = saved_sums
        c += 1


def exists_labeling(K: Complex, d: int) -> Labeling | None:
    """Witness coloring of degree exactly d, or None if none exists."""
    _check_ints(d=d)
    return _search_labelings(orient(K), d)[0]


class LambdaResult(_Record):
    """Outcome of a minimal-vertex search up to a budget.  The counts
    are the existence scan's labeling searches, one per sphere, and their
    partial colorings."""

    __match_args__ = (
        "n", "d", "v_max", "lambda_value", "witness",
        "triangulations_examined", "labelings_examined",
    )

    @property
    def found(self) -> bool:
        return self.lambda_value is not None

    @property
    def status(self) -> str:
        return "found" if self.found else "NotFoundWithinBudget"


def _search_sizes(n: int, d: int, v_max: int) -> range:
    """The vertex counts a search for degree d scans, up to v_max, once n,
    d and v_max are checked.  A degree-d coloring needs (n+2)|d|
    nondegenerate facets, so counts with fewer facets (v for a circle,
    2v - 4 for a 2-sphere) are left out."""
    _check_ints(n=n, d=d, v_max=v_max)
    if n not in (1, 2):
        raise UnsupportedDimension(f"search covers n in {{1, 2}}, got {_shown(n)}")
    cap = MAX_CIRCLE_VERTICES if n == 1 else MAX_SPLIT_VERTICES
    if v_max > cap:
        raise BudgetExceeded(f"v_max {_shown(v_max)} above the n={n} guard ({cap})")
    smallest = 3 * abs(d) if n == 1 else 2 * abs(d) + 2
    return range(max(n + 2, smallest), v_max + 1)


def _first_witness(spheres, d: int) -> tuple[LabeledSphere | None, int, int]:
    """(witness, spheres searched, partial colorings examined) for the
    first of ``spheres``, in the order given, with a degree-d coloring,
    which the degree engine re-checks; the witness is None when none has
    one.  Each sphere is oriented as it is, so it must be built for this
    search alone: a split child, or a canonical form computed for it."""
    searched = labelings = 0
    for K in spheres:
        oriented = orient(K)
        coloring, nodes = _search_labelings(oriented, d)
        searched += 1
        labelings += nodes
        if coloring is not None:
            witness = labeled_sphere(oriented, coloring)
            if degree(witness).degree != d:
                raise SpheremapError(f"search witness does not have degree {d}")
            return witness, searched, labelings
    return None, searched, labelings


def lambda_search(n: int, d: int, v_max: int) -> LambdaResult:
    """Smallest vertex count admitting a degree-d coloring, up to v_max,
    with the first witness in class order.

    The existence scan (``_lambda_scan``) walks each vertex count once,
    searching its classes in canonical key order, and stops at the first
    coloring, so that witness is the first in ``enumerate_spheres`` order.
    A circle count has one class.
    """
    v, witness, triangulations, labelings = _lambda_scan(n, d, v_max, in_key_order=True)
    return LambdaResult(
        n=n, d=d, v_max=v_max, lambda_value=v, witness=witness,
        triangulations_examined=triangulations, labelings_examined=labelings,
    )


def _room(v: int, d: int) -> float:
    """At most how many off-vertices a 2-sphere on v vertices with a
    degree-d coloring has (``_lambda_scan``); ``math.inf`` for d = 0,
    where no such bound holds."""
    return math.inf if d == 0 else 3 * (2 * v - 4 - 4 * abs(d))


def _lambda_scan(
    n: int, d: int, v_max: int, in_key_order: bool
) -> tuple[int | None, LabeledSphere | None, int, int]:
    """The least vertex count up to v_max on which some sphere has a
    degree-d coloring, as (count, witness, spheres searched, partial
    colorings examined); count and witness are None when no count has one.

    Each count is walked once.  ``in_key_order`` searches its classes
    (``_classes``) in canonical key order, so the witness is the first in
    class order; otherwise its kept children (``_kept_children``) are
    searched as they are generated, with no class list and no canonical
    form beyond the few the canonical-edge test needs.  The labeling
    search is complete on each sphere.

    For d != 0 only the classes that can carry a coloring are generated.
    Call a vertex off when its degree is not a multiple of 3.  (i) A
    2-sphere on v vertices with a degree-d coloring has at most 3S
    off-vertices, S = 2v - 4 - 4|d| (``_room``).  Let N count its facets
    whose sign is opposite to d's and G its degenerate facets.  Each of the
    4 targets sums to d, and each nondegenerate facet lands on one target,
    so the 2v - 4 facets give 2N + G = S.  A vertex whose every facet is
    nondegenerate with d's sign has a link whose colors step the same way
    round the triangle of the three colors it lacks, so its degree is a
    multiple of 3.  Every off-vertex thus lies on one of the N + G <= S
    other facets, at most 3 to a facet.  (ii) A class with m off-vertices
    has its canonical parent among the classes with at most m + 3
    (``_kept_children``).  So the kept children on v with room 3S are
    every class on v that may have a coloring, each once, and in key order
    the first of them with a coloring is the first in class order.
    """
    triangulations = labelings = 0
    for v in _search_sizes(n, d, v_max):
        if n == 1:
            spheres = enumerate_spheres(1, v)
        elif in_key_order:
            spheres = (cls.canonical for _, cls in sorted(_classes(v, _room(v, d))))
        else:
            spheres = (K for K, _ in _kept_children(v, _room(v, d)))
        witness, searched, nodes = _first_witness(spheres, d)
        triangulations += searched
        labelings += nodes
        if witness is not None:
            return v, witness, triangulations, labelings
    return None, None, triangulations, labelings


def known_lambda(n: int, d: int) -> tuple[int, str] | None:
    """Exact minimal vertex count where a closed form is known, with a note.

    Covers: circles (3|d|), degree 0 and +-1 (n+2), and degrees 2..4 at
    n >= |d|-1 (n+|d|+3).  Returns None when no exact value is known.
    """
    _check_ints(n=n, d=d)
    if n < 1:
        raise InvalidDimension(f"need n >= 1, got {_shown(n)}")
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


class LambdaRow(_Record):
    """One (n, d) table entry; lambda_value is exact unless status says
    upper_bound, and None when a bounded search came up empty.  status is
    one of exact_search, exact_formula, upper_bound and
    not_found_within_budget."""

    __match_args__ = ("n", "d", "lambda_value", "status", "note")

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


class LambdaTable(_Record):
    """The rows ``lambda_table`` computed, in request order."""

    __match_args__ = ("rows",)

    def _pivot(self, key) -> dict[int, dict[int, Fraction]]:
        """{outer: {inner: ratio}} over the rows with a ratio, where key maps
        a row to (outer, inner, ratio)."""
        out: dict[int, dict[int, Fraction]] = {}
        for outer, inner, r in map(key, self.rows):
            if r is not None:
                out.setdefault(outer, {})[inner] = r
        return out

    def ratios_over_d_by_n(self) -> dict[int, dict[int, Fraction]]:
        return self._pivot(lambda row: (row.n, row.d, row.ratio_over_d))

    def ratios_over_n_by_d(self) -> dict[int, dict[int, Fraction]]:
        return self._pivot(lambda row: (row.d, row.n, row.ratio_over_n))


def lambda_table(requests) -> LambdaTable:
    """Build a table of exact and bounded entries from request dicts.

    Each request is {"n": int, "d": int, "v_max": optional int}; any other
    request raises ValidationError.  With a v_max and n in {1, 2} the entry
    is computed by exhaustive search: the existence scan lambda_search
    runs (``_lambda_scan``), in generation order, since a row needs no
    witness.  Otherwise a closed form is used when one
    exists, and the construct generator's vertex count is reported as an
    upper bound when not.
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
                f'table row {_shown(req)} must be {{"n": int, "d": int, "v_max": optional int}}'
            )
        unknown = [key for key in req if key not in ("n", "d", "v_max")]
        if unknown:  # a misspelt budget such as "vmax" would drop the search
            raise ValidationError(
                f"table row {_shown(req)} has unknown key {_shown(unknown[0])}; "
                "a row takes n, d and v_max"
            )
        n, d = req["n"], req["d"]
        if abs(n) >= _TABLE_ARGUMENT_LIMIT or abs(d) >= _TABLE_ARGUMENT_LIMIT:
            raise ValidationError("table row n and d must have at most 100 digits")
        v_max = req.get("v_max")
        if v_max is not None and n in (1, 2):
            value = _lambda_scan(n, d, v_max, in_key_order=False)[0]
            status, note = (
                ("exact_search", f"exhaustive search to v_max={v_max}")
                if value is not None
                else ("not_found_within_budget", f"no witness with up to {v_max} vertices")
            )
        elif (formula := known_lambda(n, d)) is not None:
            value, note = formula
            status = "exact_formula"
        else:
            value = construct(n, d).vertex_count
            status, note = "upper_bound", "generator vertex count; true minimum may be lower"
        rows.append(LambdaRow(n=n, d=d, lambda_value=value, status=status, note=note))
    return LambdaTable(tuple(rows))
