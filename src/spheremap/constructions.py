"""Generators for labeled sphere triangulations of prescribed degree.

Every generator returns a ConstructionCertificate: the labeled sphere, the
degree and vertex count it claims (both re-verified by the degree engine at
build time), and a replayable recipe of the steps that produced it.

The two composable moves are:

* one_point_suspension: raises the dimension by 1, adds exactly 1 vertex,
  keeps the degree.
* insertion_step: same dimension, adds n+2 vertices, raises the degree by n.
  It subdivides a facet that maps positively onto the target facet colored
  {1..n+1}, colors the new center n+2, and then subdivides each of the n+1
  new facets once more to restore a positively-mapped copy of each color.

construct(n, d) composes these from small seeds so that the vertex count
stays within ((n+2)/n)*|d| + 2n+2, and hits the known exact minima for
|d| <= 1 and for d in {2,3,4} with n >= d-1 (n+d+3 vertices).

construct and replay splice a run of insertions into one facet -> sign dict
and certify once, so both take time linear in |d|.  A reversed certificate
(d < 0, or the recipe move ``reverse``) takes the negation of the degree
engine's report on the sphere it reverses, so construct(n, -d) runs the
engine on its final sphere once.  construct, replay,
both moves and the seeds raise BudgetExceeded before building anything
above MAX_BUILD_DIMENSION or MAX_BUILD_VERTICES, so every output loads
again.
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import combinations, count, groupby

from .complexes import (
    Facet,
    OrientedComplex,
    _is_int,
    _Record,
    _sorted_facet,
    _sphere_failure,
    _stellar_pairs,
    build_complex,
    orient,
)
from .degree import (
    LabeledSphere,
    _check_ints,
    _facet_sign,
    degree,
    labeled_sphere,
    relabel,
    reverse_orientation,
)
from .errors import (
    BadFacetColors,
    BadFacetSign,
    BudgetExceeded,
    FacetNotFound,
    InvalidDimension,
    PivotNotFound,
    SpheremapError,
    ValidationError,
    ZeroDegree,
    _shown,
)

__all__ = [
    "ConstructionCertificate",
    "boundary_simplex",
    "cyclic_circle",
    "degree_zero_sphere",
    "one_point_suspension",
    "insertion_step",
    "degree_four_witness",
    "construct",
    "replay",
    "vertex_bound",
    "MAX_BUILD_DIMENSION",
    "MAX_BUILD_VERTICES",
]

# construct and replay build whatever they are asked for, and untrusted
# input (table specs, CLI arguments, recipes) picks the size.  Work grows
# with the facet count, about n times the vertex count, times the facet
# size n+1: at both caps (construct(12, 17120), 19,987 vertices and a 71 MB
# document), construct plus serialize takes about 11 s and 300 MiB in one
# process (2 vCPU Xeon, Python 3.11).
MAX_BUILD_DIMENSION = 12
MAX_BUILD_VERTICES = 20_000

RecipeStep = tuple
Recipe = tuple[RecipeStep, ...]


class ConstructionCertificate(_Record):
    """Self-verifying witness: labeled sphere + claims + replayable recipe."""

    __match_args__ = ("labeled", "claimed_degree", "claimed_vertex_count", "recipe")

    @property
    def vertex_count(self) -> int:
        return len(self.labeled.oriented.vertices)

    @property
    def dimension(self) -> int:
        return self.labeled.dimension


def _certify(ls: LabeledSphere, recipe: Recipe, expected=None) -> ConstructionCertificate:
    d = degree(ls).degree
    if expected is not None and d != expected:  # the degree a move predicts
        raise SpheremapError(f"move gave degree {d}, expected {expected}")  # pragma: no cover
    return ConstructionCertificate(
        labeled=ls,
        claimed_degree=d,
        claimed_vertex_count=len(ls.oriented.vertices),
        recipe=recipe,
    )


def _as_labeled(x) -> tuple[LabeledSphere, Recipe]:
    """Accept a LabeledSphere or a certificate.  A bare sphere becomes a
    literal seed, so composed recipes stay replayable; like a document, it
    must pass the sphere checks with a coherent orientation."""
    if isinstance(x, ConstructionCertificate):
        return x.labeled, x.recipe
    if isinstance(x, LabeledSphere):
        failure = _sphere_failure(x.oriented)
        if failure:
            raise ValidationError(f"literal seed {failure}")
        return x, (("literal", x),)
    raise TypeError(f"expected LabeledSphere or ConstructionCertificate, got {type(x)!r}")


def boundary_simplex(n: int) -> ConstructionCertificate:
    """Boundary of the (n+1)-simplex on vertices 1..n+2, identity coloring.

    Degree +1 with the minimum possible n+2 vertices.
    """
    _check_ints(n=n)
    if n < 1:
        raise InvalidDimension(f"boundary_simplex needs n >= 1, got {_shown(n)}")
    _check_budget(n, n + 2)
    complex = build_complex(combinations(range(1, n + 3), n + 1))
    ls = labeled_sphere(orient(complex), {v: v for v in range(1, n + 3)})
    return _certify(ls, (("boundary_simplex", n),))


def cyclic_circle(d: int) -> ConstructionCertificate:
    """Circle on 3|d| vertices colored 1,2,3 repeating cyclically: degree d."""
    _check_ints(d=d)
    if d == 0:
        raise ZeroDegree("cyclic_circle needs d != 0")
    m = 3 * abs(d)
    _check_budget(1, m)
    complex = build_complex([(i, i % m + 1) for i in range(1, m + 1)])
    ls = labeled_sphere(orient(complex), {v: (v - 1) % 3 + 1 for v in range(1, m + 1)})
    if d < 0:
        ls = reverse_orientation(ls)
    return _certify(ls, (("cyclic_circle", d),))


def degree_zero_sphere(n: int) -> ConstructionCertificate:
    """Boundary simplex with two vertices sharing a color: degree 0, n+2 vertices."""
    _check_ints(n=n)
    if n < 1:
        raise InvalidDimension(f"degree_zero_sphere needs n >= 1, got {_shown(n)}")
    _check_budget(n, n + 2)
    complex = build_complex(combinations(range(1, n + 3), n + 1))
    labels = {v: v for v in range(1, n + 2)}
    labels[n + 2] = n + 1  # color n+2 unused, so every target sum is 0
    ls = labeled_sphere(orient(complex), labels)
    return _certify(ls, (("degree_zero", n),))


def one_point_suspension(x, pivot: int | None = None) -> ConstructionCertificate:
    """Suspension with a single new vertex: dimension +1, degree unchanged.

    The new apex x joins every facet; the pivot vertex v doubles as the
    second suspension point, joining exactly the facets that avoid it.
    Orientation: a facet sigma of the input yields sigma+{x} with sign
    -eps_sigma, and (when v not in tau) tau+{v} with sign
    eps_tau * (-1)**(n+1-p) where p is v's sorted position; this keeps the
    result coherent and the degree equal to the input's.  The apex gets the
    fresh color n+3.
    """
    ls, recipe = _as_labeled(x)
    verts = ls.oriented.vertices
    if pivot is None:
        pivot = min(verts)
    elif not _is_int(pivot) or pivot not in ls.labels:  # True and 1.0 would find vertex 1
        raise PivotNotFound(f"pivot {_shown(pivot)} is not a vertex")
    n = ls.dimension
    _check_budget(n + 1, len(verts) + 1)
    apex = max(verts) + 1
    pairs: list[tuple[Facet, int]] = []
    for facet, eps in zip(ls.complex.facets, ls.oriented.signs):
        pairs.append((facet + (apex,), -eps))
        if pivot not in facet:
            g = tuple(sorted(facet + (pivot,)))
            p = g.index(pivot)
            pairs.append((g, eps * (-1 if (n + 1 - p) % 2 else 1)))
    oriented = OrientedComplex.from_pairs(n + 1, pairs)
    labels = dict(ls.labels)
    labels[apex] = n + 3
    out = labeled_sphere(oriented, labels)
    return _certify(out, recipe + (("suspend", pivot),), degree(ls).degree)


def insertion_step(x, facet: Facet | None = None) -> ConstructionCertificate:
    """Degree +n at the price of n+2 vertices, in place on one facet.

    The facet must carry map sign +1 and the colors {1..n+1}.  When no facet
    is given, the lexicographically smallest qualifying one is used.
    """
    return _insert(x, [facet])


def _insert(x, facets) -> ConstructionCertificate:
    """An insertion step at each of ``facets`` (None: the smallest qualifying
    facet), all spliced into one facet -> sign dict and certified once."""
    ls, recipe = _as_labeled(x)
    n = ls.dimension
    _check_budget(n, len(ls.oriented.vertices) + (n + 2) * len(facets))
    signs = dict(ls.oriented.sign_by_facet)
    labels = dict(ls.labels)
    before = degree(ls)
    # qualifying facets, sorted and so a heap; consumed ones are skipped on pop
    heap = sorted(f for f, s in before.per_target_facet[n + 2] if s == 1)
    steps = []
    for w, facet in zip(count(max(ls.oriented.vertices) + 1, n + 2), facets):
        if facet is None:
            while heap and heap[0] not in signs:
                heapq.heappop(heap)
            if not heap:
                raise FacetNotFound("no facet with sign +1 and colors {1..n+1}")
            facet = heapq.heappop(heap)
        else:
            facet = _sorted_facet(facet)
            if facet not in signs:
                raise FacetNotFound(f"{_shown(facet)} is not a facet of the complex")
            cols = {labels[v] for v in facet}
            if cols != set(range(1, n + 2)):
                raise BadFacetColors(f"facet colors {sorted(cols)} != {list(range(1, n + 2))}")
            s, _ = _facet_sign(labels, n + 2, signs[facet], facet)
            if s != 1:
                raise BadFacetSign(f"facet {_shown(facet)} has map sign {s}, need +1")
        new = dict(_stellar_pairs(facet, signs.pop(facet), w))
        labels[w] = n + 2
        # facet - u + (w + i) is facet with u replaced in place by a vertex of
        # u's color, so it maps with facet's sign +1; every other new facet
        # holds w, of color n+2.  w lies above every id: these are sorted
        for i, u in enumerate(facet, 1):  # sorted order: deterministic ids
            rest = tuple(z for z in facet if z != u)
            new.update(_stellar_pairs(rest + (w,), new.pop(rest + (w,)), w + i))
            labels[w + i] = labels[u]
            heapq.heappush(heap, rest + (w + i,))
        signs.update(new)
        steps.append(("insert", facet))
    out = labeled_sphere(OrientedComplex.from_pairs(n, signs.items()), labels)
    return _certify(out, recipe + tuple(steps), before.degree + n * len(steps))


def degree_four_witness(raw: bool = False) -> ConstructionCertificate:
    """Ten-vertex 3-sphere of degree 4 (the minimum vertex count for it).

    Start from the boundary 4-simplex on u_1..u_5 and subdivide the facet
    opposite u_i by a new vertex w_i colored i, for i = 1..5; u_j keeps
    color j.  All 20 facets then map with sign -1 (degree -4); a final
    swap of colors 1 and 2 makes the degree +4.  ``raw=True`` skips the
    final swap.
    """
    signs = dict(orient(build_complex(combinations(range(1, 6), 4))).sign_by_facet)
    labels = {v: v for v in range(1, 6)}
    for i in range(1, 6):
        opposite = tuple(v for v in range(1, 6) if v != i)
        signs.update(_stellar_pairs(opposite, signs.pop(opposite), 5 + i))
        labels[5 + i] = i
    ls = labeled_sphere(OrientedComplex.from_pairs(3, signs.items()), labels)
    if raw:
        return _certify(ls, (("degree_four_witness_raw",),))
    swap = {c: c for c in range(1, 6)}
    swap[1], swap[2] = 2, 1
    return _certify(relabel(ls, swap), (("degree_four_witness",),))


def vertex_bound(n: int, d: int) -> int:
    """Guaranteed vertex budget for construct: floor(((n+2)/n)*|d|) + 2n+2."""
    _check_ints(n=n, d=d)
    if n < 1:
        raise InvalidDimension(f"vertex_bound needs n >= 1, got {_shown(n)}")
    return ((n + 2) * abs(d)) // n + 2 * n + 2


def construct(n: int, d: int) -> ConstructionCertificate:
    """Labeled n-sphere of degree d within the guaranteed vertex budget.

    n=1 uses the cyclic circle (3|d| vertices, the exact minimum).  For
    n >= 2, write |d| = k*n + l with 1 <= l <= n: a degree-l seed in
    dimension l-1 (boundary simplex for l=1, else one insertion into
    the boundary simplex of dimension l-1), suspended up to dimension n,
    then k insertion steps.  Negative d reverses the final orientation.
    """
    _check_ints(n=n, d=d)
    if n < 1:
        raise InvalidDimension(f"construct needs n >= 1, got {_shown(n)}")
    _check_budget(n, vertex_bound(n, d))
    if n == 1:
        return degree_zero_sphere(1) if d == 0 else cyclic_circle(d)
    if d == 0:
        return degree_zero_sphere(n)
    k, l = divmod(abs(d), n)
    if l == 0:
        k, l = k - 1, n
    if l == 1:
        cert = boundary_simplex(n)
    else:
        cert = insertion_step(boundary_simplex(l - 1))
        for _ in range(n - l + 1):
            cert = one_point_suspension(cert)
    if k:
        cert = _insert(cert, [None] * k)
    if d < 0:
        cert = _reverse_certificate(cert)
    return cert


def _check_budget(dimension: int, vertices: int) -> None:
    if dimension > MAX_BUILD_DIMENSION or vertices > MAX_BUILD_VERTICES:
        raise BudgetExceeded(
            f"dimension {_shown(dimension)} on {_shown(vertices)} vertices is above the "
            f"build caps (dimension {MAX_BUILD_DIMENSION}, {MAX_BUILD_VERTICES} vertices)"
        )


def _reverse_certificate(cert: ConstructionCertificate) -> ConstructionCertificate:
    return _certify(reverse_orientation(cert.labeled), cert.recipe + (("reverse",),))


def _is_facet(x) -> bool:
    return isinstance(x, tuple) and all(_is_int(v) for v in x)


# The recipe grammar: one seed step, then moves.  Each entry is (builder,
# argument checks, shape): a seed's shape is the (dimension, vertex count)
# it builds, a move's is that pair after the move given the pair before it.
# The insert entry takes the facets of a whole run of insert steps at once.
_SEEDS = {
    "boundary_simplex": (boundary_simplex, (_is_int,), lambda n: (n, n + 2)),
    "cyclic_circle": (cyclic_circle, (_is_int,), lambda d: (1, 3 * abs(d))),
    "degree_zero": (degree_zero_sphere, (_is_int,), lambda n: (n, n + 2)),
    "degree_four_witness": (degree_four_witness, (), lambda: (3, 10)),
    "degree_four_witness_raw": (partial(degree_four_witness, raw=True), (), lambda: (3, 10)),
    "literal": (
        lambda ls: _certify(*_as_labeled(ls)),
        (lambda x: isinstance(x, LabeledSphere),),
        lambda ls: (ls.dimension, len(ls.oriented.vertices)),
    ),
}
_MOVES = {
    "suspend": (one_point_suspension, (_is_int,), lambda dim, size, _: (dim + 1, size + 1)),
    "insert": (_insert, (_is_facet,), lambda dim, size, _: (dim, size + dim + 2)),
    "reverse": (_reverse_certificate, (), lambda dim, size: (dim, size)),
}


def _step_args(step, table) -> list | None:
    """The arguments of ``step`` if it is a well-formed step of ``table``."""
    if not isinstance(step, tuple) or not step or not isinstance(step[0], str):
        return None
    op, *args = step
    if op not in table:
        return None
    checks = table[op][1]
    if len(args) != len(checks) or not all(ok(a) for ok, a in zip(checks, args)):
        return None
    return args


def _recipe_shape(recipe) -> tuple[int, int]:
    """(dimension, vertex count) of what a recipe builds, without building it.

    Raises ValidationError unless the recipe is a non-empty list or tuple of
    step tuples: one seed step, then suspend, insert and reverse moves.
    Neither number ever decreases along a recipe.
    """
    if not isinstance(recipe, (list, tuple)) or not recipe:
        raise ValidationError("a recipe must be a non-empty list of steps")
    shape = ()
    for i, step in enumerate(recipe):
        table = _MOVES if i else _SEEDS
        args = _step_args(step, table)
        if args is None:
            raise ValidationError(f"recipe {'step' if i else 'seed'} {_shown(step)} is malformed")
        shape = table[step[0]][2](*shape, *args)
    return shape


def replay(recipe) -> ConstructionCertificate:
    """Re-run a recipe; reproduces the certificate's facet list exactly.

    A malformed recipe raises ValidationError, and one building more than
    the caps BudgetExceeded, before anything is built; a well-formed step
    that does not apply raises the error of its move.  Each run of
    consecutive insert steps is spliced and certified once.
    """
    _check_budget(*_recipe_shape(recipe))
    (op, *args), *moves = recipe
    cert = _SEEDS[op][0](*args)
    for op, run in groupby(moves, key=lambda step: step[0]):
        if op == "insert":
            cert = _MOVES[op][0](cert, [facet for _, facet in run])
        else:
            for _, *args in run:
                cert = _MOVES[op][0](cert, *args)
    return cert
