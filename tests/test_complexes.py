import enum
import gc
import hashlib
import random
import re
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremap import (
    DegenerateFacet,
    DuplicateFacet,
    InvalidDimension,
    NonOrientable,
    NonPure,
    NotClosed,
    SphereStatus,
    UnknownVertex,
    VertexAlreadyPresent,
    FacetNotFound,
    ValidationError,
    Complex,
    build_complex,
    canonical_form,
    check_closed_pseudomanifold,
    euler_characteristic,
    is_sphere,
    orient,
    parity_to_sorted,
    stellar_subdivide_facet,
    stellar_subdivide_oriented,
    vertex_link,
)
from spheremap import complexes, constructions
from spheremap.complexes import _color_weights, _stellar_pairs, coherence_failures
from spheremap.constructions import insertion_step
from spheremap.constructions import boundary_simplex, construct, degree_four_witness
from spheremap.search import _rotation_complex, _sphere_classes, enumerate_spheres
from canonical_oracle import full_canonical_form, group_order
from orientation_oracle import bfs_orient
from shelling_oracle import is_shelling
from split_oracle import all_vertex_splits
from sphere_oracle import links_have_sphere_chi, recursive_is_sphere

TETRA = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

# minimal 6-vertex triangulation of the real projective plane
RP2 = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]

# 7-vertex torus: facets {i, i+1, i+3} and {i, i+2, i+3} over Z_7
TORUS = [
    tuple(sorted((i + k) % 7 + 1 for k in off))
    for i in range(7)
    for off in ((0, 1, 3), (0, 2, 3))
]

OCTAHEDRON = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5),
    (6, 2, 3), (6, 3, 4), (6, 4, 5), (6, 2, 5),
]

# apex 1, upper ring 2..6, lower ring 7..11, apex 12: every vertex in 5 facets
ICOSAHEDRON = [
    f
    for i in range(5)
    for u, u0, w, w0 in [(2 + i, 2 + (i - 1) % 5, 7 + i, 7 + (i - 1) % 5)]
    for f in ((1, u, u0), (u, u0, w), (w, w0, u0), (12, w, w0))
]

# the boundary of the cyclic 4-polytope on 8 vertices, by Gale's evenness
# condition: every vertex in 10 facets
CYCLIC_8_4 = [
    f
    for f in combinations(range(1, 9), 4)
    if all(
        sum(a < x < b for x in f) % 2 == 0
        for a, b in combinations(sorted(set(range(1, 9)) - set(f)), 2)
    )
]

# vertex i lies in 7 - i facets: the degree partition is discrete
DISTINCT_DEGREES = [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5), (2, 3, 4)]


def cycle(v):
    return build_complex([(i, i % v + 1) for i in range(1, v + 1)])


def stacked_six():
    K = stellar_subdivide_facet(build_complex(TETRA), (1, 2, 3))
    return stellar_subdivide_facet(K, (1, 2, 4))


def test_build_triangle_circle():
    K = build_complex([[1, 2], [2, 3], [1, 3]])
    assert K.dimension == 1
    assert K.facets == ((1, 2), (1, 3), (2, 3))
    assert K.vertices == (1, 2, 3)


def test_vertices_keep_the_first_seen_of_hash_equal_ids():
    # True == 1 and hashes alike: the vertex set keeps whichever a facet
    # holds first, as a set filled facet by facet did
    for facets in (((True, 2), (1, 3), (2, 3)), ((1, 2), (True, 3), (2, 3))):
        K = Complex(1, facets)
        seen = set()
        for f in facets:
            seen.update(f)
        assert K.vertices == tuple(sorted(seen)) == (1, 2, 3)
        assert [type(v) for v in K.vertices] == [type(facets[0][0]), int, int]


def test_build_boundary_tetrahedron():
    K = build_complex(TETRA)
    assert K.dimension == 2
    assert len(K.facets) == 4


def test_build_sorts_facet_vertices():
    K = build_complex([(3, 1, 2), (4, 2, 1), (1, 4, 3), (2, 3, 4)])
    assert K.facets == tuple(sorted(TETRA))


def test_build_rejects_mixed_dimension():
    with pytest.raises(NonPure):
        build_complex([[1, 2, 3], [1, 2]])


def test_build_rejects_repeated_vertex():
    with pytest.raises(DegenerateFacet):
        build_complex([[1, 2, 2]])


def test_build_rejects_duplicate_facet():
    with pytest.raises(DuplicateFacet):
        build_complex([(1, 2, 3), (3, 2, 1)])


@pytest.mark.parametrize(
    "facets",
    [[(1.5, 2), (2, 3), (1.5, 3)], [(True, 2), (2, 3), (True, 3)], [("a", 2), (2, 3), ("a", 3)]],
    ids=["float", "bool", "str_int_mix"],
)
def test_build_rejects_vertex_ids_that_are_not_ints(facets):
    # a document could not carry such a complex: parse refuses the ids
    with pytest.raises(ValidationError):
        build_complex(facets)


class Vertex(enum.IntEnum):
    ONE, TWO, THREE, FOUR = 1, 2, 3, 4


def test_build_accepts_int_subclass_ids():
    # the bulk type scan sees IntEnum, not int, and checks each id instead
    K = build_complex([tuple(Vertex(v) for v in f) for f in TETRA])
    assert K == build_complex(TETRA) and is_sphere(K).passed
    assert stellar_subdivide_facet(K, (Vertex.ONE, 2, 3)) == stellar_subdivide_facet(
        build_complex(TETRA), (1, 2, 3)
    )


@pytest.mark.parametrize("bad_id", [1.5, True, 2.0, False])
def test_build_names_the_first_facet_with_an_id_that_is_not_an_int(bad_id):
    # the first facet at fault is named, whichever check it fails; the
    # facet of the wrong size after it is never reached
    facets = [(5, 6, 7), (1, bad_id, 3), (1, 2, 3, 4)]
    message = f"facet {(1, bad_id, 3)} has a vertex id that is not an int"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build_complex(facets)
    with pytest.raises(DegenerateFacet, match=r"^facet \(5, 5, 7\) repeats a vertex$"):
        build_complex([(5, 5, 7)] + facets)
    with pytest.raises(NonPure, match=r"^facet \(1, 2\) has 2 vertices, expected 3$"):
        build_complex([(5, 6, 7), (1, 2)] + facets)
    with pytest.raises(FacetNotFound, match="is not a facet of vertex ids"):
        stellar_subdivide_facet(build_complex(TETRA), (1, bad_id, 3))


def test_build_rejects_empty_input():
    with pytest.raises(InvalidDimension):
        build_complex([])
    with pytest.raises(NonPure):
        build_complex([()])


def test_closed_check_boundary_tetrahedron():
    rep = check_closed_pseudomanifold(build_complex(TETRA))
    assert rep.passed and rep.connected and rep.bad_ridges == ()


def test_closed_check_single_triangle():
    rep = check_closed_pseudomanifold(build_complex([(1, 2, 3)]))
    assert not rep.passed
    assert {r for r, _ in rep.bad_ridges} == {(1, 2), (1, 3), (2, 3)}
    assert all(k == 1 for _, k in rep.bad_ridges)


def test_closed_check_two_disjoint_circles():
    K = build_complex([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    rep = check_closed_pseudomanifold(K)
    assert not rep.passed
    assert rep.bad_ridges == ()  # every ridge is fine, the graph is split
    assert not rep.connected


def test_closed_check_crosses_overloaded_ridges():
    # two tetrahedron boundaries meeting along the edge (1, 2) are one piece,
    # joined only through that ridge of multiplicity 4
    K = build_complex(TETRA + [(1, 2, 5), (1, 2, 6), (1, 5, 6), (2, 5, 6)])
    rep = check_closed_pseudomanifold(K)
    assert rep.connected and not rep.passed
    assert rep.bad_ridges == (((1, 2), 4),)
    with pytest.raises(NotClosed, match="multiplicity"):
        orient(K)


def test_orient_boundary_tetrahedron():
    oc = orient(build_complex(TETRA))
    assert len(oc.signs) == 4 and set(oc.signs) <= {1, -1}
    assert oc.sign_of((1, 2, 3)) == 1  # lex-smallest facet seeds +1
    assert coherence_failures(oc) == ()


def test_orient_deterministic():
    K = build_complex(TETRA)
    assert orient(K) == orient(K)


def test_orient_hexagon_consistently_directed():
    oc = orient(cycle(6))
    # read sign +1 on sorted edge (a, b) as a->b; a coherent circle has
    # in- and out-degree 1 everywhere
    out_deg = {v: 0 for v in oc.vertices}
    in_deg = {v: 0 for v in oc.vertices}
    for (a, b), s in zip(oc.facets, oc.signs):
        head, tail = (b, a) if s == 1 else (a, b)
        out_deg[tail] += 1
        in_deg[head] += 1
    assert set(out_deg.values()) == {1} and set(in_deg.values()) == {1}


def test_orient_requires_closed():
    with pytest.raises(NotClosed):
        orient(build_complex([(1, 2, 3)]))
    with pytest.raises(NotClosed):
        orient(build_complex([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]))


def test_orient_rejects_projective_plane():
    with pytest.raises(NonOrientable):
        orient(build_complex(RP2))


def twisted_grid(m, k, twist=True):
    """The m x k grid of squares, each cut along one diagonal, with its left
    and right sides glued; the top is glued to the bottom reflected (a Klein
    bottle) or straight (a torus)."""

    def vid(x, y):
        if y == k:
            x, y = (-x if twist else x), 0
        return y * m + x % m + 1

    return [
        f
        for y in range(k)
        for x in range(m)
        for f in ((vid(x, y), vid(x + 1, y), vid(x + 1, y + 1)),
                  (vid(x, y), vid(x, y + 1), vid(x + 1, y + 1)))
    ]


def test_orient_matches_bfs_reference():
    complexes = [K for v in range(4, 10) for K in enumerate_spheres(2, v)]
    complexes += [boundary_simplex(n).labeled.complex for n in range(1, 7)]
    complexes += [
        construct(n, d).labeled.complex
        for n in range(1, 6)
        for d in (-4, 1, 2, 3, 7)
    ]
    # the Klein bottle's grid glued straight is a torus, which orients
    complexes += [build_complex(TORUS), build_complex(twisted_grid(3, 3, twist=False))]
    assert len(complexes) == 73 + 6 + 25 + 2
    for K in complexes:
        assert orient(K).signs == bfs_orient(K)
        assert coherence_failures(orient(K)) == ()


@pytest.mark.parametrize("facets", [RP2, twisted_grid(3, 3)], ids=["rp2", "klein_bottle"])
def test_orient_rejects_non_orientable_surfaces(facets):
    K = build_complex(facets)
    assert check_closed_pseudomanifold(K).passed and euler_characteristic(K) in (0, 1)
    messages = []
    for orientation in (orient, bfs_orient):
        with pytest.raises(NonOrientable, match="conflicting signs at facet") as e:
            orientation(K)
        messages.append(str(e.value))
    assert messages[0] == messages[1]  # the walk meets the same first conflict


def test_projective_plane_has_no_coherent_signs_brute_force():
    # independent check: over all 2^10 sign vectors, some ridge always gets
    # matching induced orientations (induced sign of sorted ridge from a
    # sorted facet with sign s, dropping position p, is s * (-1)**p)
    K = build_complex(RP2)
    entries = list(K.ridge_entries.values())
    facets = K.facets
    index = {f: i for i, f in enumerate(facets)}
    for signs in product((1, -1), repeat=len(facets)):
        ok = True
        for (f, pf), (g, pg) in entries:
            induced_f = signs[index[f]] * (-1 if pf % 2 else 1)
            induced_g = signs[index[g]] * (-1 if pg % 2 else 1)
            if induced_f != -induced_g:
                ok = False
                break
        assert not ok


def test_coherence_failures_flags_flipped_sign():
    oc = orient(build_complex(TETRA))
    from spheremap import OrientedComplex

    bad = OrientedComplex(oc.base, (-oc.signs[0],) + oc.signs[1:])
    assert set(coherence_failures(bad)) == {(1, 2), (1, 3), (2, 3)}


def test_coherence_failures_flags_overloaded_ridges():
    # a coherent 4-cycle plus the chord (1, 2): vertices 1 and 2 lie in three edges
    square = orient(build_complex([(1, 3), (2, 3), (2, 4), (1, 4)]))
    from spheremap import OrientedComplex

    theta = OrientedComplex.from_pairs(1, [*zip(square.facets, square.signs), ((1, 2), 1)])
    assert coherence_failures(theta) == ((1,), (2,))


def test_sign_of_unknown_facet():
    with pytest.raises(FacetNotFound):
        orient(build_complex(TETRA)).sign_of((1, 2, 5))


def test_euler_boundary_tetrahedron():
    assert euler_characteristic(build_complex(TETRA)) == 2


def test_euler_cycles():
    for v in (3, 4, 6, 9):
        assert euler_characteristic(cycle(v)) == 0


def test_euler_torus():
    assert euler_characteristic(build_complex(TORUS)) == 0


def test_euler_projective_plane():
    assert euler_characteristic(build_complex(RP2)) == 1


def test_euler_ten_vertex_witness_face_count_oracle():
    K = degree_four_witness().labeled.complex
    faces = [set() for _ in range(4)]
    for f in K.facets:
        for k in range(1, 5):
            faces[k - 1].update(combinations(f, k))
    chi = sum((-1) ** k * len(level) for k, level in enumerate(faces))
    assert chi == 0
    assert euler_characteristic(K) == chi


def test_link_in_boundary_tetrahedron():
    link = vertex_link(build_complex(TETRA), 1)
    assert link.dimension == 1
    assert link.facets == ((2, 3), (2, 4), (3, 4))


def test_link_of_witness_subdivision_vertex():
    # vertex 10 subdivided the facet (1,2,3,4), so its link is the full
    # boundary tetrahedron on those vertices
    K = degree_four_witness().labeled.complex
    link = vertex_link(K, 10)
    assert link.facets == tuple(sorted(TETRA))


def test_link_in_hexagon():
    link = vertex_link(cycle(6), 2)
    assert link.dimension == 0
    assert link.facets == ((1,), (3,))


def test_link_guards():
    with pytest.raises(UnknownVertex):
        vertex_link(build_complex(TETRA), 9)
    with pytest.raises(InvalidDimension):
        vertex_link(build_complex([(1,), (2,)]), 1)
    # True and 1.0 equal 1 and hash alike, so they would find vertex 1
    for v in (True, 1.0, "a"):
        with pytest.raises(UnknownVertex):
            vertex_link(build_complex([(1, 2), (2, 3), (1, 3)]), v)


def test_is_sphere_boundary_tetrahedron():
    verdict = is_sphere(build_complex(TETRA))
    assert verdict.status is SphereStatus.SPHERE
    assert all(ok for _, ok in verdict.checks)


def test_is_sphere_hexagon():
    assert is_sphere(cycle(6)).status is SphereStatus.SPHERE


def test_is_sphere_witness_necessary_only():
    verdict = is_sphere(degree_four_witness().labeled.complex)
    assert verdict.status is SphereStatus.NECESSARY_CONDITIONS_ONLY
    assert all(ok for _, ok in verdict.checks)


def test_is_sphere_rejects_projective_plane():
    verdict = is_sphere(build_complex(RP2))
    assert verdict.status is SphereStatus.NOT_SPHERE
    assert dict(verdict.checks)["orientable"] is False


def test_is_sphere_rejects_torus_by_euler():
    verdict = is_sphere(build_complex(TORUS))
    assert verdict.status is SphereStatus.NOT_SPHERE
    checks = dict(verdict.checks)
    assert checks["orientable"] and checks["vertex_links"]
    assert checks["euler_characteristic"] is False


def test_is_sphere_rejects_open_and_disconnected():
    assert is_sphere(build_complex([(1, 2, 3)])).status is SphereStatus.NOT_SPHERE
    two = build_complex([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    verdict = is_sphere(two)
    assert verdict.status is SphereStatus.NOT_SPHERE
    assert dict(verdict.checks)["connected"] is False


def suspension(facets):
    """Two-point suspension: every facet joined with each of two new apexes."""
    top = max(v for f in facets for v in f)
    return [tuple(f) + (apex,) for f in facets for apex in (top + 1, top + 2)]


def band(x, y):
    """Triangulated annulus between the 3-cycles x and y."""
    return [
        f
        for i, j in ((0, 1), (1, 2), (2, 0))
        for f in ((x[i], x[j], y[i]), (x[j], y[i], y[j]))
    ]


# a 2-sphere (two cones on a triangulated cylinder) with both cone points
# made one vertex 1, whose link is two disjoint triangles
PINCHED_SPHERE = (
    [(1, 2, 3), (1, 3, 4), (1, 2, 4)]
    + band((2, 3, 4), (5, 6, 7))
    + band((5, 6, 7), (8, 9, 10))
    + [(1, 8, 9), (1, 9, 10), (1, 8, 10)]
)


def twisted_sphere_bundle():
    """Three layers of (boundary tetrahedron) x interval, the last glued to
    the first by a reflection: a non-orientable closed 3-manifold with
    Euler characteristic 0 whose vertex links are all 2-spheres."""
    flip = {0: 1, 1: 0, 2: 2, 3: 3}

    def vid(v, t):
        return 4 * (t % 3) + (flip[v] if t == 3 else v) + 1

    facets = []
    for t in range(3):
        for face in combinations(range(4), 3):
            a, b, c = (vid(v, t) for v in face)
            A, B, C = (vid(v, t + 1) for v in face)
            facets += [(a, b, c, C), (a, b, B, C), (a, A, B, C)]
    return facets


def pinched_three_sphere():
    """A 3-sphere with two of its empty triangles (three edges bounding no
    face) merged into one.  The sphere is the connected sum of two copies of
    the join of a triangle's boundary with a 4-cycle, each grown away from
    its triangle by stellar subdivisions; the copies are glued along the
    facet at the end of that chain, so the triangles lie 4 edges apart.  A
    merged vertex's link is two 2-spheres meeting in two points, whose
    Euler characteristic is a sphere's but whose star walk stops in one of
    them; a merged edge's link is two disjoint circles.  Orientable, with
    Euler characteristic 0, so of the checks only vertex_links fails."""
    triangle, square = ((1, 2), (2, 3), (1, 3)), ((4, 5), (5, 6), (6, 7), (4, 7))
    K = build_complex([a + b for a in triangle for b in square])
    for facet in (
        (1, 2, 4, 5), (1, 4, 5, 8), (4, 5, 8, 9), (4, 5, 8, 10), (4, 5, 10, 11), (4, 10, 11, 12)
    ):
        K = stellar_subdivide_facet(K, facet)
    glued = (10, 11, 12, 13)
    top = max(K.vertices)
    # the copy keeps the glued facet's ids and the triangle's, 1, 2 and 3
    copy = {v: v if v in glued or v <= 3 else v + top for v in K.vertices}
    return [f for f in K.facets if f != glued] + [
        tuple(copy[v] for v in f) for f in K.facets if f != glued
    ]


def test_is_sphere_verdict_cached_per_complex():
    K = build_complex(TETRA)
    assert is_sphere(K) is is_sphere(K)


def test_is_sphere_matches_oracle_on_enumerated_classes():
    for v in range(4, 11):
        for K in enumerate_spheres(2, v):
            assert is_sphere(K) == recursive_is_sphere(K)


@pytest.mark.parametrize("n", range(1, 6))
def test_is_sphere_matches_oracle_on_constructions(n):
    for K in [boundary_simplex(n).labeled.complex] + [
        construct(n, d).labeled.complex for d in (1, 3, 5)
    ]:
        assert is_sphere(K) == recursive_is_sphere(K)
        assert is_sphere(K).passed


def relabeled_copy(K, rng):
    """K under a random injection of its vertices into 1..99."""
    m = dict(zip(K.vertices, rng.sample(range(1, 100), len(K.vertices))))
    return build_complex([tuple(m[v] for v in f) for f in K.facets])


NON_SPHERES = {
    "torus": TORUS,
    "rp2": RP2,
    "suspended_torus": suspension(TORUS),
    "suspended_rp2": suspension(RP2),
    "double_suspended_rp2": suspension(suspension(RP2)),
    "open_triangle": [(1, 2, 3)],
    "two_circles": [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)],
    # of the link checks, only connectivity fails
    "pinched_sphere": PINCHED_SPHERE,
    # of the link checks, only orientability fails (at the apexes)
    "twisted_sphere_bundle": twisted_sphere_bundle(),
    "suspended_twisted_sphere_bundle": suspension(twisted_sphere_bundle()),
    # orientable, so the links are walked for reachability alone; the apex
    # links are 3-dimensional suspended tori, whose chi of 2 is no sphere's
    # but is no longer counted, and the apex edges' torus links fail the count
    "double_suspended_torus": suspension(suspension(TORUS)),
    # the pinch and an apex span an edge whose link is two disjoint triangles
    "suspended_pinched_sphere": suspension(PINCHED_SPHERE),
    # of all the checks only vertex_links fails, and only in the star walks
    "pinched_three_sphere": pinched_three_sphere(),
    # apexes among the other ids, so the faces sigma whose links fail to be
    # orientable sit inside their facets rather than at their ends
    "relabeled_double_suspended_twisted_sphere_bundle": relabeled_copy(
        build_complex(suspension(suspension(twisted_sphere_bundle()))), random.Random(13)
    ).facets,
    "three_points": [(1,), (2,), (3,)],
}


@pytest.mark.parametrize("name", sorted(NON_SPHERES))
def test_is_sphere_matches_oracle_on_non_spheres(name):
    K = build_complex(NON_SPHERES[name])
    assert is_sphere(K) == recursive_is_sphere(K)
    assert is_sphere(K).status is SphereStatus.NOT_SPHERE


def test_relabeled_bundle_fails_only_at_orientability():
    K = build_complex(NON_SPHERES["relabeled_double_suspended_twisted_sphere_bundle"])
    assert (len(K.facets), K.dimension) == (144, 5)
    apexes = [v for v in K.vertices if len(K.facets_at[v]) == len(K.facets) // 2]
    assert len(apexes) == 4 and apexes != list(K.vertices[-4:])
    failed = [name for name, ok in is_sphere(K).checks if not ok]
    assert failed == ["orientable", "vertex_links"]


@pytest.mark.parametrize("name", ["double_suspended_torus", "suspended_pinched_sphere"])
def test_orientable_non_spheres_fail_at_the_links(name):
    checks = dict(is_sphere(build_complex(NON_SPHERES[name])).checks)
    assert checks["orientable"] is True and checks["vertex_links"] is False


def test_pinched_three_sphere_fails_only_at_the_link_walks():
    K = build_complex(NON_SPHERES["pinched_three_sphere"])
    assert [name for name, ok in is_sphere(K).checks if not ok] == ["vertex_links"]
    assert complexes._links_have_sphere_chi(complexes._faces(K), K.dimension)
    assert not complexes._star_walks(K, range(1, K.dimension), False)[0]


def lemma_corpus():
    """Complexes the two shortcuts of the one-pass verdict are checked on:
    the enumerated 2-sphere classes to 9 vertices, constructions to
    dimension 6, and the closed non-spheres."""
    yield from (K for v in range(4, 10) for K in enumerate_spheres(2, v))
    yield from (construct(n, d).labeled.complex for n in range(1, 7) for d in (1, 3, 5))
    for facets in NON_SPHERES.values():
        K = build_complex(facets)
        if check_closed_pseudomanifold(K).passed:
            yield K


def test_parity_skipped_chi_count_matches_counting_every_link():
    # Klee: an odd-dimensional link whose face links have a sphere's chi has chi 0
    results = [
        complexes._links_have_sphere_chi(complexes._faces(K), K.dimension)
        == links_have_sphere_chi(K)
        for K in lemma_corpus()
    ]
    assert len(results) == 73 + 18 + 12 and all(results)


def test_signed_and_unsigned_link_walks_agree_on_orientable_complexes():
    # K's coherent signs satisfy every link's flips, so reachability decides
    verdicts = [
        complexes._star_walks(K, range(1, K.dimension), True)[0]
        == complexes._star_walks(K, range(1, K.dimension), False)[0]
        for K in lemma_corpus()
        if dict(is_sphere(K).checks)["orientable"]
    ]
    assert len(verdicts) > 0 and all(verdicts)


def shelling_corpus():
    """Spheres the greedy shelling is checked on, each under a seeded
    relabeling, so that its facets come in another order: the 0-sphere,
    construct(n, d) for n = 1..6 and both signs of d, and the 2-sphere
    classes to 9 vertices."""
    rng = random.Random(26)
    yield build_complex([(1,), (2,)])
    for n in range(1, 7):
        for d in (1, -1, 2, -3, 5, -8, 13):
            yield relabeled_copy(construct(n, d).labeled.complex, rng)
    for v in range(4, 10):
        for K in enumerate_spheres(2, v):
            yield relabeled_copy(K, rng)


def closed_non_spheres(copies: int):
    """Each closed entry of NON_SPHERES, then ``copies`` seeded relabelings of it."""
    rng = random.Random(27)
    for facets in NON_SPHERES.values():
        K = build_complex(facets)
        if check_closed_pseudomanifold(K).passed:
            yield K
            yield from (relabeled_copy(K, rng) for _ in range(copies))


def test_every_shelling_found_is_one_by_the_definition():
    orders = [(K, complexes._shelling(K)) for K in shelling_corpus()]
    assert len(orders) == 1 + 42 + 73
    assert all(order is not None and is_shelling(K, order) for K, order in orders)


def test_no_closed_non_sphere_is_shelled():
    # a shellable closed pseudomanifold is a PL sphere (Danaraj & Klee)
    found = [K.facets for K in closed_non_spheres(4) if complexes._shelling(K) is not None]
    assert found == []


def test_shelling_orders_are_pinned():
    # one SHA-256 over the order _shelling gives, or None where it gets
    # stuck, recorded when it tested S on every facet popped after the first
    corpus = [
        *shelling_corpus(),
        *(construct(n, d).labeled.complex for n, d in ((7, 1), (7, -2), (7, 3), (4, 40), (2, -300))),
        *closed_non_spheres(2),
    ]
    orders = [complexes._shelling(K) for K in corpus]
    assert (len(orders), orders.count(None)) == (157, 36)
    digest = hashlib.sha256(repr(orders).encode()).hexdigest()
    assert digest == "b588563accf2595f04a38ea9ff0b801efaf8cbbc01b58abd7f99e4e484ca780e"


def test_the_shelling_gives_the_verdict_of_the_battery(monkeypatch):
    corpus = list(shelling_corpus()) + list(closed_non_spheres(0))
    verdicts = [complexes._sphere_verdict(K) for K in corpus]
    monkeypatch.setattr(complexes, "_shelling", lambda K: None)
    battery = [complexes._sphere_verdict(build_complex(K.facets)) for K in corpus]
    assert verdicts == battery


def non_orientable_corpus():
    """The closed non-orientable complexes of the test corpora: the closed
    entries of NON_SPHERES that do not orient, with seeded relabelings that
    list their facets in other orders, and the Klein bottles of the
    twisted grids, each with relabelings too."""
    rng = random.Random(29)
    complexes = [build_complex(twisted_grid(m, k)) for m, k in ((3, 3), (4, 3), (3, 4), (5, 5))]
    complexes += [relabeled_copy(K, rng) for K in complexes for _ in range(3)]
    complexes += list(closed_non_spheres(3))
    for K in complexes:
        try:
            bfs_orient(K)
        except NonOrientable:
            yield K


def test_non_orientable_messages_match_the_reference_walk():
    # the walk orient reports names the conflict bfs_orient meets, with each
    # facet's neighbours in the order the facets first hold their ridges
    messages = []
    for K in non_orientable_corpus():
        pair = []
        for orientation in (orient, bfs_orient):
            with pytest.raises(NonOrientable, match="conflicting signs at facet") as e:
                orientation(K)
            pair.append(str(e.value))
        messages.append(pair)
    assert len(messages) == 16 + 6 * 4 and all(a == b for a, b in messages)


def test_the_ridge_map_matches_the_ridge_entries():
    # every facet's row names, at each ridge, the facets ridge_entries gives
    # and the flip of their positions; a ridge in other than two facets
    # leads on to the next facet holding it, cyclically
    corpus = list(lemma_corpus()) + [build_complex(f) for f in NON_SPHERES.values()]
    for K in corpus + [build_complex([(1,), (2,)]), build_complex([(1,), (2,), (3,)])]:
        index = {f: i for i, f in enumerate(K.facets)}
        expected = [[] for _ in K.facets]
        for entries in K.ridge_entries.values():
            for (f, p), (g, q) in zip(entries, entries[1:] + entries[:1]):
                flip = 1 if (p + q) % 2 else -1
                expected[index[f]].append((p, (index[g], flip, f[p])))
        rows = [tuple(e for _, e in sorted(es, reverse=True)) for es in expected]
        assert K._ridges.rows == rows
        assert K._ridges.closed == all(len(es) == 2 for es in K.ridge_entries.values())


def test_a_shelled_sphere_builds_no_face_lattice(monkeypatch):
    def refuse(K):
        raise AssertionError("the face lattice was built")

    monkeypatch.setattr(complexes, "_faces", refuse)
    for n in (2, 3, 8):
        K = build_complex(construct(n, 2 * n).labeled.complex.facets)
        verdict = complexes._sphere_verdict(K)
        assert verdict.passed and all(ok for _, ok in verdict.checks)
    with pytest.raises(AssertionError, match="face lattice"):
        complexes._sphere_verdict(build_complex(TORUS))  # no shelling: the battery decides


def test_is_sphere_walks_the_whole_complex_once_and_every_link_size_once(monkeypatch):
    # one ridge map; one walk for closedness and orientation, one for the
    # links of every face size, also when K is not orientable and its link
    # walks are signed.  Only orient names the conflict, with a second walk
    K = build_complex(NON_SPHERES["relabeled_double_suspended_twisted_sphere_bundle"])
    calls, mapped = [], []
    original, ridge_map = complexes._star_walks, complexes._ridge_map

    def counting(complex, sizes, signed, rows=None):
        calls.append((tuple(sizes), signed, rows is None))
        return original(complex, sizes, signed, rows)

    monkeypatch.setattr(complexes, "_star_walks", counting)
    monkeypatch.setattr(complexes, "_ridge_map", lambda c: mapped.append(c) or ridge_map(c))
    assert not is_sphere(K).passed
    assert calls == [((0,), True, True), ((1, 2, 3, 4), True, True)]
    assert mapped == [K]
    with pytest.raises(NonOrientable):
        orient(K)
    assert calls[2:] == [((0,), True, False)] and mapped == [K]


def test_is_sphere_matches_oracle_on_the_zero_sphere():
    K = build_complex([(1,), (2,)])
    assert is_sphere(K) == recursive_is_sphere(K)
    assert is_sphere(K).status is SphereStatus.SPHERE


def test_is_sphere_builds_no_complex_but_its_own(monkeypatch):
    # the links are walked and counted inside K's own facet graph and faces
    K = build_complex(construct(4, 6).labeled.complex.facets)
    built = []
    original = Complex.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Complex, "__init__", counting)
    assert is_sphere(K).passed
    assert built == []


def test_subdivide_facet_counts():
    K = stellar_subdivide_facet(build_complex(TETRA), (1, 2, 3))
    assert len(K.facets) == 6 and len(K.vertices) == 5
    assert (1, 2, 3) not in K.facet_set
    assert is_sphere(K).status is SphereStatus.SPHERE


def test_subdivide_hexagon_edge():
    K = stellar_subdivide_facet(cycle(6), (1, 2))
    assert len(K.facets) == 7 and len(K.vertices) == 7
    assert (1, 7) in K.facet_set and (2, 7) in K.facet_set


def test_subdivide_boundary_four_simplex_lists_new_facets():
    K = build_complex(combinations(range(1, 6), 4))
    out = stellar_subdivide_facet(K, (1, 2, 3, 4), new_vertex=10)
    for dropped in (1, 2, 3, 4):
        sub = tuple(sorted({1, 2, 3, 4, 10} - {dropped}))
        assert sub in out.facet_set
    assert (1, 2, 3, 4) not in out.facet_set


def test_subdivide_guards():
    K = build_complex(TETRA)
    with pytest.raises(FacetNotFound):
        stellar_subdivide_facet(K, (1, 2, 9))
    with pytest.raises(VertexAlreadyPresent):
        stellar_subdivide_facet(K, (1, 2, 3), new_vertex=4)
    # checked before sorting, where ("a", 1) and 5 raised a bare TypeError
    triangle = build_complex([(1, 2), (2, 3), (1, 3)])
    for facet in (("a", 1), 5, (1, True), None):
        with pytest.raises(FacetNotFound):
            stellar_subdivide_facet(triangle, facet)
        with pytest.raises(FacetNotFound):
            stellar_subdivide_oriented(orient(triangle), facet)


@pytest.mark.parametrize("new_vertex", [2.5, True, "a"])
def test_subdivide_rejects_a_new_vertex_that_is_not_an_int(new_vertex):
    K = build_complex(TETRA)
    with pytest.raises(ValidationError):
        stellar_subdivide_facet(K, (1, 2, 3), new_vertex=new_vertex)
    with pytest.raises(ValidationError):
        stellar_subdivide_oriented(orient(K), (1, 2, 3), new_vertex=new_vertex)


def test_subdivide_oriented_stays_coherent():
    oc = orient(build_complex(TETRA))
    out, w = stellar_subdivide_oriented(oc, (1, 2, 3))
    assert w == 5
    assert coherence_failures(out) == ()
    # repeated subdivision stays coherent too
    out2, _ = stellar_subdivide_oriented(out, (1, 2, 5))
    assert coherence_failures(out2) == ()


def test_subdivide_oriented_keeps_untouched_signs():
    oc = orient(build_complex(TETRA))
    out, _ = stellar_subdivide_oriented(oc, (1, 2, 3))
    assert out.sign_of((2, 3, 4)) == oc.sign_of((2, 3, 4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subdivide_oriented_with_any_fresh_vertex(n):
    # boundary of the (n+1)-simplex on even ids, so a fresh id can fall below,
    # between or above the vertices of the subdivided facet (2, 4, ..., 2n+2)
    oc = orient(build_complex(combinations(range(2, 2 * n + 6, 2), n + 1)))
    facet = oc.facets[0]
    for w in (1, 3, 2 * n + 1, 2 * n + 3, 99):
        out, got = stellar_subdivide_oriented(oc, facet, new_vertex=w)
        assert got == w and len(out.facets) == len(oc.facets) + n
        assert coherence_failures(out) == ()


def sorting_stellar_pairs(facet, sign, w):
    """The rule _stellar_pairs replaced: sort each substituted facet and
    count its inversions."""
    subs = [facet[:i] + (w,) + facet[i + 1:] for i in range(len(facet))]
    return [(tuple(sorted(sub)), sign * parity_to_sorted(sub)) for sub in subs]


def test_stellar_pairs_match_sorting_oracle():
    rng = random.Random(16)
    for _ in range(400):
        size = rng.randint(2, 13)
        facet = tuple(sorted(rng.sample(range(0, 60, 2), size)))
        # odd ids never meet the even facet: below, between and above it
        for w in (-1, facet[0] + 1, rng.randrange(facet[0] + 1, facet[-1], 2), facet[-1] + 1, 99):
            for sign in (1, -1):
                assert _stellar_pairs(facet, sign, w) == sorting_stellar_pairs(facet, sign, w)


def test_stellar_pairs_callers_pass_sorted_facets(monkeypatch):
    seen = []

    def checked(facet, sign, w):
        assert list(facet) == sorted(facet) and w not in facet
        seen.append(facet)
        return _stellar_pairs(facet, sign, w)

    monkeypatch.setattr(complexes, "_stellar_pairs", checked)
    monkeypatch.setattr(constructions, "_stellar_pairs", checked)
    stellar_subdivide_facet(build_complex(TETRA), (3, 1, 2), new_vertex=0)
    stellar_subdivide_oriented(orient(build_complex(TETRA)), (4, 2, 1), new_vertex=9)
    assert seen == [(1, 2, 3), (1, 2, 4)]
    degree_four_witness()
    assert len(seen) == 2 + 5
    # construct(2, 3) and the step make one insertion each, of 1 + (n + 1) calls
    insertion_step(construct(2, 3), (8, 2, 1))
    assert len(seen) == 2 + 5 + 4 + 4
    construct(3, 7)
    assert len(seen) > 2 + 5 + 4 + 4
    # the substituted order is what the stored sign is read along
    oc = orient(build_complex(TETRA))
    out, _ = stellar_subdivide_oriented(oc, (1, 2, 3), new_vertex=0)
    assert out.sign_of((0, 2, 3)) == oc.sign_of((1, 2, 3))
    assert out.sign_of((0, 1, 3)) == -oc.sign_of((1, 2, 3))


def test_canonical_hexagon_relabeling_invariance():
    a = cycle(6)
    b = build_complex([(10, 20), (20, 30), (30, 40), (40, 50), (50, 60), (10, 60)])
    assert canonical_form(a).key == canonical_form(b).key


def test_canonical_separates_six_vertex_spheres():
    octa = build_complex(OCTAHEDRON)
    stacked = stacked_six()
    assert canonical_form(octa).key != canonical_form(stacked).key


def test_six_vertex_spheres_nonisomorphic_by_exhaustion():
    # oracle for the distinct-keys test: no bijection of {1..6} carries one
    # facet set onto the other
    from itertools import permutations

    octa = frozenset(build_complex(OCTAHEDRON).facets)
    stacked = frozenset(stacked_six().facets)
    verts = sorted({v for f in octa for v in f})
    targets = sorted({v for f in stacked for v in f})
    for perm in permutations(targets):
        m = dict(zip(verts, perm))
        if {tuple(sorted(m[v] for v in f)) for f in octa} == stacked:
            raise AssertionError("unexpected isomorphism")


def test_canonical_separates_dimensions():
    assert canonical_form(build_complex(TETRA)).key != canonical_form(cycle(4)).key


def test_canonical_random_relabeling_property():
    rng = random.Random(20240817)
    base = stacked_six()
    for _ in range(30):
        ids = rng.sample(range(1, 100), len(base.vertices))
        m = dict(zip(base.vertices, ids))
        relabeled = build_complex(
            [tuple(m[v] for v in f) for f in base.facets]
        )
        cf = canonical_form(relabeled)
        assert cf.key == canonical_form(base).key
        # the returned relabeling actually realizes the canonical complex
        image = build_complex(
            [tuple(cf.relabeling[v] for v in f) for f in relabeled.facets]
        )
        assert image.facets == cf.canonical.facets


def test_canonical_form_idempotent():
    cf = canonical_form(build_complex(OCTAHEDRON))
    again = canonical_form(cf.canonical)
    assert again.key == cf.key
    assert again.canonical.facets == cf.canonical.facets


def canonical_oracle_corpus():
    rng = random.Random(1998)
    spheres = [K for v in range(4, 11) for K in enumerate_spheres(2, v)]
    assert len(spheres) == 306
    yield from (relabeled_copy(K, rng) for K in spheres for _ in range(2))
    yield from (boundary_simplex(n).labeled.complex for n in range(1, 6))
    for n in (2, 3, 4):
        for d in (-3, 0, 2, 5):
            yield relabeled_copy(construct(n, d).labeled.complex, rng)
    for facets in (TORUS, RP2, OCTAHEDRON):
        K = build_complex(facets)
        yield from (K, relabeled_copy(K, rng))
    # a facet's other vertices form a pair only on a 2-sphere; these take
    # the weight-sum codes, in dimensions 0 and 4
    yield build_complex([(1,), (2,)])
    yield relabeled_copy(boundary_simplex(4).labeled.complex, rng)
    yield from (construct(4, d).labeled.complex for d in (3, -5))
    # refinement runs through many rounds over many non-singleton cells:
    # the bipyramid over an 8-cycle (group order 32) and the join of two
    # 5-cycles (order 200)
    c8, c5 = cycle(8).facets, cycle(5).facets
    yield relabeled_copy(build_complex(suspension(c8)), rng)
    yield relabeled_copy(build_complex([f + tuple(v + 5 for v in g) for f in c5 for g in c5]), rng)
    # refinement starts from the degree cells: one cell on the icosahedron
    # and on the cyclic 3-sphere, a discrete partition on the last
    for facets in (ICOSAHEDRON, CYCLIC_8_4, DISTINCT_DEGREES):
        yield relabeled_copy(build_complex(facets), rng)


def test_canonical_oracle_corpus_generators_pinned():
    # the oracle comparison leaves out which generators are recorded: one
    # SHA-256 over key, relabeling and generators of every corpus complex,
    # dimensions 0 to 5, recorded with the canonical_form whose root was one
    # cell that a first round split by degree
    digest, count = hashlib.sha256(), 0
    for K in canonical_oracle_corpus():
        cf = canonical_form(K)
        digest.update(repr((cf.key, sorted(cf.relabeling.items()), cf.automorphisms)).encode())
        count += 1
    assert count == 644
    assert digest.hexdigest() == (
        "3170cd9d61a583f9e115b40bdfdac329373260dce50b5bacba2d659d0c87af8f"
    )


def test_canonical_form_matches_unpruned_oracle():
    # pruning skips only repeated leaves: key, relabeling and canonical
    # complex are exactly those of the search over every leaf, and the
    # automorphisms recorded generate the whole group the oracle lists
    for K in canonical_oracle_corpus():
        cf, full = canonical_form(K), full_canonical_form(K)
        assert cf == full, K.facets
        assert group_order(cf.canonical, cf.automorphisms) == len(full.automorphisms) + 1


def test_color_weight_sums_order_multisets_as_sorted_tuples():
    # combinations_with_replacement lists the sorted n-tuples of colors
    # below nv in lexicographic order, so their weight sums must increase
    for n in range(1, 6):
        for nv in range(1, 8):
            weight = _color_weights(n, nv)
            sums = [sum(weight[c] for c in t) for t in combinations_with_replacement(range(nv), n)]
            assert all(a < b for a, b in zip(sums, sums[1:])), (n, nv)


def test_canonical_form_automorphisms_against_brute_force():
    # every permutation of the vertices that maps facets onto facets
    def preserves_facets(g, K):
        return {tuple(sorted(g[x] for x in f)) for f in K.facets} == K.facet_set

    for K, order in ((build_complex(OCTAHEDRON), 48), (boundary_simplex(3).labeled.complex, 120)):
        K = relabeled_copy(K, random.Random(order))
        images = (dict(zip(K.vertices, p)) for p in permutations(K.vertices))
        assert sum(preserves_facets(g, K) for g in images) == order
        cf = canonical_form(K)
        for g in cf.automorphisms:
            assert sorted(g) == sorted(g.values()) == list(cf.canonical.vertices)
            assert preserves_facets(g, cf.canonical)
        assert group_order(cf.canonical, cf.automorphisms) == order


def relabeled(K, ids):
    """K with its i-th vertex renamed ids[i]."""
    m = dict(zip(K.vertices, ids))
    return build_complex([tuple(m[v] for v in f) for f in K.facets])


# the complexes the enumeration may hand to canonical_form: every split
# child of every class up to 9 vertices, from the oracle splitter, which
# drops none by rank
SPLIT_CHILDREN = [
    _rotation_complex(child)
    for v in range(5, 10)
    for parent in _sphere_classes(v - 1)
    for child in all_vertex_splits(parent.canonical)
]
SMALL_CONSTRUCTS = [construct(n, d).labeled.complex for n in (1, 2, 3) for d in range(-5, 6)]


def test_split_children_generators_pinned():
    # equality of canonical forms leaves the automorphisms out, but they decide
    # which splits _vertex_splits yields: one SHA-256 over key, relabeling and
    # generators of every split child up to 9 vertices, recorded with the
    # canonical_form in use before _vertex_splits ranked each split
    digest = hashlib.sha256()
    for K in SPLIT_CHILDREN:
        cf = canonical_form(K)
        digest.update(repr((cf.key, sorted(cf.relabeling.items()), cf.automorphisms)).encode())
    assert len(SPLIT_CHILDREN) == 1328
    assert digest.hexdigest() == (
        "a32fbe65a51407d33a6d04f29bf2bac3c40b6245617ea85ad137cd62360fdcb9"
    )


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    K=st.sampled_from(SPLIT_CHILDREN) | st.sampled_from(SMALL_CONSTRUCTS),
    data=st.data(),
)
def test_canonical_form_matches_unpruned_oracle_when_relabeled(K, data):
    size = len(K.vertices)
    ids = data.draw(st.lists(st.integers(1, 200), min_size=size, max_size=size, unique=True))
    copy = relabeled(K, ids)
    assert canonical_form(copy) == full_canonical_form(copy)


def test_canonical_form_leaves_no_cyclic_garbage():
    # the search state is freed by reference counting alone
    rng = random.Random(5)
    for K in (relabeled_copy(boundary_simplex(4).labeled.complex, rng), build_complex(OCTAHEDRON)):
        gc.collect()
        gc.disable()
        try:
            cf = canonical_form(K)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert cf == full_canonical_form(K)


def test_canonical_form_of_boundary_seven_simplex():
    # 8! leaves without pruning; the oracle cannot finish this in a test run
    K = boundary_simplex(6).labeled.complex
    copy = relabeled_copy(K, random.Random(7))
    cf = canonical_form(copy)
    assert cf.key == canonical_form(K).key
    assert cf.canonical == K
    image = build_complex([tuple(cf.relabeling[v] for v in f) for f in copy.facets])
    assert image == K


def test_parity_to_sorted():
    assert parity_to_sorted([1, 2, 3]) == 1
    assert parity_to_sorted([2, 1, 3]) == -1
    assert parity_to_sorted([3, 1, 2]) == 1
    assert parity_to_sorted([4, 3, 2, 1]) == 1
