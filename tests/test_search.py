import hashlib
import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spheremap.search
from spheremap.search import (
    _canonical_child,
    _kept_children,
    _rotation,
    _rotation_complex,
    _search_labelings,
    _search_plan,
    _sphere_classes,
    _vertex_splits,
)
from canonical_oracle import group_order
from labeling_oracle import search_labelings
from planar_code_oracle import new_edge_is_canonical, planar_code
from search_oracle import key_order_search
from split_oracle import all_vertex_splits, orient_rotation
from spheremap import (
    BudgetExceeded,
    Complex,
    InvalidDimension,
    MAX_CIRCLE_VERTICES,
    MAX_SPLIT_VERTICES,
    SphereStatus,
    SpheremapError,
    UnsupportedDimension,
    ValidationError,
    build_complex,
    canonical_form,
    construct,
    degree,
    enumerate_spheres,
    exists_labeling,
    is_sphere,
    known_lambda,
    labeled_sphere,
    lambda_search,
    lambda_table,
    orient,
    serialize,
)

OCTAHEDRON = build_complex([
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5),
    (6, 2, 3), (6, 3, 4), (6, 4, 5), (6, 2, 5),
])


def brute_force_degrees(K):
    """Set of degrees over every coloring, by direct engine evaluation."""
    oc = orient(K)
    verts = K.vertices
    ncolors = K.dimension + 2
    out = set()
    for colors in product(range(1, ncolors + 1), repeat=len(verts)):
        ls = labeled_sphere(oc, dict(zip(verts, colors)))
        out.add(degree(ls).degree)
    return out


def test_enumerate_four_vertices_single_class():
    classes = list(enumerate_spheres(2, 4))
    assert len(classes) == 1
    assert len(classes[0].facets) == 4


def test_enumerate_circle_single_class():
    classes = list(enumerate_spheres(1, 7))
    assert len(classes) == 1
    assert len(classes[0].facets) == 7


def test_enumerate_class_counts():
    expected = {5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233}
    for v, count in expected.items():
        assert len(list(enumerate_spheres(2, v))) == count


def test_enumerate_guards():
    with pytest.raises(UnsupportedDimension):
        list(enumerate_spheres(3, 6))
    with pytest.raises(InvalidDimension):
        list(enumerate_spheres(2, 3))
    with pytest.raises(BudgetExceeded):
        list(enumerate_spheres(2, MAX_SPLIT_VERTICES + 1))


def test_enumerate_guards_raise_when_called():
    # the arguments are checked at the call, not at the first next()
    for n, v, error in (
        (2, 100, BudgetExceeded),
        (2, MAX_SPLIT_VERTICES + 1, BudgetExceeded),
        (1, MAX_CIRCLE_VERTICES + 1, BudgetExceeded),
        (7, 5, UnsupportedDimension),
        (2, 3, InvalidDimension),
        (2, 4.0, ValidationError),
    ):
        with pytest.raises(error):
            enumerate_spheres(n, v)


def test_circle_enumeration_is_capped():
    # as lambda_search caps v_max for circles, before any cycle is built
    assert len(next(enumerate_spheres(1, MAX_CIRCLE_VERTICES)).facets) == MAX_CIRCLE_VERTICES
    for v in (MAX_CIRCLE_VERTICES + 1, 10**6, 10**5000):
        with pytest.raises(BudgetExceeded, match="^circle enumeration is capped at 99 vertices$"):
            next(enumerate_spheres(1, v))


def test_enumerate_soundness_and_canonical_ids():
    for v in range(4, 11):
        for K in enumerate_spheres(2, v):
            assert K.vertices == tuple(range(1, v + 1))
            assert is_sphere(K).status is SphereStatus.SPHERE


def test_enumerated_classes_are_pinned():
    # representatives and class order, byte for byte
    facets = [K.facets for v in range(4, 11) for K in enumerate_spheres(2, v)]
    assert len(facets) == 306
    assert hashlib.sha256(repr(facets).encode()).hexdigest() == (
        "a43504f42023e81d1a5ca16360ed4a5ff04656ac1e339a24d96f7e8d395a6083"
    )


def accepted_key(child):
    """The canonical key of a child kept by the canonical-edge rule, or
    None."""
    kept = _canonical_child(child)
    if kept is None:
        return None
    K, cf = kept
    return (canonical_form(K) if cf is None else cf).key


def normalized(rotation):
    """Each cycle started at its smallest entry, as ``_rotation`` starts it."""
    out = {}
    for x, cycle in rotation.items():
        p = cycle.index(min(cycle))
        out[x] = cycle[p:] + cycle[:p]
    return out


def test_split_keys_partition_children_like_canonical_form():
    for v in range(5, 11):
        kept = set()
        for parent in _sphere_classes(v - 1):
            for child in _vertex_splits(parent.canonical):
                K = _rotation_complex(child)
                assert len(K.facets) == 2 * v - 4 and K.vertices == tuple(range(1, v + 1))
                if v < 10:  # the rotation derived from the parent's is the child's own
                    mirror = {x: cycle[::-1] for x, cycle in child.items()}
                    assert _rotation(K) in (normalized(child), normalized(mirror))
                key = accepted_key(child)
                if key is not None:
                    assert key == canonical_form(K).key
                    kept.add(key)
        # every class is kept at least once
        assert kept == {canonical_form(cf.canonical).key for cf in _sphere_classes(v)}


def split_children_of(rotation):
    """The rotation relabeled as a split child at each directed edge z -> x:
    x becomes the largest id, with z closing its cycle."""
    top = max(rotation)
    for x, cycle in rotation.items():
        for z in cycle:
            swap = {x: top, top: x}
            child = {
                swap.get(y, y): tuple(swap.get(w, w) for w in c) for y, c in rotation.items()
            }
            c = child[top]
            p = c.index(swap.get(z, z))
            child[top] = c[p + 1:] + c[:p + 1]
            yield child


def test_split_key_matches_mirror_images():
    # a chiral class on 7 vertices: it and its mirror image differ as oriented
    # maps, but are one unoriented class
    K = build_complex([
        (1, 2, 4), (1, 2, 6), (1, 4, 6), (2, 4, 5), (2, 5, 6),
        (3, 4, 5), (3, 4, 6), (3, 5, 7), (3, 6, 7), (5, 6, 7),
    ])
    rotation = _rotation(K)
    mirror = {x: cycle[::-1] for x, cycle in rotation.items()}

    def oriented_key(rot):
        return min(planar_code(rot, x, u, 1) for x, cycle in rot.items() for u in cycle)

    def accepted_keys(rot):
        return {accepted_key(child) for child in split_children_of(rot)} - {None}

    assert oriented_key(rotation) != oriented_key(mirror)
    assert len(accepted_keys(rotation)) == 1
    assert accepted_keys(rotation) == accepted_keys(mirror)
    assert all(any(map(new_edge_is_canonical, split_children_of(r))) for r in (rotation, mirror))
    assert _rotation_complex(mirror) == K


ROTATION_CLASSES = [cf.canonical for v in range(4, 11) for cf in _sphere_classes(v)]


def assert_rotation_matches_orient(K):
    # a fresh copy, so nothing cached on K by another test is read; the
    # walk caches none of orient's work on it
    K = Complex(2, K.facets)
    rotation = _rotation(K)
    assert not {"orientation", "closedness", "_walk", "_ridges"} & set(vars(K))
    # the same cycles, in the same vertex order
    assert list(rotation.items()) == list(orient_rotation(K).items()), K.facets


def test_rotation_matches_orient():
    assert len(ROTATION_CLASSES) == 306
    spheres = ROTATION_CLASSES + [OCTAHEDRON] + [
        construct(2, d).labeled.complex for d in range(-7, 8) if d
    ]
    for K in spheres:
        assert_rotation_matches_orient(K)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(K=st.sampled_from(ROTATION_CLASSES), data=st.data())
def test_rotation_matches_orient_when_relabeled(K, data):
    size = len(K.vertices)
    ids = data.draw(st.lists(st.integers(1, 99), min_size=size, max_size=size, unique=True))
    m = dict(zip(K.vertices, ids))
    assert_rotation_matches_orient(build_complex([tuple(m[v] for v in f) for f in K.facets]))


def test_split_vertex_skip_keeps_every_kept_child(monkeypatch):
    # a split is dropped before its child is built only when a parent edge
    # that stays contractible outranks the new edge there: the rule drops
    # only children the degree rank drops, with no canonical form, and the
    # canonical-edge rule keeps the oracle splitter's children, in order,
    # with and without the parent's automorphisms
    def kept(children):
        return [child for child in children if accepted_key(child) is not None]

    def no_form(*args):
        raise AssertionError("a dropped split's child needed a canonical form")

    for v in range(5, 11):
        for parent in _sphere_classes(v - 1):
            for automorphisms in ((), parent.automorphisms):
                children = list(_vertex_splits(parent.canonical, automorphisms))
                every = list(all_vertex_splits(parent.canonical, automorphisms))
                dropped = [child for child in every if child not in children]
                assert len(children) + len(dropped) == len(every)
                with monkeypatch.context() as m:
                    # dropped on degrees alone, with no canonical form computed
                    m.setattr(spheremap.search, "canonical_form", no_form)
                    assert not any(_canonical_child(child) for child in dropped)
                assert kept(children) == kept(every)


# canonical forms computed by a cold enumeration to v = 10: one per class
# (306, the tetrahedron's included) and one for each of the 2 children still
# tied in rank with a rival of equal neighbour degrees and then dropped
CANONICAL_FORMS_TO_V10 = 308


def test_cold_enumeration_canonical_forms_counted(monkeypatch):
    calls = []

    def counted(K):
        calls.append(K)
        return canonical_form(K)

    monkeypatch.setattr(spheremap.search, "canonical_form", counted)
    _sphere_classes.cache_clear()
    try:
        counts = [len(_sphere_classes(v)) for v in range(4, 11)]
    finally:
        _sphere_classes.cache_clear()
    assert counts == [1, 1, 2, 5, 14, 50, 233]
    assert len(calls) == CANONICAL_FORMS_TO_V10


# canonical forms a cold table row (2, 4, 10) computes: one per class up to
# v = 7, one per kept child on 8 and 9 vertices with at most 6 and 3
# off-vertices (degree not a multiple of 3), and the few children on 10
# vertices with none still tied in rank
CANONICAL_FORMS_FOR_TABLE_ROW_2_4_10 = 26


def test_cold_table_row_builds_no_class_list_at_its_top_count(monkeypatch):
    calls, listed = [], []

    def counted(K):
        calls.append(K)
        return canonical_form(K)

    def classes(v):
        listed.append(v)
        return _sphere_classes(v)

    monkeypatch.setattr(spheremap.search, "canonical_form", counted)
    monkeypatch.setattr(spheremap.search, "_sphere_classes", classes)
    _sphere_classes.cache_clear()
    try:
        row = lambda_table([{"n": 2, "d": 4, "v_max": 10}]).rows[0]
    finally:
        _sphere_classes.cache_clear()
    assert (row.lambda_value, row.status) == (10, "exact_search")
    # room 0 on 10 vertices, so the parents on 9 and 8 are streamed with
    # rooms 3 and 6, and those on 7 are every class
    assert max(listed) == 7
    assert len(calls) == CANONICAL_FORMS_FOR_TABLE_ROW_2_4_10 < CANONICAL_FORMS_TO_V10


def test_cold_search_walks_lambda_once_in_key_order(monkeypatch):
    # lambda(2, +-5) = 12 = 2|d| + 2, so the scan searches only the classes
    # on 12 vertices with no off-vertex, listing their parents with room 3
    # and 6 on 11 and 10 vertices and every class up to 9; each kept child
    # on 12 gets one canonical form for its place in key order (334 when the
    # scan's kept children on 12 were listed again for the pick)
    calls, listed = [], []

    def counted(K):
        calls.append(K)
        return canonical_form(K)

    def classes(v):
        listed.append(v)
        return _sphere_classes(v)

    monkeypatch.setattr(spheremap.search, "canonical_form", counted)
    monkeypatch.setattr(spheremap.search, "_sphere_classes", classes)
    forms = []
    try:
        for d in (5, -5):
            _sphere_classes.cache_clear()
            calls.clear()
            result = lambda_search(2, d, 12)
            assert (result.lambda_value, result.triangulations_examined) == (12, 1)
            forms.append(len(calls))
    finally:
        _sphere_classes.cache_clear()
    assert forms == [272, 272]
    assert max(listed) == 9


def off_vertices(K):
    """The vertices of a 2-sphere whose degree is not a multiple of 3."""
    return sum(len(K.facets_at[x]) % 3 != 0 for x in K.vertices)


def test_colorable_classes_have_at_most_3s_off_vertices():
    # a degree-d coloring (d != 0) on v vertices leaves S = 2v - 4 - 4|d|
    # facets degenerate or of the sign opposite to d's, and every
    # off-vertex lies on one of them; the search accepts d and -d alike
    beyond = 0
    for v in range(4, 12):
        for cls in _sphere_classes(v):
            off = off_vertices(cls.canonical)
            for d in range(1, (v - 2) // 2 + 1):
                if off > 3 * (2 * v - 4 - 4 * d):
                    beyond += 1
                    assert exists_labeling(Complex(2, cls.canonical.facets), d) is None
    assert beyond == 944


def test_table_scan_passes_room_3s_and_its_parents_room_plus_3(monkeypatch):
    # the row (2, 2, 12) scans v = 6 (S = 0) and v = 7 (S = 2), where it
    # finds lambda; the parents on 5 are streamed with room 3, and once the
    # room covers every sphere on v - 1 the class list on v - 1 is used
    calls = []

    def recorded(v, room=math.inf):
        calls.append((v, room))
        return kept_children(v, room)

    kept_children = spheremap.search._kept_children
    monkeypatch.setattr(spheremap.search, "_kept_children", recorded)
    _sphere_classes.cache_clear()
    try:
        row = lambda_table([{"n": 2, "d": 2, "v_max": 12}]).rows[0]
    finally:
        _sphere_classes.cache_clear()
    assert row.lambda_value == 7
    assert calls == [(6, 0), (5, 3), (4, math.inf), (7, 6), (6, math.inf), (5, math.inf)]


@pytest.mark.parametrize("room", [0, 3, 6])
def test_kept_children_with_room_are_the_classes_with_that_many_off_vertices(room):
    # a class with m off-vertices has its canonical parent among those with
    # at most m + 3, so streaming the parents with room + 3 loses no class
    for v in range(4, 12):
        got = [canonical_form(K).key for K, _ in _kept_children(v, room)]
        wanted = {
            canonical_form(cls.canonical).key
            for cls in _sphere_classes(v)
            if off_vertices(cls.canonical) <= room
        }
        assert len(got) == len(set(got)) and set(got) == wanted


def test_rank_tie_settled_on_neighbour_degrees(monkeypatch):
    # a split child on 9 vertices (of the 13th class on 8, as the enumeration
    # splits it) whose new edge {3, 9} ties in rank with the contractible
    # edges {1, 4}, {1, 5} and {2, 3}; the vertices around {1, 5} and
    # {2, 3} have smaller sorted degrees, so it is dropped with no form
    child = {
        1: (4, 5, 7), 2: (3, 9, 7, 8, 6), 3: (2, 6, 9), 4: (1, 7, 9, 6, 5),
        5: (1, 4, 6, 8, 7), 6: (2, 8, 5, 4, 9, 3), 7: (1, 5, 8, 2, 9, 4),
        8: (2, 7, 5, 6), 9: (6, 4, 7, 2, 3),
    }
    deg = {x: len(cycle) for x, cycle in child.items()}

    def rank(a, b):
        c, c2 = set(child[a]) & set(child[b])
        return (deg[a] + deg[b], min(deg[a], deg[b]), deg[c] + deg[c2], min(deg[c], deg[c2]))

    def around(a, b):
        return sorted(deg[x] for x in set(child[a]) | set(child[b]))

    assert rank(3, 9) == rank(1, 4) == rank(1, 5) == rank(2, 3)
    assert around(1, 5) == around(2, 3) < around(1, 4) == around(3, 9)
    parent = _sphere_classes(8)[12]
    assert child in list(_vertex_splits(parent.canonical, parent.automorphisms))

    def no_form(*args):
        raise AssertionError("a child settled on neighbour degrees needed a canonical form")

    monkeypatch.setattr(spheremap.search, "canonical_form", no_form)
    assert _canonical_child(child) is None


def test_orbit_pruning_keeps_each_class_once():
    # one split per orbit of the parent's automorphisms keeps exactly the
    # classes that splitting every orbit member keeps, and each only once
    def kept_keys(children):
        return [key for key in map(accepted_key, children) if key is not None]

    for v in range(5, 11):
        every, pruned = set(), []
        for parent in _sphere_classes(v - 1):
            every.update(kept_keys(_vertex_splits(parent.canonical)))
            pruned.extend(kept_keys(_vertex_splits(parent.canonical, parent.automorphisms)))
        assert len(pruned) == len(set(pruned)) == len(_sphere_classes(v))
        assert set(pruned) == every


def test_canonical_child_keeps_the_classes_the_planar_code_rule_keeps():
    # the rank-then-planar-code rule and the canonical-labels rule pick the
    # canonical edge differently, but each keeps every class at each v,
    # judged on all unpruned children of every parent
    for v in range(5, 11):
        by_code, by_labels = set(), set()
        for parent in _sphere_classes(v - 1):
            for child in all_vertex_splits(parent.canonical):
                if new_edge_is_canonical(child):
                    by_code.add(canonical_form(_rotation_complex(child)).key)
                by_labels.add(accepted_key(child))
        assert by_code == by_labels - {None}
        assert len(by_code) == len(_sphere_classes(v))


def test_automorphism_generators_give_the_whole_group():
    # a 3-connected planar map has one embedding up to reflection, so each
    # automorphism takes one start (x, u, sense) of the smallest planar code
    # to another: Aut(K) has as many elements as such starts
    for v in range(4, 10):
        for cf in _sphere_classes(v):
            K, rotation = cf.canonical, _rotation(cf.canonical)
            for g in cf.automorphisms:
                assert {tuple(sorted(g[x] for x in f)) for f in K.facets} == K.facet_set
            codes = [
                planar_code(rotation, x, u, sense)
                for x, cycle in rotation.items()
                for u in cycle
                for sense in (1, -1)
            ]
            assert group_order(K, cf.automorphisms) == codes.count(min(codes))


def test_enumerate_deterministic():
    first = list(enumerate_spheres(2, 7))
    second = list(enumerate_spheres(2, 7))
    assert first == second


def test_exists_labeling_hexagon_degree_two():
    hexagon = build_complex([(i, i % 6 + 1) for i in range(1, 7)])
    witness = exists_labeling(hexagon, 2)
    assert witness is not None
    ls = labeled_sphere(orient(hexagon), witness)
    assert degree(ls).degree == 2
    # a degree-2 circle on 6 vertices must use each color exactly twice
    assert sorted(witness.values()) == [1, 1, 2, 2, 3, 3]


def test_exists_labeling_four_vertex_sphere_no_degree_two():
    tetra = build_complex([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    assert exists_labeling(tetra, 2) is None
    assert 2 not in brute_force_degrees(tetra)


def test_exists_labeling_octahedron_degree_one():
    witness = exists_labeling(OCTAHEDRON, 1)
    assert witness is not None
    assert degree(labeled_sphere(orient(OCTAHEDRON), witness)).degree == 1
    assert 1 in brute_force_degrees(OCTAHEDRON)


def rescored_plan(K):
    """The search plan by brute force: rescore every unplaced vertex at each
    step, then mark each facet's vertex placed last as its closer."""
    order = list(K.facets[0])
    placed = set(order)

    def score(v):
        closes = sum(all(u in placed for u in f if u != v) for f in K.facets_at[v])
        return closes, -v

    while len(placed) < len(K.vertices):
        v = max((u for u in K.vertices if u not in placed), key=score)
        order.append(v)
        placed.add(v)
    position = {v: i for i, v in enumerate(order)}
    touches = {v: [] for v in order}
    for fi, f in enumerate(K.facets):
        last = max(f, key=position.__getitem__)
        for v in f:
            touches[v].append((fi, v == last))
    return order, touches


def test_search_plan_matches_rescoring():
    spheres = [K for v in range(4, 10) for K in enumerate_spheres(2, v)]
    circles = [next(enumerate_spheres(1, v)) for v in range(3, 21)]
    built = [construct(n, d).labeled.complex for n in (2, 3, 4) for d in (-3, 0, 2, 5)]
    for K in spheres + circles + built:
        order, plan = _search_plan(K)
        assert (order, plan) == rescored_plan(K)
        assert list(plan) == order


@pytest.mark.parametrize(
    "K, d",
    [
        pytest.param(build_complex([(i, i % 1020 + 1) for i in range(1, 1021)]), 340, id="circle"),
        pytest.param(construct(2, 600).labeled.complex, 600, id="construct"),
    ],
)
def test_exists_labeling_on_a_thousand_vertices(K, d):
    # one loop, not one stack frame per vertex: no RecursionError
    witness = exists_labeling(K, d)
    assert degree(labeled_sphere(orient(K), witness)).degree == d


def test_pruned_search_equals_brute_force():
    # completeness of the pruning + first-use color normalization, checked
    # against the unpruned scan on every small circle and 2-sphere class
    circles = [next(enumerate_spheres(1, v)) for v in range(3, 9)]
    spheres = [K for v in (4, 5, 6) for K in enumerate_spheres(2, v)]
    for K in circles + spheres:
        reachable = brute_force_degrees(K)
        for d in range(-4, 5):
            witness = exists_labeling(K, d)
            assert (witness is not None) == (d in reachable)
            if witness is not None:
                ls = labeled_sphere(orient(K), witness)
                assert degree(ls).degree == d


def cyclic_polytope_boundary(v):
    """Boundary of the cyclic 4-polytope on v vertices: by Gale's evenness
    condition, a 4-set is a facet when any two vertices outside it have an
    even number of its vertices between them."""
    facets = []
    for S in combinations(range(1, v + 1), 4):
        outside = [u for u in range(1, v + 1) if u not in S]
        if all(sum(a < s < b for s in S) % 2 == 0 for a, b in combinations(outside, 2)):
            facets.append(S)
    return build_complex(facets)


def test_search_labelings_matches_the_reference_scan():
    # same nodes in the same order: the identical witness after the
    # identical number of partial colorings, on circles, 2-spheres and the
    # cyclic 3-spheres, for every degree in -5..5
    cycles = [build_complex([(i, i % v + 1) for i in range(1, v + 1)]) for v in range(3, 13)]
    # copies keep the orientation off the enumeration's representatives
    spheres = [Complex(2, K.facets) for v in range(4, 10) for K in enumerate_spheres(2, v)]
    cyclic = [cyclic_polytope_boundary(v) for v in range(6, 11)]
    assert [len(K.facets) for K in cyclic] == [9, 14, 20, 27, 35]
    found = {}
    for K in cycles + spheres + cyclic:
        oriented = orient(K)
        for d in range(-5, 6):
            got = _search_labelings(oriented, d)
            assert got == search_labelings(oriented, d), (K.facets, d)
            if K.dimension == 3 and got[0] is not None:
                found.setdefault(len(K.vertices), set()).add(d)
    # the degrees the cyclic 3-spheres on 6..10 vertices carry
    assert found == {v: set(range(-k, k + 1)) for v, k in zip(range(6, 11), (1, 1, 2, 2, 4))}


def test_lambda_circle_values():
    assert lambda_search(1, 3, 12).lambda_value == 9
    result = lambda_search(1, 3, 8)
    assert result.lambda_value is None
    assert not result.found
    assert result.status == "NotFoundWithinBudget"


def test_skipped_vertex_counts_have_no_witness():
    # lambda_search skips counts with fewer than (n+2)|d| facets; no class
    # there has a witness, and for d = 0 nothing is skipped
    for n, sizes in ((1, range(3, 13)), (2, range(4, 10))):
        for v in sizes:
            facets = v if n == 1 else 2 * v - 4
            for K in enumerate_spheres(n, v):
                for d in range(-6, 7):
                    if facets < (n + 2) * abs(d):
                        assert exists_labeling(K, d) is None
    # a circle and the tetrahedron are each searched once
    for n in (1, 2):
        result = lambda_search(n, 0, n + 2)
        assert result.lambda_value == n + 2 and result.triangulations_examined == 1


def test_lambda_small_sphere_values():
    result = lambda_search(2, 3, 10)
    assert result.lambda_value == 8
    assert degree(result.witness).degree == 3
    assert lambda_search(2, 4, 10).lambda_value == 10


# (n, d, v_max) -> (lambda, triangulations examined, labelings examined,
# SHA-256 of the serialized witness); pins the search's output and its work.
# Vertex counts with fewer than (n+2)|d| facets are skipped unexamined, so
# (2, 5, 9) and (1, 3, 8) examine nothing.  A 2-sphere search counts the
# classes its existence scan searches in key order: on these rows it
# searches none below lambda, and the first on lambda has a coloring.
SEARCH_PINS = {
    (2, 2, 8): (7, 1, 51, "e4f23b37de6051405fc0e3dfc458ea3118a8b35f2a53cd2b1248f074cdddbb96"),
    (2, 3, 9): (8, 1, 20, "131202bb26619e7f897c1e707749716b933fec095fd1e1f22230d9b417b6fa63"),
    (2, 4, 10): (10, 1, 22, "b0ff0813a3d193ab02a18e36491ecd22096fe11e14a8ab243586c6510075886f"),
    (2, 5, 9): (None, 0, 0, None),
    (1, 3, 8): (None, 0, 0, None),
    (1, 4, 12): (12, 1, 24, "1a705369ae196de1efc55bbeeaed8ef8fc660aee3c7643fa2ed9d2f8805a5397"),
    (1, 6, 18): (18, 1, 36, "29324a3c97a0190d84aab235d5734f884e39abeb666d9217c52f8242a1d60e4e"),
    (1, 7, 21): (21, 1, 42, "8633f0dde5b7214de97070b90bdd3ca0009c8c7eb2dddb5682553d18e3752d42"),
}


# split children yielded by _vertex_splits on the way to 10 vertices, and by
# the oracle splitter (tests/split_oracle.py), which drops none by rank; pins
# the enumeration's work (2,136 for _vertex_splits when only whole split
# vertices were skipped)
SPLIT_CHILDREN_PINS = {"_vertex_splits": 1024, "all_vertex_splits": 5587}
# and by _vertex_splits given each parent's automorphisms, as the enumeration
# calls it: one split per orbit (995 when only whole split vertices were skipped)
ORBIT_SPLIT_CHILDREN_PIN = 454


def test_split_children_counted():
    parents = [parent for v in range(5, 11) for parent in _sphere_classes(v - 1)]
    got = {
        splits.__name__: sum(1 for parent in parents for _ in splits(parent.canonical))
        for splits in (_vertex_splits, all_vertex_splits)
    }
    assert got == SPLIT_CHILDREN_PINS
    orbit_children = sum(
        1 for parent in parents for _ in _vertex_splits(parent.canonical, parent.automorphisms)
    )
    assert orbit_children == ORBIT_SPLIT_CHILDREN_PIN


def test_lambda_counts_examined():
    for (n, d, v_max), pinned in SEARCH_PINS.items():
        r = lambda_search(n, d, v_max)
        digest = None if r.witness is None else (
            hashlib.sha256(serialize(r.witness).encode()).hexdigest()
        )
        got = (r.lambda_value, r.triangulations_examined, r.labelings_examined, digest)
        assert got == pinned, (n, d, v_max)


def test_witnesses_are_stable():
    # the first witness in scan order, or None, for every small class and
    # degree; pins which witness the search finds, not just whether it does
    rows = []
    for n, sizes, degrees in ((2, range(4, 10), range(-2, 6)), (1, range(3, 13), range(-4, 5))):
        for v in sizes:
            for i, K in enumerate(enumerate_spheres(n, v)):
                for d in degrees:
                    w = exists_labeling(K, d)
                    rows.append((v, i, d, None if w is None else sorted(w.items())))
    assert len(rows) == 674 and sum(w is not None for *_, w in rows) == 416
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "adacc2410fc7ac1d7a46ad09faae2eb37116bc19879610c275cfee86837d167e"
    )


def test_lambda_search_rejects_wrong_witness(monkeypatch):
    # a coloring whose degree is not d must raise, also under python -O,
    # in the search and in a table row's existence scan
    monkeypatch.setattr(
        spheremap.search,
        "_search_labelings",
        lambda oriented, d: ({v: 1 for v in oriented.vertices}, 1),
    )
    with pytest.raises(SpheremapError, match="does not have degree 2"):
        lambda_search(2, 2, 8)
    with pytest.raises(SpheremapError, match="does not have degree 2"):
        lambda_table([{"n": 2, "d": 2, "v_max": 8}])


def test_searches_cache_no_orientation_on_classes():
    # the labeling search and the witness orient copies, so the class
    # representatives the enumeration keeps hold no orientation work
    _sphere_classes.cache_clear()
    try:
        for n, d, v_max in ((2, 2, 8), (2, 3, 9), (2, -4, 10), (2, 0, 6)):
            assert lambda_search(n, d, v_max).found
        held = [
            sorted({"orientation", "closedness", "_walk", "_ridges"} & set(vars(cf.canonical)))
            for v in range(4, 11)
            for cf in _sphere_classes(v)
        ]
    finally:
        _sphere_classes.cache_clear()
    assert len(held) == 306 and not any(held)


def test_lambda_guards():
    with pytest.raises(UnsupportedDimension):
        lambda_search(3, 2, 8)
    with pytest.raises(BudgetExceeded):
        lambda_search(2, 2, MAX_SPLIT_VERTICES + 1)
    with pytest.raises(BudgetExceeded):
        lambda_search(1, 2, MAX_CIRCLE_VERTICES + 1)
    # without the cap this scans circles up to 300,000 vertices, and the
    # recursive scan overflows the stack on one past about 1,000
    with pytest.raises(BudgetExceeded):
        lambda_search(1, 100_000, 100_000_000)
    with pytest.raises(BudgetExceeded):
        lambda_table([{"n": 1, "d": 400, "v_max": 1_200}])
    assert lambda_search(1, 33, MAX_CIRCLE_VERTICES).lambda_value == MAX_CIRCLE_VERTICES


def test_enumerate_spheres_rejects_bools_and_floats():
    for n, v in ((2, 4.0), (1, 3.0), (True, 4), (2, True)):
        with pytest.raises(ValidationError, match="must be an int"):
            list(enumerate_spheres(n, v))


def test_lambda_search_rejects_bools_and_floats():
    # True would search degree 1 and report lambda = 4
    for n, d, v_max in ((2, True, 9), (2, 3, 9.5), (2.0, 3, 9), (1, 2.0, 9)):
        with pytest.raises(ValidationError, match="must be an int"):
            lambda_search(n, d, v_max)


def test_known_lambda_rejects_bools_and_floats():
    for n, d in ((2.0, 3), (2, 3.0), (True, 0), (3, False)):
        with pytest.raises(ValidationError, match="must be an int"):
            known_lambda(n, d)


def test_exists_labeling_rejects_bools_and_floats():
    for d in (1.0, True, None):
        with pytest.raises(ValidationError, match="must be an int"):
            exists_labeling(OCTAHEDRON, d)


def test_known_lambda_values():
    assert known_lambda(1, 5) == (15, "cycle colored 1,2,3 repeating")
    assert known_lambda(1, 0)[0] == 3
    assert known_lambda(3, 1)[0] == 5
    assert known_lambda(4, 0)[0] == 6
    assert known_lambda(2, 3)[0] == 8
    assert known_lambda(3, 4)[0] == 10
    assert known_lambda(5, -2)[0] == 10
    assert known_lambda(2, 5) is None
    assert known_lambda(2, 4) is None  # not covered by the n >= |d|-1 family
    with pytest.raises(InvalidDimension):
        known_lambda(0, 1)


def test_lambda_table_statuses():
    table = lambda_table([
        {"n": 1, "d": 2, "v_max": 6},
        {"n": 1, "d": 2, "v_max": 5},
        {"n": 4, "d": 2},
        {"n": 2, "d": 7},
    ])
    by_status = {row.status: row for row in table.rows}
    assert by_status["exact_search"].lambda_value == 6
    assert by_status["not_found_within_budget"].lambda_value is None
    assert by_status["exact_formula"].lambda_value == 9
    upper = by_status["upper_bound"]
    assert upper.lambda_value == 16  # generator count for (2, 7)


def test_lambda_table_bounds_n_and_d():
    # n and |d| may have 100 digits and no more, so that a row's value, or
    # the error naming it, never has more digits than str() renders
    largest = 10 ** 100 - 1
    assert lambda_table([{"n": 1, "d": -largest}]).rows[0].lambda_value == 3 * largest
    assert lambda_table([{"n": largest, "d": 0}]).rows[0].lambda_value == largest + 2
    for row in ({"n": 1, "d": largest + 1}, {"n": 1, "d": -(10 ** 5000)}, {"n": -(10 ** 5000), "d": 1}):
        with pytest.raises(ValidationError, match="at most 100 digits"):
            lambda_table([row])


def test_lambda_table_rejects_unknown_keys():
    # a misspelt budget used to be dropped, so the row fell back to the
    # generator's upper bound (11 here) instead of being searched
    for row, key in (
        ({"n": 2, "d": 4, "vmax": 10}, "'vmax'"),
        ({"n": 1, "d": 2, "v_max": 6, "note": "x"}, "'note'"),
        ({"n": 3, "d": 2, "dimension": 3}, "'dimension'"),
    ):
        with pytest.raises(ValidationError, match=f"unknown key {key}"):
            lambda_table([row])
    with pytest.raises(ValidationError, match="unknown key 'vmax'"):
        lambda_table([{"n": 2, "d": 4, "v_max": 10}, {"n": 2, "d": 4, "vmax": 10}])


def test_lambda_table_names_rows_too_long_to_print():
    # repr raises ValueError on an int past 4,300 digits, so such a row is
    # named by a stand-in; an ordinary row is still named by its repr
    huge = 10 ** 5000
    for row, message in (
        ({"n": 2.5, "d": huge}, 'table row <too long to print> must be {"n": int,'),
        ({"n": 2, "d": huge, "x": 1}, "table row <too long to print> has unknown key 'x';"),
        ({"n": 2, "d": 3, huge: 1}, "has unknown key <too long to print>;"),
        ({"n": 2.5, "d": 3}, "table row {'n': 2.5, 'd': 3} must be {\"n\": int,"),
        ({"n": 2, "d": 3, "x": 1}, "table row {'n': 2, 'd': 3, 'x': 1} has unknown key 'x';"),
    ):
        with pytest.raises(ValidationError) as info:
            lambda_table([row])
        assert message in str(info.value)


def test_searches_match_the_key_order_oracle():
    # the existence scan, walking each count's room-bounded classes in key
    # order, gives the value and the witness of the search over every class
    # in key order, found or not
    rows = [
        (n, d, v_max)
        for n, budgets in ((1, (30,)), (2, (6, 9, 11)))
        for v_max in budgets
        for d in range(-7, 8)
    ]
    table = lambda_table([{"n": n, "d": d, "v_max": v_max} for n, d, v_max in rows])

    def outcome(value, witness):
        return value, witness and hashlib.sha256(serialize(witness).encode()).hexdigest()

    expected = [outcome(*key_order_search(*row)) for row in rows]
    searched = [lambda_search(*row) for row in rows]
    assert [outcome(r.lambda_value, r.witness) for r in searched] == expected
    assert [row.lambda_value for row in table.rows] == [value for value, _ in expected]
    assert [value for value, _ in expected].count(None) == 26


def test_lambda_table_search_row_for_degree_four():
    table = lambda_table([{"n": 2, "d": 4, "v_max": 10}])
    row = table.rows[0]
    assert row.status == "exact_search" and row.lambda_value == 10
    assert row.ratio_over_d == Fraction(5, 2)
    assert row.ratio_over_n == Fraction(5, 1)


def test_lambda_row_ratios_need_a_value_and_a_degree():
    empty = lambda_table([{"n": 1, "d": 2, "v_max": 5}]).rows[0]
    assert empty.lambda_value is None
    assert empty.ratio_over_d is None and empty.ratio_over_n is None
    zero = lambda_table([{"n": 2, "d": 0}]).rows[0]
    assert zero.lambda_value == 4
    assert zero.ratio_over_d is None and zero.ratio_over_n == 2


def test_lambda_table_circle_ratios():
    table = lambda_table(
        [{"n": 1, "d": d, "v_max": 3 * d} for d in range(1, 5)]
    )
    ratios = table.ratios_over_d_by_n()[1]
    assert ratios == {d: Fraction(3) for d in range(1, 5)}


def test_lambda_table_degree_two_family():
    table = lambda_table([{"n": n, "d": 2} for n in range(3, 9)])
    for row in table.rows:
        assert row.status == "exact_formula"
        assert row.lambda_value == row.n + 5
    by_d = table.ratios_over_n_by_d()[2]
    assert by_d[3] == Fraction(8, 3) and by_d[8] == Fraction(13, 8)
