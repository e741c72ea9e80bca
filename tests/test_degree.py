import enum
import importlib
import random
import re
from itertools import combinations
from types import MappingProxyType

import pytest

from spheremap import (
    BadLabeling,
    Complex,
    InconsistentDegree,
    InvalidDimension,
    InvalidLink,
    FacetNotFound,
    LabeledSphere,
    NotAPermutation,
    NotSingletonColor,
    OrientedComplex,
    UnknownVertex,
    boundary_simplex,
    build_complex,
    construct,
    cyclic_circle,
    degree,
    degree_four_witness,
    degree_zero_sphere,
    facet_sign,
    labeled_sphere,
    link_reduction,
    one_point_suspension,
    orient,
    parse,
    permutation_sign,
    relabel,
    reverse_orientation,
    serialize,
    singleton_colors,
    canonical_form,
)
from spheremap.degree import DegreeReport, _degree_report, _facet_sign

TETRA = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def labeled_tetra(labels=None):
    oc = orient(build_complex(TETRA))
    return labeled_sphere(oc, labels or {v: v for v in range(1, 5)})


def labeled_hexagon(labels):
    oc = orient(build_complex([(i, i % 6 + 1) for i in range(1, 7)]))
    return labeled_sphere(oc, labels)


def test_direct_construction_checks_labels():
    # built without labeled_sphere, a bad coloring used to surface later as a
    # bare KeyError from insertion_step, degree or serialize
    oc = orient(build_complex(TETRA))
    for labels in (
        {1: 1, 2: 2, 3: 3, 4: 9},  # color out of range
        {1: 1, 2: 2, 3: 3},  # vertex 4 unlabeled
        {1: 1, 2: 2, 3: 3, 4: 4, 5: 1},  # extra vertex
        {1: 1, 2: 2, 3: 3, 4: 4.0},  # not an integer color
        [1, 2, 3, 4],  # not a mapping
    ):
        with pytest.raises(BadLabeling):
            LabeledSphere(oc, labels)
    labels = {v: v for v in range(1, 5)}
    ls = LabeledSphere(oc, labels)
    labels[4] = 1
    assert ls.labels[4] == 4 and degree(ls).degree == 1
    with pytest.raises(TypeError):
        ls.labels[4] = 1


def test_labeled_sphere_rejects_bad_domains():
    oc = orient(build_complex(TETRA))
    with pytest.raises(BadLabeling):
        labeled_sphere(oc, {1: 1, 2: 2, 3: 3})  # vertex 4 unlabeled
    with pytest.raises(BadLabeling):
        labeled_sphere(oc, {1: 1, 2: 2, 3: 3, 4: 4, 5: 1})  # extra vertex
    with pytest.raises(BadLabeling):
        labeled_sphere(oc, {1: 0, 2: 2, 3: 3, 4: 4})  # color out of range
    with pytest.raises(BadLabeling):
        labeled_sphere(oc, {1: 5, 2: 2, 3: 3, 4: 4})
    with pytest.raises(BadLabeling):
        labeled_sphere(oc, {1: True, 2: 2, 3: 3, 4: 4})


class Color(enum.IntEnum):
    ONE, TWO, THREE, FOUR = 1, 2, 3, 4


def test_labels_accept_int_subclass_colors():
    # the bulk type scan sees IntEnum, not int, and checks each color instead
    ls = labeled_tetra({v: Color(v) for v in range(1, 5)})
    assert ls == labeled_tetra() and degree(ls).degree == 1
    assert labeled_tetra({Color(v): v for v in range(1, 5)}) == labeled_tetra()


@pytest.mark.parametrize("key", [1.0, True])
def test_labels_refuse_a_key_equal_to_a_vertex_that_is_no_id(key):
    # it would pass the domain check and then write a document whose label
    # key ("1.0", "True") no reader takes
    with pytest.raises(BadLabeling, match=f"^label key {key!r} is not a vertex id$"):
        labeled_tetra({key: 1, 2: 2, 3: 3, 4: 4})


@pytest.mark.parametrize("color", [4.0, True, 0, 5, "4", None])
def test_labels_name_the_first_vertex_with_a_bad_color(color):
    oc = orient(build_complex(TETRA))
    message = f"vertex 3 has color {color!r}, expected 1..4"
    for labels in ({1: 1, 2: 2, 3: color, 4: 4}, {1: 1, 2: 2, 3: color, 4: color}):
        with pytest.raises(BadLabeling, match=f"^{re.escape(message)}$"):
            labeled_sphere(oc, labels)


def test_labels_with_keys_of_several_types_name_the_mismatch():
    # sorting a str key and an int key for the message raised a bare TypeError
    oc = orient(build_complex([(1, 2), (2, 3), (1, 3)]))
    with pytest.raises(BadLabeling) as caught:
        labeled_sphere(oc, {1: 1, 2: 2, 3: 3, "a": 1, 7: 1})
    assert str(caught.value) == "label domain mismatch (missing [], extra [7, 'a'])"
    with pytest.raises(BadLabeling) as caught:
        labeled_sphere(oc, {1: 1, 2: 2, (3,): 3, 3.5: 1})
    assert str(caught.value) == "label domain mismatch (missing [3], extra [3.5, (3,)])"
    with pytest.raises(BadLabeling) as caught:  # keys that compare keep their order
        labeled_sphere(oc, {1: 1, 2: 2, 3: 3, 9: 1, 7: 1, 8: 2})
    assert str(caught.value) == "label domain mismatch (missing [], extra [7, 8, 9])"


def test_facet_sign_identity_labeling():
    assert facet_sign(labeled_tetra(), (1, 2, 3)) == (1, 4)


def test_facet_sign_degenerate_edge():
    ls = labeled_hexagon({1: 1, 2: 1, 3: 2, 4: 3, 5: 2, 6: 3})
    assert facet_sign(ls, (1, 2)) == (0, None)


def test_facet_sign_witness_quartet_all_negative():
    # in the raw ten-vertex witness the four facets that swap exactly one
    # original vertex for its subdivision twin all map with sign -1 onto
    # the target facet omitting color 5
    ls = degree_four_witness(raw=True).labeled
    for facet in [(2, 3, 4, 6), (1, 3, 4, 7), (1, 2, 4, 8), (1, 2, 3, 9)]:
        assert facet_sign(ls, facet) == (-1, 5)


def test_facet_sign_guards():
    ls = labeled_tetra()
    with pytest.raises(UnknownVertex):
        facet_sign(ls, (1, 2, 9))
    ls6 = labeled_hexagon({v: (v - 1) % 3 + 1 for v in range(1, 7)})
    with pytest.raises(FacetNotFound):
        facet_sign(ls6, (1, 3))
    # sorting ("a", 1) or 5 raised a raw TypeError; True and 1.0 equal 1 and
    # hash alike, so they read the sign of facet (1, 2, 3)
    for facet in (("a", 1), 5, (True, 2, 3), (1.0, 2, 3)):
        with pytest.raises(FacetNotFound):
            facet_sign(boundary_simplex(2).labeled, facet)


def test_degree_boundary_identity_every_dimension():
    for n in range(1, 6):
        rep = degree(boundary_simplex(n).labeled)
        assert rep.degree == 1 and rep.consistent
        assert all(len(entries) == 1 for entries in rep.per_target_facet.values())
        assert rep.degenerate_facet_count == 0


def test_degree_hexagon_cyclic_labeling():
    rep = degree(cyclic_circle(2).labeled)
    assert rep.degree == 2
    assert set(rep.per_target_sums.values()) == {2}


def test_degree_witness():
    assert degree(degree_four_witness().labeled).degree == 4
    assert degree(degree_four_witness(raw=True).labeled).degree == -4


def test_degree_missing_color_is_zero():
    ls = labeled_tetra({1: 1, 2: 2, 3: 3, 4: 1})
    rep = degree(ls)
    assert rep.degree == 0
    # every target containing the unused color 4 has an empty preimage
    assert rep.per_target_facet[1] == rep.per_target_facet[2] == ()
    assert rep.degenerate_facet_count == 2


def test_degree_report_sums_match_entries():
    rep = degree(cyclic_circle(3).labeled)
    for color, entries in rep.per_target_facet.items():
        assert rep.per_target_sums[color] == sum(s for _, s in entries)


def _per_facet_report(ls):
    """(report, raises) from _facet_sign on every facet, with no sharing."""
    full = ls.color_count
    per = {i: [] for i in range(1, full + 1)}
    degenerate = 0
    for facet, eps in zip(ls.complex.facets, ls.oriented.signs):
        s, omitted = _facet_sign(ls.labels, full, eps, facet)
        if s == 0:
            degenerate += 1
        else:
            per[omitted].append((facet, s))
    sums = {sum(s for _, s in es) for es in per.values()}
    consistent = len(sums) == 1
    report = DegreeReport(
        degree=sums.pop() if consistent else None,
        per_target_facet=MappingProxyType({i: tuple(es) for i, es in per.items()}),
        consistent=consistent,
        degenerate_facet_count=degenerate,
    )
    return report, not consistent


def _flip_first_sign(ls):
    signs = ls.oriented.signs
    return labeled_sphere(
        OrientedComplex(ls.oriented.base, (-signs[0],) + signs[1:]), ls.labels
    )


def _differential_corpus():
    for n in range(1, 7):
        for d in (1, 2, 5, 13):
            for signed in (d, -d):
                ls = construct(n, signed).labeled
                yield f"construct({n}, {signed})", ls
                # an odd color permutation (a transposition) negates the degree
                yield f"relabel construct({n}, {signed})", relabel(
                    ls, {c: {1: 2, 2: 1}.get(c, c) for c in range(1, n + 3)}
                )
                yield f"reverse construct({n}, {signed})", reverse_orientation(ls)
                yield f"flipped construct({n}, {signed})", _flip_first_sign(ls)
        yield f"degree_zero_sphere({n})", degree_zero_sphere(n).labeled


def test_degree_report_matches_per_facet_reference():
    # the report signs each color pattern once; the reference signs every facet
    raised = 0
    for name, ls in _differential_corpus():
        expected, raises = _per_facet_report(ls)
        if raises:
            raised += 1
            with pytest.raises(InconsistentDegree) as err:
                _degree_report(ls)
            assert err.value.report == expected, name
        else:
            assert _degree_report(ls) == expected, name
    assert raised > 0  # the flipped copies reach the InconsistentDegree path


def test_degree_report_signs_each_color_pattern_once(monkeypatch):
    degree_mod = importlib.import_module("spheremap.degree")  # not the function
    calls = []

    def counting(labels, full, eps, facet):
        calls.append(facet)
        return _facet_sign(labels, full, eps, facet)

    monkeypatch.setattr(degree_mod, "_facet_sign", counting)
    for n, d in ((2, -300), (3, 300), (4, 13), (1, 5)):
        ls = construct(n, d).labeled
        patterns = {tuple(ls.labels[v] for v in f) for f in ls.complex.facets}
        calls.clear()
        assert _degree_report(ls).degree == d
        assert len(calls) == len(patterns) < len(ls.complex.facets)
    ls = degree_zero_sphere(3).labeled
    calls.clear()
    _degree_report(ls)
    assert len(calls) == len({tuple(ls.labels[v] for v in f) for f in ls.complex.facets})


def test_degree_inconsistent_on_corrupted_orientation():
    ls = labeled_tetra()
    broken = OrientedComplex(
        ls.oriented.base, (-ls.oriented.signs[0],) + ls.oriented.signs[1:]
    )
    with pytest.raises(InconsistentDegree) as err:
        degree(labeled_sphere(broken, ls.labels))
    report = err.value.report
    assert report is not None and not report.consistent
    assert len(set(report.per_target_sums.values())) > 1


def test_permutation_sign():
    assert permutation_sign({1: 1, 2: 2, 3: 3}) == 1
    assert permutation_sign({1: 2, 2: 1, 3: 3}) == -1
    assert permutation_sign({1: 2, 2: 3, 3: 1}) == 1


def test_relabel_identity_keeps_degree():
    ls = cyclic_circle(3).labeled
    assert degree(relabel(ls, {1: 1, 2: 2, 3: 3})).degree == 3


def test_relabel_transposition_flips_witness():
    raw = degree_four_witness(raw=True).labeled
    swapped = relabel(raw, {1: 2, 2: 1, 3: 3, 4: 4, 5: 5})
    assert degree(swapped).degree == 4


def test_relabel_even_cycle_preserves():
    ls = cyclic_circle(5).labeled
    assert degree(relabel(ls, {1: 2, 2: 3, 3: 1})).degree == 5


def test_relabel_sign_law_random():
    rng = random.Random(52390)
    pool = [
        cyclic_circle(4).labeled,
        boundary_simplex(3).labeled,
        degree_four_witness().labeled,
        one_point_suspension(cyclic_circle(2)).labeled,
    ]
    for _ in range(40):
        ls = rng.choice(pool)
        k = ls.color_count
        images = rng.sample(range(1, k + 1), k)
        perm = dict(zip(range(1, k + 1), images))
        expected = permutation_sign(perm) * degree(ls).degree
        assert degree(relabel(ls, perm)).degree == expected


def test_relabel_rejects_non_bijection():
    ls = labeled_tetra()
    with pytest.raises(NotAPermutation):
        relabel(ls, {1: 1, 2: 1, 3: 2, 4: 3})
    with pytest.raises(NotAPermutation):
        relabel(ls, {1: 1, 2: 2, 3: 3})


def test_reverse_orientation_negates():
    ls = cyclic_circle(3).labeled
    assert degree(reverse_orientation(ls)).degree == -3
    assert degree(reverse_orientation(reverse_orientation(ls))).degree == 3
    assert degree(reverse_orientation(boundary_simplex(4).labeled)).degree == -1


@pytest.mark.parametrize("name, ls", [
    *((f"construct({n}, {d})", construct(n, d).labeled) for n in range(1, 7) for d in (-9, -1, 1, 2, 7)),
    ("degree_zero_sphere(3)", degree_zero_sphere(3).labeled),
    ("degree_four_witness()", degree_four_witness().labeled),
    ("degree_four_witness(raw=True)", degree_four_witness(raw=True).labeled),
])
def test_reverse_orientation_negates_a_computed_report(name, ls):
    degree(ls)
    flipped = reverse_orientation(ls)
    assert "degree_report" in vars(flipped), name
    assert flipped.degree_report == _degree_report(flipped), name
    assert flipped.degree_report.degree == -ls.degree_report.degree
    assert reverse_orientation(flipped).degree_report == ls.degree_report, name


def test_reverse_orientation_seeds_no_report_that_was_never_computed():
    ls = labeled_sphere(orient(build_complex(TETRA)), {1: 1, 2: 2, 3: 3, 4: 4})
    flipped = reverse_orientation(ls)
    assert "degree_report" not in vars(ls)
    assert "degree_report" not in vars(flipped)
    assert degree(flipped) == _degree_report(flipped)
    assert degree(flipped).degree == -1


def test_reverse_commutes_with_relabel():
    ls = degree_four_witness().labeled
    perm = {1: 3, 2: 1, 3: 2, 4: 5, 5: 4}
    a = relabel(reverse_orientation(ls), perm)
    b = reverse_orientation(relabel(ls, perm))
    assert degree(a).degree == degree(b).degree
    assert a.labels == b.labels and a.oriented == b.oriented


def test_singleton_colors():
    assert singleton_colors(degree_four_witness().labeled) == {}
    assert singleton_colors(boundary_simplex(2).labeled) == {1: 1, 2: 2, 3: 3, 4: 4}
    ls = labeled_tetra({1: 1, 2: 2, 3: 3, 4: 1})
    assert singleton_colors(ls) == {2: 2, 3: 3}


def test_link_reduction_boundary_simplex():
    for n in (1, 2, 3, 4):
        ls = boundary_simplex(n).labeled
        for v in ls.oriented.vertices:
            red = link_reduction(ls, v)
            assert red.dimension == n - 1
            assert degree(red).degree == 1
            if n == 1:  # two points; there is no boundary_simplex(0)
                assert len(red.complex.facets) == 2
                continue
            assert (
                canonical_form(red.complex).key
                == canonical_form(boundary_simplex(n - 1).labeled.complex).key
            )


def test_link_reduction_witness_color_not_singleton():
    ls = degree_four_witness().labeled
    for v in (5, 10):  # color 5 sits on both of these
        with pytest.raises(NotSingletonColor):
            link_reduction(ls, v)


def test_link_reduction_apex_round_trip():
    cert = cyclic_circle(3)
    susp = one_point_suspension(cert)
    apex = max(susp.labeled.oriented.vertices)
    red = link_reduction(susp.labeled, apex)
    assert red.complex.facets == cert.labeled.complex.facets
    assert red.labels == cert.labeled.labels
    assert degree(red).degree == 3


def test_link_reduction_off_apex_round_trips():
    # octahedron with antipodal pairs (1, 6), (2, 4), (3, 5): vertex 6 is
    # not in the link of vertex 1, so it must not keep a label
    octahedron = build_complex([
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5),
        (6, 2, 3), (6, 3, 4), (6, 4, 5), (6, 2, 5),
    ])
    ls = labeled_sphere(orient(octahedron), {1: 1, 2: 2, 3: 3, 4: 2, 5: 3, 6: 4})
    red = link_reduction(ls, 1)
    assert set(red.labels) == set(red.oriented.vertices) == {2, 3, 4, 5}
    assert red.labels == {2: 1, 3: 2, 4: 1, 5: 2}
    assert parse(serialize(red)) == red


def test_link_reduction_guards():
    ls = boundary_simplex(2).labeled
    with pytest.raises(UnknownVertex):
        link_reduction(ls, 77)
    # True and 1.0 equal 1 and hash alike, so they would reduce at vertex 1
    for v in (True, 1.0, "a"):
        with pytest.raises(UnknownVertex):
            link_reduction(boundary_simplex(3).labeled, v)
    zero_sphere = labeled_sphere(
        OrientedComplex(build_complex([(1,), (2,)]), (1, -1)), {1: 1, 2: 2}
    )
    with pytest.raises(InvalidDimension):
        link_reduction(zero_sphere, 1)


def test_link_reduction_rejects_pinched_link():
    # two tetrahedra glued at vertex 1: each piece is fine, but the link of
    # the pinch point is two disjoint triangles, not a sphere
    facets, signs = [], []
    for block in ([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)],
                  [(1, 5, 6), (1, 5, 7), (1, 6, 7), (5, 6, 7)]):
        oc = orient(build_complex(block))
        facets.extend(oc.facets)
        signs.extend(oc.signs)
    order = sorted(range(len(facets)), key=lambda i: facets[i])
    pinched = OrientedComplex(
        Complex(2, tuple(facets[i] for i in order)),
        tuple(signs[i] for i in order),
    )
    ls = labeled_sphere(
        pinched, {1: 1, 2: 2, 3: 3, 4: 4, 5: 2, 6: 3, 7: 4}
    )
    with pytest.raises(InvalidLink):
        link_reduction(ls, 1)


def test_link_reduction_nonzero_degree_bounded_vertices_has_cut():
    # any nonzero-degree instance with at most 2n+3 vertices must expose a
    # singleton color (n+2 colors over few vertices), so reduction applies
    for cert in (boundary_simplex(3), one_point_suspension(boundary_simplex(2))):
        ls = cert.labeled
        assert len(ls.oriented.vertices) <= 2 * ls.dimension + 3
        assert degree(ls).degree != 0
        assert singleton_colors(ls)


def test_cached_results_are_read_only():
    ls = cyclic_circle(2).labeled
    with pytest.raises(TypeError):
        degree(ls).per_target_facet[1] = ()
    with pytest.raises(TypeError):
        ls.labels[ls.complex.vertices[0]] = 1
    cached = (
        ls.color_classes,
        degree(ls).per_target_sums,
        ls.complex.facets_at,
        ls.complex.ridge_entries,
        ls.oriented.sign_by_facet,
    )
    for mapping in cached:
        with pytest.raises(TypeError):
            mapping[0] = 0
    assert degree(ls).degree == 2 and len(degree(ls).per_target_facet[1]) == 2
