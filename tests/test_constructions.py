import hashlib
import heapq
import importlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremap import (
    MAX_BUILD_DIMENSION,
    MAX_BUILD_VERTICES,
    BadFacetColors,
    BadFacetSign,
    BadLabeling,
    BudgetExceeded,
    FacetNotFound,
    InvalidDimension,
    InvalidLink,
    Complex,
    ConstructionCertificate,
    LabeledSphere,
    OrientedComplex,
    PivotNotFound,
    SphereStatus,
    SpheremapError,
    UnknownVertex,
    UnsupportedDimension,
    ValidationError,
    ZeroDegree,
    boundary_simplex,
    build_complex,
    check_closed_pseudomanifold,
    coherence_failures,
    construct,
    cyclic_circle,
    degree,
    degree_four_witness,
    degree_zero_sphere,
    enumerate_spheres,
    facet_sign,
    insertion_step,
    is_sphere,
    known_lambda,
    labeled_sphere,
    lambda_search,
    lambda_table,
    link_reduction,
    load_certificate,
    one_point_suspension,
    orient,
    parse,
    permutation_sign,
    relabel,
    replay,
    reverse_orientation,
    serialize,
    singleton_colors,
    vertex_bound,
    vertex_link,
)
from spheremap.degree import _facet_sign

from insertion_oracle import splice_insertions


def test_boundary_simplex_triangle():
    cert = boundary_simplex(1)
    assert cert.dimension == 1 and cert.vertex_count == 3
    assert cert.claimed_degree == 1
    assert cert.labeled.labels == {1: 1, 2: 2, 3: 3}


def test_boundary_simplex_three_dimensional():
    cert = boundary_simplex(3)
    assert cert.vertex_count == 5 and len(cert.labeled.complex.facets) == 5
    assert cert.claimed_degree == 1


def test_boundary_simplex_guard():
    with pytest.raises(InvalidDimension):
        boundary_simplex(0)


def test_cyclic_circle_small():
    cert = cyclic_circle(1)
    assert cert.vertex_count == 3 and cert.claimed_degree == 1
    hexagon = cyclic_circle(2)
    assert hexagon.vertex_count == 6 and hexagon.claimed_degree == 2
    assert [hexagon.labeled.labels[v] for v in range(1, 7)] == [1, 2, 3, 1, 2, 3]


def test_cyclic_circle_negative_and_zero():
    cert = cyclic_circle(-3)
    assert cert.vertex_count == 9 and cert.claimed_degree == -3
    with pytest.raises(ZeroDegree):
        cyclic_circle(0)


def test_degree_zero_sphere():
    cert = degree_zero_sphere(2)
    assert cert.vertex_count == 4 and cert.claimed_degree == 0
    assert cert.labeled.labels[4] == 3  # duplicated color
    with pytest.raises(InvalidDimension):
        degree_zero_sphere(0)


def test_suspension_of_hexagon_any_pivot():
    hexagon = cyclic_circle(2)
    for pivot in range(1, 7):
        cert = one_point_suspension(hexagon, pivot)
        assert cert.dimension == 2
        assert cert.vertex_count == 7
        assert cert.claimed_degree == 2
        assert is_sphere(cert.labeled.complex).status is SphereStatus.SPHERE


def test_suspension_of_boundary_simplex():
    for n in (2, 3):
        cert = one_point_suspension(boundary_simplex(n))
        assert cert.vertex_count == n + 3 and cert.claimed_degree == 1
        assert cert.dimension == n + 1


def test_suspension_twice():
    cert = one_point_suspension(one_point_suspension(cyclic_circle(3)))
    assert cert.dimension == 3
    assert cert.vertex_count == 11  # 9 + 1 + 1
    assert cert.claimed_degree == 3


def test_suspension_apex_color_and_recipe():
    cert = one_point_suspension(cyclic_circle(2), pivot=4)
    apex = max(cert.labeled.oriented.vertices)
    assert cert.labeled.labels[apex] == cert.dimension + 2
    assert cert.recipe[-1] == ("suspend", 4)


def test_suspension_accepts_bare_labeled_sphere():
    ls = cyclic_circle(2).labeled
    cert = one_point_suspension(ls)
    assert cert.claimed_degree == 2
    assert cert.recipe[0][0] == "literal"
    assert replay(cert.recipe).labeled == cert.labeled


def test_suspension_pivot_guard():
    with pytest.raises(PivotNotFound):
        one_point_suspension(cyclic_circle(2), pivot=99)
    with pytest.raises(TypeError):
        one_point_suspension(42)


def test_insertion_step_counts():
    cert = insertion_step(boundary_simplex(2))
    assert cert.vertex_count == 8 and cert.claimed_degree == 3
    assert len(cert.labeled.complex.facets) == 12  # 4 + (3^2 - 1)

    cert = insertion_step(boundary_simplex(3))
    assert cert.vertex_count == 10 and cert.claimed_degree == 4
    assert len(cert.labeled.complex.facets) == 20

    cert = insertion_step(insertion_step(boundary_simplex(2)))
    assert cert.vertex_count == 12 and cert.claimed_degree == 5
    assert len(cert.labeled.complex.facets) == 20


def test_insertion_step_explicit_facet_guards():
    base = boundary_simplex(2)
    with pytest.raises(FacetNotFound):
        insertion_step(base, (7, 8, 9))
    with pytest.raises(BadFacetColors):
        insertion_step(base, (1, 2, 4))  # colors {1,2,4}
    reversed_base = reverse_orientation(base.labeled)
    with pytest.raises(BadFacetSign):
        insertion_step(reversed_base, (1, 2, 3))
    # degree -1 input has no positively mapped {1..n+1} facet at all
    with pytest.raises(FacetNotFound):
        insertion_step(reversed_base)
    # on a 0-sphere the step would drop two vertices and keep their labels
    zero_sphere = labeled_sphere(
        OrientedComplex(build_complex([(1,), (2,)]), (1, -1)), {1: 1, 2: 2}
    )
    with pytest.raises(InvalidDimension, match="insertion_step needs n >= 1, got 0"):
        insertion_step(zero_sphere)


def test_witness_shape():
    cert = degree_four_witness()
    assert cert.dimension == 3
    assert cert.vertex_count == 10
    assert len(cert.labeled.complex.facets) == 20
    assert cert.claimed_degree == 4


def test_witness_raw_every_facet_negative():
    rep = degree(degree_four_witness(raw=True).labeled)
    assert rep.degree == -4
    assert rep.degenerate_facet_count == 0
    for entries in rep.per_target_facet.values():
        assert len(entries) == 4
        assert all(s == -1 for _, s in entries)


def test_witness_links_are_exact_spheres():
    K = degree_four_witness().labeled.complex
    for v in K.vertices:
        assert is_sphere(vertex_link(K, v)).status is SphereStatus.SPHERE


def test_vertex_bound_values():
    assert vertex_bound(2, 3) == 12
    assert vertex_bound(3, 100) == 174
    assert vertex_bound(2, -4) == 14
    assert vertex_bound(6, 2) == 16
    with pytest.raises(InvalidDimension):
        vertex_bound(0, 3)


def test_construct_small_sphere():
    cert = construct(2, 3)
    assert cert.claimed_degree == 3
    assert cert.vertex_count == 8
    assert cert.vertex_count <= vertex_bound(2, 3)


def test_construct_degree_one():
    for n in range(1, 7):
        cert = construct(n, 1)
        assert cert.vertex_count == n + 2 and cert.claimed_degree == 1


def test_construct_degree_two_tall():
    cert = construct(5, 2)
    assert cert.vertex_count == 10  # n + d + 3
    assert cert.claimed_degree == 2


def test_construct_large_degree():
    cert = construct(3, 100)
    assert cert.claimed_degree == 100
    assert cert.vertex_count <= 174


def test_construct_negative_and_zero_degree():
    cert = construct(2, -3)
    assert cert.claimed_degree == -3 and cert.vertex_count == 8
    assert cert.recipe[-1] == ("reverse",)
    zero = construct(4, 0)
    assert zero.claimed_degree == 0 and zero.vertex_count == 6
    circle = construct(1, -2)
    assert circle.claimed_degree == -2 and circle.vertex_count == 6


def test_construct_guard():
    with pytest.raises(InvalidDimension):
        construct(0, 5)


def test_construct_rejects_bools_and_floats():
    # True would build degree 1, and a float fails deep inside with TypeError
    for n, d in ((2, 4.0), (2, True), (2.0, 4), (False, 3)):
        for build in (construct, vertex_bound):
            with pytest.raises(ValidationError, match="must be an int"):
                build(n, d)
    for build in (boundary_simplex, cyclic_circle, degree_zero_sphere):
        for arg in (True, 2.0):
            with pytest.raises(ValidationError, match="must be an int"):
                build(arg)


def test_construct_bound_random_sample():
    rng = random.Random(7711)
    for _ in range(12):
        n = rng.randint(2, 6)
        d = rng.randint(2, 60)
        cert = construct(n, d)
        assert cert.claimed_degree == d
        assert cert.vertex_count <= vertex_bound(n, d)
        assert cert.vertex_count == len(set(cert.labeled.labels))


def test_replay_reproduces_certificates():
    for cert in (construct(2, 5), degree_four_witness(), construct(1, 4),
                 construct(3, -7), degree_zero_sphere(3)):
        again = replay(cert.recipe)
        assert again.labeled == cert.labeled
        assert again.claimed_degree == cert.claimed_degree
        assert again.recipe == cert.recipe


def test_replay_guards():
    with pytest.raises(SpheremapError):
        replay(())
    with pytest.raises(SpheremapError):
        replay((("warp", 3),))


@pytest.mark.parametrize(
    "recipe",
    [
        (),
        (("warp", 3),),
        [("boundary_simplex",)],
        [("suspend", 1)],
        [("boundary_simplex", "x")],
        [("boundary_simplex", True)],
        [("insert", (1, 2, 3)), ("boundary_simplex", 2)],
        [("boundary_simplex", 2), ("insert", [1, 2, 3])],
        [("boundary_simplex", 2), ("cyclic_circle", 2)],
        [["boundary_simplex", 2]],
        "boundary_simplex",
    ],
)
def test_replay_rejects_malformed_recipes(recipe):
    with pytest.raises(ValidationError):
        replay(recipe)


def test_every_seed_inside_the_caps_reads_back():
    # each seed's output is a valid document, and one past the caps is
    # refused as its document and its recipe would be
    seeds = [boundary_simplex(n) for n in range(1, MAX_BUILD_DIMENSION + 1)]
    seeds += [degree_zero_sphere(n) for n in range(1, MAX_BUILD_DIMENSION + 1)]
    seeds += [cyclic_circle(d) for d in (1, -2, 5, MAX_BUILD_VERTICES // 3)]
    seeds += [degree_four_witness(), degree_four_witness(raw=True)]
    for cert in seeds:
        assert parse(serialize(cert)) == cert.labeled
        assert load_certificate(serialize(cert)) == cert
    n = MAX_BUILD_DIMENSION + 1
    caps = "is above the build caps (dimension 12, 20000 vertices)"
    for build, recipe in (
        (lambda: boundary_simplex(n), [("boundary_simplex", n)]),
        (lambda: degree_zero_sphere(n), [("degree_zero", n)]),
        (lambda: cyclic_circle(-6667), [("cyclic_circle", -6667)]),
    ):
        messages = []
        for run in (build, lambda: replay(recipe)):
            with pytest.raises(BudgetExceeded) as caught:
                run()
            messages.append(str(caught.value))
        assert messages[0] == messages[1] and messages[0].endswith(caps)
    with pytest.raises(BudgetExceeded, match="^dimension 13 on 15 vertices is above"):
        boundary_simplex(n)


def test_construct_budget_guard():
    with pytest.raises(BudgetExceeded):
        construct(2, 100_000_000)
    with pytest.raises(BudgetExceeded):
        construct(MAX_BUILD_DIMENSION + 1, 1)
    n = 3  # d is the largest |d| whose vertex bound is within the cap
    d = (MAX_BUILD_VERTICES - 2 * n - 2) * n // (n + 2)
    assert vertex_bound(n, d) <= MAX_BUILD_VERTICES < vertex_bound(n, d + 1)
    with pytest.raises(BudgetExceeded):
        construct(n, d + 1)
    # a vertex bound of 4,301 digits, past what str() renders, is not printed
    nines = int("9" * 4300)
    caps = r"is above the build caps \(dimension 12, 20000 vertices\)$"
    with pytest.raises(BudgetExceeded, match=f"^dimension 3 on <too long to print> vertices {caps}"):
        construct(3, nines)
    with pytest.raises(BudgetExceeded, match="^dimension <too long to print> on <too long"):
        construct(nines, 3)


HUGE = 10 ** 4300  # 4,301 digits, one past what str() and repr() render
TRIANGLE = orient(build_complex([(1, 2), (2, 3), (1, 3)]))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: lambda_search(1, 2, HUGE), BudgetExceeded),
        (lambda: lambda_search(HUGE, 1, 5), UnsupportedDimension),
        (lambda: lambda_table([{"n": 1, "d": 2, "v_max": HUGE}]), BudgetExceeded),
        (lambda: next(enumerate_spheres(HUGE, 5)), UnsupportedDimension),
        (lambda: known_lambda(-HUGE, 1), InvalidDimension),
        (lambda: construct(-HUGE, 1), InvalidDimension),
        (lambda: boundary_simplex(-HUGE), InvalidDimension),
        (lambda: degree_zero_sphere(-HUGE), InvalidDimension),
        (lambda: vertex_bound(-HUGE, 1), InvalidDimension),
        (lambda: labeled_sphere(TRIANGLE, {1: HUGE, 2: 2, 3: 3}), BadLabeling),
        (lambda: labeled_sphere(TRIANGLE, {1: 1, 2: 2, 3: 3, HUGE: 1}), BadLabeling),
        (lambda: facet_sign(boundary_simplex(1).labeled, (1, HUGE)), UnknownVertex),
    ],
    ids=[
        "lambda_search-v_max", "lambda_search-n", "lambda_table-v_max", "enumerate_spheres-n",
        "known_lambda-n", "construct-n", "boundary_simplex-n", "degree_zero_sphere-n",
        "vertex_bound-n", "labeled_sphere-color", "labeled_sphere-domain", "facet_sign-vertex",
    ],
)
def test_errors_name_ints_too_long_to_print(call, error):
    with pytest.raises(error, match="<too long to print>"):
        call()


def test_replay_budget_guard():
    with pytest.raises(BudgetExceeded):
        replay([("boundary_simplex", MAX_BUILD_DIMENSION + 1)])
    with pytest.raises(BudgetExceeded):
        replay([("cyclic_circle", MAX_BUILD_VERTICES // 3 + 1)])
    with pytest.raises(BudgetExceeded):
        replay([("boundary_simplex", 2)] + [("insert", (1, 2, 3))] * (MAX_BUILD_VERTICES // 4))


def test_moves_obey_build_caps(monkeypatch):
    # a move's output must load again, and loading replays within the caps
    constructions_mod = importlib.import_module("spheremap.constructions")
    base = construct(3, 6)
    assert base.vertex_count == 14
    monkeypatch.setattr(constructions_mod, "MAX_BUILD_VERTICES", 14)
    with pytest.raises(BudgetExceeded):
        one_point_suspension(base)
    with pytest.raises(BudgetExceeded):
        insertion_step(base)
    monkeypatch.setattr(constructions_mod, "MAX_BUILD_DIMENSION", 3)
    monkeypatch.setattr(constructions_mod, "MAX_BUILD_VERTICES", 15)
    with pytest.raises(BudgetExceeded):
        one_point_suspension(base)
    monkeypatch.setattr(constructions_mod, "MAX_BUILD_DIMENSION", 4)
    for move, size in ((one_point_suspension, 15), (insertion_step, 19)):
        monkeypatch.setattr(constructions_mod, "MAX_BUILD_VERTICES", size)
        out = move(base)
        assert out.vertex_count == size
        loaded = load_certificate(serialize(out))
        assert (loaded.labeled, loaded.recipe) == (out.labeled, out.recipe)


def test_insertion_run_matches_single_steps():
    # an explicit facet consumes the smallest qualifying one, so the next
    # default step must skip it and pick the same facet a single step picks
    constructions_mod = importlib.import_module("spheremap.constructions")
    base = construct(3, 7)
    smallest = sorted(f for f, s in degree(base.labeled).per_target_facet[5] if s == 1)[0]
    run = constructions_mod._insert(base, [smallest, None, None])
    steps = insertion_step(insertion_step(insertion_step(base, smallest)))
    assert run.labeled == steps.labeled and run.recipe == steps.recipe
    assert run.claimed_degree == 16


def test_insert_pushes_exactly_the_new_qualifying_facets(monkeypatch):
    # the rule the heap pushes replace: a facet new in an insertion step
    # qualifies for a later one when it maps with sign +1 onto target n+2
    constructions_mod = importlib.import_module("spheremap.constructions")
    pushed = []

    class RecordingHeapq:
        heappop = staticmethod(heapq.heappop)

        @staticmethod
        def heappush(heap, facet):
            pushed.append(facet)
            heapq.heappush(heap, facet)

    for n, d in [(2, 9), (2, -14), (3, 13), (3, -8), (4, 11), (5, 17), (6, -20)]:
        with monkeypatch.context() as m:
            m.setattr(constructions_mod, "heapq", RecordingHeapq)
            pushed.clear()
            recipe = construct(n, d).recipe
            got = list(pushed)
        expected = []
        for k, step in enumerate(recipe):
            if step[0] != "insert":
                continue
            before = replay(recipe[:k]).labeled.complex.facet_set
            after = replay(recipe[:k + 1]).labeled
            top = after.dimension + 2
            expected.extend(
                f for f, eps in zip(after.complex.facets, after.oriented.signs)
                if f not in before and _facet_sign(after.labels, top, eps, f) == (1, top)
            )
        assert expected and len(got) == len(set(got))
        assert set(got) == set(expected)


def _outcome(splice, ls, facets):
    """A splice's signs and labels as item lists (key order included) and
    its steps, or the type and message of the error it raises."""
    try:
        signs, labels, steps = splice(ls, degree(ls), facets)
    except SpheremapError as e:
        return type(e), str(e)
    return list(signs.items()), list(labels.items()), steps


@pytest.mark.parametrize("n", range(1, 13))
def test_pattern_splice_matches_the_two_stage_oracle(n):
    constructions_mod = importlib.import_module("spheremap.constructions")
    rng = random.Random(n)
    for base in (construct(n, n + 1), construct(n, 2 * n + 1), construct(n, -n - 1)):
        ls = base.labeled
        qualifying = sorted(f for f, s in degree(ls).per_target_facet[n + 2] if s == 1)
        others = rng.sample(ls.complex.facets, 2)
        runs = [[None] * k for k in range(1, 7)]
        if qualifying:
            mid = qualifying[len(qualifying) // 2]
            # an explicit facet, then a default step, then one it may have consumed
            runs += [[qualifying[-1]], [qualifying[-1], None, mid], [mid, None, qualifying[0]]]
        runs += [[f] for f in others] + [[None, f] for f in others]
        for facets in runs:
            got = _outcome(constructions_mod._splice_insertions, ls, facets)
            assert got == _outcome(splice_insertions, ls, facets), facets
            if len(got) == 2:  # both raised
                continue
            signs, labels, steps = splice_insertions(ls, degree(ls), facets)
            cert = constructions_mod._insert(base, facets)
            expected = labeled_sphere(OrientedComplex.from_pairs(n, signs.items()), labels)
            assert cert.labeled == expected and cert.recipe == base.recipe + tuple(steps)
            assert replay(cert.recipe) == cert
        if qualifying:
            assert insertion_step(base, qualifying[-1]).recipe[-1] == ("insert", qualifying[-1])


# the second insertion of a run names a facet the first one consumed, a
# facet without the colors {1..n+1}, or one mapping with sign -1
BAD_RUN_STEPS = [
    ((1, 2, 3), FacetNotFound, "(1, 2, 3) is not a facet of the complex"),
    ((1, 3, 4), BadFacetColors, "facet colors [1, 3] != [1, 2, 3]"),
    ((1, 2, 4), BadFacetSign, "facet (1, 2, 4) has map sign -1, need +1"),
]


@pytest.mark.parametrize("facet, error, message", BAD_RUN_STEPS)
def test_bad_insert_in_a_run_raises_its_move_error(facet, error, message):
    recipe = [("degree_zero", 2), ("insert", (1, 2, 3)), ("insert", facet)]
    with pytest.raises(error) as caught:
        replay(recipe)
    assert str(caught.value) == message
    with pytest.raises(error) as one_step:
        insertion_step(insertion_step(degree_zero_sphere(2), (1, 2, 3)), facet)
    assert str(one_step.value) == message

    # a document of the shape the recipe claims, so only replaying it fails
    doc = json.loads(serialize(insertion_step(insertion_step(degree_zero_sphere(2)))))
    doc["metadata"]["recipe"] = [list(step) for step in recipe]
    with pytest.raises(ValidationError) as wrapped:
        load_certificate(json.dumps(doc))
    assert str(wrapped.value) == f"recipe replay failed: {message}"


def test_certificates_self_verify():
    # claimed numbers always come from the engine, never from arithmetic
    for cert in (construct(4, 9), construct(2, 2), cyclic_circle(-5)):
        assert degree(cert.labeled).degree == cert.claimed_degree
        assert len(cert.labeled.oriented.vertices) == cert.claimed_vertex_count


def test_construct_runs_degree_pass_once_per_certificate(monkeypatch):
    constructions_mod = importlib.import_module("spheremap.constructions")
    degree_mod = importlib.import_module("spheremap.degree")  # not the function
    calls = {"certify": 0, "degree": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(constructions_mod, "_certify", "certify")
    counting(degree_mod, "_degree_report", "degree")
    for d in (30, 300):
        calls.update(certify=0, degree=0)
        cert = construct(3, d)
        assert cert.claimed_degree == d
        # boundary_simplex(2), one insertion, one suspension, then one
        # batched run of insertions, whatever its length
        assert calls == {"certify": 4, "degree": 4}
    # the reversed certificate takes the negated report: one pass fewer than
    # signing every facet of the reversed sphere again
    recipe = construct(3, -300).recipe
    for build in (lambda: construct(3, -300), lambda: replay(recipe)):
        calls.update(certify=0, degree=0)
        assert build().claimed_degree == -300
        assert calls == {"certify": 5, "degree": 4}


def _oriented_union(*blocks) -> OrientedComplex:
    oriented = [orient(build_complex(block)) for block in blocks]
    return OrientedComplex.from_pairs(
        oriented[0].dimension,
        [pair for oc in oriented for pair in zip(oc.facets, oc.signs)],
    )


def test_one_gate_names_the_first_incoherent_ridge():
    # documents, literal seeds and link reductions pass one sphere gate
    ls = boundary_simplex(2).labeled
    signs = ls.oriented.signs
    flipped = labeled_sphere(OrientedComplex(ls.complex, (-signs[0],) + signs[1:]), ls.labels)
    doc = json.loads(serialize(ls))
    assert doc["orientation"][0][1:] == [1, 2, 3]
    doc["orientation"][0][0] *= -1
    with pytest.raises(ValidationError) as caught:
        parse(json.dumps(doc))
    assert str(caught.value) == "document orientation not coherent across ridge [1, 2]"
    with pytest.raises(ValidationError) as caught:
        replay([("literal", flipped)])
    assert str(caught.value) == "literal seed orientation not coherent across ridge [1, 2]"
    # the link of vertex 1 carries the flipped sign onto its edge (2, 3)
    with pytest.raises(InvalidLink) as caught:
        link_reduction(flipped, 1)
    assert str(caught.value) == "link of 1 orientation not coherent across ridge [2]"


def test_moves_reject_vertex_ids_that_are_not_integers():
    # True and 1.0 hash like vertex 1; taken as vertex ids they would enter
    # the recipe and leave a result that neither loads nor replays
    cert = construct(2, 1)
    for pivot in (True, 1.0, "1"):
        with pytest.raises(PivotNotFound):
            one_point_suspension(cert, pivot)
    for facet in ((True, 2, 3), (1.0, 2, 3), ("a", 1, 2), 5):
        with pytest.raises(FacetNotFound):
            insertion_step(cert, facet)
    for out in (one_point_suspension(cert, 1), insertion_step(cert, [3, 2, 1])):
        assert load_certificate(serialize(out)) == out


def test_the_sphere_gate_refuses_malformed_signs():
    # one sign too few, one too many, doubled, all 0, and coherent signs in
    # a list, which would leave an unhashable sphere unequal to its parsed
    # copy: each entry point refuses the literal seed before any move reads it
    ls = construct(2, 3).labeled
    K, signs = ls.complex, ls.oriented.signs
    malformed = (
        signs[:-1], signs + (1,), tuple(2 * s for s in signs), (0,) * len(signs), list(signs)
    )
    for bad in malformed:
        seed = LabeledSphere(OrientedComplex(K, bad), ls.labels)
        entries = (
            lambda: replay((("literal", seed),)),
            lambda: one_point_suspension(seed),
            lambda: insertion_step(seed),
        )
        for entry in entries:
            with pytest.raises(ValidationError) as caught:
                entry()
            assert str(caught.value) == (
                "literal seed orientation needs a tuple of exactly one sign, +1 or -1, per facet"
            )
    assert replay((("literal", LabeledSphere(OrientedComplex(K, signs), ls.labels)),)).labeled == ls


def test_replay_rejects_bad_literal_seeds():
    two_circles = _oriented_union([(1, 2), (2, 3), (1, 3)], [(4, 5), (5, 6), (4, 6)])
    labels = {v: (v - 1) % 3 + 1 for v in range(1, 7)}
    with pytest.raises(ValidationError, match="literal seed fails sphere checks"):
        replay([("literal", labeled_sphere(two_circles, labels))])

    circle = cyclic_circle(2).labeled
    signs = circle.oriented.signs
    flipped = OrientedComplex(circle.complex, (-signs[0],) + signs[1:])
    with pytest.raises(ValidationError, match="not coherent"):
        replay([("literal", labeled_sphere(flipped, circle.labels))])

    # a document core, here with an orientation entry missing, is not a
    # literal seed: documents parse it into a LabeledSphere first
    core = {
        "dimension": 1,
        "facets": [list(f) for f in circle.complex.facets],
        "labels": dict(circle.labels),
        "orientation": [[s, *f] for f, s in zip(circle.complex.facets, signs)][1:],
    }
    with pytest.raises(SpheremapError):
        replay([("literal", core)])
    with pytest.raises(SpheremapError):
        one_point_suspension(labeled_sphere(two_circles, labels))


def test_literal_seed_documents_are_unchanged():
    lifted = one_point_suspension(cyclic_circle(2).labeled)
    assert lifted.recipe == (("literal", cyclic_circle(2).labeled), ("suspend", 1))
    inserted = insertion_step(load_certificate(serialize(boundary_simplex(2).labeled)))
    digests = [hashlib.sha256(serialize(c).encode()).hexdigest() for c in (lifted, inserted)]
    assert digests == [
        "5e24ee38c10f51249340fb286deb51b602d37c5f435f0dae76ba2215e89f6980",
        "1130211a08a03a8124c2b44ea70774f6faf64a13e6bcc6c92797930320e67bc7",
    ]
    assert load_certificate(serialize(inserted)).recipe == inserted.recipe


def _assert_cached_invariants_hold(x) -> None:
    """Cached closedness, orientation and degree equal a fresh computation
    on an equal, uncached object; the move's orientation is coherent; the
    result round-trips through a document."""
    ls = x.labeled if isinstance(x, ConstructionCertificate) else x
    fresh_complex = Complex(ls.dimension, ls.complex.facets)
    fresh = labeled_sphere(OrientedComplex(fresh_complex, ls.oriented.signs), ls.labels)
    assert check_closed_pseudomanifold(ls.complex) is ls.complex.closedness
    assert check_closed_pseudomanifold(ls.complex) == check_closed_pseudomanifold(fresh_complex)
    assert orient(ls.complex) is ls.complex.orientation
    assert orient(ls.complex) == orient(fresh_complex)
    assert degree(ls) is ls.degree_report
    assert degree(ls) == degree(fresh)
    if isinstance(x, ConstructionCertificate):
        assert x.claimed_degree == degree(fresh).degree
        assert replay(x.recipe).labeled == ls
    assert coherence_failures(ls.oriented) == ()
    assert parse(serialize(ls)) == ls


# insert is listed twice so chains often hold runs of consecutive insertions,
# which replay splices in one batch
MOVES = ["suspend", "insert", "insert", "relabel", "reverse", "link"]
SEEDS = st.one_of(
    st.integers(1, 3).map(boundary_simplex),
    st.sampled_from([-3, -2, -1, 1, 2, 3]).map(cyclic_circle),
)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(seed=SEEDS, data=st.data())
def test_move_chains_keep_cached_invariants(seed, data):
    x = seed
    _assert_cached_invariants_hold(x)
    moves = data.draw(st.lists(st.sampled_from(MOVES), max_size=6))
    for move in moves:
        ls = x.labeled if isinstance(x, ConstructionCertificate) else x
        n = ls.dimension
        before = degree(ls).degree
        if move == "suspend" and n < 3:
            x = one_point_suspension(x, data.draw(st.sampled_from(ls.oriented.vertices)))
            law = before
            # the link of the new apex gives back the input exactly
            assert link_reduction(x.labeled, max(x.labeled.oriented.vertices)) == ls
        elif move == "insert":
            qualifying = sorted(f for f, s in degree(ls).per_target_facet[n + 2] if s == 1)
            if not qualifying:
                continue
            x = insertion_step(x, data.draw(st.sampled_from(qualifying)))
            law = before + n
        elif move == "relabel":
            colors = range(1, ls.color_count + 1)
            perm = dict(zip(colors, data.draw(st.permutations(colors))))
            x = relabel(ls, perm)
            law = permutation_sign(perm) * before
        elif move == "reverse":
            x = reverse_orientation(ls)
            law = -before
        elif move == "link" and n >= 2 and singleton_colors(ls):
            cut = data.draw(st.sampled_from(sorted(singleton_colors(ls).values())))
            x = link_reduction(ls, cut)
            law = before
        else:
            continue
        _assert_cached_invariants_hold(x)
        assert degree(x.labeled if isinstance(x, ConstructionCertificate) else x).degree == law


# recipe steps built from the grammar's op names, well-formed or with junk
# arguments; integers stay small because replay builds whatever a
# well-formed recipe asks for
SEED_OPS = ["boundary_simplex", "cyclic_circle", "degree_zero"]
BARE_SEED_OPS = ["degree_four_witness", "degree_four_witness_raw"]
RECIPE_OPS = SEED_OPS + BARE_SEED_OPS + ["literal", "suspend", "insert", "reverse", "warp"]
SMALL = st.integers(-3, 6)
JSON_JUNK = st.one_of(
    SMALL,
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(SMALL, max_size=4),
    st.just({}),
    st.just(json.loads(serialize(cyclic_circle(1).labeled))),
)
JUNK = st.one_of(
    JSON_JUNK, st.lists(SMALL, max_size=4).map(tuple), st.just(cyclic_circle(1).labeled)
)


def _recipes(junk, facets):
    any_step = st.builds(
        lambda op, args: (op, *args), st.sampled_from(RECIPE_OPS), st.lists(junk, max_size=2)
    )
    seed = st.one_of(
        st.tuples(st.sampled_from(SEED_OPS), SMALL),
        st.tuples(st.sampled_from(BARE_SEED_OPS)),
        any_step,
    )
    move = st.one_of(
        st.tuples(st.just("suspend"), SMALL),
        st.tuples(st.just("insert"), facets),
        st.just(("reverse",)),
        any_step,
    )
    recipe = st.builds(lambda first, rest: [first, *rest], seed, st.lists(move, max_size=5))
    return st.one_of(recipe, junk)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(recipe=_recipes(JUNK, st.lists(SMALL, min_size=2, max_size=4).map(tuple)))
def test_replay_fuzz_raises_only_spheremap_errors(recipe):
    try:
        replay(recipe)
    except SpheremapError:
        pass


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    recipe=_recipes(JSON_JUNK, st.lists(SMALL, min_size=2, max_size=4)),
    built=st.sampled_from([cyclic_circle(1), construct(2, 3)]),
)
def test_load_certificate_fuzz_raises_only_spheremap_errors(recipe, built):
    doc = json.loads(serialize(built))
    doc["metadata"]["recipe"] = recipe
    try:
        load_certificate(json.dumps(doc))
    except SpheremapError:
        pass


def _edit(data, value):
    """A small edit of a real JSON value: nudge an integer, or drop,
    duplicate, replace with junk or edit in turn one item of a list or
    object; any other value becomes junk."""
    if type(value) is int:
        return value + data.draw(st.sampled_from([-1, 1]))
    if not isinstance(value, (list, dict)) or not value:
        return data.draw(JSON_JUNK)
    out = dict(value) if isinstance(value, dict) else list(value)
    key = data.draw(st.sampled_from(sorted(out) if isinstance(out, dict) else range(len(out))))
    how = data.draw(st.sampled_from(["drop", "duplicate", "junk", "edit"]))
    if how == "drop":
        del out[key]
    elif how == "duplicate" and isinstance(out, list):
        out.insert(key, out[key])
    elif how == "junk":
        out[key] = data.draw(JSON_JUNK)
    else:
        out[key] = _edit(data, out[key])
    return out


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    built=st.sampled_from([cyclic_circle(2), construct(2, 3), construct(3, -2)]),
    field=st.sampled_from(["dimension", "facets", "labels", "orientation", "metadata"]),
    how=st.sampled_from(["remove", "junk", "edit"]),
    data=st.data(),
)
def test_document_fuzz_raises_only_spheremap_errors(built, field, how, data):
    doc = json.loads(serialize(built))
    if how == "remove":
        del doc[field]
    elif how == "junk":
        doc[field] = data.draw(JSON_JUNK)
    else:
        doc[field] = _edit(data, doc[field])
    text = json.dumps(doc)
    for load in (parse, load_certificate):
        try:
            load(text)
        except SpheremapError:
            pass
