"""The document reader's sphere gate and the recipe behind it.

Three parts: the moves keep a sphere that passes ``_sphere_failure``
passing, a mutation corpus over recipe documents whose outcomes were
recorded from the reader that ran the sphere checks before the recipe, and
call counts that show each sphere the reader meets is gated once.
"""

import importlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremap import (
    OrientedComplex,
    boundary_simplex,
    build_complex,
    construct,
    degree,
    degree_four_witness,
    enumerate_spheres,
    insertion_step,
    labeled_sphere,
    load_certificate,
    one_point_suspension,
    orient,
    parse,
    parse_with_metadata,
    replay,
    serialize,
)
from spheremap.complexes import _sphere_failure
from spheremap.constructions import _reverse_certificate
from test_documents import TORUS

complexes_mod = importlib.import_module("spheremap.complexes")


# -- the lemma: every move keeps the sphere checks passing --------------------

TWO_SPHERES = [K for v in range(4, 9) for K in enumerate_spheres(2, v)]


@st.composite
def seeds(draw):
    """A certificate to start from: a labeled 2-sphere class (as a literal
    seed), construct(n, d) for n = 3..5, the degree-4 witness, or a
    boundary simplex."""
    kind = draw(st.sampled_from(["two_sphere", "construct", "witness", "simplex"]))
    if kind == "two_sphere":
        K = draw(st.sampled_from(TWO_SPHERES))
        labels = {v: draw(st.integers(1, 4)) for v in K.vertices}
        return replay((("literal", labeled_sphere(orient(K), labels)),))
    if kind == "construct":
        return construct(draw(st.integers(3, 5)), draw(st.integers(-8, 8)))
    if kind == "witness":
        return degree_four_witness(raw=draw(st.booleans()))
    return boundary_simplex(draw(st.integers(1, 5)))


MOVES = st.lists(
    st.tuples(st.sampled_from(["suspend", "insert", "reverse"]), st.integers(0, 10 ** 6)),
    max_size=4,
)


def apply_move(cert, op: str, pick: int):
    """cert after one move; ``pick`` chooses the pivot or the facet.  An
    insert with no qualifying facet, or a suspension past dimension 6
    (whose checks grow steeply), leaves cert as it is."""
    ls = cert.labeled
    n = ls.dimension
    if op == "reverse":
        return _reverse_certificate(cert)
    if op == "suspend":
        if n >= 6:
            return cert
        verts = ls.oriented.vertices
        return one_point_suspension(cert, verts[pick % len(verts)])
    qualifying = sorted(f for f, s in degree(ls).per_target_facet.get(n + 2, ()) if s == 1)
    if not qualifying:
        return cert
    return insertion_step(cert, qualifying[pick % len(qualifying)])


def fresh_copy(ls) -> OrientedComplex:
    """ls's oriented complex rebuilt from its facets, with nothing cached."""
    return OrientedComplex(build_complex(ls.complex.facets), ls.oriented.signs)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cert=seeds(), moves=MOVES)
def test_moves_keep_the_sphere_checks_passing(cert, moves):
    assert _sphere_failure(fresh_copy(cert.labeled)) is None
    for op, pick in moves:
        cert = apply_move(cert, op, pick)
        assert _sphere_failure(fresh_copy(cert.labeled)) is None, (op, cert.recipe)
    # the reader rebuilds the same sphere
    assert load_certificate(serialize(cert)).labeled == cert.labeled


# -- equivalence: a mutation corpus over recipe documents --------------------


def _literal_doc() -> str:
    # a recipe-less document reads with a literal seed; suspend it once
    return serialize(one_point_suspension(load_certificate(serialize(construct(2, 3).labeled))))


BASES = {
    "construct(3, 7)": lambda: serialize(construct(3, 7)),
    "construct(2, -5)": lambda: serialize(construct(2, -5)),
    "suspended literal": _literal_doc,
}


def _own_literal(doc):
    """The recipe's literal seed, made the document itself when the recipe
    starts from a named seed."""
    recipe = doc["metadata"]["recipe"]
    if recipe[0][0] != "literal":
        fields = {k: doc[k] for k in ("dimension", "facets", "labels", "orientation")}
        recipe[:] = [["literal", json.loads(json.dumps(fields))]]
    return recipe[0][1]


def _set(path, value):
    def mutate(doc):
        *keys, last = path
        for k in keys:
            doc = doc[k]
        doc[last] = value(doc[last]) if callable(value) else value
    return mutate


def _both(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


def _flip(k):
    return _set(("orientation", k, 0), lambda s: -s)


def _drop_facet(doc):
    del doc["facets"][1]
    del doc["orientation"][1]


def _recolor(doc):
    v = min(doc["labels"], key=int)
    doc["labels"][v] = doc["labels"][v] % (doc["dimension"] + 2) + 1


NINES = int("9" * 4300)  # the longest int the interpreter parses by default


def _recipe(change):
    def mutate(doc):
        doc["metadata"]["recipe"] = change(doc["metadata"]["recipe"])
    return mutate


def _seed(change):
    def mutate(doc):
        change(_own_literal(doc))
    return mutate


def _drop_claimed_degree(doc):
    del doc["metadata"]["claimed_degree"]


def _torus(doc):
    # closed, connected and orientable, so only the sphere checks refuse it
    del doc["orientation"]
    doc.update(
        dimension=2,
        facets=[list(f) for f in TORUS],
        labels={str(v): (v - 1) % 4 + 1 for v in range(1, 8)},
    )


MUTATIONS = {
    "unchanged": lambda doc: None,
    "flip the first sign": _flip(0),
    "flip the last sign": _flip(-1),
    "drop a facet and its entry": _drop_facet,
    "drop a facet, keep its entry": lambda doc: doc["facets"].pop(0),
    "duplicate a facet": lambda doc: doc["facets"].append(doc["facets"][0]),
    "duplicate an orientation entry": lambda doc: doc["orientation"].append(doc["orientation"][0]),
    "change a label": _recolor,
    "change a label, drop the degree claim": _both(_recolor, _drop_claimed_degree),
    "raise the degree claim": _set(("metadata", "claimed_degree"), lambda d: d + 1),
    "degree claim as a string": _set(("metadata", "claimed_degree"), "3"),
    "raise the vertex count claim": _set(("metadata", "claimed_vertex_count"), lambda v: v + 1),
    "drop the last step": _recipe(lambda r: r[:-1]),
    "drop the seed": _recipe(lambda r: r[1:]),
    "repeat the last step": _recipe(lambda r: r + r[-1:]),
    "swap the last two steps": _recipe(lambda r: r[:-2] + r[-1:] + r[-2:-1]),
    "add a reverse": _recipe(lambda r: r + [["reverse"]]),
    "corrupt the last step": _recipe(lambda r: r[:-1] + [[r[-1][0], "x"]]),
    "unknown op": _recipe(lambda r: r[:-1] + [["twist"]]),
    "one insert too many": _recipe(lambda r: r + [["insert", [1, 2, 10 ** 6]]]),
    "recipe not a list": _recipe(lambda r: "nonsense"),
    "empty recipe": _recipe(lambda r: []),
    "the document as its own literal seed": _seed(lambda seed: None),
    "seed sign flipped": _seed(_set(("orientation", 0, 0), lambda s: -s)),
    "seed facet dropped": _seed(lambda seed: seed["facets"].pop()),
    "seed label out of range": _seed(_set(("labels", "1"), 99)),
    "seed without labels": _seed(lambda seed: seed.pop("labels")),
    "the torus, recipe kept": _torus,
    "flip a sign, corrupt the recipe": _both(_flip(0), _recipe(lambda r: r[:-1] + [["twist"]])),
    "flip a sign, raise the degree claim": _both(
        _flip(0), _set(("metadata", "claimed_degree"), lambda d: d + 1)
    ),
    "change a label, drop the last step": _both(_recolor, _recipe(lambda r: r[:-1])),
    "raise the degree claim, drop the last step": _both(
        _set(("metadata", "claimed_degree"), lambda d: d + 1), _recipe(lambda r: r[:-1])
    ),
    "drop a facet, drop the last step": _both(_drop_facet, _recipe(lambda r: r[:-1])),
    # shapes whose numbers have 4,301 digits, past what str() renders
    "a circle seed of 4,300 nines": _recipe(lambda r: [["cyclic_circle", NINES]]),
    "a simplex seed of 4,300 nines, suspended": _recipe(
        lambda r: [["boundary_simplex", NINES], ["suspend", 1]]
    ),
    "a simplex seed of minus 4,300 nines": _recipe(lambda r: [["boundary_simplex", -NINES]]),
}


def outcome(text: str):
    """("ok", degree) when the document loads, else (error type, message)."""
    try:
        return ("ok", load_certificate(text).claimed_degree)
    except Exception as e:  # every refusal must be a SpheremapError; the type is pinned
        return (type(e).__name__, str(e))


def mutant(base: str, mutation: str) -> str:
    doc = json.loads(BASES[base]())
    MUTATIONS[mutation](doc)
    return json.dumps(doc)


# Recorded from the reader that ran the sphere checks, the degree engine
# and the claims before it read the recipe.
EXPECTED = {
    'construct(3, 7)': {
        'unchanged': ('ok', 7),
        'flip the first sign': (
            'ValidationError',
            'document orientation not coherent across ridge [1, 2, 3]',
        ),
        'flip the last sign': (
            'ValidationError',
            'document orientation not coherent across ridge [3, 10, 11]',
        ),
        'drop a facet and its entry': (
            'ValidationError',
            'ridge [1, 2, 3] lies in 1 facets, expected 2',
        ),
        'drop a facet, keep its entry': (
            'ValidationError',
            'ridge [1, 2, 3] lies in 1 facets, expected 2',
        ),
        'duplicate a facet': (
            'ValidationError',
            'facets: facet (1, 2, 3, 5) appears more than once',
        ),
        'duplicate an orientation entry': (
            'ValidationError',
            'orientation lists facet [1, 2, 3, 5] twice',
        ),
        'change a label': ('DegreeMismatch', 'metadata claims degree 7, engine computes 2'),
        'change a label, drop the degree claim': (
            'ValidationError',
            "recipe does not rebuild the document's sphere",
        ),
        'raise the degree claim': (
            'DegreeMismatch',
            'metadata claims degree 8, engine computes 7',
        ),
        'degree claim as a string': (
            'ValidationError',
            'metadata.claimed_degree must be an integer',
        ),
        'raise the vertex count claim': (
            'ValidationError',
            'metadata claims 16 vertices, document has 15',
        ),
        'drop the last step': (
            'ValidationError',
            'recipe builds dimension 3 on 10 vertices, the document has dimension 3 on 15 vertices',
        ),
        'drop the seed': ('ValidationError', "recipe seed ('insert', (1, 2, 3, 4)) is malformed"),
        'repeat the last step': (
            'ValidationError',
            'recipe builds dimension 3 on 20 vertices, the document has dimension 3 on 15 vertices',
        ),
        'swap the last two steps': (
            'ValidationError',
            'recipe replay failed: (1, 2, 3, 10) is not a facet of the complex',
        ),
        'add a reverse': ('ValidationError', "recipe does not rebuild the document's sphere"),
        'corrupt the last step': ('ValidationError', "recipe step ('insert', 'x') is malformed"),
        'unknown op': ('ValidationError', "recipe step ('twist',) is malformed"),
        'one insert too many': (
            'ValidationError',
            'recipe builds dimension 3 on 20 vertices, the document has dimension 3 on 15 vertices',
        ),
        'recipe not a list': ('ValidationError', 'a recipe must be a non-empty list of steps'),
        'empty recipe': ('ValidationError', 'a recipe must be a non-empty list of steps'),
        'the document as its own literal seed': ('ok', 7),
        'seed sign flipped': (
            'ValidationError',
            'recipe literal seed: document orientation not coherent across ridge [1, 2, 3]',
        ),
        'seed facet dropped': (
            'ValidationError',
            'recipe literal seed: ridge [3, 10, 11] lies in 1 facets, expected 2',
        ),
        'seed label out of range': (
            'ValidationError',
            'recipe literal seed: labels: vertex 1 has color 99, expected 1..5',
        ),
        'seed without labels': ('ValidationError', "recipe literal seed: missing field 'labels'"),
        'the torus, recipe kept': (
            'ValidationError',
            "document fails sphere checks: ['euler_characteristic']",
        ),
        'flip a sign, corrupt the recipe': (
            'ValidationError',
            'document orientation not coherent across ridge [1, 2, 3]',
        ),
        'flip a sign, raise the degree claim': (
            'ValidationError',
            'document orientation not coherent across ridge [1, 2, 3]',
        ),
        'change a label, drop the last step': (
            'DegreeMismatch',
            'metadata claims degree 7, engine computes 2',
        ),
        'raise the degree claim, drop the last step': (
            'DegreeMismatch',
            'metadata claims degree 8, engine computes 7',
        ),
        'drop a facet, drop the last step': (
            'ValidationError',
            'ridge [1, 2, 3] lies in 1 facets, expected 2',
        ),
        'a circle seed of 4,300 nines': (
            'ValidationError',
            'recipe builds dimension 1 on <too long to print> vertices, the document has dimension 3 on 15 vertices',
        ),
        'a simplex seed of 4,300 nines, suspended': (
            'ValidationError',
            'recipe builds dimension <too long to print> on <too long to print> vertices, '
            'the document has dimension 3 on 15 vertices',
        ),
        'a simplex seed of minus 4,300 nines': (
            'ValidationError',
            'recipe builds dimension <too long to print> on <too long to print> vertices, '
            'the document has dimension 3 on 15 vertices',
        ),
    },
    'construct(2, -5)': {
        'unchanged': ('ok', -5),
        'flip the first sign': (
            'ValidationError',
            'document orientation not coherent across ridge [1, 2]',
        ),
        'flip the last sign': (
            'ValidationError',
            'document orientation not coherent across ridge [8, 9]',
        ),
        'drop a facet and its entry': (
            'ValidationError',
            'ridge [1, 2] lies in 1 facets, expected 2',
        ),
        'drop a facet, keep its entry': (
            'ValidationError',
            'ridge [1, 2] lies in 1 facets, expected 2',
        ),
        'duplicate a facet': ('ValidationError', 'facets: facet (1, 2, 4) appears more than once'),
        'duplicate an orientation entry': (
            'ValidationError',
            'orientation lists facet [1, 2, 4] twice',
        ),
        'change a label': ('DegreeMismatch', 'metadata claims degree -5, engine computes -2'),
        'change a label, drop the degree claim': (
            'ValidationError',
            "recipe does not rebuild the document's sphere",
        ),
        'raise the degree claim': (
            'DegreeMismatch',
            'metadata claims degree -4, engine computes -5',
        ),
        'degree claim as a string': (
            'ValidationError',
            'metadata.claimed_degree must be an integer',
        ),
        'raise the vertex count claim': (
            'ValidationError',
            'metadata claims 13 vertices, document has 12',
        ),
        'drop the last step': ('ValidationError', "recipe does not rebuild the document's sphere"),
        'drop the seed': ('ValidationError', "recipe seed ('insert', (1, 2, 3)) is malformed"),
        'repeat the last step': (
            'ValidationError',
            "recipe does not rebuild the document's sphere",
        ),
        'swap the last two steps': (
            'ValidationError',
            'recipe replay failed: facet (1, 2, 8) has map sign -1, need +1',
        ),
        'add a reverse': ('ValidationError', "recipe does not rebuild the document's sphere"),
        'corrupt the last step': ('ValidationError', "recipe step ('reverse', 'x') is malformed"),
        'unknown op': ('ValidationError', "recipe step ('twist',) is malformed"),
        'one insert too many': (
            'ValidationError',
            'recipe builds dimension 2 on 16 vertices, the document has dimension 2 on 12 vertices',
        ),
        'recipe not a list': ('ValidationError', 'a recipe must be a non-empty list of steps'),
        'empty recipe': ('ValidationError', 'a recipe must be a non-empty list of steps'),
        'the document as its own literal seed': ('ok', -5),
        'seed sign flipped': (
            'ValidationError',
            'recipe literal seed: document orientation not coherent across ridge [1, 2]',
        ),
        'seed facet dropped': (
            'ValidationError',
            'recipe literal seed: ridge [8, 9] lies in 1 facets, expected 2',
        ),
        'seed label out of range': (
            'ValidationError',
            'recipe literal seed: labels: vertex 1 has color 99, expected 1..4',
        ),
        'seed without labels': ('ValidationError', "recipe literal seed: missing field 'labels'"),
        'the torus, recipe kept': (
            'ValidationError',
            "document fails sphere checks: ['euler_characteristic']",
        ),
        'flip a sign, corrupt the recipe': (
            'ValidationError',
            'document orientation not coherent across ridge [1, 2]',
        ),
        'flip a sign, raise the degree claim': (
            'ValidationError',
            'document orientation not coherent across ridge [1, 2]',
        ),
        'change a label, drop the last step': (
            'DegreeMismatch',
            'metadata claims degree -5, engine computes -2',
        ),
        'raise the degree claim, drop the last step': (
            'DegreeMismatch',
            'metadata claims degree -4, engine computes -5',
        ),
        'drop a facet, drop the last step': (
            'ValidationError',
            'ridge [1, 2] lies in 1 facets, expected 2',
        ),
        'a circle seed of 4,300 nines': (
            'ValidationError',
            'recipe builds dimension 1 on <too long to print> vertices, the document has dimension 2 on 12 vertices',
        ),
        'a simplex seed of 4,300 nines, suspended': (
            'ValidationError',
            'recipe builds dimension <too long to print> on <too long to print> vertices, '
            'the document has dimension 2 on 12 vertices',
        ),
        'a simplex seed of minus 4,300 nines': (
            'ValidationError',
            'recipe builds dimension <too long to print> on <too long to print> vertices, '
            'the document has dimension 2 on 12 vertices',
        ),
    },
    'suspended literal': {
        'unchanged': ('ok', 3),
        'flip the first sign': (
            'ValidationError',
            'document orientation not coherent across ridge [1, 2, 3]',
        ),
        'flip the last sign': (
            'ValidationError',
            'document orientation not coherent across ridge [3, 5, 7]',
        ),
        'drop a facet and its entry': (
            'ValidationError',
            'ridge [1, 2, 3] lies in 1 facets, expected 2',
        ),
        'drop a facet, keep its entry': (
            'ValidationError',
            'ridge [1, 2, 3] lies in 1 facets, expected 2',
        ),
        'duplicate a facet': (
            'ValidationError',
            'facets: facet (1, 2, 3, 4) appears more than once',
        ),
        'duplicate an orientation entry': (
            'ValidationError',
            'orientation lists facet [1, 2, 3, 4] twice',
        ),
        'change a label': ('DegreeMismatch', 'metadata claims degree 3, engine computes 1'),
        'change a label, drop the degree claim': (
            'ValidationError',
            "recipe does not rebuild the document's sphere",
        ),
        'raise the degree claim': (
            'DegreeMismatch',
            'metadata claims degree 4, engine computes 3',
        ),
        'degree claim as a string': (
            'ValidationError',
            'metadata.claimed_degree must be an integer',
        ),
        'raise the vertex count claim': (
            'ValidationError',
            'metadata claims 10 vertices, document has 9',
        ),
        'drop the last step': (
            'ValidationError',
            'recipe builds dimension 2 on 8 vertices, the document has dimension 3 on 9 vertices',
        ),
        'drop the seed': ('ValidationError', "recipe seed ('suspend', 1) is malformed"),
        'repeat the last step': (
            'ValidationError',
            'recipe builds dimension 4 on 10 vertices, the document has dimension 3 on 9 vertices',
        ),
        'swap the last two steps': ('ValidationError', "recipe seed ('suspend', 1) is malformed"),
        'add a reverse': ('ValidationError', "recipe does not rebuild the document's sphere"),
        'corrupt the last step': ('ValidationError', "recipe step ('suspend', 'x') is malformed"),
        'unknown op': ('ValidationError', "recipe step ('twist',) is malformed"),
        'one insert too many': (
            'ValidationError',
            'recipe builds dimension 3 on 14 vertices, the document has dimension 3 on 9 vertices',
        ),
        'recipe not a list': ('ValidationError', 'a recipe must be a non-empty list of steps'),
        'empty recipe': ('ValidationError', 'a recipe must be a non-empty list of steps'),
        'the document as its own literal seed': ('ok', 3),
        'seed sign flipped': (
            'ValidationError',
            'recipe literal seed: document orientation not coherent across ridge [1, 2]',
        ),
        'seed facet dropped': (
            'ValidationError',
            'recipe literal seed: ridge [3, 5] lies in 1 facets, expected 2',
        ),
        'seed label out of range': (
            'ValidationError',
            'recipe literal seed: labels: vertex 1 has color 99, expected 1..4',
        ),
        'seed without labels': ('ValidationError', "recipe literal seed: missing field 'labels'"),
        'the torus, recipe kept': (
            'ValidationError',
            "document fails sphere checks: ['euler_characteristic']",
        ),
        'flip a sign, corrupt the recipe': (
            'ValidationError',
            'document orientation not coherent across ridge [1, 2, 3]',
        ),
        'flip a sign, raise the degree claim': (
            'ValidationError',
            'document orientation not coherent across ridge [1, 2, 3]',
        ),
        'change a label, drop the last step': (
            'DegreeMismatch',
            'metadata claims degree 3, engine computes 1',
        ),
        'raise the degree claim, drop the last step': (
            'DegreeMismatch',
            'metadata claims degree 4, engine computes 3',
        ),
        'drop a facet, drop the last step': (
            'ValidationError',
            'ridge [1, 2, 3] lies in 1 facets, expected 2',
        ),
        'a circle seed of 4,300 nines': (
            'ValidationError',
            'recipe builds dimension 1 on <too long to print> vertices, the document has dimension 3 on 9 vertices',
        ),
        'a simplex seed of 4,300 nines, suspended': (
            'ValidationError',
            'recipe builds dimension <too long to print> on <too long to print> vertices, '
            'the document has dimension 3 on 9 vertices',
        ),
        'a simplex seed of minus 4,300 nines': (
            'ValidationError',
            'recipe builds dimension <too long to print> on <too long to print> vertices, '
            'the document has dimension 3 on 9 vertices',
        ),
    },
}


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutants_are_read_as_when_the_sphere_checks_ran_first(base, mutation):
    assert outcome(mutant(base, mutation)) == EXPECTED[base][mutation]


def test_every_mutant_is_pinned():
    assert all(EXPECTED[base].keys() == MUTATIONS.keys() for base in BASES)


# -- each sphere is gated once ----------------------------------------------


@pytest.fixture
def verdicts(monkeypatch):
    """The complexes whose sphere verdict is computed while the fixture lives."""
    seen = []
    verdict = complexes_mod._sphere_verdict
    monkeypatch.setattr(
        complexes_mod, "_sphere_verdict", lambda K: seen.append(K) or verdict(K)
    )
    return seen


READERS = {  # each reader, giving the labeled sphere it read
    "parse": parse,
    "parse_with_metadata": lambda text: parse_with_metadata(text)[0],
    "load_certificate": lambda text: load_certificate(text).labeled,
}


@pytest.mark.parametrize("read", READERS)
def test_a_recipe_document_gets_one_verdict(verdicts, read):
    ls = READERS[read](serialize(construct(4, 9)))
    assert verdicts == [ls.complex]  # named seeds and moves compute no verdict


def test_a_literal_seed_is_gated_once_after_its_document(verdicts, monkeypatch):
    text = BASES["suspended literal"]()
    verdicts.clear()
    coherence, ridge_maps = [], []
    failures, ridge_map = complexes_mod.coherence_failures, complexes_mod._ridge_map
    monkeypatch.setattr(
        complexes_mod, "coherence_failures", lambda o: coherence.append(o.base) or failures(o)
    )
    monkeypatch.setattr(
        complexes_mod, "_ridge_map", lambda K: ridge_maps.append(K) or ridge_map(K)
    )
    ls = load_certificate(text).labeled
    # the document, then the seed: replay's gate on the seed reads the
    # answer the reader's gate left on it.  Each gated complex builds one
    # ridge map, and coherent signs are compared with the walk's, so no
    # ridge is looked for
    assert [K.dimension for K in verdicts] == [ls.dimension, ls.dimension - 1]
    assert verdicts[0] == ls.complex
    assert ridge_maps == verdicts
    assert coherence == []


def test_a_recipe_less_document_gets_one_verdict(verdicts):
    ls = load_certificate(serialize(construct(4, 9).labeled)).labeled
    assert verdicts == [ls.complex]
