import enum
import hashlib
import importlib
import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremap import (
    MAX_BUILD_DIMENSION,
    BudgetExceeded,
    Complex,
    DegreeMismatch,
    DocumentSyntaxError,
    OrientedComplex,
    ValidationError,
    boundary_simplex,
    build_complex,
    construct,
    cyclic_circle,
    degree,
    degree_four_witness,
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
from spheremap.documents import _document_dict, _dump, _IntRows

TORUS = [
    tuple(sorted((i + k) % 7 + 1 for k in off))
    for i in range(7)
    for off in ((0, 1, 3), (0, 2, 3))
]

RP2 = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]


def doc_of(obj) -> dict:
    return json.loads(serialize(obj))


def bare_sphere_doc(facets, labels, dimension) -> str:
    return json.dumps({
        "format_version": "1",
        "dimension": dimension,
        "facets": [list(f) for f in facets],
        "labels": {str(v): c for v, c in labels.items()},
    })


def test_serialize_triangle_certificate():
    doc = doc_of(cyclic_circle(1))
    assert doc["dimension"] == 1
    assert doc["facets"] == [[1, 2], [1, 3], [2, 3]]
    assert doc["labels"] == {"1": 1, "2": 2, "3": 3}
    assert doc["metadata"]["claimed_degree"] == 1
    assert doc["metadata"]["claimed_vertex_count"] == 3
    assert doc["metadata"]["recipe"] == [["cyclic_circle", 1]]


def test_serialize_witness_certificate():
    doc = doc_of(degree_four_witness())
    assert len(doc["facets"]) == 20
    assert len(doc["labels"]) == 10
    assert doc["metadata"]["claimed_degree"] == 4


def test_serialize_has_no_floats_or_strings_in_numbers():
    def walk(x):
        assert not isinstance(x, float)
        if isinstance(x, dict):
            for k, v in x.items():
                assert isinstance(k, str)
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    for obj in (construct(2, 3), degree_four_witness(), cyclic_circle(-2).labeled):
        walk(doc_of(obj))


def test_certificate_round_trip_is_byte_identical():
    for cert in (construct(2, 3), construct(1, -4), construct(3, 0),
                 degree_four_witness()):
        text = serialize(cert)
        assert serialize(load_certificate(text)) == text


def test_labeled_sphere_round_trip_idempotent():
    ls = construct(2, 4).labeled
    text = serialize(ls)
    assert serialize(parse(text)) == text


def test_parse_boundary_simplex():
    ls = parse(serialize(boundary_simplex(3)))
    assert degree(ls).degree == 1
    assert ls.dimension == 3


def test_parse_preserves_given_orientation():
    from spheremap import reverse_orientation

    ls = reverse_orientation(boundary_simplex(2).labeled)
    again = parse(serialize(ls))
    assert again.oriented.signs == ls.oriented.signs
    assert degree(again).degree == -1


def test_parse_without_orientation_reorients():
    doc = doc_of(construct(2, 2).labeled)
    del doc["orientation"]
    del doc["metadata"]  # claimed degree may differ in sign after reorienting
    ls = parse(json.dumps(doc))
    assert abs(degree(ls).degree) == 2


def test_parse_with_metadata_keeps_recipe():
    cert = construct(2, 3)
    _, metadata = parse_with_metadata(serialize(cert))
    assert metadata["claimed_degree"] == 3
    assert metadata["recipe"][0] == ["boundary_simplex", 2]


def test_load_certificate_without_recipe_gets_literal_seed():
    ls = cyclic_circle(2).labeled
    cert = load_certificate(serialize(ls))
    assert cert.recipe[0][0] == "literal"
    assert replay(cert.recipe).labeled == ls
    longer = one_point_suspension(cert)
    assert replay(longer.recipe).labeled == longer.labeled


def test_load_certificate_checks_recipe():
    # construct(2, 3) is boundary_simplex(2) plus one insertion on (1, 2, 3)
    doc = doc_of(construct(2, 3))
    assert doc["metadata"]["recipe"] == [["boundary_simplex", 2], ["insert", [1, 2, 3]]]
    literal = {k: doc[k] for k in ("dimension", "facets", "labels", "orientation")}
    broken_literal = dict(literal, facets=literal["facets"][1:])
    cases = [
        ([["boundary_simplex", 2], ["insert", [1, 2, 3]], ["reverse"]], "does not rebuild"),
        ([["literal", literal], ["reverse"]], "does not rebuild"),
        ([["boundary_simplex", 2], ["insert", [1, 2, 9]]], "replay failed"),
        ([["boundary_simplex", 2], ["suspend", 1]], "builds dimension 3 on 5 vertices"),
        ([["cyclic_circle", 10 ** 9]], "builds dimension 1"),
        ([["literal", broken_literal]], "literal seed"),
        ([["reverse"]], "seed"),
        ([["boundary_simplex", 2], ["insert", "1,2,3"]], "malformed"),
        ([], "non-empty list"),
    ]
    for recipe, message in cases:
        doc["metadata"]["recipe"] = recipe
        with pytest.raises(ValidationError, match=message):
            load_certificate(json.dumps(doc))
    doc["metadata"]["recipe"] = [["literal", literal]]
    assert load_certificate(json.dumps(doc)).labeled == construct(2, 3).labeled


SEED_EXTRAS = [("format_version", "2"), ("metadata", {"claimed_degree": 99}), ("colour", 1)]


@pytest.mark.parametrize("key, value", SEED_EXTRAS)
def test_literal_seed_holds_only_the_sphere_fields(key, value):
    # serialize writes a seed's four sphere fields alone; a stated version
    # or metadata would otherwise be read past, or read as the seed's own
    doc = doc_of(construct(2, 3))
    literal = {k: doc[k] for k in ("dimension", "facets", "labels", "orientation")}
    doc["metadata"]["recipe"] = [["literal", literal]]
    assert load_certificate(json.dumps(doc)).labeled == construct(2, 3).labeled
    doc["metadata"]["recipe"] = [["literal", {**literal, key: value}]]
    with pytest.raises(ValidationError, match=f"^recipe literal seed: unexpected key '{key}'$"):
        load_certificate(json.dumps(doc))


@pytest.mark.parametrize("read", [parse, parse_with_metadata, load_certificate])
@pytest.mark.parametrize(
    "recipe, message",
    [
        ([["boundary_simplex", 3]], "builds dimension 3 on 5 vertices"),
        ("nonsense", "non-empty list"),
        ([["boundary_simplex", 2], ["insert", [1, 2, 3]]], "builds dimension 2 on 8 vertices"),
    ],
)
def test_every_reader_checks_recipe(read, recipe, message):
    # one reader serves all three: a false recipe fails parse as it fails
    # load_certificate, so verify cannot pass a document suspend refuses
    doc = doc_of(construct(2, 5))
    doc["metadata"]["recipe"] = recipe
    with pytest.raises(ValidationError, match=message):
        read(json.dumps(doc))


def boundary_simplex_doc(n: int) -> str:
    """The document of the boundary of the (n+1)-simplex, built without the
    package, so it can lie above the build caps."""
    verts = range(1, n + 3)
    return bare_sphere_doc(
        [[v for v in verts if v != skip] for skip in verts], {v: v for v in verts}, n
    )


@pytest.mark.parametrize("read", [parse, parse_with_metadata, load_certificate])
@pytest.mark.parametrize("n", [MAX_BUILD_DIMENSION + 1, 20])
def test_readers_refuse_documents_above_the_build_caps(read, n):
    # the caps are checked before any sphere check, whose star walks grow
    # about x11 per two dimensions
    text = boundary_simplex_doc(n)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=f"dimension {n} on {n + 2} vertices"):
        read(text)
    assert time.perf_counter() - start < 1.0


def test_readers_refuse_documents_above_the_vertex_cap(monkeypatch):
    constructions_mod = importlib.import_module("spheremap.constructions")
    text = serialize(construct(2, 5))
    monkeypatch.setattr(constructions_mod, "MAX_BUILD_VERTICES", 11)
    with pytest.raises(BudgetExceeded, match="dimension 2 on 12 vertices"):
        parse(text)
    monkeypatch.setattr(constructions_mod, "MAX_BUILD_VERTICES", 12)
    assert len(parse(text).oriented.vertices) == 12


def test_document_bytes_are_pinned():
    digest = hashlib.sha256()
    for raw in (False, True):
        digest.update(serialize(degree_four_witness(raw=raw)).encode())
    for n in range(1, 6):
        for d in (-7, -2, -1, 0, 1, 2, 3, 5, 9):
            cert = construct(n, d)
            digest.update(serialize(cert).encode())
            if d != 0:
                digest.update(serialize(one_point_suspension(cert)).encode())
    assert digest.hexdigest() == (
        "31da6f3c830308f34dd305de62a387b30b43ae03eafa6d890023a5fa1be871c5"
    )


def test_long_row_document_bytes_are_pinned():
    # facet rows of 7 to 13 ids; a suspension of n = 12 is above the build caps
    digest = hashlib.sha256()
    for n in range(6, 13):
        for d in (-(2 * n + 1), 2 * n + 1):
            cert = construct(n, d)
            digest.update(serialize(cert).encode())
            if n < MAX_BUILD_DIMENSION:
                digest.update(serialize(one_point_suspension(cert)).encode())
    assert digest.hexdigest() == (
        "e554e88673528908c0f13c073539efed95759fa6e2c56692e2faf936f034b14a"
    )


def test_int_enum_label_keys_round_trip():
    # str() of an IntEnum member is its name before Python 3.11
    Vertex = enum.IntEnum("Vertex", [("ONE", 1), ("TWO", 2), ("THREE", 3), ("FOUR", 4)])
    oriented = boundary_simplex(2).labeled.oriented
    ls = labeled_sphere(oriented, {v: int(v) for v in Vertex})
    text = serialize(ls)
    assert json.loads(text)["labels"] == {"1": 1, "2": 2, "3": 3, "4": 4}
    assert parse(text) == ls
    assert text == serialize(labeled_sphere(oriented, {v: v for v in range(1, 5)}))


def json_oracle(x) -> str:
    return json.dumps(x, sort_keys=True, indent=2)


class Color(enum.IntEnum):
    RED = 1
    BLUE = -2


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.sampled_from(Color)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=4)
    | st.lists(st.lists(st.integers(), max_size=3), max_size=4)
    | st.lists(st.lists(st.integers(), min_size=1, max_size=3).map(tuple), max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(value=JSON_VALUES)
def test_dump_equals_json_dumps(value):
    assert _dump(value, "") == json_oracle(value)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [[], [1]], [[1, 2], [3]], [[1], (2,)], [[1], [True]], [1, Color.RED],
    {"é\n\"\\": "ü\u2028\x00"}, {"a": {2: [{"b": [1]}], 10: None}}, {1: "x"},
    {"rows": [{"lambda": None, "ratio": "3/2", "ok": True, "x": 1.5}]},
])
def test_dump_equals_json_dumps_on_edge_cases(value):
    assert _dump(value, "") == json_oracle(value)


INT_ROW = st.lists(st.integers(), min_size=1, max_size=15)
INT_ROWS = st.lists(INT_ROW | INT_ROW.map(tuple), max_size=40)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(rows=INT_ROWS | st.integers(1, 15).flatmap(
    lambda k: st.lists(st.lists(st.integers(), min_size=k, max_size=k).map(tuple), max_size=40)
))
def test_dump_equals_json_dumps_on_int_rows(rows):
    # several row lengths in one list, and one length for all rows as in
    # documents; plain lists are written by recursion, _IntRows by _int_rows
    values = [rows, tuple(rows), {"rows": rows}]
    if rows:
        int_rows = _IntRows(map(tuple, rows))
        values += [int_rows, {"rows": int_rows}]
    for value in values:
        assert _dump(value, "") == json_oracle(value)


@pytest.mark.parametrize("rows", [
    [[1, 2], [3, True]], [(1, 2), (Color.RED, 3)], [[1, 2, 3], [], [4, 5, 6]],
    [(1, 2), ()], [[1, 2], [3, 1.0]], [[1, 2], [3, [4]]],
])
def test_rows_that_are_not_all_ints_take_the_fallback(rows, monkeypatch):
    documents_mod = importlib.import_module("spheremap.documents")
    monkeypatch.setattr(documents_mod, "_int_rows", None)  # fails if called
    assert _dump(rows, "") == json_oracle(rows)
    assert _dump({"rows": rows}, "  ") == json_oracle({"rows": rows}).replace("\n", "\n  ")


def test_serialize_equals_json_dumps_on_every_move():
    def check(obj):
        assert serialize(obj) == json_oracle(_document_dict(obj)) + "\n"

    for n in range(1, 7):
        for d in range(-12, 13):
            cert = construct(n, d)
            check(cert)
            check(cert.labeled)
            if d:
                check(one_point_suspension(cert))
            if d > 0:
                check(insertion_step(cert))
    seeded = load_certificate(serialize(construct(2, 3).labeled))
    assert seeded.recipe[0][0] == "literal"
    for cert in (seeded, one_point_suspension(seeded), insertion_step(seeded)):
        check(cert)


def test_serialize_writes_ids_that_are_not_exact_ints_as_json_does(monkeypatch):
    # one type scan per document decides both row lists; rows holding an
    # int subclass must still go to json.dumps, never to the row templates
    documents_mod = importlib.import_module("spheremap.documents")
    monkeypatch.setattr(documents_mod, "_int_rows", None)  # fails if called
    Vertex = enum.IntEnum("Vertex", [("ONE", 1), ("TWO", 2), ("THREE", 3), ("FOUR", 4)])
    tetra = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    enum_ids = labeled_sphere(
        orient(build_complex([tuple(map(Vertex, f)) for f in tetra])), {v: int(v) for v in Vertex}
    )
    # a hand-built complex: build_complex refuses bools, LabeledSphere takes True == 1
    with_true = labeled_sphere(
        OrientedComplex(
            Complex(2, tuple((True, *f[1:]) if f[0] == 1 else f for f in tetra)),
            orient(build_complex(tetra)).signs,
        ),
        {v: v for v in range(1, 5)},
    )
    for ls in (enum_ids, with_true):
        assert serialize(ls) == json_oracle(_document_dict(ls)) + "\n"
    assert '"facets": [\n    [\n      true,\n' in serialize(with_true)


def test_parse_rejects_bad_json():
    with pytest.raises(DocumentSyntaxError):
        parse("{not json")
    with pytest.raises(DocumentSyntaxError):
        parse("[1, 2, 3]")
    # nested past the JSON parser's depth: a syntax error, not a RecursionError
    with pytest.raises(DocumentSyntaxError):
        parse("[" * 100_000 + "]" * 100_000)
    # an integer past the interpreter's 4,300-digit limit: a syntax error, not a ValueError
    with pytest.raises(DocumentSyntaxError):
        parse("[" + "1" * 5000 + "]")


def test_parse_rejects_missing_fields():
    doc = doc_of(boundary_simplex(2))
    for field in ("format_version", "dimension", "facets", "labels"):
        broken = dict(doc)
        del broken[field]
        with pytest.raises(ValidationError, match=field):
            parse(json.dumps(broken))


def test_parse_rejects_bad_format_version():
    doc = doc_of(boundary_simplex(2))
    doc["format_version"] = "2"
    with pytest.raises(ValidationError, match="format_version"):
        parse(json.dumps(doc))


def test_parse_rejects_non_integer_dimension_and_facets():
    doc = doc_of(boundary_simplex(2))
    doc["dimension"] = 2.0
    with pytest.raises(ValidationError, match="dimension"):
        parse(json.dumps(doc))
    doc = doc_of(boundary_simplex(2))
    doc["facets"][0] = [1, 2.5, 3]
    with pytest.raises(ValidationError, match="facets"):
        parse(json.dumps(doc))


def literal_seed_reader(text: str):
    """load_certificate of a recipe document whose literal seed holds the
    fields of the document ``text``."""
    seed = {k: v for k, v in json.loads(text).items() if k != "format_version"}
    doc = doc_of(construct(2, 3))
    doc["metadata"]["recipe"] = [["literal", seed]]
    return load_certificate(json.dumps(doc))


@pytest.mark.parametrize(
    "read, prefix",
    [
        (parse, ""),
        (parse_with_metadata, ""),
        (load_certificate, ""),
        (literal_seed_reader, "recipe literal seed: "),
    ],
)
@pytest.mark.parametrize(
    "bad_id", [2.5, True, "1", None, [1]], ids=["float", "bool", "str", "null", "list"]
)
def test_readers_leave_facet_ids_to_build_complex(read, prefix, bad_id):
    # the readers check only that facets are a list of lists; build_complex
    # refuses a vertex id that is not an int, a bool included, and names it
    doc = doc_of(boundary_simplex(2))
    del doc["metadata"]
    assert doc["facets"][0] == [1, 2, 3]
    doc["facets"][0] = [1, bad_id, 3]
    message = f"{prefix}facets: facet {(1, bad_id, 3)} has a vertex id that is not an int"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        read(json.dumps(doc))


def test_parse_rejects_dimension_mismatch():
    doc = doc_of(boundary_simplex(2))
    doc["dimension"] = 3
    with pytest.raises(ValidationError, match="dimension"):
        parse(json.dumps(doc))


def test_parse_rejects_invalid_complex():
    text = bare_sphere_doc(
        [(1, 2, 3), (1, 2)], {1: 1, 2: 2, 3: 3}, 2
    )
    with pytest.raises(ValidationError, match="facets"):
        parse(text)


def test_parse_names_overloaded_ridge():
    facets = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5)]
    text = bare_sphere_doc(facets, {v: min(v, 4) for v in range(1, 6)}, 2)
    with pytest.raises(ValidationError, match=r"\[1, 2\]"):
        parse(text)


def test_parse_rejects_disconnected():
    facets = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    text = bare_sphere_doc(facets, {v: (v - 1) % 3 + 1 for v in range(1, 7)}, 1)
    with pytest.raises(ValidationError, match="disconnected"):
        parse(text)


def test_parse_rejects_orientation_problems():
    base = doc_of(boundary_simplex(2))

    doc = json.loads(json.dumps(base))
    doc["orientation"][0][0] = -doc["orientation"][0][0]
    with pytest.raises(ValidationError, match="coherent"):
        parse(json.dumps(doc))

    # (1, 2, 3) has sign +1, so 1.0 and True carry the right value as a
    # float and a bool, which would break the integers-only canonical form
    assert base["orientation"][0] == [1, 1, 2, 3]
    for bad_sign in (2, 1.0, True):
        doc = json.loads(json.dumps(base))
        doc["orientation"][0] = [bad_sign, 1, 2, 3]
        with pytest.raises(ValidationError, match="bad orientation entry"):
            parse(json.dumps(doc))

    doc = json.loads(json.dumps(base))
    doc["orientation"][0] = [1, 1, 2, 9]
    with pytest.raises(ValidationError, match="not a facet"):
        parse(json.dumps(doc))

    # an entry that repeats an id sorts into no facet
    for entry in ([1, 1, 1, 3], [1, 1, 3, 3], [-1, 2, 1, 2]):
        doc = json.loads(json.dumps(base))
        doc["orientation"][0] = entry
        message = f"orientation entry {entry!r} is not a facet"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse(json.dumps(doc))

    doc = json.loads(json.dumps(base))
    doc["orientation"].append(doc["orientation"][0])
    with pytest.raises(ValidationError, match="twice"):
        parse(json.dumps(doc))

    doc = json.loads(json.dumps(base))
    doc["orientation"] = doc["orientation"][:-1]
    with pytest.raises(ValidationError, match="missing facet"):
        parse(json.dumps(doc))

    doc = json.loads(json.dumps(base))
    doc["orientation"] = {"1,2,3": 1}
    with pytest.raises(ValidationError, match="orientation"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("n, d", [(2, 5), (4, -9), (5, 10)])
def test_one_flipped_sign_names_the_first_ridge_of_its_facet(n, d):
    # coherence is decided by comparing the signs with the walk's, but the
    # message still names the first incoherent ridge: with one sign flipped
    # those are the flipped facet's ridges, the first leaving out its last vertex
    base = doc_of(construct(n, d))
    del base["metadata"]["recipe"]
    entries = base["orientation"]
    for k in (0, len(entries) // 2, len(entries) - 1):
        doc = json.loads(json.dumps(base))
        doc["orientation"][k][0] *= -1
        message = f"document orientation not coherent across ridge {entries[k][1:-1]}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse(json.dumps(doc))


def test_a_recipe_document_computes_its_degree_report_once(monkeypatch):
    # the document takes the report of the equal sphere its recipe rebuilds
    degree_mod = importlib.import_module("spheremap.degree")
    report, sizes = degree_mod._degree_report, []
    monkeypatch.setattr(
        degree_mod, "_degree_report", lambda ls: sizes.append(len(ls.complex.facets)) or report(ls)
    )
    text = serialize(construct(3, 300))
    sizes.clear()
    cert = load_certificate(text)
    # boundary_simplex(2), one insertion, one suspension, then the run of insertions
    assert sizes == [4, 12, 18, 1503]
    assert degree(cert.labeled).degree == cert.claimed_degree == 300
    assert sizes == [4, 12, 18, 1503]
    # a claim is still checked before the recipe, whose failure comes after it
    doc = json.loads(text)
    doc["metadata"]["claimed_degree"] = 299
    assert doc["metadata"]["recipe"][2][0] == "suspend"
    doc["metadata"]["recipe"][2] = ["suspend", 99]
    with pytest.raises(DegreeMismatch, match="claims degree 299, engine computes 300"):
        load_certificate(json.dumps(doc))
    doc["metadata"]["claimed_degree"] = 300
    with pytest.raises(ValidationError, match="^recipe replay failed: "):
        load_certificate(json.dumps(doc))


def test_parse_accepts_unsorted_orientation_entries():
    # an entry in odd order means the opposite stored sign on the sorted tuple
    doc = doc_of(boundary_simplex(2))
    sign, a, b, c = doc["orientation"][0]
    doc["orientation"][0] = [-sign, b, a, c]
    ls = parse(json.dumps(doc))
    assert degree(ls).degree == 1


# reorderings of a 4-vertex facet by position, with the sign of each permutation
FACET_REORDERINGS = (
    ((1, 2, 0, 3), 1),  # 3-cycle
    ((1, 0, 3, 2), 1),  # two transpositions
    ((1, 0, 2, 3), -1),  # transposition
    ((3, 0, 1, 2), -1),  # 4-cycle
    ((3, 2, 1, 0), 1),  # reversal of four
)


def test_parse_accepts_every_entry_unsorted():
    # each entry in another order carries its sign times the order's parity;
    # the document must still parse to the same labeled sphere
    text = serialize(construct(3, 5))
    expected = parse(text)
    doc = json.loads(text)
    for k, entry in enumerate(doc["orientation"]):
        sign, *verts = entry
        order, parity = FACET_REORDERINGS[k % len(FACET_REORDERINGS)]
        doc["orientation"][k] = [sign * parity, *(verts[i] for i in order)]
    assert all(e[1:] != sorted(e[1:]) for e in doc["orientation"])
    assert parse(json.dumps(doc)) == expected

    for k in range(len(FACET_REORDERINGS)):  # one wrong sign, on an even and an odd order
        broken = json.loads(json.dumps(doc))
        broken["orientation"][k][0] = -broken["orientation"][k][0]
        with pytest.raises(ValidationError, match="coherent"):
            parse(json.dumps(broken))


def test_parse_rejects_label_problems():
    base = doc_of(boundary_simplex(2))

    doc = json.loads(json.dumps(base))
    doc["labels"] = [1, 2, 3, 4]
    with pytest.raises(ValidationError, match="labels"):
        parse(json.dumps(doc))

    doc = json.loads(json.dumps(base))
    doc["labels"] = {"x": 1, "2": 2, "3": 3, "4": 4}
    with pytest.raises(ValidationError, match="vertex id"):
        parse(json.dumps(doc))

    doc = json.loads(json.dumps(base))
    doc["labels"]["1"] = 1.5
    with pytest.raises(ValidationError, match="integer"):
        parse(json.dumps(doc))

    doc = json.loads(json.dumps(base))
    del doc["labels"]["1"]
    with pytest.raises(ValidationError, match="labels"):
        parse(json.dumps(doc))

    doc = json.loads(json.dumps(base))
    doc["labels"]["1"] = 9
    with pytest.raises(ValidationError, match="labels"):
        parse(json.dumps(doc))

    # a vertex id has one spelling, so no key can alias another vertex's
    for spelling in ("01", " 1", "1 ", "+1", "0_1", "1.0", "None"):
        doc = json.loads(json.dumps(base))
        doc["labels"][spelling] = doc["labels"].pop("1")
        with pytest.raises(ValidationError, match="vertex id"):
            parse(json.dumps(doc))
    for spelling in ("+4", "0_4", "04"):
        doc = json.loads(json.dumps(base))
        doc["labels"][spelling] = 1  # would overwrite vertex 4's color
        del doc["metadata"]
        with pytest.raises(ValidationError, match="vertex id"):
            parse(json.dumps(doc))


def test_claimed_vertex_count_must_be_an_integer():
    for claimed in (4.0, "4", True, [4]):
        doc = doc_of(boundary_simplex(2))
        doc["metadata"]["claimed_vertex_count"] = claimed
        for read in (parse, load_certificate):
            with pytest.raises(ValidationError, match="claimed_vertex_count"):
                read(json.dumps(doc))


def test_parse_rejects_non_spheres():
    torus_doc = bare_sphere_doc(TORUS, {v: (v - 1) % 4 + 1 for v in range(1, 8)}, 2)
    with pytest.raises(ValidationError, match="sphere checks"):
        parse(torus_doc)
    rp2_doc = bare_sphere_doc(RP2, {v: (v - 1) % 4 + 1 for v in range(1, 7)}, 2)
    with pytest.raises(ValidationError, match="orientable"):
        parse(rp2_doc)


def test_parse_names_the_failing_sphere_checks():
    torus_doc = bare_sphere_doc(TORUS, {v: (v - 1) % 4 + 1 for v in range(1, 8)}, 2)
    with pytest.raises(ValidationError) as caught:
        parse(torus_doc)
    assert str(caught.value) == "document fails sphere checks: ['euler_characteristic']"


def test_parse_rejects_claim_mismatches():
    doc = doc_of(degree_four_witness())
    doc["metadata"]["claimed_degree"] = 5
    with pytest.raises(DegreeMismatch):
        parse(json.dumps(doc))

    doc = doc_of(degree_four_witness())
    doc["metadata"]["claimed_vertex_count"] = 11
    with pytest.raises(ValidationError, match="vertices"):
        parse(json.dumps(doc))

    doc = doc_of(degree_four_witness())
    doc["metadata"]["claimed_degree"] = "4"
    with pytest.raises(ValidationError, match="claimed_degree"):
        parse(json.dumps(doc))

    doc = doc_of(degree_four_witness())
    doc["metadata"] = ["not", "a", "dict"]
    with pytest.raises(ValidationError, match="metadata"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("metadata", [[], False, 0, ""], ids=repr)
def test_falsy_metadata_that_is_not_an_object_is_refused(metadata):
    # only an absent or null metadata means none
    doc = doc_of(construct(2, 3))
    doc["metadata"] = metadata
    for read in (parse, parse_with_metadata, load_certificate):
        with pytest.raises(ValidationError, match="^metadata must be an object$"):
            read(json.dumps(doc))


def test_null_metadata_means_none():
    doc = doc_of(construct(2, 3))
    doc["metadata"] = None
    ls, metadata = parse_with_metadata(json.dumps(doc))
    assert metadata == {} and degree(ls).degree == 3
