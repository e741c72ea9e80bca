"""The package's records (subclasses of ``complexes._Record``) behave as
frozen dataclasses do: built by position or by keyword, equal and hashed as
the tuple of their compared fields, printed as ``Name(field=value, ...)``,
closed to assignment and deletion, matched by position, and copied and
pickled whole.  The repr texts were recorded from the frozen dataclasses."""

import copy
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import spheremap
from spheremap import (
    CanonicalForm,
    Complex,
    DegreeReport,
    LabeledSphere,
    OrientedComplex,
    build_complex,
    canonical_form,
    check_closed_pseudomanifold,
    construct,
    degree,
    is_sphere,
    labeled_sphere,
    lambda_search,
    lambda_table,
    orient,
)
from spheremap.complexes import _Record
from spheremap.search import _sphere_classes


def records() -> dict:
    """One record of each class, by class name."""
    K = build_complex([(1, 2), (1, 3), (2, 3)])
    ls = labeled_sphere(orient(K), {1: 1, 2: 2, 3: 3})
    table = lambda_table([{"n": 3, "d": 4}])
    return {
        "Complex": K,
        "ClosednessReport": check_closed_pseudomanifold(K),
        "_RidgeMap": K._ridges,
        "OrientedComplex": orient(K),
        "SphereVerdict": is_sphere(K),
        "CanonicalForm": canonical_form(K),
        "ConstructionCertificate": construct(1, 1),
        "LabeledSphere": ls,
        "DegreeReport": degree(ls),
        "_SphereClass": _sphere_classes(4)[0],
        "LambdaResult": lambda_search(1, 1, 3),
        "LambdaRow": table.rows[0],
        "LambdaTable": table,
    }


NAMES = sorted(records())

TRIANGLE = "Complex(dimension=1, facets=((1, 2), (1, 3), (2, 3)))"
ORIENTED = f"OrientedComplex(base={TRIANGLE}, signs=(1, -1, 1))"
LABELED = f"LabeledSphere(oriented={ORIENTED}, labels=mappingproxy({{1: 1, 2: 2, 3: 3}}))"
ROW = (
    "LambdaRow(n=3, d=4, lambda_value=10, status='exact_formula', "
    "note='exact small-degree family n+|d|+3')"
)
REPRS = {
    "Complex": TRIANGLE,
    "ClosednessReport": "ClosednessReport(passed=True, bad_ridges=(), connected=True)",
    "_RidgeMap": (
        "_RidgeMap(rows=[((1, -1, 2), (2, 1, 1)), ((0, -1, 3), (2, -1, 1)), "
        "((0, 1, 3), (1, -1, 2))], closed=True)"
    ),
    "OrientedComplex": ORIENTED,
    "SphereVerdict": (
        "SphereVerdict(status=<SphereStatus.SPHERE: 'Sphere'>, "
        "checks=(('closed_pseudomanifold', True), ('connected', True), ('orientable', True), "
        "('euler_characteristic', True), ('vertex_links', True)))"
    ),
    "CanonicalForm": (
        "CanonicalForm(key=b'1;3;1,2|1,3|2,3', relabeling={1: 2, 2: 3, 3: 1}, "
        f"canonical={TRIANGLE}, "
        "automorphisms=({2: 2, 3: 1, 1: 3}, {2: 3, 3: 2, 1: 1}, {2: 1, 3: 2, 1: 3}))"
    ),
    "ConstructionCertificate": (
        f"ConstructionCertificate(labeled={LABELED}, claimed_degree=1, "
        "claimed_vertex_count=3, recipe=(('cyclic_circle', 1),))"
    ),
    "LabeledSphere": LABELED,
    "DegreeReport": (
        "DegreeReport(degree=1, per_target_facet=mappingproxy({1: (((2, 3), 1),), "
        "2: (((1, 3), 1),), 3: (((1, 2), 1),)}), consistent=True, degenerate_facet_count=0)"
    ),
    "_SphereClass": (
        "_SphereClass(canonical=Complex(dimension=2, "
        "facets=((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))), "
        "automorphisms=({2: 2, 3: 3, 4: 1, 1: 4}, {2: 2, 3: 4, 4: 3, 1: 1}, "
        "{2: 2, 3: 1, 4: 3, 1: 4}, {2: 3, 3: 2, 4: 4, 1: 1}, {2: 4, 3: 2, 4: 3, 1: 1}, "
        "{2: 1, 3: 2, 4: 3, 1: 4}))"
    ),
    "LambdaResult": (
        f"LambdaResult(n=1, d=1, v_max=3, lambda_value=3, witness={LABELED}, "
        "triangulations_examined=1, labelings_examined=6)"
    ),
    "LambdaRow": ROW,
    "LambdaTable": f"LambdaTable(rows=({ROW},))",
}

MATCH_ARGS = {
    "Complex": ("dimension", "facets"),
    "ClosednessReport": ("passed", "bad_ridges", "connected"),
    "_RidgeMap": ("rows", "closed"),
    "OrientedComplex": ("base", "signs"),
    "SphereVerdict": ("status", "checks"),
    "CanonicalForm": ("key", "relabeling", "canonical", "automorphisms"),
    "ConstructionCertificate": ("labeled", "claimed_degree", "claimed_vertex_count", "recipe"),
    "LabeledSphere": ("oriented", "labels"),
    "DegreeReport": ("degree", "per_target_facet", "consistent", "degenerate_facet_count"),
    "_SphereClass": ("canonical", "automorphisms"),
    "LambdaResult": (
        "n", "d", "v_max", "lambda_value", "witness",
        "triangulations_examined", "labelings_examined",
    ),
    "LambdaRow": ("n", "d", "lambda_value", "status", "note"),
    "LambdaTable": ("rows",),
}


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def compared(record) -> tuple:
    """The fields equality and hashing read: all but a canonical form's automorphisms."""
    return fields(record)[:3] if isinstance(record, CanonicalForm) else fields(record)


@pytest.mark.parametrize("name", NAMES)
def test_records_keep_their_fields_and_repr(name):
    record = records()[name]
    assert type(record).__name__ == name
    assert type(record).__match_args__ == MATCH_ARGS[name]
    assert repr(record) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_records_build_by_position_and_by_keyword(name):
    record = records()[name]
    cls, values = type(record), fields(record)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls.__match_args__, values)))
    for built in (by_position, by_keyword):
        assert built == record and built is not record
        assert repr(built) == repr(record)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):  # a field missing
        cls(*values[:-1])
    with pytest.raises(TypeError):  # an unknown keyword
        cls(*values, other=None)
    with pytest.raises(TypeError):  # a field given by position and by keyword
        cls(*values, **{cls.__match_args__[0]: values[0]})


def test_only_the_labeled_sphere_defines_its_own_init():
    # it checks its coloring; every other record is built by _Record.__init__
    classes = {type(record) for record in records().values()}
    assert set(_Record.__subclasses__()) == classes
    assert [cls.__name__ for cls in classes if "__init__" in vars(cls)] == ["LabeledSphere"]


@pytest.mark.parametrize("name", NAMES)
def test_records_compare_and_hash_as_the_tuple_of_compared_fields(name):
    record = records()[name]
    key = compared(record)
    assert record == type(record)(*fields(record)) and not record != record
    assert record.__eq__(key) is NotImplemented and record != key
    assert record != object()
    try:
        expected = hash(key)
    except TypeError:  # a list, dict or mappingproxy field
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


def test_canonical_form_equality_ignores_automorphisms():
    cf = canonical_form(build_complex([(1, 2), (1, 3), (2, 3)]))
    other = CanonicalForm(cf.key, cf.relabeling, cf.canonical, automorphisms=())
    assert other == cf and other.automorphisms != cf.automorphisms
    assert CanonicalForm(b"", cf.relabeling, cf.canonical, cf.automorphisms) != cf
    assert CanonicalForm(cf.key, {}, cf.canonical, cf.automorphisms) != cf


@pytest.mark.parametrize("name", NAMES)
def test_records_refuse_assignment_and_deletion(name):
    record = records()[name]
    before = repr(record)
    for attribute in (*type(record).__match_args__, "other"):
        with pytest.raises(AttributeError) as assigned:
            setattr(record, attribute, None)
        with pytest.raises(AttributeError) as deleted:
            delattr(record, attribute)
        assert str(assigned.value) == f"cannot assign to field {attribute!r}"
        assert str(deleted.value) == f"cannot delete field {attribute!r}"
    assert repr(record) == before


def test_complex_matches_by_position():
    match build_complex([(2, 1), (3, 1), (3, 2)]):
        case Complex(dimension, facets):
            assert (dimension, facets) == (1, ((1, 2), (1, 3), (2, 3)))
        case _:  # pragma: no cover
            pytest.fail("a Complex did not match Complex(dimension, facets)")


# the cached properties that hold a mappingproxy, by the record they sit on
CACHED_MAPPINGS = {
    Complex: ("facets_at", "ridge_entries"),
    OrientedComplex: ("sign_by_facet",),
    LabeledSphere: ("color_classes",),
    DegreeReport: ("per_target_sums",),
}


def read_cached_mappings(record) -> None:
    """Read every cached mapping on the record and on the records its fields hold."""
    for name in CACHED_MAPPINGS.get(type(record), ()):
        getattr(record, name)
    for value in fields(record):
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, _Record):
                read_cached_mappings(item)


@pytest.mark.parametrize("name", NAMES)
def test_records_copy_and_pickle(name):
    # after their cached mappingproxy values are read, as a labeled sphere's
    # labels and a degree report's per_target_facet always are
    record = records()[name]
    read_cached_mappings(record)
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and twin is not record
        assert repr(twin) == repr(record) and fields(twin) == fields(record)
        assert vars(twin).keys() == vars(record).keys()
        for attribute, value in vars(record).items():
            assert type(vars(twin)[attribute]) is type(value)
        with pytest.raises(AttributeError):
            twin.other = None


def test_a_copied_complex_keeps_its_cached_properties():
    K = build_complex([(1, 2), (1, 3), (2, 3)])
    assert is_sphere(K).passed
    for twin in (copy.deepcopy(K), pickle.loads(pickle.dumps(K))):
        assert vars(twin).keys() == vars(K).keys()
        assert is_sphere(twin) == is_sphere(K) and twin.vertices == (1, 2, 3)


def test_cold_enumeration_to_v10_holds_at_most_0_6_mib():
    # the traced size of the classes a cold enumeration to v = 10 keeps,
    # 0.798 MiB when each record was a frozen dataclass (Python 3.11), and
    # 0.51 MiB once _rotation cached no orientation on each parent
    _sphere_classes.cache_clear()
    tracemalloc.start()
    try:
        count = len(_sphere_classes(10))
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        _sphere_classes.cache_clear()
    assert count == 233
    assert size <= 0.60 * 2**20


def test_importing_the_cli_generates_no_code():
    # neither dataclasses nor inspect (which dataclasses imports) is loaded
    code = (
        "import sys, spheremap, spheremap.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    src = str(Path(spheremap.__file__).parents[1])
    out = subprocess.run(  # -S: no site hooks, which may import either
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout == "[]\n"
