"""Canonical JSON documents for labeled spheres and certificates.

One format serves both: certificate fields ride in ``metadata`` and are
optional.  Serialization is canonical -- sorted keys, facets sorted
lexicographically, integers only -- so equal objects produce byte-equal
text and documents double as regression fixtures.  The text is exactly
json's ``sort_keys=True, indent=2`` rendering, and a test checks that.

Every reader (parse, parse_with_metadata, load_certificate) fully
re-validates: the build caps (BudgetExceeded, before any sphere check),
complex invariants, closedness, the orientation field (or a fresh
orientation when it is absent), labeling range, the sphere checks and
orientation coherence, the degree engine, the metadata claims, and then
the recipe, which must replay to the same sphere; a mismatch with
``metadata.claimed_degree`` raises DegreeMismatch.

The reader checks that ``facets`` is a list of lists and leaves the rest
to ``build_complex`` (facet sizes, int ids, repeats): a facet id that is
not an int reads ``facets: facet (1, 2.5, 3) has a vertex id that is not
an int``.  A literal recipe seed is read as a document without a recipe.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii

from .complexes import (
    OrientedComplex,
    _all_ints,
    _is_int,
    _sphere_failure,
    build_complex,
    check_closed_pseudomanifold,
    orient,
    parity_to_sorted,
)
from .constructions import (
    ConstructionCertificate,
    Recipe,
    _certify,
    _check_budget,
    _recipe_shape,
    replay,
)
from .degree import LabeledSphere, degree, labeled_sphere
from .errors import (
    DegreeMismatch,
    DocumentSyntaxError,
    NonOrientable,
    SpheremapError,
    ValidationError,
    _shown,
)

FORMAT_VERSION = "1"

__all__ = [
    "FORMAT_VERSION",
    "serialize",
    "parse",
    "parse_with_metadata",
    "load_certificate",
]


def _recipe_to_json(recipe: Recipe) -> list:
    """JSON form of a recipe; ``json`` writes the insert facet as a list."""
    return [
        ["literal", _core_dict(args[0])] if op == "literal" else [op, *args]
        for op, *args in recipe
    ]


def _recipe_from_json(data):
    """Convert a JSON recipe to replay's form, leaving its checks to replay's
    grammar: a literal first step is parsed like a document, an insert facet
    becomes a tuple, and every other step list becomes a tuple as it is."""
    if not isinstance(data, list):
        return data
    return tuple(_step_from_json(step, first=i == 0) for i, step in enumerate(data))


def _step_from_json(step, first: bool):
    if not isinstance(step, list):
        return step
    if first and len(step) == 2 and step[0] == "literal" and isinstance(step[1], dict):
        try:
            seed = _parse_seed(step[1])
        except SpheremapError as e:
            raise ValidationError(f"recipe literal seed: {e}") from None
        return ("literal", seed)
    if len(step) == 2 and step[0] == "insert" and isinstance(step[1], list):
        return ("insert", tuple(step[1]))
    return tuple(step)


# the fields _core_dict writes, and all a literal seed may hold
_SEED_FIELDS = frozenset(("dimension", "facets", "labels", "orientation"))


def _parse_seed(fields: dict) -> LabeledSphere:
    """The labeled sphere of a literal seed's fields.  A seed certifies
    nothing: it is read as the document without a recipe that it is."""
    extra = sorted(fields.keys() - _SEED_FIELDS)
    if extra:
        raise ValidationError(f"unexpected key {extra[0]!r}")
    return _parse_document({**fields, "format_version": FORMAT_VERSION})[0].labeled


class _IntRows(tuple):
    """Non-empty tuples of ints (int itself), as one type scan in
    ``_core_dict`` found them; ``_dump`` writes them without scanning
    again, and json writes them as the list they are."""

    __slots__ = ()


def _core_dict(ls: LabeledSphere) -> dict:
    """The sphere's fields, shared by documents and literal recipe seeds.
    Facets and ``(sign, *facet)`` entries are tuples, which ``_dump`` writes
    as JSON lists; a label key is the int's own digits, also for an int
    subclass such as an IntEnum's, whose ``str`` may be its name.  The
    orientation rows are the facets with a sign in front, so one scan of
    the facet ids' types (and one of the signs') serves both row lists."""
    facets = ls.complex.facets
    signs = ls.oriented.signs
    orientation = [(s, *f) for f, s in zip(facets, signs)]
    if all(facets) and set(map(type, chain.from_iterable(facets))) == {int}:
        facets = _IntRows(facets)
        if set(map(type, signs)) == {int}:
            orientation = _IntRows(orientation)
    return {
        "dimension": ls.dimension,
        "facets": facets,
        "labels": {int.__repr__(v): c for v, c in ls.labels.items()},
        "orientation": orientation,
    }


def _document_dict(obj) -> dict:
    if isinstance(obj, ConstructionCertificate):
        ls = obj.labeled
        metadata = {
            "claimed_degree": obj.claimed_degree,
            "claimed_vertex_count": obj.claimed_vertex_count,
            "recipe": _recipe_to_json(obj.recipe),
        }
    elif isinstance(obj, LabeledSphere):
        ls = obj
        metadata = {"claimed_degree": degree(obj).degree}
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    return {"format_version": FORMAT_VERSION, **_core_dict(ls), "metadata": metadata}


def _dump(x, indent: str) -> str:
    """``json.dumps(x, sort_keys=True, indent=2)`` for any JSON value x,
    written as if nested at ``indent``.

    json.dumps with indent skips json's C encoder, so this writes the
    document's ints, strings, lists and str-keyed dicts itself: a flat int
    list with one join, the facet and orientation rows with one ``%``
    template per row length mapped over the rows (``_int_rows``), and a
    str-keyed dict of ints (the labels) with one join.  "Int" means int
    itself here.  The rows reach ``_int_rows`` only as ``_IntRows``, whose
    ids ``_core_dict`` scanned once per document; any other list is written
    item by item.  Any other value (bool, None, float, empty container, int
    subclass, dict with a non-str key) is left to json.dumps for its
    subtree.
    """
    t = type(x)
    if t is int:
        return int.__repr__(x)
    if t is str:
        return encode_basestring_ascii(x)
    inner = indent + "  "
    sep = ",\n" + inner
    if t is _IntRows:
        return f"[\n{inner}{sep.join(_int_rows(x, inner))}\n{indent}]"
    if (t is list or t is tuple) and x:
        kinds = set(map(type, x))
        if kinds == {int}:
            body = sep.join(map(int.__repr__, x))
        else:
            body = sep.join([_dump(v, inner) for v in x])
        return f"[\n{inner}{body}\n{indent}]"
    if t is dict and set(map(type, x)) == {str}:
        items = sorted(x.items())
        if set(map(type, x.values())) == {int}:
            body = sep.join(["%s: %d" % (encode_basestring_ascii(k), v) for k, v in items])
        else:
            body = sep.join([f"{encode_basestring_ascii(k)}: {_dump(v, inner)}" for k, v in items])
        return f"{{\n{inner}{body}\n{indent}}}"
    return json.dumps(x, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _int_rows(rows, inner: str):
    """The text of each of ``rows``, non-empty tuples of ints, at
    ``inner``: one ``%`` template per row length."""
    templates = {
        k: f"[\n{inner}  %d" + f",\n{inner}  %d" * (k - 1) + f"\n{inner}]"
        for k in set(map(len, rows))
    }
    if len(templates) == 1:
        return map(templates.popitem()[1].__mod__, rows)
    return [templates[len(r)] % r for r in rows]


def serialize(obj) -> str:
    """Canonical JSON text for a LabeledSphere or ConstructionCertificate."""
    return _dump(_document_dict(obj), "") + "\n"


def parse(text: str) -> LabeledSphere:
    """Parse and fully re-validate a document."""
    return _parse_document(_read_json(text))[0].labeled


def parse_with_metadata(text: str) -> tuple[LabeledSphere, dict]:
    """parse, plus the document's metadata object ({} when absent)."""
    cert, metadata = _parse_document(_read_json(text))
    return cert.labeled, metadata


def load_certificate(text: str) -> ConstructionCertificate:
    """Parse a document into a certificate, keeping any recipe metadata."""
    return _parse_document(_read_json(text))[0]


def _read_json(text: str):
    """The JSON value of text; malformed or too deeply nested text, or an
    integer past the interpreter's digit limit, raises DocumentSyntaxError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise DocumentSyntaxError(f"not valid JSON: {e}") from None


def _parse_document(doc) -> tuple[ConstructionCertificate, dict]:
    """The certificate a document states, and its metadata object.

    Failures are raised in this order: the sphere checks, the degree
    engine and the claims, then the recipe.  A recipe is checked, not
    trusted: it is replayed and must rebuild the document's sphere exactly
    (facets, orientation and labels).  It is replayed before the claims are
    checked, so that the document takes the degree report of the equal
    sphere it rebuilds.  Documents without a recipe get a literal seed so
    later construction steps still produce replayable recipes.
    """
    ls = _read_sphere(doc)
    failure = _sphere_failure(ls.oriented)
    if failure:
        raise ValidationError(f"document {failure}")
    metadata = doc.get("metadata")
    if metadata is None:  # absent or null; any other non-object is refused below
        metadata = {}
    recipe, recipe_error = (("literal", ls),), None
    if isinstance(metadata, dict) and metadata.get("recipe") is not None:
        try:
            recipe = _rebuilding_recipe(ls, metadata["recipe"])
        except SpheremapError as e:
            recipe_error = e
    _check_claims(ls, metadata)  # metadata is a dict from here on
    if recipe_error is not None:
        raise recipe_error
    return _certify(ls, recipe), metadata


def _rebuilding_recipe(ls: LabeledSphere, raw_recipe) -> Recipe:
    """A document's JSON recipe in replay's form; ValidationError unless it
    replays to exactly ``ls``."""
    # neither dimension nor vertex count ever decreases along a recipe,
    # so matching both before replaying keeps it within the document's size
    recipe = _recipe_from_json(raw_recipe)
    dim, size = _recipe_shape(recipe)
    if (dim, size) != (ls.dimension, len(ls.oriented.vertices)):
        raise ValidationError(
            f"recipe builds dimension {_shown(dim)} on {_shown(size)} vertices, the document has "
            f"dimension {ls.dimension} on {len(ls.oriented.vertices)} vertices"
        )
    try:
        rebuilt = replay(recipe).labeled
    except SpheremapError as e:
        raise ValidationError(f"recipe replay failed: {e}") from None
    if rebuilt != ls:
        raise ValidationError("recipe does not rebuild the document's sphere")
    # equal spheres have equal reports: ls takes the one replay computed
    vars(ls).setdefault("degree_report", rebuilt.degree_report)
    return recipe


def _read_sphere(doc) -> LabeledSphere:
    """The labeled sphere of a document, with its fields, the build caps,
    closedness, orientation field and labels checked, but not the sphere
    checks (``_parse_document``)."""
    if not isinstance(doc, dict):
        raise DocumentSyntaxError("top level must be a JSON object")

    for field in ("format_version", "dimension", "facets", "labels"):
        if field not in doc:
            raise ValidationError(f"missing field {field!r}")
    if doc["format_version"] != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported format_version {doc['format_version']!r}"
        )
    if not _is_int(doc["dimension"]) or doc["dimension"] < 0:
        raise ValidationError("dimension must be a non-negative integer")
    facets_raw = doc["facets"]
    if not isinstance(facets_raw, list) or not all(isinstance(f, list) for f in facets_raw):
        raise ValidationError("facets must be a list of integer lists")

    try:
        complex = build_complex(facets_raw)
    except SpheremapError as e:
        raise ValidationError(f"facets: {e}") from None
    _check_budget(complex.dimension, len(complex.vertices))  # before any sphere check
    if complex.dimension != doc["dimension"]:
        raise ValidationError(
            f"dimension field {doc['dimension']} != facet dimension {complex.dimension}"
        )

    report = check_closed_pseudomanifold(complex)
    if report.bad_ridges:
        ridge, k = report.bad_ridges[0]
        raise ValidationError(f"ridge {list(ridge)} lies in {k} facets, expected 2")
    if not report.connected:
        raise ValidationError("facet adjacency graph is disconnected")

    if "orientation" in doc and doc["orientation"] is not None:
        oriented = _oriented_from_field(complex, doc["orientation"])
    else:
        try:
            oriented = orient(complex)
        except NonOrientable as e:
            raise ValidationError(f"not orientable: {e}") from None

    labels_raw = doc["labels"]
    if not isinstance(labels_raw, dict):
        raise ValidationError("labels must be an object mapping vertex -> color")
    labels = {}
    for key, c in labels_raw.items():
        try:
            v = int(key)
        except (TypeError, ValueError):
            v = None
        if v is None or key != str(v):  # one spelling per vertex: "01" and "+1" are not 1
            raise ValidationError(f"label key {key!r} is not a vertex id")
        if not _is_int(c):
            raise ValidationError(f"label of vertex {v} must be an integer")
        labels[v] = c
    try:
        ls = labeled_sphere(oriented, labels)
    except SpheremapError as e:
        raise ValidationError(f"labels: {e}") from None
    return ls


def _check_claims(ls: LabeledSphere, metadata) -> None:
    """The degree engine, then the metadata object and the degree and
    vertex count it claims."""
    try:
        rep = degree(ls)
    except SpheremapError as e:  # pragma: no cover - the sphere is checked coherent
        raise ValidationError(f"degree engine: {e}") from None

    if not isinstance(metadata, dict):
        raise ValidationError("metadata must be an object")
    claimed = metadata.get("claimed_degree")
    if claimed is not None:
        if not _is_int(claimed):
            raise ValidationError("metadata.claimed_degree must be an integer")
        if claimed != rep.degree:
            raise DegreeMismatch(
                f"metadata claims degree {claimed}, engine computes {rep.degree}"
            )
    claimed_v = metadata.get("claimed_vertex_count")
    if claimed_v is not None:
        if not _is_int(claimed_v):
            raise ValidationError("metadata.claimed_vertex_count must be an integer")
        if claimed_v != len(ls.oriented.vertices):
            raise ValidationError(
                f"metadata claims {claimed_v} vertices, document has {len(ls.oriented.vertices)}"
            )


def _oriented_from_field(complex, entries) -> OrientedComplex:
    if not isinstance(entries, list):
        raise ValidationError("orientation must be a list of signed orderings")
    signs: dict = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) < 2:
            raise ValidationError(f"bad orientation entry {entry!r}")
        if not (_all_ints(entry) and entry[0] in (1, -1)):
            raise ValidationError(f"bad orientation entry {entry!r}")
        sign, *verts = entry
        facet = tuple(sorted(verts))
        if facet not in complex.facet_set:  # a repeated id sorts into no facet
            raise ValidationError(f"orientation entry {entry!r} is not a facet")
        if facet in signs:
            raise ValidationError(f"orientation lists facet {list(facet)} twice")
        # serialize lists every facet in sorted order, whose parity is +1
        signs[facet] = sign if list(facet) == verts else sign * parity_to_sorted(verts)
    missing = [f for f in complex.facets if f not in signs]
    if missing:
        raise ValidationError(f"orientation missing facet {list(missing[0])}")
    return OrientedComplex(complex, tuple(signs[f] for f in complex.facets))

