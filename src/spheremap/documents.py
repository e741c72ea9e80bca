"""Canonical JSON documents for labeled spheres and certificates.

One format serves both: certificate fields ride in ``metadata`` and are
optional.  Serialization is canonical -- sorted keys, facets sorted
lexicographically, integers only -- so equal objects produce byte-equal
text and documents double as regression fixtures.

Parsing fully re-validates: complex invariants, closedness, orientation
coherence (or a fresh orientation when the field is absent), labeling
range, sphere necessary conditions, and the degree engine; a mismatch with
``metadata.claimed_degree`` raises DegreeMismatch.
"""

from __future__ import annotations

import json

from .complexes import (
    OrientedComplex,
    build_complex,
    check_closed_pseudomanifold,
    coherence_failures,
    is_sphere,
    orient,
    parity_to_sorted,
    SphereStatus,
)
from .constructions import ConstructionCertificate, Recipe, _certify, replay
from .degree import LabeledSphere, degree, labeled_sphere
from .errors import (
    DegreeMismatch,
    DocumentSyntaxError,
    NonOrientable,
    SpheremapError,
    ValidationError,
)

FORMAT_VERSION = "1"

__all__ = [
    "FORMAT_VERSION",
    "serialize",
    "parse",
    "parse_with_metadata",
    "load_certificate",
]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _recipe_to_json(recipe: Recipe) -> list:
    out = []
    for step in recipe:
        op, *args = step
        if op == "literal":
            out.append(["literal", _core_dict(args[0])])
        elif op == "insert":
            out.append(["insert", list(args[0])])
        else:
            out.append([op, *args])
    return out


# (dimension, vertex count) of the sphere each seed step builds
_INT_SEEDS = {
    "boundary_simplex": lambda n: (n, n + 2),
    "cyclic_circle": lambda d: (1, 3 * abs(d)),
    "degree_zero": lambda n: (n, n + 2),
}
_BARE_SEEDS = {"degree_four_witness": (3, 10), "degree_four_witness_raw": (3, 10)}


def _recipe_from_json(data, ls: LabeledSphere) -> Recipe:
    """Check a JSON recipe's shape against ``ls`` and convert it.

    A recipe is one seed step followed by suspend, insert and reverse
    moves; a literal seed is validated like a document.  The steps fix the
    dimension and vertex count of what the recipe builds, and neither ever
    decreases along it, so checking both against ``ls`` before any replay
    keeps the replay within the size of the document.
    """
    if not isinstance(data, list) or not data or not all(
        isinstance(step, list) and step and isinstance(step[0], str) for step in data
    ):
        raise ValidationError("metadata.recipe must be a non-empty list of steps")
    (op, *args), moves = data[0], data[1:]
    if op in _INT_SEEDS and len(args) == 1 and _is_int(args[0]):
        steps = [(op, args[0])]
        dim, size = _INT_SEEDS[op](args[0])
    elif op in _BARE_SEEDS and not args:
        steps = [(op,)]
        dim, size = _BARE_SEEDS[op]
    elif op == "literal" and len(args) == 1 and isinstance(args[0], dict):
        try:
            seed, _ = _parse_document({**args[0], "format_version": FORMAT_VERSION})
        except SpheremapError as e:
            raise ValidationError(f"recipe literal seed: {e}") from None
        steps = [("literal", seed)]
        dim, size = seed.dimension, len(seed.oriented.vertices)
    else:
        raise ValidationError(f"recipe seed {data[0]!r} is malformed")

    for step in moves:
        op, *args = step
        if op == "suspend" and len(args) == 1 and _is_int(args[0]):
            steps.append(("suspend", args[0]))
            dim, size = dim + 1, size + 1
        elif (
            op == "insert"
            and len(args) == 1
            and isinstance(args[0], list)
            and all(_is_int(v) for v in args[0])
        ):
            steps.append(("insert", tuple(args[0])))
            size += dim + 2
        elif op == "reverse" and not args:
            steps.append(("reverse",))
        else:
            raise ValidationError(f"recipe step {step!r} is malformed")

    if (dim, size) != (ls.dimension, len(ls.oriented.vertices)):
        raise ValidationError(
            f"recipe builds dimension {dim} on {size} vertices, the document has "
            f"dimension {ls.dimension} on {len(ls.oriented.vertices)} vertices"
        )
    return tuple(steps)


def _core_dict(ls: LabeledSphere) -> dict:
    """The sphere's fields, shared by documents and literal recipe seeds."""
    return {
        "dimension": ls.dimension,
        "facets": [list(f) for f in ls.complex.facets],
        "labels": {str(v): c for v, c in sorted(ls.labels.items())},
        "orientation": [
            [s, *f] for f, s in zip(ls.complex.facets, ls.oriented.signs)
        ],
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


def serialize(obj) -> str:
    """Canonical JSON text for a LabeledSphere or ConstructionCertificate."""
    return json.dumps(_document_dict(obj), sort_keys=True, indent=2) + "\n"


def parse(text: str) -> LabeledSphere:
    """Parse and fully re-validate a document."""
    return parse_with_metadata(text)[0]


def parse_with_metadata(text: str) -> tuple[LabeledSphere, dict]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"not valid JSON: {e}") from None
    return _parse_document(doc)


def _parse_document(doc) -> tuple[LabeledSphere, dict]:
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
    if not isinstance(facets_raw, list) or not all(
        isinstance(f, list) and all(_is_int(v) for v in f) for f in facets_raw
    ):
        raise ValidationError("facets must be a list of integer lists")

    try:
        complex = build_complex(facets_raw)
    except SpheremapError as e:
        raise ValidationError(f"facets: {e}") from None
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
            raise ValidationError(f"label key {key!r} is not a vertex id") from None
        if not _is_int(c):
            raise ValidationError(f"label of vertex {v} must be an integer")
        labels[v] = c
    try:
        ls = labeled_sphere(oriented, labels)
    except SpheremapError as e:
        raise ValidationError(f"labels: {e}") from None

    verdict = is_sphere(complex)
    if verdict.status is SphereStatus.NOT_SPHERE:
        failing = [name for name, ok in verdict.checks if not ok]
        raise ValidationError(f"sphere checks failed: {failing}")

    try:
        rep = degree(ls)
    except SpheremapError as e:  # pragma: no cover - coherence already checked
        raise ValidationError(f"degree engine: {e}") from None

    metadata = doc.get("metadata") or {}
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
    if claimed_v is not None and claimed_v != len(oriented.vertices):
        raise ValidationError(
            f"metadata claims {claimed_v} vertices, document has {len(oriented.vertices)}"
        )
    return ls, metadata


def _oriented_from_field(complex, entries) -> OrientedComplex:
    if not isinstance(entries, list):
        raise ValidationError("orientation must be a list of signed orderings")
    signs: dict = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) < 2:
            raise ValidationError(f"bad orientation entry {entry!r}")
        sign, *verts = entry
        if not (_is_int(sign) and sign in (1, -1) and all(_is_int(v) for v in verts)):
            raise ValidationError(f"bad orientation entry {entry!r}")
        facet = tuple(sorted(verts))
        if len(set(verts)) != len(verts) or facet not in complex.facet_set:
            raise ValidationError(f"orientation entry {entry!r} is not a facet")
        if facet in signs:
            raise ValidationError(f"orientation lists facet {list(facet)} twice")
        signs[facet] = sign * parity_to_sorted(verts)
    missing = [f for f in complex.facets if f not in signs]
    if missing:
        raise ValidationError(f"orientation missing facet {list(missing[0])}")
    oriented = OrientedComplex(complex, tuple(signs[f] for f in complex.facets))
    bad = coherence_failures(oriented)
    if bad:
        raise ValidationError(
            f"orientation not coherent across ridge {list(bad[0])}"
        )
    return oriented


def load_certificate(text: str) -> ConstructionCertificate:
    """Parse a document into a certificate, keeping any recipe metadata.

    A recipe is checked, not trusted: it is replayed and must rebuild the
    document's sphere exactly (facets, orientation and labels).  Documents
    without a recipe get a literal seed so later construction steps still
    produce replayable recipes.
    """
    ls, metadata = parse_with_metadata(text)
    raw_recipe = metadata.get("recipe")
    if raw_recipe is None:
        recipe = (("literal", ls),)
    else:
        recipe = _recipe_from_json(raw_recipe, ls)
        try:
            rebuilt = replay(recipe).labeled
        except SpheremapError as e:
            raise ValidationError(f"recipe replay failed: {e}") from None
        if rebuilt != ls:
            raise ValidationError("recipe does not rebuild the document's sphere")
    return _certify(ls, recipe)
