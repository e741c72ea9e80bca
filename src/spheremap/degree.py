"""Degree of the simplicial map induced by a vertex coloring.

A coloring of an oriented n-sphere triangulation by colors {1..n+2} induces
a simplicial map onto the boundary of the (n+1)-simplex whose vertices are
the colors.  The degree is the signed count of preimage facets over any one
target facet; for a closed coherently oriented domain all n+2 counts agree,
and the engine verifies that on every call.

Sign of a nondegenerate facet t:

    sign(t) = eps_t * sigma_t * rho_i

* eps_t: stored orientation sign of t (relative to sorted vertex order),
* sigma_t: parity of the color sequence read along t's sorted vertices,
  relative to increasing color order,
* rho_i = (-1)**(n+i): reference sign of the target facet omitting color i,
  written in increasing color order.  This normalization is exactly the one
  `orient` produces on the boundary simplex (the facet omitting the top
  color is positive), so the identity coloring of the boundary simplex has
  degree +1 in every dimension.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType

from .complexes import (
    Complex,
    Facet,
    OrientedComplex,
    _all_ints,
    _is_int,
    _Record,
    _sorted_facet,
    _sphere_failure,
    _store,
    parity_to_sorted,
)
from .errors import (
    BadLabeling,
    FacetNotFound,
    InconsistentDegree,
    InvalidDimension,
    InvalidLink,
    NotAPermutation,
    NotSingletonColor,
    UnknownVertex,
    ValidationError,
    _shown,
)

Labeling = Mapping[int, int]

__all__ = [
    "Labeling",
    "LabeledSphere",
    "DegreeReport",
    "labeled_sphere",
    "facet_sign",
    "degree",
    "relabel",
    "reverse_orientation",
    "link_reduction",
    "singleton_colors",
    "permutation_sign",
]


class LabeledSphere(_Record):
    """Oriented complex plus a coloring of its vertices by {1..n+2}, checked
    on every construction (else BadLabeling) and kept as a read-only copy."""

    __match_args__ = ("oriented", "labels")

    def __init__(self, oriented: OrientedComplex, labels: Labeling):
        if not isinstance(labels, Mapping):
            raise BadLabeling("labels must map vertex -> color")
        verts = set(oriented.vertices)
        if labels.keys() != verts:
            missing = sorted(verts - set(labels))[:5]
            extra = set(labels) - verts
            try:
                extra = sorted(extra)[:5]
            except TypeError:  # keys that do not compare: by type name, then as shown
                extra = sorted(extra, key=lambda x: (type(x).__name__, _shown(x)))[:5]
            raise BadLabeling(
                f"label domain mismatch (missing {_shown(missing)}, extra {_shown(extra)})"
            )
        if not _all_ints(labels.keys()):  # 1.0 and True equal vertex 1; no document names them
            key = next(v for v in labels if not _is_int(v))
            raise BadLabeling(f"label key {_shown(key)} is not a vertex id")
        top = oriented.dimension + 2
        colors = labels.values()
        if not (_all_ints(colors) and set(colors) <= set(range(1, top + 1))):
            for v, c in labels.items():  # name the first vertex at fault
                if not _is_int(c) or not 1 <= c <= top:
                    raise BadLabeling(
                        f"vertex {_shown(v)} has color {_shown(c)}, expected 1..{top}"
                    )
        _store(self, "oriented", oriented)
        _store(self, "labels", MappingProxyType(dict(labels)))

    @property
    def dimension(self) -> int:
        return self.oriented.dimension

    @property
    def complex(self) -> Complex:
        return self.oriented.base

    @property
    def color_count(self) -> int:
        return self.dimension + 2

    @cached_property
    def color_classes(self) -> Mapping[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for v, c in self.labels.items():
            out.setdefault(c, []).append(v)
        return MappingProxyType({c: tuple(sorted(vs)) for c, vs in out.items()})

    @cached_property
    def degree_report(self) -> "DegreeReport":
        """The report of ``degree``, computed once per labeled sphere."""
        return _degree_report(self)


def _check_ints(**values) -> None:
    """ValidationError naming the first value that is not an int; a bool
    is not one here, although Python counts it as one."""
    for name, value in values.items():
        if not _is_int(value):
            raise ValidationError(f"{name} must be an int, got {_shown(value)}")


def labeled_sphere(oriented: OrientedComplex, labels: Labeling) -> LabeledSphere:
    """Validated constructor: labels cover the vertex set, colors in range."""
    return LabeledSphere(oriented, labels)


def _facet_sign(labels: Labeling, full_colors: int, eps: int, facet: Facet):
    """(sign, omitted color) for one facet; (0, None) when degenerate."""
    cols = [labels[v] for v in facet]
    if len(set(cols)) != len(cols):
        return 0, None
    omitted = full_colors * (full_colors + 1) // 2 - sum(cols)
    sigma = parity_to_sorted(cols)
    n = full_colors - 2
    rho = -1 if (n + omitted) % 2 else 1
    return eps * sigma * rho, omitted


def facet_sign(ls: LabeledSphere, facet) -> tuple[int, int | None]:
    """Sign in {-1, 0, +1} and the omitted color naming the target facet.

    0 (with target None) means two vertices of the facet share a color, so
    the image is degenerate.  Raises FacetNotFound for anything that is not
    a tuple or list of ints (a bool included).
    """
    facet = _sorted_facet(facet)
    for v in facet:
        if v not in ls.labels:
            raise UnknownVertex(f"vertex {_shown(v)} has no label")
    if facet not in ls.complex.facet_set:
        raise FacetNotFound(f"{_shown(facet)} is not a facet of the complex")
    return _facet_sign(ls.labels, ls.color_count, ls.oriented.sign_of(facet), facet)


class DegreeReport(_Record):
    """Per-target preimage lists with signs, plus the common signed sum."""

    __match_args__ = ("degree", "per_target_facet", "consistent", "degenerate_facet_count")

    @cached_property
    def per_target_sums(self) -> Mapping[int, int]:
        return MappingProxyType(
            {i: sum(s for _, s in es) for i, es in self.per_target_facet.items()}
        )


def degree(ls: LabeledSphere) -> DegreeReport:
    """Signed preimage count, computed for all n+2 target facets.

    All sums are computed and compared; disagreement raises
    InconsistentDegree (with the report attached), which indicates a
    corrupted complex or orientation, never a valid input.  The report is
    computed once per labeled sphere and cached on it.
    """
    return ls.degree_report


def _degree_report(ls: LabeledSphere) -> DegreeReport:
    """One pass over the facets.  A facet's sign is eps times a factor of its
    color tuple alone, so each color pattern is signed once per report."""
    full = ls.color_count
    labels = ls.labels
    color_of = labels.__getitem__
    per: dict[int, list[tuple[Facet, int]]] = {i: [] for i in range(1, full + 1)}
    by_colors: dict[tuple[int, ...], tuple[int, int | None]] = {}
    degenerate = 0
    for facet, eps in zip(ls.complex.facets, ls.oriented.signs):
        cols = tuple(map(color_of, facet))
        pattern = by_colors.get(cols)
        if pattern is None:
            pattern = by_colors[cols] = _facet_sign(labels, full, 1, facet)
        s, omitted = pattern
        if s == 0:
            degenerate += 1
        else:
            per[omitted].append((facet, eps * s))
    sums = {sum(s for _, s in entries) for entries in per.values()}
    consistent = len(sums) == 1
    report = DegreeReport(
        degree=sums.pop() if consistent else None,
        per_target_facet=MappingProxyType({i: tuple(es) for i, es in per.items()}),
        consistent=consistent,
        degenerate_facet_count=degenerate,
    )
    if not consistent:
        raise InconsistentDegree(
            f"per-target signed sums disagree: {report.per_target_sums}", report
        )
    return report


def permutation_sign(perm: dict[int, int]) -> int:
    """Sign of a color permutation given as a dict on {1..k}."""
    seq = [perm[i] for i in sorted(perm)]
    return parity_to_sorted(seq)


def relabel(ls: LabeledSphere, perm: dict[int, int]) -> LabeledSphere:
    """Compose the coloring with a permutation of {1..n+2}.

    Multiplies the degree by the sign of the permutation.
    """
    full = ls.color_count
    domain = set(range(1, full + 1))
    if set(perm.keys()) != domain or set(perm.values()) != domain:
        raise NotAPermutation(f"expected a bijection on 1..{full}")
    return labeled_sphere(ls.oriented, {v: perm[c] for v, c in ls.labels.items()})


def reverse_orientation(ls: LabeledSphere) -> LabeledSphere:
    """Flip every facet sign; negates the degree.

    When ls's degree report is already computed, the result takes its
    negation: the same preimage facets in the same order with every sign
    negated, which is what the degree engine would compute again."""
    out = labeled_sphere(ls.oriented.reversed(), ls.labels)
    report = vars(ls).get("degree_report")
    if report is not None:
        vars(out)["degree_report"] = DegreeReport(
            -report.degree,
            MappingProxyType({
                i: tuple([(f, -s) for f, s in es]) for i, es in report.per_target_facet.items()
            }),
            report.consistent,
            report.degenerate_facet_count,
        )
    return out


def singleton_colors(ls: LabeledSphere) -> dict[int, int]:
    """Colors with exactly one preimage vertex, as color -> vertex."""
    return {c: vs[0] for c, vs in ls.color_classes.items() if len(vs) == 1}


def link_reduction(ls: LabeledSphere, v: int) -> LabeledSphere:
    """Cut out the unique vertex of its color; dimension and colors drop by 1.

    The link of v inherits the orientation of the facets around v and the
    coloring loses color c = label(v), with the remaining colors collapsed
    order-preservingly onto {1..n+1}.  The sign bookkeeping (below) is
    chosen so the degree is preserved exactly, which the test suite checks.

    Stored sign of the link facet t \\ {v}:

        kappa * (-1)**p * eps_t,  p = index of v in sorted t,
        kappa = (-1)**(c+1).
    """
    if not _is_int(v) or v not in ls.labels:  # True and 1.0 would find vertex 1
        raise UnknownVertex(f"vertex {_shown(v)} is not in the complex")
    n = ls.dimension
    if n < 1:
        raise InvalidDimension("link reduction needs dimension >= 1")
    c = ls.labels[v]
    if len(ls.color_classes[c]) != 1:
        raise NotSingletonColor(
            f"color {c} has preimages {_shown(ls.color_classes[c])}, expected just {_shown(v)}"
        )
    kappa = 1 if c % 2 else -1
    pairs = []
    for facet in ls.complex.facets_at[v]:
        eps = ls.oriented.sign_of(facet)
        p = facet.index(v)
        link_facet = facet[:p] + facet[p + 1:]
        pairs.append((link_facet, kappa * eps * (-1 if p % 2 else 1)))
    oriented = OrientedComplex.from_pairs(n - 1, pairs)

    failure = _sphere_failure(oriented)
    if failure:
        raise InvalidLink(f"link of {_shown(v)} {failure}")

    # only the link's vertices keep a color, so v and every vertex off the link go
    link_vertices = set(oriented.vertices)
    labels = {
        u: (col if col < c else col - 1)
        for u, col in ls.labels.items()
        if u in link_vertices
    }
    return labeled_sphere(oriented, labels)
