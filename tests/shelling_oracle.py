"""Reference shelling check: the textbook definition on full face sets.

An order of a pure complex's facets is a shelling when each facet F after
the first meets the union of the facets before it in a nonempty complex
pure of dimension n - 1: every face of F that lies in an earlier facet lies
in a ridge of F that does.  The faces here are every subset of every facet,
the empty face included, so the check builds 2^(n+1) faces per facet and
reads the definition directly; it shares no code with ``_shelling``.
"""

from __future__ import annotations

from itertools import combinations


def _faces(facet) -> set[frozenset]:
    return {frozenset(s) for size in range(len(facet) + 1) for s in combinations(facet, size)}


def is_shelling(complex, order) -> bool:
    """Whether ``order`` lists each facet of ``complex`` once, as a shelling."""
    if sorted(order) != list(complex.facets):
        return False
    n = complex.dimension
    union: set[frozenset] = set()  # every face of the facets placed so far
    for k, facet in enumerate(order):
        faces = _faces(facet)
        if k:
            meet = faces & union
            ridges = [r for r in meet if len(r) == n]
            if not ridges or not all(any(face <= r for r in ridges) for face in meet):
                return False
        union |= faces
    return True
