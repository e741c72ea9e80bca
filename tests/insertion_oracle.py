"""Reference insertion splice: the run of insertion steps as it was before
each step was mapped through one pattern per call.

Each step subdivides its facet with ``_stellar_pairs`` and then each of the
n+1 new facets again, with a dict ``pop`` and ``update`` around each call.
Its facet -> sign dict (key order included), labels and recipe steps are
those of ``constructions._splice_insertions``, so it is kept as the
differential oracle for that function: both must return identical results,
or raise the same error, on every input.
"""

from __future__ import annotations

import heapq
from itertools import count

from spheremap.complexes import _sorted_facet, _stellar_pairs
from spheremap.degree import DegreeReport, LabeledSphere, _facet_sign
from spheremap.errors import BadFacetColors, BadFacetSign, FacetNotFound, _shown


def splice_insertions(
    ls: LabeledSphere, before: DegreeReport, facets
) -> tuple[dict, dict, list]:
    """The facet -> sign dict and labels after an insertion step at each of
    ``facets`` of ``ls`` (None: the smallest qualifying facet), whose degree
    report is ``before``, and the recipe steps."""
    n = ls.dimension
    signs = dict(ls.oriented.sign_by_facet)
    labels = dict(ls.labels)
    # qualifying facets, sorted and so a heap; consumed ones are skipped on pop
    heap = sorted(f for f, s in before.per_target_facet[n + 2] if s == 1)
    steps = []
    for w, facet in zip(count(max(ls.oriented.vertices) + 1, n + 2), facets):
        if facet is None:
            while heap and heap[0] not in signs:
                heapq.heappop(heap)
            if not heap:
                raise FacetNotFound("no facet with sign +1 and colors {1..n+1}")
            facet = heapq.heappop(heap)
        else:
            facet = _sorted_facet(facet)
            if facet not in signs:
                raise FacetNotFound(f"{_shown(facet)} is not a facet of the complex")
            cols = {labels[v] for v in facet}
            if cols != set(range(1, n + 2)):
                raise BadFacetColors(f"facet colors {sorted(cols)} != {list(range(1, n + 2))}")
            s, _ = _facet_sign(labels, n + 2, signs[facet], facet)
            if s != 1:
                raise BadFacetSign(f"facet {_shown(facet)} has map sign {s}, need +1")
        new = dict(_stellar_pairs(facet, signs.pop(facet), w))
        labels[w] = n + 2
        # facet - u + (w + i) is facet with u replaced in place by a vertex of
        # u's color, so it maps with facet's sign +1; every other new facet
        # holds w, of color n+2.  w lies above every id: these are sorted
        for i, u in enumerate(facet, 1):  # sorted order: deterministic ids
            rest = tuple(z for z in facet if z != u)
            new.update(_stellar_pairs(rest + (w,), new.pop(rest + (w,)), w + i))
            labels[w + i] = labels[u]
            heapq.heappush(heap, rest + (w + i,))
        signs.update(new)
        steps.append(("insert", facet))
    return signs, labels, steps
