"""Reference labeling search: the depth-first loop as it was before it
signed each color pattern once per search and kept its counting bound as
it went.

Each node re-signs every facet it closes with ``_facet_sign`` and re-sums
the counting bound over every target for both accepted degrees.  Its
nodes, their order and its witness are those of ``_search_labelings``, so
it is kept as the differential oracle for that function: both must return
the identical (witness, nodes) on every input.
"""

from __future__ import annotations

from spheremap.complexes import OrientedComplex
from spheremap.degree import Labeling, _facet_sign
from spheremap.search import _search_plan

# facet state once a color repeats on it; otherwise the state is a color mask
_DEGENERATE = -1


def search_labelings(oriented: OrientedComplex, d: int) -> tuple[Labeling | None, int]:
    """First degree-d coloring of the oriented sphere in canonical scan
    order, or None.

    Returns (witness, partial colorings examined).  Complete with respect
    to the reductions in the module docstring: a coloring of degree d
    exists iff this scan returns one.
    """
    K, eps = oriented.base, oriented.signs
    ncolors = K.dimension + 2
    colors = range(1, ncolors + 1)
    order, plan = _search_plan(K)
    state = [0] * len(K.facets)  # bit mask of placed colors, or _DEGENERATE
    sums = [0] * (ncolors + 1)  # signed sum of the closed facets over each target
    live = len(K.facets)  # undecided facets without a repeated color
    color_of: dict[int, int] = {}
    accepted = (d,) if d == 0 else (d, -d)
    nodes = 0
    # per colored vertex: color, highest allowed color, and masks, sums, live before it
    trail: list[tuple[int, int, list[int], list[int], int]] = []
    c = top = 1  # next color to try at the next uncolored vertex, and its highest
    while True:
        if c <= top:
            v = order[len(trail)]
            trail.append((c, top, [state[fi] for fi, _ in plan[v]], sums[:], live))
            color_of[v] = c
            nodes += 1
            for fi, closes in plan[v]:
                mask = state[fi]
                if mask == _DEGENERATE:
                    continue
                if mask & 1 << c:
                    # a repeated color: the facet can no longer hit any target
                    state[fi] = _DEGENERATE
                    live -= 1
                    continue
                state[fi] = mask | 1 << c
                if closes:
                    sign, target = _facet_sign(color_of, ncolors, eps[fi], K.facets[fi])
                    sums[target] += sign
                    live -= 1
            if any(sum(abs(D - sums[m]) for m in colors) <= live for D in accepted):
                if len(trail) == len(order):
                    # every sum is d, or -d by the counting bound and an odd swap flips it
                    swap = {} if sums[1] == d else {1: 2, 2: 1}
                    return {u: swap.get(k, k) for u, k in color_of.items()}, nodes
                c, top = 1, min(top + (c == top), ncolors)
                continue
        elif not trail:
            return None, nodes
        # uncolor the last colored vertex and go on with its next color
        c, top, masks, saved_sums, live = trail.pop()
        for (fi, _), mask in zip(plan[order[len(trail)]], masks):
            state[fi] = mask
        sums[:] = saved_sums
        c += 1
