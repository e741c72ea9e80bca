"""Reference vertex splitter: the single-vertex splits of a triangulated
2-sphere, one per orbit of the given automorphisms, with none dropped by
rank.

``_vertex_splits`` drops a split before building its child when
``_canonical_child`` would drop that child on degrees alone, so the
children it yields that the canonical-edge rule keeps must be exactly
those kept from this one, in the same order, given the same
automorphisms.  Kept as the differential oracle for that rule.

``orient_rotation`` reads the rotation system off ``orient``'s coherent
signs.  Kept as the differential oracle for ``_rotation``'s edge walk.
"""

from __future__ import annotations

from itertools import chain

from spheremap import Complex, orient
from spheremap.complexes import _orbit
from spheremap.search import _rotation, _split_image


def orient_rotation(K: Complex) -> dict[int, tuple[int, ...]]:
    """Each vertex's link cycle, all turning the same way under orient(K):
    w follows u around x exactly when (x, u, w) is a positive facet."""
    after: dict[int, dict[int, int]] = {x: {} for x in K.vertices}
    for (a, b, c), sign in zip(K.facets, orient(K).signs):
        if sign < 0:
            b, c = c, b
        after[a][b], after[b][c], after[c][a] = c, a, b
    rotation = {}
    for x, nxt in after.items():
        cycle = [min(nxt)]
        while nxt[cycle[-1]] != cycle[0]:
            cycle.append(nxt[cycle[-1]])
        rotation[x] = tuple(cycle)
    return rotation


def all_vertex_splits(K: Complex, automorphisms: tuple[dict[int, int], ...] = ()):
    rotation = _rotation(K)
    new = max(rotation) + 1
    seen = set()
    for z, cycle in rotation.items():
        k = len(cycle)
        for i in range(k):
            for j in range(i + 1, k):
                split = (z, *sorted((cycle[i], cycle[j])))
                if split in seen:
                    continue
                seen |= _orbit(split, automorphisms, _split_image)
                child = dict(rotation)
                child[z] = cycle[i:j + 1] + (new,)
                child[new] = cycle[j:] + cycle[:i + 1] + (z,)
                for t in chain(range(i), range(j + 1, k)):
                    r = rotation[cycle[t]]
                    p = r.index(z)
                    child[cycle[t]] = r[:p] + (new,) + r[p + 1:]
                r = rotation[cycle[i]]
                p = r.index(z)
                child[cycle[i]] = r[:p + 1] + (new,) + r[p + 1:]
                r = rotation[cycle[j]]
                p = r.index(z)
                child[cycle[j]] = r[:p] + (new,) + r[p:]
                yield child
