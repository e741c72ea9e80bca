"""Reference vertex splitter: the single-vertex splits of a triangulated
2-sphere, one per orbit of the given automorphisms, with none dropped by
rank.

``_vertex_splits`` drops a split before building its child when
``_canonical_child`` would drop that child on degrees alone, so the
children it yields that the canonical-edge rule keeps must be exactly
those kept from this one, in the same order, given the same
automorphisms.  Kept as the differential oracle for that rule.
"""

from __future__ import annotations

from itertools import chain

from spheremap import Complex
from spheremap.complexes import _orbit
from spheremap.search import _rotation, _split_image


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
