"""Reference vertex splitter: every single-vertex split of a triangulated
2-sphere, with no split vertex skipped.

``_vertex_splits`` skips a split vertex when ``_canonical_child``
would drop all of its children on degrees alone, so the children it
yields, given no automorphisms, and that the canonical-edge rule keeps
must be exactly those kept from this one, in the same order.  Kept as the
differential oracle for that skip.
"""

from __future__ import annotations

from itertools import chain

from spheremap import Complex
from spheremap.search import _rotation


def all_vertex_splits(K: Complex):
    rotation = _rotation(K)
    new = max(rotation) + 1
    for z, cycle in rotation.items():
        k = len(cycle)
        for i in range(k):
            for j in range(i + 1, k):
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
