"""Reference orientation: a breadth-first propagation with its own
neighbour lists and per-pair off-ridge positions.

Each facet reached takes the sign coherent with the facet it was reached
from, the lexicographically smallest facet +1, so on a connected
orientable closed pseudomanifold its signs are the unique coherent ones
``orient`` must return.  Kept as the differential oracle for the package's
single facet walk.
"""

from __future__ import annotations

from spheremap import NonOrientable, NotClosed, check_closed_pseudomanifold


def bfs_orient(complex) -> tuple[int, ...]:
    """Signs in ``complex.facets`` order; raises NotClosed or NonOrientable."""
    if not check_closed_pseudomanifold(complex).passed:
        raise NotClosed("cannot orient")
    position = {}
    neighbors = {f: [] for f in complex.facets}
    for entries in complex.ridge_entries.values():
        (f, pf), (g, pg) = entries
        neighbors[f].append(g)
        neighbors[g].append(f)
        position[(f, g)] = (pf, pg)
        position[(g, f)] = (pg, pf)

    seed = complex.facets[0]
    signs = {seed: 1}
    queue = [seed]
    while queue:
        f = queue.pop(0)
        for g in neighbors[f]:
            pf, pg = position[(f, g)]
            expected = -signs[f] if (pf + pg) % 2 == 0 else signs[f]
            if g not in signs:
                signs[g] = expected
                queue.append(g)
            elif signs[g] != expected:
                raise NonOrientable(f"conflicting signs at facet {g} (ridge shared with {f})")
    return tuple(signs[f] for f in complex.facets)
