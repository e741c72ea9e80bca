"""Reference canonical-edge rule for split children: degree rank, then
planar code.

The enumeration keeps a split child when its new edge lies in the orbit of
the canonical edge that ``canonical_form`` picks among the lowest-ranked
contractible edges.  This module keeps the plantri-style rule it replaced
(Brinkmann & McKay): the new edge is canonical when it is lowest in the
same degree rank and, on a tie, lowest in breadth-first planar code.  A
triangulated 2-sphere is 3-connected, so its embedding is unique up to
reflection (Whitney), and edges with equal codes are related by an
automorphism: both rules keep one child per orbit of canonical edges, so
they keep the same classes.  The planar code also counts automorphisms:
each one takes a start of the smallest code to another.
"""

from __future__ import annotations


def planar_code(rotation, x: int, u: int, sense: int) -> bytes:
    """Vertices numbered in breadth-first order from x; each vertex in turn
    lists its neighbours' numbers around it, starting at the neighbour it
    was reached from (u for x) and turning in sense, then a 0."""
    number = {x: 1}
    entry = {x: u}
    order = [x]
    code = bytearray()
    for y in order:
        r = rotation[y]
        p = r.index(entry[y])
        walk = r[p:] + r[:p] if sense > 0 else r[p::-1] + r[:p:-1]
        for w in walk:
            n = number.get(w)
            if n is None:
                n = number[w] = len(order) + 1
                order.append(w)
                entry[w] = y
            code.append(n)
        code.append(0)
    return bytes(code)


def edge_code(rotation, a: int, b: int) -> bytes:
    """Smallest planar code read from edge {a, b}, from either end in either
    sense."""
    return min(planar_code(rotation, x, u, s) for x, u in ((a, b), (b, a)) for s in (1, -1))


def new_edge_is_canonical(rotation) -> bool:
    """Whether a split child's new edge {z, new} (new the largest id, z
    closing its cycle) is lowest among its contractible edges in the rank
    (deg a + deg b, min deg, deg c + deg c', min(deg c, deg c')), c and c'
    the vertices opposite the edge, and then in ``edge_code``."""
    deg = {x: len(cycle) for x, cycle in rotation.items()}
    new = max(rotation)
    z = rotation[new][-1]

    def rank(a, p):
        cycle = rotation[a]
        b, c, c2 = cycle[p], cycle[p - 1], cycle[(p + 1) % len(cycle)]
        return (deg[a] + deg[b], min(deg[a], deg[b]), deg[c] + deg[c2], min(deg[c], deg[c2]))

    ranked = {
        (a, b): rank(a, p)
        for a, cycle in rotation.items()
        for p, b in enumerate(cycle)
        if a < b and len(set(cycle).intersection(rotation[b])) == 2
    }
    mine = ranked[z, new]
    if min(ranked.values()) < mine:
        return False
    code = edge_code(rotation, z, new)
    return all(code <= edge_code(rotation, a, b) for (a, b), r in ranked.items() if r == mine)
