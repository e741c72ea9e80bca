"""Key-order reference for the minimal-vertex search.

Method: the plain search over every class.  Vertex counts go upward, every
isomorphism class at each count is searched in enumeration (canonical key)
order, and the first class with a degree-d coloring gives the witness.  It
shares the enumeration and the labeling search with the package; what it
checks is the package's existence scan, which searches only each count's
classes with room for a degree-d coloring, in key order, and stops at the
first coloring.
"""

from __future__ import annotations

from spheremap import Complex, enumerate_spheres, exists_labeling, labeled_sphere, orient


def key_order_search(n: int, d: int, v_max: int):
    """(lambda, witness) up to v_max, or (None, None).

    Counts with fewer than (n+2)|d| facets (v for a circle, 2v - 4 for a
    2-sphere) cannot hold a degree-d coloring and are left out."""
    smallest = 3 * abs(d) if n == 1 else 2 * abs(d) + 2
    for v in range(max(n + 2, smallest), v_max + 1):
        for K in enumerate_spheres(n, v):
            # a copy keeps the orientation off the enumeration's representative
            copy = Complex(K.dimension, K.facets)
            coloring = exists_labeling(copy, d)
            if coloring is not None:
                return v, labeled_sphere(orient(copy), coloring)
    return None, None
