"""Reference canonical form: invariant-refined backtracking over every
discrete ordering, with no automorphism pruning.

The key is the lexicographically smallest relabeled facet list over all
leaves, and the relabeling is the first leaf reaching it.  Pruning may
skip only subtrees whose leaves repeat ones already seen, so
``canonical_form`` must return exactly this.  Every other labeling
reaching the key is one automorphism, so the automorphisms returned are
the whole group but the identity.  Kept as the differential oracle for
the package's pruned search; it visits every leaf, so it is factorial on
highly symmetric complexes.
"""

from __future__ import annotations

from spheremap import CanonicalForm, Complex


def full_canonical_form(complex: Complex) -> CanonicalForm:
    verts = complex.vertices
    index = {v: i for i, v in enumerate(verts)}
    facets_idx = [tuple(index[v] for v in f) for f in complex.facets]
    incident: list[list[int]] = [[] for _ in verts]
    for fi, f in enumerate(facets_idx):
        for vi in f:
            incident[vi].append(fi)

    nv = len(verts)

    def refine(colors: list[int]) -> list[int]:
        while True:
            sigs = []
            for vi in range(nv):
                rows = sorted(
                    tuple(sorted(colors[u] for u in facets_idx[fi] if u != vi))
                    for fi in incident[vi]
                )
                sigs.append((colors[vi], tuple(rows)))
            rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
            new = [rank[s] for s in sigs]
            if new == colors:
                return colors
            colors = new

    best: list = []

    def descend(colors: list[int]) -> None:
        colors = refine(colors)
        classes: dict[int, list[int]] = {}
        for vi, c in enumerate(colors):
            classes.setdefault(c, []).append(vi)
        target = None
        for c in sorted(classes):
            if len(classes[c]) > 1:
                target = classes[c]
                break
        if target is None:
            relabeled = tuple(
                sorted(tuple(sorted(colors[vi] + 1 for vi in f)) for f in facets_idx)
            )
            if not best or relabeled < best[0][0]:
                best[:] = [(relabeled, colors)]
            elif relabeled == best[0][0]:
                best.append((relabeled, colors))
            return
        for vi in target:
            child = list(colors)
            child[vi] = nv  # fresh color above every current rank
            descend(child)

    descend([len(incident[vi]) for vi in range(nv)])
    (relabeled, colors), *others = best
    key = (
        f"{complex.dimension};{nv};"
        + "|".join(",".join(map(str, f)) for f in relabeled)
    ).encode()
    relabeling = {verts[vi]: colors[vi] + 1 for vi in range(nv)}
    return CanonicalForm(
        key=key,
        relabeling=relabeling,
        canonical=Complex(complex.dimension, relabeled),
        # every automorphism but the identity: one per other minimal labeling
        automorphisms=tuple(
            {colors[vi] + 1: other[vi] + 1 for vi in range(nv)}
            for other in sorted({tuple(other) for _, other in others} - {tuple(colors)})
        ),
    )


def group_order(complex: Complex, automorphisms) -> int:
    """Order of the group the automorphisms generate, each a dict from a
    vertex to its image: the size of their closure under composition."""
    group = {complex.vertices}
    frontier = [complex.vertices]
    while frontier:
        h = frontier.pop()
        for g in automorphisms:
            gh = tuple(g[x] for x in h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return len(group)
