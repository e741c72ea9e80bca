"""Reference sphere test: the recursive battery over links of links.

This is the definition the package's one-pass ``is_sphere`` must agree
with, field for field.  It applies the full check list to the complex and
then recurses into every vertex link, so it visits a face of k vertices
once per ordering of those vertices (k! times): far too slow for high
dimensions, but a direct reading of the definition, kept here as the
differential oracle.  ``links_have_sphere_chi`` is the reference for the
one-pass Euler characteristic count, which skips the odd-dimensional links.
"""

from __future__ import annotations

from itertools import combinations

from spheremap import (
    Complex,
    NonOrientable,
    SphereStatus,
    SphereVerdict,
    check_closed_pseudomanifold,
    euler_characteristic,
    orient,
    vertex_link,
)


def recursive_is_sphere(complex) -> SphereVerdict:
    n = complex.dimension
    checks: list[tuple[str, bool]] = []

    report = check_closed_pseudomanifold(complex)
    checks.append(("closed_pseudomanifold", not report.bad_ridges))
    checks.append(("connected", report.connected))
    if not report.passed:
        return SphereVerdict(SphereStatus.NOT_SPHERE, tuple(checks))

    try:
        orient(complex)
        orientable = True
    except NonOrientable:
        orientable = False
    checks.append(("orientable", orientable))

    chi_ok = euler_characteristic(complex) == 1 + (-1) ** n
    checks.append(("euler_characteristic", chi_ok))

    links_ok = True
    if n >= 1:
        for v in complex.vertices:
            verdict = recursive_is_sphere(vertex_link(complex, v))
            if n <= 3:
                # links live in dimension <= 2 where the test is exact
                links_ok = verdict.status is SphereStatus.SPHERE
            else:
                links_ok = verdict.status is not SphereStatus.NOT_SPHERE
            if not links_ok:
                break
        checks.append(("vertex_links", links_ok))

    if not (orientable and chi_ok and links_ok):
        return SphereVerdict(SphereStatus.NOT_SPHERE, tuple(checks))
    if n <= 2:
        return SphereVerdict(SphereStatus.SPHERE, tuple(checks))
    return SphereVerdict(SphereStatus.NECESSARY_CONDITIONS_ONLY, tuple(checks))


def links_have_sphere_chi(complex) -> bool:
    """Whether the link of every face of 1..n-1 vertices, built as a
    complex, has a sphere's Euler characteristic: the count the one-pass
    verdict makes on the even-dimensional links only, made on all of them."""
    n = complex.dimension
    for k in range(1, n):
        links: dict[tuple, list[tuple]] = {}
        for f in complex.facets:
            for sigma in combinations(f, k):
                links.setdefault(sigma, []).append(tuple(v for v in f if v not in sigma))
        for facets in links.values():
            if euler_characteristic(Complex(n - k, tuple(sorted(facets)))) != 1 + (-1) ** (n - k):
                return False
    return True
