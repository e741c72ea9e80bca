"""Pure simplicial complexes: validation, orientation, links, subdivision,
sphere checks, and isomorphism canonicalization.

Conventions used throughout the package:

* A facet is a tuple of distinct integer vertex ids, sorted increasingly.
  A complex stores its facets as a lexicographically sorted tuple of such
  tuples, so structurally equal complexes compare equal.
* An orientation assigns each facet a sign in {+1, -1}, read relative to
  the facet's sorted vertex order.  Facets f and g sharing a ridge are
  coherently oriented when sign(g) = -sign(f) * (-1)**(p_f + p_g), where
  p_f is the index (in the sorted tuple f) of the vertex of f that is not
  in the ridge.  This is the usual "induced orientations on the common
  ridge are opposite" condition written in sign-and-position form.
* New vertex ids are always allocated as max(existing ids) + 1.
* Every check that walks the facet graph (closedness, orientation, the
  shelling and the link walks) reads one ridge map on facet indices, built
  once per complex (``_RidgeMap``).  ``Complex.ridge_entries``, the same
  map in facet tuples, is derived only for failure messages and tests.
"""

from __future__ import annotations

import enum
import heapq
from bisect import bisect
from collections import Counter, defaultdict
from collections.abc import Callable, Hashable, Sequence
from functools import cached_property
from itertools import chain, combinations, count, cycle, repeat
from operator import add, eq, floordiv, mod, neg
from types import MappingProxyType

from .errors import (
    DegenerateFacet,
    DuplicateFacet,
    FacetNotFound,
    InvalidDimension,
    NonOrientable,
    NonPure,
    NotClosed,
    UnknownVertex,
    ValidationError,
    VertexAlreadyPresent,
)

Facet = tuple[int, ...]

__all__ = [
    "Facet",
    "Complex",
    "OrientedComplex",
    "ClosednessReport",
    "SphereStatus",
    "SphereVerdict",
    "CanonicalForm",
    "build_complex",
    "check_closed_pseudomanifold",
    "orient",
    "euler_characteristic",
    "vertex_link",
    "is_sphere",
    "stellar_subdivide_facet",
    "stellar_subdivide_oriented",
    "canonical_form",
    "parity_to_sorted",
]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


_INT = frozenset((int,))


def _all_ints(values) -> bool:
    """Whether each of ``values``, a sequence, passes ``_is_int``: one scan
    of their types, and a scan of the values only when some type is not int
    itself (an int subclass such as an IntEnum's, or anything else)."""
    return set(map(type, values)) <= _INT or all(map(_is_int, values))


def parity_to_sorted(seq) -> int:
    """Sign of the permutation that sorts ``seq`` (entries must be distinct)."""
    inv = 0
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


_store = object.__setattr__  # how a record stores a field


class _Record:
    """Base of the package's immutable records.

    A record is a plain class that declares its fields once, in order, in
    ``__match_args__``.  It is built with each field given by position or
    by keyword; a missing, unknown, repeated or extra field raises
    TypeError.  ``__init__`` stores the fields with ``_store``
    (``object.__setattr__``) in ``__match_args__`` order, keeping CPython's
    key-sharing instance dicts.  It equals a record of its own class whose
    compared fields (``_compared``, all of them unless the class says
    otherwise) are equal, hashes as the tuple of those, and prints as
    ``Name(field=value, ...)``.  Assigning or deleting any attribute raises
    AttributeError; a ``cached_property`` still caches, as it writes the
    instance dict directly.  A record copies and pickles with its cached
    values, a mappingproxy among them handed over as its dict."""

    __match_args__: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        fields = self.__match_args__
        if named or len(values) != len(fields):  # bind the keywords, then check
            given = {**dict(zip(fields, values)), **named}
            if len(values) + len(named) != len(fields) or given.keys() != set(fields):
                raise TypeError(
                    f"{type(self).__qualname__} takes the fields {', '.join(fields)}, each once; "
                    f"got {len(values)} by position and {', '.join(named) or 'none'} by keyword"
                )
            values = [given[name] for name in fields]
        for name, value in zip(fields, values):
            _store(self, name, value)

    def _compared(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self) -> int:
        return hash(self._compared())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple[dict, tuple[str, ...]]:
        # a mappingproxy neither copies nor pickles
        state = dict(vars(self))
        proxied = tuple(name for name, value in state.items() if type(value) is MappingProxyType)
        for name in proxied:
            state[name] = dict(state[name])
        return state, proxied

    def __setstate__(self, state: tuple[dict, tuple[str, ...]]) -> None:
        fields, proxied = state
        for name, value in fields.items():
            _store(self, name, MappingProxyType(value) if name in proxied else value)


class Complex(_Record):
    """Pure n-dimensional simplicial complex given by its facet list."""

    __match_args__ = ("dimension", "facets")

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for f in self.facets:
            seen.update(f)
        return tuple(sorted(seen))

    @cached_property
    def facet_set(self) -> frozenset[Facet]:
        return frozenset(self.facets)

    @cached_property
    def facets_at(self) -> MappingProxyType[int, tuple[Facet, ...]]:
        """Vertex id -> facets containing it."""
        out: dict[int, list[Facet]] = {}
        for f in self.facets:
            for v in f:
                out.setdefault(v, []).append(f)
        return MappingProxyType({v: tuple(fs) for v, fs in out.items()})

    @cached_property
    def ridge_entries(self) -> MappingProxyType[Facet, tuple[tuple[Facet, int], ...]]:
        """Ridge -> ((facet, position of the off-ridge vertex), ...), in the
        order the facets first hold each ridge.

        A view of the ridge map in facet tuples, derived only when asked for:
        failure messages and tests read it, the checks read ``_ridges``.
        For dimension 0 the unique ridge is the empty tuple, shared by all
        facets; the closedness and coherence rules below then specialize to
        "exactly two points with opposite signs" with no extra casing.
        """
        out: dict[Facet, list[tuple[Facet, int]]] = {}
        for f in self.facets:
            for i in range(len(f)):
                out.setdefault(f[:i] + f[i + 1:], []).append((f, i))
        return MappingProxyType({r: tuple(es) for r, es in out.items()})

    @cached_property
    def _ridges(self) -> "_RidgeMap":
        """K's facet graph on facet indices, built once for every check."""
        return _ridge_map(self)

    @cached_property
    def _walk(self) -> tuple[tuple[int, ...], tuple[int, int] | None]:
        """The signed star walk of the empty face, shared by closedness and orientation."""
        _, signs, conflict = _star_walks(self, (0,), True)
        return tuple(signs), conflict

    @cached_property
    def closedness(self) -> "ClosednessReport":
        """The report of ``check_closed_pseudomanifold``, computed once."""
        return _closedness(self)

    @cached_property
    def orientation(self) -> "OrientedComplex":
        """The coherent orientation ``orient`` returns, computed once."""
        return _orient(self)

    @cached_property
    def sphere_verdict(self) -> "SphereVerdict":
        """The verdict of ``is_sphere``, computed once per complex."""
        return _sphere_verdict(self)


def build_complex(facet_list) -> Complex:
    """Validate a raw facet list and return a Complex.

    Raises NonPure for mixed cardinalities, ValidationError for a vertex
    id that is not an int (a bool included), DegenerateFacet for a repeated
    vertex inside a facet, DuplicateFacet for a repeated facet.
    """
    raw = [tuple(f) for f in facet_list]
    if not raw:
        raise InvalidDimension("a complex needs at least one facet")
    size = len(raw[0])
    if size == 0:
        raise NonPure("facets must be non-empty")
    # sizes, id types and repeats over all facets at once; the first facet
    # at fault is looked for only when one of them fails
    if not (
        set(map(len, raw)) == {size}
        and set(map(type, chain.from_iterable(raw))) <= _INT
        and set(map(len, map(set, raw))) == {size}
    ):
        for f in raw:
            if len(f) != size:
                raise NonPure(f"facet {f} has {len(f)} vertices, expected {size}")
            if not all(map(_is_int, f)):
                raise ValidationError(f"facet {f} has a vertex id that is not an int")
            if len(set(f)) != len(f):
                raise DegenerateFacet(f"facet {f} repeats a vertex")
    normalized = list(map(tuple, map(sorted, raw)))
    if len(set(normalized)) != len(normalized):
        seen: set[Facet] = set()
        for f in normalized:
            if f in seen:
                raise DuplicateFacet(f"facet {f} appears more than once")
            seen.add(f)
    return Complex(size - 1, tuple(sorted(normalized)))


class ClosednessReport(_Record):
    """Result of the closed-pseudomanifold check; ``bad_ridges`` holds
    (ridge, facet multiplicity != 2) pairs."""

    __match_args__ = ("passed", "bad_ridges", "connected")


def check_closed_pseudomanifold(complex: Complex) -> ClosednessReport:
    """Every ridge in exactly two facets, facet adjacency graph connected.

    The report is computed once per complex and cached on it.
    """
    return complex.closedness


def _closedness(complex: Complex) -> ClosednessReport:
    bad = () if complex._ridges.closed else tuple(
        sorted((r, len(es)) for r, es in complex.ridge_entries.items() if len(es) != 2)
    )
    connected = 0 not in complex._walk[0]
    return ClosednessReport(passed=not bad and connected, bad_ridges=bad, connected=connected)


class _RidgeMap(_Record):
    """K's facet graph on facet indices, the one graph every check walks.

    ``rows[i]`` holds, for each ridge of facet i in the order
    ``combinations(facet, n)`` gives them (leaving out its last vertex
    first), the triple (g, flip, v): g is the facet met across the ridge, v
    the vertex of facet i off it, and flip the factor K's coherent signs
    change by from i to g, +1 when i and g leave the ridge's vertex out at
    positions of different parity and -1 otherwise.  ``closed`` says every
    ridge lies in exactly two facets.  At a ridge in one facet or in three
    or more, g leads from each facet holding it to the next, and from the
    last back to the first, so a walk still reaches every facet that shares
    a ridge.
    """

    __match_args__ = ("rows", "closed")


def _ridge_map(complex: Complex) -> _RidgeMap:
    """The ridge map, built in bulk, with no loop in Python for a closed K.

    Slot i * (n + 1) + o stands for the o-th ridge of facet i, the one off
    its vertex at position n - o, so a slot gives its facet and position.
    One dict on the ridges gives each slot the first slot holding its ridge,
    and one on those ints the last: a slot's other slot is the last when it
    is the first, and the first otherwise.  Two positions sum to an odd
    number exactly when their offsets o do."""
    facets, n = complex.facets, complex.dimension
    ridges = chain.from_iterable(map(combinations, facets, repeat(n)))
    held: dict[Facet, int] = {}
    first = list(map(held.setdefault, ridges, count()))
    last = dict(zip(first, count()))
    other = list(map(last.get, range(len(first)), first))
    # every ridge in two slots, none in one only, where it is its own last
    closed = len(first) == 2 * len(held) and not any(map(eq, last, last.values()))
    if not closed:  # each slot of a ridge leads to the next, the last to the first
        other, previous = first[:], {}
        for s, r in enumerate(first):
            other[previous.get(r, s)] = s
            previous[r] = s
    k = n + 1
    flip_by_sum = (-1, 1) * k
    flips = map(flip_by_sum.__getitem__, map(add, cycle(range(k)), map(mod, other, repeat(k))))
    across = map(floordiv, other, repeat(k))
    off = chain.from_iterable(map(reversed, facets))
    return _RidgeMap(list(zip(*[zip(across, flips, off)] * k)), closed)


def _in_first_held_order(complex: Complex) -> list[list[tuple[int, int, int]]]:
    """The ridge map's rows with each facet's ridges in the order the
    facets first hold them: one shared with an earlier facet j at j, one
    shared with a later facet at its position in this facet."""
    return [
        sorted(row, key=lambda e: (min(i, e[0]), f.index(e[2])))
        for i, (row, f) in enumerate(zip(complex._ridges.rows, complex.facets))
    ]


def _stars(complex: Complex, k: int) -> dict[Facet, list[int]]:
    """Face sigma of k vertices -> [index in K's facets of the first facet
    containing sigma, number of facets containing sigma]."""
    if k == 0:  # the empty face, in every facet
        return {(): [0, len(complex.facets)]}
    stars: dict[Facet, list[int]] = {}
    for i, f in enumerate(complex.facets):
        for sigma in combinations(f, k):
            stars.setdefault(sigma, [i, 0])[1] += 1
    return stars


def _star_walks(
    complex: Complex, sizes, signed: bool, rows=None
) -> tuple[bool, list[int], tuple[int, int] | None]:
    """Walk the star of each face sigma of k vertices, k in ``sizes``,
    breadth-first from the first facet containing sigma (sign +1) across
    the ridges containing sigma; k = 0 walks all of K.  Every walk reads
    the rows of K's one ridge map (``_RidgeMap``), or ``rows`` when given:
    the same entries with each facet's ridges in another order.  A ridge
    contains sigma exactly when sigma does not hold the facet's vertex off
    it.  A signed walk gives each facet reached K's coherent
    sign relative to the one it came from and notes the first pair whose
    signs conflict.  So lk(sigma) is connected when the walk reaches every
    facet containing sigma, and orientable when it meets no conflict: the
    link's flip across a ridge of f and g is K's times the parities of
    moving sigma to the front of f and of g, a fixed sign change per facet.
    Hence when K is orientable no walk can conflict, and an unsigned walk
    writes no signs and stops once it has reached the whole star.  Returns
    whether every walk did so without conflict, the signs by facet index
    (for k = 0, 0 where not reached) and the first conflicting index pair
    or None, stopping at the first walk that fails.  Each walk marks the
    facets it reaches with its own sigma object; the marks keep every
    earlier sigma alive, so no later sigma is the same object."""
    rows = rows or complex._ridges.rows
    mark: list[Facet | None] = [None] * len(rows)
    signs = [0] * len(rows)
    conflict = None  # a walk that finds one is the last
    for k in sizes:
        for sigma, (start, size) in _stars(complex, k).items():
            queue = [start]
            mark[start], signs[start] = sigma, 1
            for f in queue:  # the queue grows as facets are reached
                if len(queue) == size and not signed:  # the whole star is reached
                    break
                for g, flip, off in rows[f]:
                    if mark[g] is not sigma:
                        if off not in sigma:  # the ridge contains sigma
                            mark[g] = sigma
                            queue.append(g)
                            if signed:
                                signs[g] = signs[f] * flip
                    elif signed and signs[g] != signs[f] * flip and off not in sigma:
                        conflict = conflict or (f, g)
            if len(queue) != size or conflict:
                return False, signs, conflict
    return True, signs, None


class OrientedComplex(_Record):
    """Complex plus a coherent orientation sign per facet.

    ``signs[i]`` belongs to ``base.facets[i]`` and is read relative to that
    facet's sorted vertex order.
    """

    __match_args__ = ("base", "signs")

    @property
    def dimension(self) -> int:
        return self.base.dimension

    @property
    def facets(self) -> tuple[Facet, ...]:
        return self.base.facets

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.base.vertices

    @cached_property
    def sign_by_facet(self) -> MappingProxyType[Facet, int]:
        return MappingProxyType(dict(zip(self.base.facets, self.signs)))

    def sign_of(self, facet: Facet) -> int:
        try:
            return self.sign_by_facet[facet]
        except KeyError:
            raise FacetNotFound(f"{facet} is not a facet of this complex") from None

    def reversed(self) -> "OrientedComplex":
        return OrientedComplex(self.base, tuple(-s for s in self.signs))

    @classmethod
    def from_pairs(cls, dimension: int, pairs) -> "OrientedComplex":
        """Oriented complex from (sorted facet, sign) pairs in any order."""
        pairs = sorted(pairs)
        return cls(
            Complex(dimension, tuple(f for f, _ in pairs)), tuple(s for _, s in pairs)
        )


def orient(complex: Complex) -> OrientedComplex:
    """Assign a coherent orientation, or raise NonOrientable.

    Deterministic: the breadth-first facet walk that decides connectivity,
    seeded with sign +1 on the lexicographically smallest facet.  Requires
    a closed pseudomanifold.  The orientation is computed once per complex
    and cached on it.
    """
    return complex.orientation


def _orient(complex: Complex) -> OrientedComplex:
    report = check_closed_pseudomanifold(complex)
    if not report.passed:
        detail = "disconnected facet graph" if not report.connected else (
            f"ridges with multiplicity != 2: {[r for r, _ in report.bad_ridges][:5]}"
        )
        raise NotClosed(f"cannot orient: {detail}")

    signs, conflict = complex._walk
    if conflict is not None:
        # named as the walk meets it when each facet's ridges come in the
        # order the facets first hold them (``ridge_entries``' order); a walk
        # without a conflict gives the same signs in any order
        conflict = _star_walks(complex, (0,), True, _in_first_held_order(complex))[2]
        f, g = (complex.facets[i] for i in conflict)
        raise NonOrientable(f"conflicting signs at facet {g} (ridge shared with {f})")
    return OrientedComplex(complex, signs)


def coherence_failures(oriented: OrientedComplex) -> tuple[Facet, ...]:
    """Ridges where the two incident facets are not coherently oriented."""
    sign = oriented.sign_by_facet
    bad = []
    for ridge, entries in oriented.base.ridge_entries.items():
        if len(entries) != 2:
            bad.append(ridge)
            continue
        (f, pf), (g, pg) = entries
        expected = -sign[f] if (pf + pg) % 2 == 0 else sign[f]
        if sign[g] != expected:
            bad.append(ridge)
    return tuple(sorted(bad))


def euler_characteristic(complex: Complex) -> int:
    """Alternating sum of face counts across all dimensions 0..n."""
    return _face_count_chi(_faces(complex))


def _faces(complex: Complex) -> list[set[Facet]]:
    """K's faces by size: entry s holds the faces of s vertices, each a
    sorted tuple."""
    faces: list[set[Facet]] = [set() for _ in range(complex.dimension + 2)]
    for f in complex.facets:
        for size in range(1, len(f) + 1):
            faces[size].update(combinations(f, size))
    return faces


def _face_count_chi(faces: list[set[Facet]]) -> int:
    """K's Euler characteristic from its faces by size: the sum over sizes
    s of (-1)**(s - 1) times the number of faces of s vertices."""
    return sum(len(faces[s]) if s % 2 else -len(faces[s]) for s in range(1, len(faces)))


def _link_characteristics(faces: list[set[Facet]], k: int) -> dict[Facet, int]:
    """chi(lk sigma) for every face sigma of k >= 1 vertices, given K's
    faces by size: the sum over faces tau of K containing sigma of
    (-1)**(|tau| - k - 1), as tau minus sigma is a face of lk(sigma)."""
    odd, even = Counter(), Counter()  # by the parity of |tau| - k
    for size in range(k + 1, len(faces)):
        (odd if (size - k) % 2 else even).update(
            chain.from_iterable(combinations(tau, k) for tau in faces[size])
        )
    return {sigma: count - even[sigma] for sigma, count in odd.items()}


def vertex_link(complex: Complex, v: int) -> Complex:
    """Complex of facets {f \\ {v}} over facets f containing v."""
    if not _is_int(v) or v not in complex.facets_at:  # True and 1.0 would find vertex 1
        raise UnknownVertex(f"vertex {v!r} is not in the complex")
    if complex.dimension < 1:
        raise InvalidDimension("links are defined for dimension >= 1")
    link_facets = tuple(
        sorted(tuple(u for u in f if u != v) for f in complex.facets_at[v])
    )
    return Complex(dimension=complex.dimension - 1, facets=link_facets)


class SphereStatus(enum.Enum):
    SPHERE = "Sphere"
    NOT_SPHERE = "NotSphere"
    NECESSARY_CONDITIONS_ONLY = "NecessaryConditionsOnly"


class SphereVerdict(_Record):
    """The status ``is_sphere`` gives, and each check it ran, in order."""

    __match_args__ = ("status", "checks")

    @property
    def passed(self) -> bool:
        return self.status is not SphereStatus.NOT_SPHERE


def is_sphere(complex: Complex) -> SphereVerdict:
    """Sphere recognition where it is decidable, necessary checks beyond.

    The checks are: closed pseudomanifold, connected, orientable, Euler
    characteristic 1 + (-1)**n, and ``vertex_links``.  Once K is a closed,
    connected and orientable pseudomanifold, a shelling decides first, in
    time about linear in the facet count (``_shelling``): a shellable closed
    pseudomanifold is a PL sphere (Danaraj & Klee, Duke Math. J. 41, 1974),
    so K and every link pass the last two checks, and neither is counted.
    When the greedy search finds no shelling, which proves nothing, the
    battery below decides them, with the same names and the same verdict.

    In the battery, ``vertex_links`` holds when
    every vertex link passes the same battery, applied recursively to its
    own links.  A link of a link is the link of a larger face (the link of
    u in lk(v) is lk({u, v})), so ``vertex_links`` checks each face sigma
    of K with 1 <= |sigma| <= n - 1 once, one size at a time, building no
    link: a walk of sigma's star in K's facet graph decides whether
    lk(sigma) is connected and orientable, and one count over K's faces
    gives its Euler characteristic.  Links of a closed pseudomanifold are
    closed (a ridge of lk(sigma) plus sigma is a ridge of K), and a ridge's
    link is two points.  Two shortcuts leave the verdict unchanged.  The
    Euler characteristic is counted on the even-dimensional links only:
    by Klee's Dehn-Sommerville relations for semi-Eulerian complexes, an
    odd-dimensional link whose own face links all have a sphere's Euler
    characteristic has 0.  When K is orientable its coherent signs satisfy
    every link's flips, so no link walk can conflict, and the walks only
    check that they reach the whole star; otherwise they are signed, as the
    walk of the whole complex always is.

    Exact for dimension <= 2 (closed + connected + orientable + Euler
    characteristic + all vertex links single cycles pins down the sphere by
    surface classification).  For dimension >= 3 a passing verdict is only
    NecessaryConditionsOnly: no full sphere recognition is attempted.

    The verdict is computed once per complex and cached on it.
    """
    return complex.sphere_verdict


def _sphere_verdict(complex: Complex) -> SphereVerdict:
    n = complex.dimension
    checks: list[tuple[str, bool]] = []

    report = check_closed_pseudomanifold(complex)
    checks.append(("closed_pseudomanifold", not report.bad_ridges))
    checks.append(("connected", report.connected))
    if not report.passed:
        return SphereVerdict(SphereStatus.NOT_SPHERE, tuple(checks))

    orientable = complex._walk[1] is None  # the walk closedness just read
    checks.append(("orientable", orientable))

    if orientable and _shelling(complex) is not None:
        # a shellable closed pseudomanifold is a PL sphere (Danaraj & Klee),
        # so K and every link have a sphere's chi and connected links
        chi_ok = links_ok = True
    else:  # the battery
        faces = _faces(complex)  # built once: K's chi and every link's count it
        chi_ok = _face_count_chi(faces) == 1 + (-1) ** n
        # every link has a sphere's Euler characteristic, and then each star
        # walk reaches the whole star, with no conflict when K is not
        # orientable; the faces are freed before the walks build their graph
        links_ok = _links_have_sphere_chi(faces, n)
        del faces
        links_ok = links_ok and _star_walks(complex, range(1, n), not orientable)[0]
    checks.append(("euler_characteristic", chi_ok))
    if n >= 1:
        checks.append(("vertex_links", links_ok))

    if not (orientable and chi_ok and links_ok):
        return SphereVerdict(SphereStatus.NOT_SPHERE, tuple(checks))
    if n <= 2:
        return SphereVerdict(SphereStatus.SPHERE, tuple(checks))
    return SphereVerdict(SphereStatus.NECESSARY_CONDITIONS_ONLY, tuple(checks))


def _shelling(complex: Complex) -> list[Facet] | None:
    """A shelling of K, a closed pseudomanifold, as its facets in order, or
    None when the greedy search below gets stuck.

    A shelling places the facets one at a time so that each facet F after
    the first meets the union of the facets before it in a nonempty complex
    pure of dimension n - 1.  Let S be the vertices of F opposite the ridges
    F shares with placed facets.  Each ridge lies in two facets, so the
    intersection is spanned by those ridges, F minus v for v in S, and the
    faces of F that lie in a placed facet and contain S, which no such ridge
    holds.  So F may come next iff S is nonempty and no placed facet
    contains S, and only the placed facets at S's rarest vertex are tested.

    The test can fail only when F has p < n placed neighbours.  Two facets
    share at most one ridge, and distinct ridges of F are opposite distinct
    vertices, so |S| = p.  At p = n + 1, S is F, which no other facet
    contains.  At p = n, S is F minus u, the ridge opposite u, held by F and
    one other facet alone; that facet is unplaced, or u would be in S.  So
    S is built, and the placed facets scanned, only below p = n.

    A heap offers first the facets with the most placed neighbours.  A
    refused facet stays refused until a neighbour is placed, as only that
    grows its S, so it goes back on the heap only then.  Some 3-spheres have
    no shelling (Lickorish, Europ. J. Combin. 12, 1991), and a greedy order
    can get stuck where another would not, so None proves nothing."""
    facets, n = complex.facets, complex.dimension
    rows = complex._ridges.rows
    placed = [False] * len(facets)
    placed_neighbours = [0] * len(facets)
    placed_at: defaultdict[int, list[frozenset[int]]] = defaultdict(list)
    order: list[Facet] = []
    heap = [(0, 0)]  # (-placed neighbours, facet index); stale entries are skipped
    while heap:
        key, i = heapq.heappop(heap)
        if placed[i] or key != -placed_neighbours[i]:
            continue
        f = facets[i]
        if 0 < -key < n:  # -key placed neighbours, none for the first facet only
            s = {v for j, _, v in rows[i] if placed[j]}
            rarest = min([placed_at[v] for v in s], key=len)
            if any(map(s.issubset, rarest)):
                continue
        placed[i] = True
        order.append(f)
        vertices = frozenset(f)
        for v in f:
            placed_at[v].append(vertices)
        for j, _, _ in rows[i]:
            if not placed[j]:
                placed_neighbours[j] += 1
                heapq.heappush(heap, (-placed_neighbours[j], j))
    return order if len(order) == len(facets) else None


def _links_have_sphere_chi(faces: list[set[Facet]], n: int) -> bool:
    """Whether every link of a face of 1..n-1 vertices in K, a closed
    pseudomanifold of dimension n, has the Euler characteristic of a sphere.
    The links of faces of k or more vertices never count the faces of k
    vertices, so those are freed before the count for k.

    chi is counted only where it can fail, on the links of even dimension
    n - k.  The link of a face of k vertices is a closed pseudomanifold of
    dimension n - k.  One of dimension 1 is a union of cycles, with chi 0.
    One of odd dimension whose face links (links in K of larger faces) all
    have a sphere's chi is semi-Eulerian, so Klee's Dehn-Sommerville
    relations (Klee, Canad. J. Math. 16, 1964) give it chi 0.  Going up by
    dimension, the odd-dimensional links all have chi 0 whenever the
    even-dimensional ones pass, so the result is the same as counting every
    link."""
    for k in range(1, n):
        faces[k].clear()
        if (n - k) % 2 == 0 and set(_link_characteristics(faces, k).values()) != {2}:
            return False
    return True


def _sphere_failure(oriented: OrientedComplex) -> str | None:
    """Why a sphere from outside the package is not one, or None: it must
    pass ``is_sphere``, and its signs must be a tuple of exactly one int, +1
    or -1, per facet that together orient it coherently.  Documents, literal
    seeds and link reductions all pass this one gate; the verdict and the
    walk it reads are cached on the complex."""
    verdict = is_sphere(oriented.base)
    if not verdict.passed:
        return f"fails sphere checks: {[name for name, ok in verdict.checks if not ok]}"
    walk, signs = oriented.base._walk[0], oriented.signs
    if not (
        isinstance(signs, tuple)
        and len(signs) == len(walk)
        and _all_ints(signs)
        and set(signs) <= {1, -1}
    ):
        return "orientation needs a tuple of exactly one sign, +1 or -1, per facet"
    # K is closed, connected and orientable, so its coherent signs are the
    # walk's and their negation, and any other signs have a bad ridge
    if signs == walk or signs == tuple(map(neg, walk)):
        return None
    return f"orientation not coherent across ridge {list(coherence_failures(oriented)[0])}"


def _sorted_facet(facet) -> Facet:
    """facet as a sorted tuple; FacetNotFound for anything that is not a
    tuple or list of ints (a bool included), before sorting it."""
    if not isinstance(facet, (tuple, list)) or not _all_ints(facet):
        raise FacetNotFound(f"{facet!r} is not a facet of vertex ids")
    return tuple(sorted(facet))


def _check_subdivision_args(complex: Complex, facet, new_vertex) -> tuple[Facet, int]:
    facet = _sorted_facet(facet)
    if facet not in complex.facet_set:
        raise FacetNotFound(f"{facet} is not a facet of the complex")
    if new_vertex is None:
        new_vertex = max(complex.vertices) + 1
    elif not _is_int(new_vertex):  # a bool is not one, although Python counts it as one
        raise ValidationError(f"new_vertex must be an int, got {new_vertex!r}")
    elif new_vertex in complex.facets_at:
        raise VertexAlreadyPresent(f"vertex {new_vertex} already exists")
    return facet, new_vertex


def _stellar_pairs(facet: Facet, sign: int, w: int) -> list[tuple[Facet, int]]:
    """The n+1 (facet, sign) pairs replacing ``facet``, of stored sign
    ``sign``, when a new vertex w not in it subdivides it.

    ``facet`` must be sorted; every caller passes a facet of a complex or a
    key of a facet -> sign dict.  Replacing vertex i by w and sorting moves
    w from index i to p = bisect(rest, w), where ``rest`` is the facet
    without vertex i.  That move is a cycle of length |p - i| + 1, so the
    new facet keeps ``sign`` when p - i is even and flips it otherwise,
    wherever w falls: below, between or above the facet's vertices.
    """
    q = bisect(facet, w)
    pairs = []
    for i in range(len(facet)):
        rest = facet[:i] + facet[i + 1:]
        p = q - 1 if i < q else q  # bisect(rest, w)
        pairs.append((rest[:p] + (w,) + rest[p:], -sign if (p - i) % 2 else sign))
    return pairs


def stellar_subdivide_facet(complex: Complex, facet, new_vertex: int | None = None) -> Complex:
    """Replace facet sigma by the n+1 facets (sigma \\ {x}) + {w} for x in sigma.

    ``new_vertex`` defaults to max(existing ids) + 1.
    """
    facet, w = _check_subdivision_args(complex, facet, new_vertex)
    out = [f for f in complex.facets if f != facet]
    out.extend(f for f, _ in _stellar_pairs(facet, 1, w))
    return Complex(complex.dimension, tuple(sorted(out)))


def stellar_subdivide_oriented(
    oriented: OrientedComplex, facet, new_vertex: int | None = None
) -> tuple[OrientedComplex, int]:
    """Stellar subdivision carrying the orientation through.

    ``new_vertex`` may be any id not in the complex (default max(existing
    ids) + 1); the result is coherent whenever the input is.
    """
    facet, w = _check_subdivision_args(oriented.base, facet, new_vertex)
    pairs = [
        (f, s) for f, s in zip(oriented.base.facets, oriented.signs) if f != facet
    ]
    pairs.extend(_stellar_pairs(facet, oriented.sign_of(facet), w))
    return OrientedComplex.from_pairs(oriented.base.dimension, pairs), w


def _orbit(point: Hashable, generators: Sequence, act: Callable) -> set:
    """The orbit of point under the group the generators generate, each
    generator g sending a point x to act(g, x).  With no generators the
    orbit is point alone."""
    orbit, stack = {point}, [point]
    while stack:
        x = stack.pop()
        for g in generators:
            y = act(g, x)
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def _color_weights(n: int, nv: int) -> list[int]:
    """Color c < nv weighs -(n + 1)**(nv - 1 - c).  Summed over n colors,
    the weights order multisets as their sorted tuples order
    lexicographically.  Where two sorted tuples first differ, at colors
    p < q, p's tuple sums from there on to at most p's weight, as every
    weight is negative.  q's tuple sums to more: it has at most n colors
    left, each above p, so they sum to at least -n * (n + 1)**(nv - 2 - p),
    above p's weight."""
    return [-((n + 1) ** (nv - 1 - c)) for c in range(nv)]


class CanonicalForm(_Record):
    """Isomorphism-invariant key plus a relabeling realizing it, and
    generators of the canonical complex's automorphism group.

    ``relabeling`` maps each original vertex id to its canonical id
    (1-based).  Each automorphism maps a canonical id to its image; together
    they generate every automorphism of ``canonical``, mirror images
    included.  They are left out of comparisons: another search may find
    another generating set of the same group.
    """

    __match_args__ = ("key", "relabeling", "canonical", "automorphisms")

    def _compared(self) -> tuple:
        return self.key, self.relabeling, self.canonical


def canonical_form(complex: Complex) -> CanonicalForm:
    """Canonical key under vertex relabeling bijections.

    Invariant-refined backtracking: vertices are partitioned by iterated
    structural signatures, then the first non-singleton class is split by
    individualizing each member in turn; the key is the lexicographically
    smallest relabeled facet list over all resulting discrete orderings,
    the first leaf reaching it giving the relabeling.  Two complexes get
    equal keys iff they differ by a vertex bijection.

    The partition is an ordered list of cells, a vertex's color being its
    cell's place, refined in synchronous rounds until a round splits no
    cell: a round re-sorts every cell by signatures over the colors at its
    start, and a cell's parts take its place, in signature order, each
    keeping its members' order.  The root is the degree cells: the
    vertices grouped by the number of facets around them, in increasing
    degree, each group in index order.  That is the partition a first round
    would make of one cell holding every vertex, where with every color
    equal a signature is one equal int per facet around the vertex; with
    every degree equal it is that one cell.  Individualizing a vertex moves
    it to a new last cell, above every other, not to the front of its cell:
    the order of the cells decides the labels, so the key depends on it.

    A vertex's signature is, per facet around it, the sorted colors of the
    facet's other vertices, these n-tuples sorted.  Each tuple enters as one
    int that orders as the tuple does lexicographically, equal ints for
    equal tuples, so the sorted ints compare as the sorted tuples would:
    the cells split into the same parts in the same order, and the tree,
    the leaves, the key, the relabeling and the automorphisms are those of
    comparing the tuples.  On a 2-sphere the pair p <= q becomes p * nv + q,
    read as two base-nv digits since every color is below nv; in any other
    dimension the int is a sum of color weights (``_color_weights``).

    Automorphism pruning (McKay & Piperno, J. Symb. Comput. 60, 2014): a
    leaf whose relabeled facets equal the best leaf's yields the
    automorphism mapping one labeling onto the other.  A member of a
    class is skipped when its orbit under the recorded automorphisms that
    fix the vertices individualized so far holds a member already
    explored: its subtree is that member's image, with the same relabeled
    facet lists met later, so the first minimal leaf never lies in it.

    The recorded automorphisms generate the whole group Aut(K).  The
    minimal leaves of the unpruned tree are the images of the first one,
    L, one per automorphism, since refinement commutes with relabeling.
    Were some minimal leaf M not the image of L under the group H they
    generate, take the first such M in the unpruned tree's order.  M is
    not visited before L, which is the first minimal leaf visited.  A
    minimal leaf visited after L records the automorphism taking L onto
    it, so M is not visited at all: it lies under a member vi skipped at
    a node reached by individualizing path, with some h in H fixing path
    mapping vi onto a member explored before it.  h maps the node onto
    itself and vi's subtree onto that member's, so h(M) is a minimal leaf
    before M, hence in H(L), and so is M.  Thus H(L) holds every minimal
    leaf and H = Aut(K).
    """
    verts = complex.vertices
    nv, n = len(verts), complex.dimension
    index = dict(zip(verts, range(nv)))
    # the facets in vertex indices, mapped in one pass and regrouped by n + 1
    flat = iter(map(index.__getitem__, chain.from_iterable(complex.facets)))
    facets_idx = list(zip(*[flat] * (n + 1)))
    # per vertex, the other vertices of each facet containing it;
    # coder(colors)(vi): per facet around vi, one int ordered as the sorted
    # colors of the facet's other vertices are
    others: list[list[tuple[int, ...]]] = [[] for _ in verts]
    if n == 2:
        for a, b, c in facets_idx:
            others[a].append((b, c))
            others[b].append((a, c))
            others[c].append((a, b))

        def coder(colors: list[int]) -> Callable[[int], list[int]]:
            # the colors p <= q of the pair read as p * nv + q
            return lambda vi: [
                x * nv + y if x < y else y * nv + x
                for a, b in others[vi] for x in (colors[a],) for y in (colors[b],)
            ]
    else:
        for f in facets_idx:
            # combinations leave out the last vertex first
            for vi, o in zip(reversed(f), combinations(f, n)):
                others[vi].append(o)
        weight_of = _color_weights(n, nv)

        def coder(colors: list[int]) -> Callable[[int], list[int]]:
            # the sum of the colors' weights
            weight = list(map(weight_of.__getitem__, colors)).__getitem__
            return lambda vi: [sum(map(weight, o)) for o in others[vi]]

    def refine(cells: list[list[int]]) -> tuple[list[list[int]], list[int]]:
        # colors[vi] is the place of vi's cell; a round re-sorts every cell,
        # until a round splits none
        while True:
            colors = [0] * nv
            for c, cell in enumerate(cells):
                for vi in cell:
                    colors[vi] = c
            codes = coder(colors)
            split: list[list[int]] = []
            for cell in cells:
                if len(cell) == 1:
                    split.append(cell)
                    continue
                sigs = {vi: sorted(codes(vi)) for vi in cell}
                last = None
                for vi in sorted(cell, key=sigs.__getitem__):
                    if sigs[vi] != last:
                        last = sigs[vi]
                        split.append([])
                    split[-1].append(vi)
            if len(split) == len(cells):
                return cells, colors
            cells = split

    best: list[tuple[tuple[Facet, ...], list[int]]] = []
    automorphisms: list[list[int]] = []  # vertex index -> its image

    def descend(cells: list[list[int]], path: list[int]) -> None:
        cells, colors = refine(cells)
        t = next((t for t, cell in enumerate(cells) if len(cell) > 1), None)
        if t is None:
            label = [c + 1 for c in colors].__getitem__
            relabeled = tuple(sorted([tuple(sorted(map(label, f))) for f in facets_idx]))
            if not best or relabeled < best[0][0]:
                best[:] = [(relabeled, colors)]
            elif relabeled == best[0][0]:
                at_label = [0] * nv
                for vi, c in enumerate(best[0][1]):
                    at_label[c] = vi
                automorphisms.append([at_label[c] for c in colors])
            return
        target = cells[t]
        explored: set[int] = set()
        for vi in target:
            if explored:
                fixing = [g for g in automorphisms if all(g[p] == p for p in path)]
                if _orbit(vi, fixing, list.__getitem__) & explored:
                    continue
            # vi alone in a new last cell, above every other cell
            rest = [u for u in target if u != vi]
            descend(cells[:t] + [rest] + cells[t + 1:] + [[vi]], path + [vi])
            explored.add(vi)

    # the root: the degree cells, in increasing degree, each in index order,
    # as a first round would split one cell holding every vertex
    by_degree: dict[int, list[int]] = {}
    for vi, o in enumerate(others):
        by_degree.setdefault(len(o), []).append(vi)
    descend([by_degree[k] for k in sorted(by_degree)], [])
    del descend  # it holds itself: free the search state without the cyclic GC
    relabeled, colors = best[0]
    template = "|".join([",".join(["{}"] * (n + 1))] * len(relabeled))
    key = f"{n};{nv};{template.format(*chain.from_iterable(relabeled))}".encode()
    relabeling = {verts[vi]: colors[vi] + 1 for vi in range(nv)}
    return CanonicalForm(
        key,
        relabeling,
        Complex(complex.dimension, relabeled),
        tuple({colors[vi] + 1: colors[g[vi]] + 1 for vi in range(nv)} for g in automorphisms),
    )
