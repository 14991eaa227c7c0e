"""
Finite abstract simplicial complexes.

A simplex is a strictly increasing tuple of nonnegative integer vertex ids;
a complex is a face-closed finite set of such tuples.  Everything here is
purely combinatorial: face/coface queries, links and stars, free faces,
elementary collapses, quotient identifications and Euler characteristics.
All operations are pure functions on immutable values, and every iteration
order is deterministic (length first, then lexicographic), so downstream
reports are reproducible byte for byte.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from .report import FAIL, PASS, CheckItem, CheckReport, PfcError


class QuotientDegeneracyError(PfcError):
    """A quotient would produce a non-simplicial complex.

    Carries the offending simplex (or simplex pair) so construction code can
    report exactly which identification went wrong instead of silently
    subdividing.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


Simplex = tuple  # canonical form: strictly increasing tuple of ints


def canonical_simplex(vertices: Iterable[int]) -> Simplex:
    """Sort a vertex collection into canonical simplex form.

    Raises PfcError if a vertex repeats or an id lies outside
    0 <= v < 2**63 (homology keeps vertex ids in int64 arrays).
    """
    t = tuple(sorted(vertices))
    for a, b in zip(t, t[1:]):
        if a == b:
            raise PfcError(f"repeated vertex {a} in simplex {t}")
    if t and t[0] < 0:
        raise PfcError(f"negative vertex id in simplex {t}")
    if t and t[-1] >= 2**63:
        raise PfcError(f"vertex id {t[-1]} in simplex {t} is not below 2**63")
    return t


def faces_of(simplex: Simplex) -> list[Simplex]:
    """All nonempty faces of a simplex, the simplex itself included."""
    out = []
    for k in range(1, len(simplex) + 1):
        out.extend(combinations(simplex, k))
    return out


def _sort_key(s: Simplex):
    return (len(s), s)


@dataclass(frozen=True)
class Complex:
    """A face-closed set of simplices with an optional label.

    Instances are immutable; construct through :func:`build_complex`, which
    applies the face closure, rather than directly.
    """

    simplices: frozenset = field(default_factory=frozenset)
    name: str | None = field(default=None, compare=False)

    def __iter__(self):
        return iter(sorted(self.simplices, key=_sort_key))

    def __len__(self):
        return len(self.simplices)

    def __contains__(self, s) -> bool:
        return tuple(s) in self.simplices

    @cached_property
    def dim(self) -> int:
        """Max simplex dimension; -1 for the empty complex.  Cached."""
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    @property
    def vertices(self) -> list[int]:
        return sorted(s[0] for s in self.simplices if len(s) == 1)

    def k_simplices(self, k: int) -> list[Simplex]:
        """All k-dimensional simplices in lexicographic order."""
        return sorted(s for s in self.simplices if len(s) == k + 1)

    def counts(self) -> list[int]:
        """Number of simplices in each dimension 0..dim."""
        out = [0] * (self.dim + 1)
        for s in self.simplices:
            out[len(s) - 1] += 1
        return out

    def facets(self) -> list[Simplex]:
        """Maximal simplices (those with no proper coface)."""
        return sorted((s for s, ts in coface_map(self).items() if not ts),
                      key=_sort_key)

    @cached_property
    def vertex_star(self) -> dict:
        """Each vertex mapped to the tuple of simplices containing it.

        Stars are in (length, lexicographic) order.  Built once per complex
        on first use; every query about one simplex's star reads it.
        """
        out = {}
        for s in sorted(self.simplices, key=_sort_key):
            for v in s:
                out.setdefault(v, []).append(s)
        return {v: tuple(st) for v, st in out.items()}

    def subcomplex(self, simplices: Iterable[Simplex], name=None) -> "Complex":
        """Face closure of a subset of this complex's simplices."""
        chosen = [canonical_simplex(s) for s in simplices]
        for s in chosen:
            if s not in self.simplices:
                raise PfcError(f"{s} is not a simplex of the complex")
        return build_complex(chosen, name=name)


def build_complex(generators: Iterable[Sequence[int]], name: str | None = None) -> Complex:
    """Face closure of the given generator tuples.

    Idempotent: the closure of a closure is itself.
    """
    simplices = set()
    for g in generators:
        s = canonical_simplex(g)
        if not s:
            continue
        for f in faces_of(s):
            simplices.add(f)
    return Complex(frozenset(simplices), name=name)


def star(c: Complex, s) -> Complex:
    """Closed star: all cofaces of s together with their faces."""
    s = canonical_simplex(s)
    if s not in c.simplices:
        raise PfcError(f"{s} is not a simplex of the complex")
    return build_complex(_cofaces(c, s))


def link(c: Complex, s) -> Complex:
    """The link of s: simplices disjoint from s whose join with s is present."""
    s = canonical_simplex(s)
    if s not in c.simplices:
        raise PfcError(f"{s} is not a simplex of the complex")
    sset = set(s)
    return Complex(frozenset(tuple(x for x in t if x not in sset)
                             for t in _cofaces(c, s) if len(t) > len(s)))


def _cofaces(c: Complex, s: Simplex) -> list[Simplex]:
    """All simplices of c containing the simplex s, s itself included."""
    sset = set(s)
    return [t for t in c.vertex_star[s[0]] if sset.issubset(t)]


class FreeFacePair(NamedTuple):
    face: Simplex
    coface: Simplex


def coface_map(c: Complex) -> dict:
    """Map each simplex of c to the list of its codimension-1 cofaces.

    Built afresh on every call, so callers may consume it destructively;
    it is not cached on the complex, whose memory it would otherwise hold.
    """
    cofaces = {s: [] for s in c.simplices}
    for t in c.simplices:
        if len(t) > 1:
            for f in combinations(t, len(t) - 1):
                cofaces[f].append(t)
    return cofaces


def free_faces(c: Complex) -> list[FreeFacePair]:
    """All pairs (face, coface) where face lies in exactly one coface.

    A simplex contained in some simplex two dimensions up necessarily has at
    least two codimension-1 cofaces, so counting those alone is sufficient.
    Pairs come out sorted by face, lexicographically.
    """
    cofaces = coface_map(c)
    out = [FreeFacePair(f, ts[0]) for f, ts in cofaces.items() if len(ts) == 1]
    out.sort(key=lambda p: (len(p.face), p.face))
    return out


def free_face_check(c: Complex) -> CheckReport:
    """Free faces as a certificate: passes when the complex has none.

    Each free face is one failing item, with its unique coface as witness.
    """
    pairs = free_faces(c)
    items = tuple(CheckItem(f"free face {p.face}", True, False,
                            witness=p.coface) for p in pairs)
    return CheckReport(FAIL if pairs else PASS, items,
                       {"free_face_count": len(pairs)})


class CollapseResult(NamedTuple):
    complex: Complex
    steps: int


def collapse_core(c: Complex) -> CollapseResult:
    """Remove free face / coface pairs until none remain.

    Each step removes the lexicographically smallest free face together with
    its unique coface, so the result is deterministic even where the core
    itself is not canonical.
    """
    cofaces = coface_map(c)
    # coface counts only fall, so every free face enters the heap once, when
    # it becomes free; entries removed or left without a coface are skipped
    heap = [(len(f), f) for f, ts in cofaces.items() if len(ts) == 1]
    heapq.heapify(heap)
    steps = 0
    while heap:
        _, f = heapq.heappop(heap)
        if len(cofaces.get(f, ())) != 1:
            continue
        t = cofaces[f][0]
        del cofaces[f], cofaces[t]
        # codim-1 faces of both removed simplices lose one coface each
        for dead in (f, t):
            for sub in combinations(dead, len(dead) - 1):
                rest = cofaces.get(sub)
                if rest is not None:
                    rest.remove(dead)
                    if len(rest) == 1:
                        heapq.heappush(heap, (len(sub), sub))
        steps += 1
    return CollapseResult(Complex(frozenset(cofaces), name=c.name), steps)


def euler_characteristic(c: Complex) -> int:
    """Alternating sum of simplex counts."""
    return sum(1 if len(s) % 2 else -1 for s in c.simplices)


# ---------------------------------------------------------------------------
# quotients


class IdentificationPair(NamedTuple):
    """Identify the source subcomplex with the target one via vertex_map.

    source and target are simplex lists (faces included); vertex_map sends
    every vertex appearing in source to a vertex of target.  The map need not
    be injective, which permits wrapping a subdivided arc onto a circle when
    combined with an explicit endpoint merge in the same quotient call.
    """

    source: tuple
    target: tuple
    vertex_map: Mapping


class QuotientResult(NamedTuple):
    complex: Complex
    vertex_map: dict  # old vertex id -> new (dense) vertex id


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent
        if x not in p:
            p[x] = x
            return x
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # keep the smaller representative so ambient vertex ids stay stable
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra


def _normalize_pair(c: Complex, pair) -> IdentificationPair:
    source, target, vmap = pair
    src = [canonical_simplex(s) for s in source]
    dst = [canonical_simplex(s) for s in target]
    for s in src + dst:
        if s not in c.simplices:
            raise PfcError(f"identification references {s}, not in complex")
    return IdentificationPair(tuple(src), tuple(dst), dict(vmap))


def quotient(c: Complex, pairs: Sequence) -> QuotientResult:
    """Glue the complex along the given identification pairs.

    Every pair must map its source subcomplex simplex-by-simplex onto its
    target (a mapping error otherwise).  After merging vertex classes the
    result is checked to still be simplicial: no simplex may degenerate, and
    two distinct simplices may land on the same vertex set only if the
    declared identifications actually relate them.  Only simplices meeting a
    merged vertex are checked: every other simplex keeps its own vertex set,
    and the image of a checked simplex contains a merged class, so neither
    can degenerate or collide with an unchecked one.  The first failure in
    (length, lexicographic) order is raised.  Vertex ids of the result are
    renumbered densely; the old-to-new map is returned alongside.
    """
    pairs = [_normalize_pair(c, p) for p in pairs]
    vertices = c.vertices
    verts = _UnionFind()
    cells = _UnionFind()

    for src, dst, vmap in pairs:
        dst_set = set(dst)
        covered = set()
        for s in src:
            try:
                img_vs = [vmap[v] for v in s]
            except KeyError as e:
                raise PfcError(f"vertex {e.args[0]} of {s} has no image") from None
            img = tuple(sorted(img_vs))
            if len(set(img)) != len(img):
                raise PfcError(f"{s} degenerates to {img} under the pair map")
            if img not in dst_set:
                raise PfcError(f"{s} maps to {img}, not in the target subcomplex")
            covered.add(img)
            cells.union(s, img)
        if covered != dst_set:
            missing = sorted(dst_set - covered, key=_sort_key)
            raise PfcError(f"target simplices not covered by the map: {missing[:3]}")
        for v, w in vmap.items():
            verts.union(v, w)

    # each merged vertex, representatives included, to its representative;
    # the dense renumbering of the representatives preserves order, so
    # relabelled vertex tuples stay sorted
    rep = {v: r for v in vertices if (r := verts.find(v)) != v}
    rep.update((r, r) for r in set(rep.values()))
    reps = sorted({rep.get(v, v) for v in vertices})
    rep_to_new = {r: i for i, r in enumerate(reps)}
    vertex_map = {v: rep_to_new[rep.get(v, v)] for v in vertices}

    out = set()
    touched = []
    for s in c.simplices:
        if rep.keys().isdisjoint(s):
            out.add(tuple(vertex_map[v] for v in s))
        else:
            touched.append(s)
    touched.sort(key=_sort_key)
    images = _check_simplicial(touched, rep, cells)
    out.update(tuple(rep_to_new[r] for r in img) for img in images)
    return QuotientResult(Complex(frozenset(out), name=c.name), vertex_map)


def _check_simplicial(affected, rep, related) -> dict:
    """Image of each affected simplex once merged vertices meet their class.

    affected holds the simplices meeting a merged vertex, rep sends each
    merged vertex to its class representative, and related is the union-find
    of the declared cell identifications.  Raises QuotientDegeneracyError at
    the first simplex, in the order given, whose image degenerates or lands
    on the image of an earlier one it is not identified with.  Returns each
    image mapped to the first simplex landing on it.
    """
    images = {}
    for s in affected:
        img = tuple(sorted({rep.get(v, v) for v in s}))
        if len(img) != len(s):
            raise QuotientDegeneracyError(
                f"simplex {s} degenerates to {img} in the quotient", witness=s)
        first = images.setdefault(img, s)
        if first != s and related.find(first) != related.find(s):
            raise QuotientDegeneracyError(
                f"distinct simplices {first} and {s} collide on {img} "
                f"without being identified", witness=(first, s))
    return images


def disjoint_union(a: Complex, b: Complex) -> tuple[Complex, dict]:
    """Disjoint union, relabelling b's vertices above a's range.

    Returns the union and the map from b's old vertex ids to new ones.
    """
    offset = (max(a.vertices) + 1) if a.vertices else 0
    shift = {v: v + offset for v in b.vertices}
    moved = {tuple(v + offset for v in s) for s in b.simplices}
    return Complex(frozenset(set(a.simplices) | moved)), shift
