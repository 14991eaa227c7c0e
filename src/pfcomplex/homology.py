"""
Simplicial homology over the integers and over GF(2).

Boundary matrices use the standard alternating-sign convention over Z and
all-ones over GF(2), with rows and columns in lexicographic simplex order.
Betti numbers come from one exact computation with arbitrary-precision
integers: one sparse pivot loop brings each boundary to a diagonal form,
always pivoting on an entry of least absolute value.  The number of entries
is the rank, and the entries give the torsion.  GF(2) ranks follow by the
universal coefficient theorem: an entry stays a unit mod 2 unless it is
even.  To keep the torus gluings (hundreds of thousands of cells) inside a
desk-scale time budget, the loop runs on a Morse complex: coreduction
(Mrozek & Batko), on the cell index's face table and cofaces, pairs each
cell that has a single working face with that face and carries the boundary
of the critical cells exactly, as in Harker, Mischaikow, Mrozek & Nanda.
Numpy rounds pair every ready cell at once, each reading the cells the last
one changed; with none ready, the least cell of each working component
becomes critical, found on int32 edges built one face column at a time (so
below 2**31 cells).  Only the critical cells are diagonalised; `betti` of
example2 (195,399 cells) takes about 0.15 s on a 2-core Xeon.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

import numpy as np

from .complexes import Complex, _distinct, link
from .report import CONTRADICTION, PASS, CheckItem, CheckReport, PfcError

RING_Z = "z"
RING_GF2 = "z2"
_EXACT = 2**31  # int64 Morse coefficients stay below it, so reduceat sums them exactly


def _ring(ring: str) -> str:
    if ring not in (RING_Z, RING_GF2):
        raise PfcError(f"unknown coefficient ring {ring!r}; use 'z' or 'z2'")
    return ring


# ---------------------------------------------------------------------------
# boundary matrices


@dataclass(frozen=True)
class ChainMatrix:
    """Sparse boundary matrix of k-chains with labelled rows and columns."""

    ring: str
    rows: tuple          # (k-1)-simplices, lexicographic
    cols: tuple          # k-simplices, lexicographic
    entries: dict        # (row_index, col_index) -> nonzero coefficient

    def dense(self):
        m = np.zeros((len(self.rows), len(self.cols)), dtype=np.int64)
        for (i, j), v in self.entries.items():
            m[i, j] = v
        return m

    def compose(self, other: "ChainMatrix") -> dict:
        """Entries of self @ other (used to verify that boundaries square to zero)."""
        if self.cols != other.rows:
            raise PfcError("chain matrices are not composable")
        prod = self.dense() @ other.dense()
        if self.ring == RING_GF2:
            prod %= 2
        return {(i, j): int(v) for (i, j), v in np.ndenumerate(prod) if v}


def boundary_matrix(c: Complex, k: int, ring: str = RING_Z) -> ChainMatrix:
    """The k-th boundary matrix of the complex over the chosen ring."""
    ring = _ring(ring)
    if k < 1 or k > max(c.dim, 1):
        raise PfcError(f"k={k} outside 1..{c.dim}")
    cols, off = tuple(c.k_simplices(k)), c.index.offsets
    faces = (c.index.faces[off[k]:off[k] + len(cols), :k + 1] - off[k - 1]).tolist()
    entries = {(r, j): -1 if ring == RING_Z and i % 2 else 1
               for j, row in enumerate(faces) for i, r in enumerate(row)}
    return ChainMatrix(ring, tuple(c.k_simplices(k - 1)), cols, entries)


# ---------------------------------------------------------------------------
# Coreduction: pair off cells that provably do not change homology and keep
# the boundary of the rest, so only a small Morse complex is diagonalised.


def _component_minima(table, working):
    """Least cell of each face-coface component of the working cells: int32
    edges, built one face column at a time (so below 2**31 cells), hook their
    larger root onto their smaller one until none joins two."""
    if len(working) > 2**31:  # the last cell is padding
        raise PfcError(f"{len(working) - 1} cells are too many for int32 component labels")
    work, pos = np.flatnonzero(working), np.full(len(working), -1, np.int32)
    pos[work] = lab = np.arange(len(work), dtype=np.int32)
    edges = [(lab[q >= 0], q[q >= 0]) for q in (pos[col[work]] for col in table.T)]
    a, b = (np.concatenate(e) for e in zip(*edges))
    del pos, edges
    while len(a):
        np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
        while (lab.take(lab) != lab).any():  # take: lab[lab] casts int32 indices slowly
            lab = lab.take(lab)
        a, b = lab.take(a, out=a, mode="clip"), lab.take(b, out=b, mode="clip")  # in place; clip: no buffer
        a, b = a[m := a != b], b[m]
    return work[lab == np.arange(len(work))]


def _morse_core(c: Complex, excluded) -> list[dict]:
    """Critical cells left by coreduction, with their Morse boundaries.

    Returns one dict per dimension, critical cell id -> {face id: coeff}.
    The subcomplex of cell ids `excluded` is left out of the chain.  A working
    cell `t` whose boundary has one working face `f` is paired with it:
    every other coface `u` of `f` takes `d(u) -= d(u)[f] * d(t)[f] * d(t)`.
    Since the rest of `d(t)` is critical, the pivot is a unit and fill-in
    lands only on critical cells, so the reduction is exact over Z.

    It runs in numpy rounds.  A round pairs every working cell with one
    working face, keeping the least per face and dropping a pair whose cell
    is another kept pair's face.  Kept pairs then share no cell, so no kept
    cell is a working face of another pair's cell, whose only one is its
    partner.  Critical parts reach a cell only through its working faces, so
    retiring all kept pairs at once equals retiring them one at a time.  With
    no pair left, the least working cell of each working component becomes
    critical (an ace; it has no working face).  Components only split and
    never touch, so this is the sequential choice, made in each at once.  A
    cell gets ready only by losing a working face, so a round's candidates
    are the cofaces the last one retired from and those it did not keep.
    Coefficients are int64 until one reaches _EXACT, then Python ints.  On
    example2 (195,399 cells): 45 rounds, 8 ace rounds, about 0.1 s.
    """
    idx = c.index
    n, table, ptr, cob = idx.offsets[-1], idx.faces, idx.ptr, idx.cob
    # 0 working, 1 critical, 2 paired face, excluded or cell n, 3 paired cell
    state = np.zeros(n + 1, np.uint8)
    state[excluded], state[n] = 2, 2
    # working faces of a working cell, else 0 as excluded is face-closed; columns sum faster
    n_work = sum(state[col] == 0 for col in table.T)
    left, cand = np.count_nonzero(state == 0), np.flatnonzero(n_work == 1)  # working, ready
    mate = np.zeros(n + 1, np.int64)  # a paired cell's face
    least = np.full(n + 1, n)  # least candidate per face, n between rounds
    # the critical parts: rows owner * (n + 1) + critical cell, exact values
    key, val = np.zeros(0, np.int64), np.zeros(0, np.int64)

    def working_cofaces(cells):  # (position in cells, coface) pairs
        lo, lens = ptr[cells], ptr[cells + 1] - ptr[cells]
        src = np.repeat(np.arange(len(cells)), lens)
        u = cob[np.arange(len(src)) + np.repeat(lo - lens.cumsum() + lens, lens)]
        live = state[u] == 0
        return src[live], u[live]

    def retire(cells):  # working cofaces lose a working face; returns them
        np.subtract.at(n_work, u := working_cofaces(cells)[1], 1)
        return u

    def spread(s, x, v):
        # adds row (u, x, d(u)[s] * v) for each working coface u of each s,
        # drops rows of retired owners, sums equal rows and drops zeros
        src, u = working_cofaces(s)
        j = np.argmax(table[u] == s[src, None], axis=1)
        k = np.concatenate((key, u * (n + 1) + x[src]))
        w = np.concatenate((val, v[src] * (-1) ** j))
        order = np.flatnonzero(state[k // (n + 1)] < 2)
        order = order[np.argsort(k[order])]
        k, first = k[order], np.ones(len(order), bool)
        first[1:] = k[1:] != k[:-1]
        w = np.add.reduceat(w[order], np.flatnonzero(first))
        w = w if w.dtype == object or abs(w).max(initial=0) < _EXACT else w.astype(object)
        return k[first][w != 0], w[w != 0]

    # with nothing excluded no cell has one working face, so the first ace
    # round sees the whole complex, whose components are its 1-skeleton's
    scope = np.arange(n + 1) < idx.offsets[:3][-1] if not len(excluded) else True
    while left:
        cand = _distinct(cand[n_work[cand] == 1])
        if not len(cand):
            aces, scope = _component_minima(table, (state == 0) & scope), True
            state[aces] = 1
            left -= len(aces)
            cand = retire(aces)
            # a vertex ace is the only critical vertex of its component and
            # every vertex there reduces to it, so its coefficient in each
            # Morse boundary is the sum of an edge's boundary coefficients, 0
            aces = aces[aces >= idx.offsets[1]]
            if len(aces):
                key, val = spread(aces, aces, np.ones(len(aces), np.int64))
            continue
        rows = table[cand]
        f = rows[np.arange(len(cand)), np.argmax(state[rows] == 0, axis=1)]
        np.minimum.at(least, f, cand)
        keep = (least[f] == cand) & (least[cand] == n)
        least[f] = n
        t, f = cand[keep], f[keep]
        state[t], state[f], mate[t], n_work[t], n_work[f] = 3, 2, f, 0, 0
        left -= 2 * len(t)
        cand = np.concatenate((retire(np.concatenate((t, f))), cand))
        # each row (t, x, v) of a paired cell moves to the working cofaces u
        # of its face f as (u, x, -d(t)[f] * d(u)[f] * v)
        moved = np.flatnonzero(state[key // (n + 1)] == 3)
        if len(moved):
            t = key[moved] // (n + 1)
            i = np.argmax(table[t] == mate[t][:, None], axis=1)
            key, val = spread(mate[t], key[moved] % (n + 1), val[moved] * (-1) ** (i + 1))
    bd = {a: {} for a in np.flatnonzero(state == 1).tolist()}
    for k, v in zip(key.tolist(), val.tolist()):
        bd.get(k // (n + 1), {})[k % (n + 1)] = v
    return [{a: d for a, d in bd.items() if lo <= a < hi}
            for lo, hi in zip(idx.offsets, idx.offsets[1:])]


# ---------------------------------------------------------------------------
# exact diagonal form of sparse integer matrices


def _diagonal(columns) -> list[int]:
    """Nonzero entries of a diagonal form of an integer matrix.

    columns: col key -> {row key: int}.  The entries' count is the rank,
    their odd ones count the GF(2) rank, and _normalize_factors turns them
    into invariant factors.  The pivot is an entry of least absolute value;
    ties go to the shortest column, then to the row in the fewest columns.
    A lazy heap of columns keeps that order, so unit pivots come first and
    fill-in stays low.  Column operations with floor quotients clear the
    pivot row; once the pivot column alone holds it, row operations only
    reduce that column modulo the pivot.  A remainder left by either step is
    smaller than the pivot and becomes the next one, so every step is exact
    and the loop ends.
    """
    cols = {k: dict(v) for k, v in columns.items() if v}
    rows = {}
    for ck, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(ck)

    def key(ck):
        col = cols[ck]
        return min(map(abs, col.values())), len(col), ck

    heap = [key(ck) for ck in cols]
    heapq.heapify(heap)
    diag = []
    while heap:
        top = heapq.heappop(heap)
        pc = top[2]
        # every change pushes the column's new key, so stale entries go
        if pc not in cols or top != key(pc):
            continue
        pcol = cols[pc]
        pr = min((r for r, v in pcol.items() if abs(v) == top[0]),
                 key=lambda r: (len(rows[r]), r))
        pval = pcol[pr]
        for other in rows[pr] - {pc}:
            ocol = cols[other]
            q = ocol[pr] // pval
            for r, v in pcol.items():
                ocol[r] = ocol.get(r, 0) - q * v
                rows[r].add(other)
                if not ocol[r]:
                    del ocol[r]
                    rows[r].discard(other)
            if ocol:
                heapq.heappush(heap, key(other))
            else:
                del cols[other]
        if len(rows[pr]) > 1:  # a remainder in the pivot row is next
            heapq.heappush(heap, top)
            continue
        for r in list(pcol):
            if r != pr:
                pcol[r] %= pval
                if not pcol[r]:
                    del pcol[r]
                    rows[r].discard(pc)
        if len(pcol) == 1:
            diag.append(abs(pval))
            del cols[pc], rows[pr]
        else:
            heapq.heappush(heap, key(pc))
    return diag


def _normalize_factors(factors):
    """Bring a diagonal multiset into invariant-factor (divisibility) form."""
    fs = [abs(f) for f in factors if abs(f) > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                a, b = fs[i], fs[j]
                if b % a:
                    g = gcd(a, b)
                    fs[i], fs[j] = g, a * b // g
                    changed = True
        fs.sort()
    return tuple(f for f in fs if f > 1)


# ---------------------------------------------------------------------------
# Betti numbers


@dataclass(frozen=True)
class BettiVector:
    """Ranks b_0..b_d plus, over Z, the invariant-factor torsion per degree."""

    ranks: tuple
    torsion: tuple
    ring: str
    reduced: bool = False

    def __iter__(self):
        return iter(self.ranks)

    def euler(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.ranks))


def betti(c: Complex, ring: str = RING_Z, relative_to: Complex | None = None) -> BettiVector:
    """Betti numbers of the complex, or of the pair when a subcomplex is given.

    Relative chain groups are spanned by the simplices outside the subcomplex
    (quotient basis), with boundaries restricted accordingly.
    """
    ring = _ring(ring)
    dim = c.dim
    if dim < 0:
        return BettiVector((), (), ring)
    # without a subcomplex, coreduction aces the least vertex of each
    # component, whose Morse boundary is 0, so b_0 counts the components
    excluded = [] if relative_to is None else c._ids(relative_to.cells, lambda s: PfcError(
        f"relative subcomplex contains {s}, not in complex"))
    core = _morse_core(c, excluded)
    # diagonal entries of the boundaries d_0 = 0, d_1, ..., d_dim, d_dim+1 = 0
    diags = [[]] + [_diagonal(core[k]) for k in range(1, dim + 1)] + [[]]
    if ring == RING_GF2:
        # universal coefficients: a diagonal entry survives mod 2 unless it
        # is even, and any diagonal form has as many even entries as the
        # invariant factors do
        diags = [[f for f in d if f % 2] for d in diags]
    ranks = [len(core[k]) - len(diags[k]) - len(diags[k + 1])
             for k in range(dim + 1)]
    torsion = [_normalize_factors(d) if ring == RING_Z else () for d in diags[1:]]
    return BettiVector(tuple(ranks), tuple(torsion), ring)


def local_homology(c: Complex, v: int, ring: str = RING_Z) -> BettiVector:
    """Reduced Betti numbers of the vertex link.

    By excision these are the local homology ranks of the complex at an
    interior point, shifted down one degree.
    """
    ring = _ring(ring)
    lk = link(c, (v,))
    if lk.dim < 0:
        return BettiVector((), (), ring, reduced=True)
    b = betti(lk, ring)
    ranks = list(b.ranks)
    ranks[0] -= 1
    return BettiVector(tuple(ranks), b.torsion, ring, reduced=True)


# ---------------------------------------------------------------------------
# the top-chain obstruction certificate


def solid_chain_check(j: Complex, b: Complex) -> CheckReport:
    """Certificate for the mod-2 chain made of every 3-simplex of the complex.

    Reports whether that chain is a cycle relative to the marked subcomplex,
    whether its relative class is nonzero, and whether the complex sits in the
    configuration that rules out geodesic-completeness-style gluings: it has a
    3-simplex while the relative b_3 vanishes, so no collection of 3-cells can
    close up off the marked subcomplex.
    """
    if j.dim > 3:
        raise PfcError(f"check requires dim <= 3, got {j.dim}")
    marked = j._ids(b.cells, lambda s: PfcError(f"marked subcomplex contains {s}, not in complex"))

    tets = j.k_simplices(3)
    has_top_cell = bool(tets)
    triangles = j.k_simplices(2)
    first = j.index.offsets[2] if triangles else 0
    up = np.diff(j.index.ptr)[first:first + len(triangles)].tolist()
    in_b = np.isin(np.arange(first, first + len(triangles)), marked).tolist()

    # boundary of the sum of all 3-simplices over GF(2): the triangles with
    # an odd number of 3-cofaces; those outside the marked subcomplex
    outside = [f for f, n, m in zip(triangles, up, in_b) if n % 2 and not m]
    supported = not outside

    # 2-simplices not in the marked subcomplex need exactly two 3-cofaces
    bad = [f for f, n, m in zip(triangles, up, in_b) if not m and n != 2]
    closed_outside = has_top_cell and not bad

    if j.dim >= 3:
        pair = betti(j, RING_GF2, relative_to=b)
        b3 = pair.ranks[3]
    else:
        b3 = 0

    # a nonzero relative cycle in top degree can never bound
    nonzero_class = has_top_cell and supported

    items = (
        CheckItem("has-3-simplex", has_top_cell, True,
                  witness=tets[0] if tets else None),
        CheckItem("boundary-supported-in-subcomplex", supported, True,
                  witness=outside[0] if outside else None),
        CheckItem("relative-class-nonzero", nonzero_class, True),
        CheckItem("two-cofaces-outside-subcomplex", closed_outside, True,
                  witness=bad[0] if bad else None),
        CheckItem("relative-b3", b3, 0),
    )
    verdict = CONTRADICTION if (has_top_cell and b3 == 0) else PASS
    meta = {
        "chain": "sum of all 3-simplices over GF(2)",
        "interpretation": "contradiction: a 3-simplex is present while the "
                          "relative b3 vanishes, so the complex cannot avoid "
                          "free faces away from the marked subcomplex",
    }
    return CheckReport(verdict, items, meta)
