"""The coreduction loop that homology._morse_core replaced, kept as an
oracle: every round scans all cells for candidates and working cells, a
fresh `least` array per round, and the Morse coefficients always Python
ints in an object array.  Its critical cells and boundaries are the ones
the frontier rounds must reproduce.  A pure-Python union-find gives the
component minima that homology._component_minima must reproduce.
"""

import numpy as np

from pfcomplex.complexes import Complex


def _component_minima(table, working):
    """Least cell of each face-coface component of the working cells: edges
    hook their larger root onto their smaller one until none joins two."""
    work = np.flatnonzero(working)
    rows = table[work]
    pos = np.zeros(len(working), np.int64)
    pos[work] = np.arange(len(work))
    a, col = np.nonzero(working[rows])
    b = pos[rows[a, col]]
    lab = np.arange(len(work))
    while len(a):
        np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
        while (lab[lab] != lab).any():
            lab = lab[lab]
        a, b = lab[a], lab[b]
        a, b = a[a != b], b[a != b]
    return work[lab == np.arange(len(work))]


def union_find_minima(table, working):
    """Least cell of each component of the graph on the working cells whose
    edges join a cell to each of its working faces, by a union-find over
    Python ints that always keeps the smaller root; ascending int64 ids."""
    parent = {x: x for x in np.flatnonzero(working).tolist()}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x in list(parent):
        for f in table[x].tolist():
            if f in parent:  # a working face; the padding cell never works
                rx, rf = sorted((root(x), root(f)))
                parent[rf] = rx
    return np.array(sorted({root(x) for x in parent}), np.int64)


def _morse_core(c: Complex, excluded) -> list[dict]:
    """Critical cells left by coreduction, with their Morse boundaries.

    Returns one dict per dimension, critical cell id -> {face id: coeff}.
    The cell ids `excluded` are left out of the chain complex.  A working
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
    never touch, so this is the sequential choice, made in each at once.  On
    example2 (195,399 cells): 45 rounds, 8 ace rounds, about 0.2 s.
    """
    idx = c.index
    n, table, ptr, cob = idx.offsets[-1], idx.faces, idx.ptr, idx.cob
    # 0 working, 1 critical, 2 paired face, excluded or cell n, 3 paired cell
    state = np.zeros(n + 1, np.uint8)
    state[excluded], state[n] = 2, 2
    n_work = (state[table] == 0).sum(axis=1)
    mate = np.zeros(n + 1, np.int64)  # a paired cell's face
    # the critical parts: rows owner * (n + 1) + critical cell, Python int values
    key, val = np.zeros(0, np.int64), np.zeros(0, object)

    def working_cofaces(cells):  # (position in cells, coface) pairs
        lo, lens = ptr[cells], ptr[cells + 1] - ptr[cells]
        src = np.repeat(np.arange(len(cells)), lens)
        u = cob[np.arange(len(src)) + np.repeat(lo - lens.cumsum() + lens, lens)]
        live = state[u] == 0
        return src[live], u[live]

    def retire(cells):  # working cofaces lose a working face
        np.subtract.at(n_work, working_cofaces(cells)[1], 1)

    def spread(s, x, v):
        # adds row (u, x, d(u)[s] * v) for each working coface u of each s,
        # drops rows of retired owners, sums equal rows and drops zeros
        src, u = working_cofaces(s)
        j = np.argmax(table[u] == s[src, None], axis=1)
        k = np.concatenate((key, u * (n + 1) + x[src]))
        w = np.concatenate((val, np.where(j % 2, -v[src], v[src])))
        order = np.flatnonzero(state[k // (n + 1)] < 2)
        order = order[np.argsort(k[order])]
        k, first = k[order], np.ones(len(order), bool)
        first[1:] = k[1:] != k[:-1]
        w = np.add.reduceat(w[order], np.flatnonzero(first))
        return k[first][w != 0], w[w != 0]

    # with nothing excluded no cell has one working face, so the first ace
    # round sees the whole complex, whose components are its 1-skeleton's
    scope = np.arange(n + 1) < idx.offsets[:3][-1] if not len(excluded) else True
    while (state == 0).any():
        cand = np.flatnonzero((state == 0) & (n_work == 1))
        if not len(cand):
            aces, scope = _component_minima(table, (state == 0) & scope), True
            state[aces] = 1
            retire(aces)
            # a vertex ace is the only critical vertex of its component and
            # every vertex there reduces to it, so its coefficient in each
            # Morse boundary is the sum of an edge's boundary coefficients, 0
            aces = aces[aces >= idx.offsets[1]]
            if len(aces):
                key, val = spread(aces, aces, np.ones(len(aces), object))
            continue
        rows = table[cand]
        f = rows[np.arange(len(cand)), np.argmax(state[rows] == 0, axis=1)]
        least = np.full(n + 1, n)  # least candidate per face
        np.minimum.at(least, f, cand)
        keep = (least[f] == cand) & (least[cand] == n)
        t, f = cand[keep], f[keep]
        state[t], state[f], mate[t] = 3, 2, f
        retire(np.concatenate((t, f)))
        # each row (t, x, v) of a paired cell moves to the working cofaces u
        # of its face f as (u, x, -d(t)[f] * d(u)[f] * v)
        moved = np.flatnonzero(state[key // (n + 1)] == 3)
        if len(moved):
            t = key[moved] // (n + 1)
            i = np.argmax(table[t] == mate[t][:, None], axis=1)
            key, val = spread(mate[t], key[moved] % (n + 1),
                              np.where(i % 2, val[moved], -val[moved]))
    bd = {a: {} for a in np.flatnonzero(state == 1).tolist()}
    for k, v in zip(key.tolist(), val):
        bd.get(k // (n + 1), {})[k % (n + 1)] = v
    return [{a: d for a, d in bd.items() if lo <= a < hi}
            for lo, hi in zip(idx.offsets, idx.offsets[1:])]
