"""Homology layer, cross-checked against a small textbook Smith reduction."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pfcomplex import (
    PfcError,
    betti,
    boundary_matrix,
    build_complex,
    collapse_core,
    euler_characteristic,
    example_complex,
    flat_torus3,
    free_faces,
    free_group_complex,
    genus_surface,
    house_with_two_rooms,
    local_homology,
    quotient,
    solid_chain_check,
)
from pfcomplex import homology
from pfcomplex.homology import _morse_core

import homology_oracle


# --- independent oracle: dense Smith normal form, no shortcuts ------------

def dense_smith_diagonal(m):
    """Diagonal of the Smith normal form of an integer matrix (list rows)."""
    m = [row[:] for row in m]
    rows, cols = len(m), len(m[0]) if m else 0
    diag = []
    t = 0
    while t < rows and t < cols:
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] and (pivot is None or
                                abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[t], m[i] = m[i], m[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        dirty = False
        for i in range(t + 1, rows):
            q = m[i][t] // m[t][t]
            if q:
                for j in range(cols):
                    m[i][j] -= q * m[t][j]
            if m[i][t]:
                dirty = True
        for j in range(t + 1, cols):
            q = m[t][j] // m[t][t]
            if q:
                for i in range(rows):
                    m[i][j] -= q * m[i][t]
            if m[t][j]:
                dirty = True
        if dirty:
            continue
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(cols):
                m[t][j] += m[bad][j]
            continue
        diag.append(abs(m[t][t]))
        t += 1
    return diag


def betti_oracle(c, relative_to=None):
    """Betti numbers over Z from dense SNF of the raw boundary matrices."""
    excluded = set(relative_to.simplices) if relative_to is not None else set()
    per_dim = {}
    for s in c.simplices:
        if s not in excluded:
            per_dim.setdefault(len(s) - 1, []).append(s)
    for group in per_dim.values():
        group.sort()
    dim = c.dim
    rank = [0] * (dim + 2)
    torsion = [()] * (dim + 2)
    for k in range(1, dim + 1):
        rows = per_dim.get(k - 1, [])
        cols = per_dim.get(k, [])
        if not rows or not cols:
            continue
        ridx = {s: i for i, s in enumerate(rows)}
        m = [[0] * len(cols) for _ in rows]
        for j, s in enumerate(cols):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                if face in ridx:
                    m[ridx[face]][j] = 1 if i % 2 == 0 else -1
        d = dense_smith_diagonal(m)
        rank[k] = len(d)
        torsion[k] = tuple(x for x in d if x > 1)
    ranks = []
    for k in range(dim + 1):
        ranks.append(len(per_dim.get(k, [])) - rank[k] - rank[k + 1])
    return tuple(ranks), tuple(torsion[k + 1] for k in range(dim + 1))


def random_complex(rng, n_vertices=9, n_generators=7, max_dim=3):
    gens = []
    for _ in range(n_generators):
        k = rng.randint(1, max_dim + 1)
        gens.append(tuple(rng.sample(range(n_vertices), k)))
    return build_complex(gens)


# --- boundary matrices -----------------------------------------------------

def test_boundary_delta2_gf2():
    c = build_complex([(0, 1, 2)])
    m = boundary_matrix(c, 2, "z2")
    assert m.dense().tolist() == [[1], [1], [1]]


def test_boundary_delta2_signs():
    c = build_complex([(0, 1, 2)])
    m = boundary_matrix(c, 2, "z")
    # faces in lexicographic order (0,1), (0,2), (1,2)
    assert m.dense().T.tolist() == [[1, -1, 1]]


def test_boundary_squares_to_zero():
    c = build_complex([(0, 1, 2, 3)])
    m2 = boundary_matrix(c, 2)
    m1 = boundary_matrix(c, 1)
    assert not m1.compose(m2)


def test_boundary_squares_to_zero_random():
    rng = random.Random(100)
    for _ in range(100):
        c = random_complex(rng)
        for k in range(2, c.dim + 1):
            for ring in ("z", "z2"):
                hi = boundary_matrix(c, k, ring)
                lo = boundary_matrix(c, k - 1, ring)
                assert not lo.compose(hi)


@pytest.mark.parametrize("ring", ["Z", "gf2", "int", "q"])
def test_ring_must_be_z_or_z2(ring):
    with pytest.raises(PfcError, match="unknown coefficient ring"):
        betti(build_complex([(0, 1)]), ring)


def test_boundary_range_error():
    with pytest.raises(PfcError, match=r"k=5 outside 1\.\.2"):
        boundary_matrix(build_complex([(0, 1, 2)]), 5)


# --- Betti numbers ---------------------------------------------------------

def test_betti_torus3_over_z():
    c = flat_torus3(3).complex
    b = betti(c)
    assert b.ranks == (1, 3, 3, 1)
    assert not any(b.torsion)


def test_betti_relative_delta3_boundary():
    c = build_complex([(0, 1, 2, 3)])
    boundary = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    b = betti(c, "z", relative_to=boundary)
    assert b.ranks[3] == 1


def test_betti_relative_faces_at_vertex():
    c = build_complex([(0, 1, 2, 3)])
    b_sub = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    b = betti(c, "z", relative_to=b_sub)
    assert b.ranks[3] == 0


def test_betti_projective_plane_torsion():
    rp2 = build_complex([
        (0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 3, 4), (0, 3, 5),
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 3, 5), (2, 4, 5)])
    bz = betti(rp2, "z")
    assert bz.ranks == (1, 0, 0)
    assert bz.torsion == ((), (2,), ())
    b2 = betti(rp2, "z2")
    assert b2.ranks == (1, 1, 1)


def test_betti_matches_dense_oracle_on_random_complexes():
    rng = random.Random(42)
    for _ in range(25):
        c = random_complex(rng)
        if c.dim < 0:
            continue
        expected_ranks, expected_torsion = betti_oracle(c)
        b = betti(c, "z")
        assert b.ranks == expected_ranks
        assert tuple(tuple(sorted(t)) for t in b.torsion) == \
            tuple(tuple(sorted(t)) for t in expected_torsion)


def test_relative_betti_matches_oracle():
    rng = random.Random(43)
    for _ in range(10):
        c = random_complex(rng)
        if c.dim < 1:
            continue
        sub_gens = [s for s in c.facets() if rng.random() < 0.4]
        sub = c.subcomplex(sub_gens) if sub_gens else build_complex([])
        if not sub.simplices:
            continue
        expected_ranks, _ = betti_oracle(c, relative_to=sub)
        assert betti(c, "z", relative_to=sub).ranks == expected_ranks


def test_gf2_rank_at_least_free_rank():
    rng = random.Random(44)
    for _ in range(15):
        c = random_complex(rng)
        if c.dim < 0:
            continue
        bz = betti(c, "z")
        b2 = betti(c, "z2")
        for r2, rz in zip(b2.ranks, bz.ranks):
            assert r2 >= rz


def test_alternating_betti_sum_is_euler():
    rng = random.Random(45)
    for _ in range(15):
        c = random_complex(rng)
        if c.dim < 0:
            continue
        assert betti(c, "z2").euler() == euler_characteristic(c)
        assert betti(c, "z").euler() == euler_characteristic(c)


def test_betti_invariant_under_elementary_collapse():
    rng = random.Random(46)
    done = 0
    while done < 50:
        base = random_complex(rng, n_vertices=6, n_generators=4, max_dim=2)
        if base.dim < 0:
            continue
        apex = max(base.vertices) + 1
        cone = build_complex(
            [s + (apex,) for s in base.facets()] + list(base.facets()))
        done += 1
        reference = betti(cone, "z2").ranks
        work = cone
        while True:
            pairs = free_faces(work)
            if not pairs:
                break
            f, t = pairs[0]
            remaining = set(work.simplices) - {f, t}
            from pfcomplex.complexes import Complex
            work = Complex(frozenset(remaining))
            b = betti(work, "z2").ranks
            assert b == reference[:len(b)] + (0,) * (len(b) - len(reference))


# --- GF(2): a dense mod-2 rank oracle, independent of the Smith form -------

def rank_mod2(vectors):
    """Rank over GF(2) of 0/1 vectors given as integer bitmasks."""
    rank = 0
    vectors = [v for v in vectors if v]
    while vectors:
        pivot = vectors.pop()
        low = pivot & -pivot
        vectors = [v ^ pivot if v & low else v for v in vectors]
        vectors = [v for v in vectors if v]
        rank += 1
    return rank


def betti_gf2_oracle(c, relative_to=None):
    """Betti numbers over GF(2) from the mod-2 ranks of raw boundaries."""
    excluded = set(relative_to.simplices) if relative_to is not None else set()
    per_dim = {}
    for s in c.simplices:
        if s not in excluded:
            per_dim.setdefault(len(s) - 1, []).append(s)
    rank = [0] * (c.dim + 2)
    for k in range(1, c.dim + 1):
        bit = {s: 1 << i for i, s in enumerate(per_dim.get(k - 1, []))}
        rank[k] = rank_mod2(
            sum(bit.get(s[:i] + s[i + 1:], 0) for i in range(len(s)))
            for s in per_dim.get(k, []))
    return tuple(len(per_dim.get(k, [])) - rank[k] - rank[k + 1]
                 for k in range(c.dim + 1))


def wrapped_disk(n, k=3):
    """A disk whose boundary of n*k edges wraps n times onto a k-cycle.

    The boundary ring b, an inner ring a and a centre are glued by quotient
    along the first boundary arc, so H_1 = Z/n and H_2 = 0.
    """
    m = n * k
    b = list(range(m))
    a = [m + i for i in range(m)]
    tris = []
    for i in range(m):
        j = (i + 1) % m
        tris += [(b[i], b[j], a[i]), (b[j], a[i], a[j]), (a[i], a[j], 2 * m)]
    disk = build_complex(tris)

    def edge(u, v):
        return [(u,), (v,), tuple(sorted((u, v)))]

    pairs = [([(b[k],)], [(b[0],)], {b[k]: b[0]})]
    for i in range(k, m):
        j = (i + 1) % m
        t = i % k
        pairs.append((edge(b[i], b[j]), edge(b[t], b[t + 1]),
                      {b[i]: b[t], b[j]: b[t + 1]}))
    return quotient(disk, pairs).complex


def test_gf2_betti_matches_dense_mod2_oracle():
    rng = random.Random(48)
    pairs = 0
    for _ in range(60):
        c = random_complex(rng)
        if c.dim < 0:
            continue
        assert betti(c, "z2").ranks == betti_gf2_oracle(c)
        sub_gens = [s for s in c.facets() if rng.random() < 0.4]
        if sub_gens:
            sub = c.subcomplex(sub_gens)
            assert betti(c, "z2", relative_to=sub).ranks == \
                betti_gf2_oracle(c, relative_to=sub)
            pairs += 1
    assert pairs >= 20


@pytest.mark.parametrize("n, gf2_ranks", [(3, (1, 0, 0)), (4, (1, 1, 1))],
                         ids=["Z3", "Z4"])
def test_gf2_betti_counts_only_even_torsion(n, gf2_ranks):
    x = wrapped_disk(n)
    assert betti_oracle(x) == ((1, 0, 0), ((), (n,), ()))
    assert betti(x, "z").torsion == ((), (n,), ())
    assert betti_gf2_oracle(x) == gf2_ranks
    assert betti(x, "z2").ranks == gf2_ranks


# --- coreduction: the critical cells against the oracles ------------------

def components(c):
    """Connected components of the 1-skeleton, by depth-first search."""
    nbrs = {v: set() for v in c.vertices}
    for u, w in c.k_simplices(1):
        nbrs[u].add(w)
        nbrs[w].add(u)
    seen, count = set(), 0
    for v in nbrs:
        if v not in seen:
            count += 1
            stack = [v]
            seen.add(v)
            while stack:
                for w in nbrs[stack.pop()] - seen:
                    seen.add(w)
                    stack.append(w)
    return count


def critical_counts(c):
    """Critical cells per dimension left by coreduction, less the one 0-cell
    it keeps per component."""
    counts = [len(cells) for cells in _morse_core(c, [])]
    counts[0] -= components(c)
    return counts


def assert_matches_oracles(c, relative_to=None):
    ranks, torsion = betti_oracle(c, relative_to)
    bz = betti(c, "z", relative_to=relative_to)
    assert bz.ranks == ranks
    assert bz.torsion == tuple(tuple(sorted(t)) for t in torsion)
    assert betti(c, "z2", relative_to=relative_to).ranks == \
        betti_gf2_oracle(c, relative_to)


@pytest.mark.parametrize("n", range(2, 7))
def test_coreduction_matches_oracles_on_wrapped_disks(n):
    x = wrapped_disk(n)
    circle = build_complex([(0, 1), (1, 2), (0, 2)])  # the 3-cycle wrapped onto
    assert circle.simplices <= x.simplices
    assert critical_counts(x) == [0, 1, 1]
    assert_matches_oracles(x)
    assert_matches_oracles(x, relative_to=circle)
    assert betti(x, "z", relative_to=circle).ranks == (0, 0, 1)


@pytest.mark.parametrize("name", ["genus2", "house"])
def test_coreduction_matches_oracles_with_aces_in_several_degrees(name):
    c = (genus_surface(2) if name == "genus2" else house_with_two_rooms()).complex
    assert sum(1 for k in critical_counts(c) if k) >= 2
    assert_matches_oracles(c)


@pytest.mark.parametrize("name, size", [
    ("torus3", 7), ("genus3", 7), ("example1", 42), ("example2", 1960)])
def test_morse_core_has_reduced_betti_sum_cells(name, size):
    c = {"torus3": lambda: flat_torus3(3),
         "genus3": lambda: genus_surface(3),
         "example1": lambda: example_complex("example1"),
         "example2": lambda: example_complex("example2")}[name]().complex
    assert sum(critical_counts(c)) == size == sum(betti(c).ranks) - 1


def test_morse_core_keeps_one_boundaryless_vertex_per_component():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(1, 14)
        c = build_complex([tuple(rng.sample(range(n), rng.randint(1, min(4, n))))
                           for _ in range(rng.randint(1, 9))])
        core = _morse_core(c, [])
        assert len(core[0]) == components(c)
        assert all(not d for k in core[:2] for d in k.values())
        # the Morse boundaries compose to zero
        for lower, upper in zip(core, core[1:]):
            for bd in upper.values():
                total = {}
                for x, v in bd.items():
                    for y, w in lower[x].items():
                        total[y] = total.get(y, 0) + v * w
                assert not any(total.values())


def test_morse_core_of_house_is_small():
    assert sum(critical_counts(house_with_two_rooms().complex)) <= 4


def disjoint_copies(c, n):
    """n disjoint copies of the complex, on shifted vertex ids."""
    shift = max(c.vertices) + 1
    return build_complex([tuple(v + i * shift for v in s)
                          for i in range(n) for s in c.facets()])


def test_first_ace_round_memory_is_bounded_by_the_1_skeleton():
    """With nothing excluded, the first ace round labels the components of
    the 1-skeleton, not of every cell: betti of 30 disjoint houses (11,970
    cells, index built) peaks at about 1.1 MB of traced allocations, against
    1.7 MB when that round labels the whole complex."""
    c = disjoint_copies(house_with_two_rooms().complex, 30)
    expected = betti(c)
    tracemalloc.start()
    try:
        assert betti(c) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert expected.ranks == (30, 0, 0)
    assert peak <= 1400 * 1024


def test_later_ace_rounds_memory_is_bounded():
    """Ace rounds after the first build their edges one face column at a
    time as int32 positions: betti of 20 disjoint flat 3-tori (14,040
    cells, index built) peaks at about 0.85 MB of traced allocations,
    against 1.6 MB when a round gathered its working cells' face rows."""
    c = disjoint_copies(flat_torus3(3).complex, 20)
    expected = betti(c)
    tracemalloc.start()
    try:
        assert betti(c) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(c) == 14040 and expected.ranks == (20, 60, 60, 20)
    assert peak <= 1100 * 1024


def test_component_minima_equals_the_union_find_oracle():
    """On random complexes with random working masks (not face-closed),
    none, all cells and the 1-skeleton, the least cell of each component
    is the union-find's, as int64 ids in ascending order."""
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(1, 10)
        c = build_complex([tuple(rng.sample(range(n), rng.randint(1, min(5, n))))
                           for _ in range(rng.randint(1, 12))])
        idx, cells = c.index, np.arange(len(c) + 1)
        p = rng.random()
        masks = [np.array([rng.random() < p for _ in range(len(c))] + [False]),
                 cells < 0, cells < len(c), cells < idx.offsets[:3][-1]]
        for working in masks:
            got = homology._component_minima(idx.faces, working)
            assert got.dtype == np.int64
            assert np.array_equal(got, homology_oracle.union_find_minima(idx.faces, working))


def test_component_minima_names_a_cell_count_past_int32():
    """2**31 cells and their padding row do not fit int32 positions; a
    zero-stride mask has that length without allocating it."""
    working = np.broadcast_to(np.False_, (2**31 + 1,))
    with pytest.raises(PfcError, match=r"^2147483648 cells are too many"):
        homology._component_minima(np.zeros((1, 1), np.int64), working)


def test_disjoint_projective_planes_carry_torsion_in_every_copy():
    rp2 = build_complex([
        (0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 3, 4), (0, 3, 5),
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 3, 5), (2, 4, 5)])
    c = disjoint_copies(rp2, 5)
    assert betti_oracle(c) == ((5, 0, 0), ((), (2,) * 5, ()))
    assert_matches_oracles(c)
    assert betti(c, "z").torsion == ((), (2,) * 5, ())
    assert betti(c, "z2").ranks == (5, 5, 5)


def test_disjoint_houses_reduce_through_unit_pivots_at_scale():
    c = disjoint_copies(house_with_two_rooms().complex, 30)
    assert sum(1 for d in _morse_core(c, [])[2].values() if d) == 60
    assert betti(c, "z").ranks == (30, 0, 0)
    assert betti(c, "z").torsion == ((), (), ())
    assert betti(c, "z2").ranks == (30, 0, 0)


RP2 = [(0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 3, 4), (0, 3, 5),
       (1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 3, 5), (2, 4, 5)]


def oracle_cases():
    """(complex, excluded cell ids): the named builders with nothing
    excluded, then 300 random complexes, each whole and with a random
    subcomplex excluded."""
    named = [example_complex("example1"), house_with_two_rooms(), genus_surface(3),
             flat_torus3(3), free_group_complex(8)]
    cases = [(x.complex, []) for x in named]
    cases.append((disjoint_copies(build_complex(RP2), 5), []))
    cases += [(wrapped_disk(n), []) for n in range(2, 7)]
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 9)
        c = build_complex([tuple(rng.sample(range(n), rng.randint(1, min(5, n))))
                           for _ in range(rng.randint(1, 12))])
        sub = c.subcomplex(rng.sample(c.cells, rng.randint(0, len(c.cells))))
        cases += [(c, []), (c, c._ids(sub.cells, PfcError))]
    return cases


def assert_core_equals_oracle(c, excluded):
    core = _morse_core(c, excluded)
    want = homology_oracle._morse_core(c, excluded)
    assert [sorted(d) for d in core] == [sorted(d) for d in want]
    assert core == want
    assert {type(v) for d in core for bd in d.values() for v in bd.values()} <= {int}


def test_morse_core_equals_the_round_loop_oracle():
    """The frontier rounds with int64 coefficients give the critical cells
    and Morse boundaries of the loop that scanned every cell each round."""
    for c, excluded in oracle_cases():
        assert_core_equals_oracle(c, excluded)


def test_morse_core_python_int_fallback_is_exact(monkeypatch):
    """With the int64 bound at 1 every coefficient is summed as a Python int
    after the first spread, and the core and the torsion stay the same."""
    monkeypatch.setattr(homology, "_EXACT", 1)
    for c, excluded in oracle_cases()[:11]:
        assert_core_equals_oracle(c, excluded)
    c = disjoint_copies(build_complex(RP2), 5)
    assert betti(c, "z").torsion == ((), (2,) * 5, ())
    assert betti(c, "z2").ranks == (5, 5, 5)


def doubling_telescope(k):
    """A disk on a 3-gon, then k times a collar from the last 3-gon onto a
    6-gon and the mapping cylinder of the 6-gon wrapping twice around a new
    3-gon, so H_1 = Z/2**k.  Ids count down from the disk, so coreduction
    starts at the last 3-gon and leaves one critical cell per degree, with
    the coefficient +-2**k."""
    tris, a, top = [], [1, 2, 3], 4
    tris += [(0, a[0], a[1]), (0, a[1], a[2]), (0, a[0], a[2])]
    for _ in range(k):
        b, new = list(range(top, top + 6)), [top + 6, top + 7, top + 8]
        top += 9
        for m in range(3):
            tris += [(a[m], b[2 * m], b[2 * m + 1]), (a[m], b[2 * m + 1], a[(m + 1) % 3]),
                     (a[(m + 1) % 3], b[2 * m + 1], b[(2 * m + 2) % 6])]
        for j in range(6):
            tris += [(b[j], b[(j + 1) % 6], new[(j + 1) % 3]), (b[j], new[j % 3], new[(j + 1) % 3])]
        a = new
    return build_complex([tuple(top - 1 - v for v in t) for t in tris])


def test_morse_core_coefficients_past_int64_stay_exact():
    """The telescope's one Morse coefficient, 2**70, passes the int64 bound
    and then int64 itself, so only the Python-int fallback gets it right."""
    assert betti_oracle(doubling_telescope(3)) == ((1, 0, 0), ((), (8,), ()))
    c = doubling_telescope(70)
    assert_core_equals_oracle(c, [])
    core = _morse_core(c, [])
    assert [len(d) for d in core] == [1, 1, 1]
    assert [abs(v) for bd in core[2].values() for v in bd.values()] == [2**70]
    assert betti(c, "z").torsion == ((), (2**70,), ())
    assert betti(c, "z2").ranks == (1, 1, 1)


def test_relative_containment_error():
    c = build_complex([(0, 1, 2)])
    other = build_complex([(5, 6)])
    with pytest.raises(PfcError, match=r"relative subcomplex contains "
                                       r"\(5,\), not in complex"):
        betti(c, "z", relative_to=other)


def test_solid_chain_check_names_the_first_marked_cell_outside():
    c = build_complex([(0, 1, 2, 3)])
    with pytest.raises(PfcError, match=r"^marked subcomplex contains \(5,\), not in complex$"):
        solid_chain_check(c, build_complex([(6, 7), (2, 3), (5, 6)]))


def test_sparse_elimination_matches_dense_smith_on_random_matrices():
    from pfcomplex.homology import _diagonal, _normalize_factors

    assert _normalize_factors([2, 3]) == (6,)
    rng = random.Random(99)
    matrices = [
        # diag(2, 3) has Smith form diag(1, 6): the unit must not count as
        # torsion
        [[2, 0], [0, 3]],
        # rank 1, no torsion: the pivot 2 is recorded only after the row
        # step has reduced the 3 below it
        [[2], [3]],
        # the column step leaves a remainder 1, which becomes the next pivot
        [[2, 3]],
        # rank 1 with invariant factor 1, reached only by Euclidean steps
        [[4, 6], [6, 9]],
    ]
    for _ in range(60):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        matrices.append([[rng.choice((0, 0, 0, 1, -1, 2, -2, 3))
                          for _ in range(cols)] for _ in range(rows)])
    for m in matrices:
        rows, cols = len(m), len(m[0])
        columns = {}
        for j in range(cols):
            col = {i: m[i][j] for i in range(rows) if m[i][j]}
            if col:
                columns[(j,)] = col
        entries = _diagonal(columns)
        got_rank = len(entries)
        got_torsion = _normalize_factors(entries)
        diag = dense_smith_diagonal(m)
        assert got_rank == len(diag)
        assert got_torsion == tuple(sorted(x for x in diag if x > 1))
        # the GF(2) rank is the number of odd entries of any diagonal form
        assert sum(x % 2 for x in entries) == sum(x % 2 for x in diag)


def test_long_exact_sequence_euler_identity():
    rng = random.Random(47)
    for _ in range(12):
        c = random_complex(rng)
        if c.dim < 1:
            continue
        sub_gens = [s for s in c.facets() if rng.random() < 0.5]
        if not sub_gens:
            continue
        sub = c.subcomplex(sub_gens)
        b_pair = betti(c, "z2", relative_to=sub)
        b_c = betti(c, "z2")
        b_sub = betti(sub, "z2")
        # exactness forces the alternating sums to cancel and each relative
        # rank to be bounded by its two neighbours in the sequence
        assert b_pair.euler() == b_c.euler() - b_sub.euler()
        for k in range(len(b_pair.ranks)):
            bound = b_c.ranks[k] if k < len(b_c.ranks) else 0
            if 0 <= k - 1 < len(b_sub.ranks):
                bound += b_sub.ranks[k - 1]
            assert b_pair.ranks[k] <= bound


# --- local homology --------------------------------------------------------

def test_local_homology_interior_torus_vertex():
    t3 = flat_torus3(3)
    lh = local_homology(t3.complex, 0)
    assert lh.ranks == (0, 0, 1)
    assert lh.reduced


def test_local_homology_delta3_vertex():
    c = build_complex([(0, 1, 2, 3)])
    assert local_homology(c, 0).ranks == (0, 0, 0)


# --- the top-chain certificate ---------------------------------------------

def test_solid_chain_boundary_not_supported():
    c = build_complex([(0, 1, 2, 3)])
    b = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    report = solid_chain_check(c, b)
    items = {i.location: i for i in report.items}
    assert items["boundary-supported-in-subcomplex"].measured is False
    assert items["boundary-supported-in-subcomplex"].witness == (1, 2, 3)
    assert report.verdict == "contradiction"  # has a 3-simplex, pair b3 = 0


def test_solid_chain_relative_cycle_nonzero():
    c = build_complex([(0, 1, 2, 3)])
    b = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    report = solid_chain_check(c, b)
    items = {i.location: i for i in report.items}
    assert items["boundary-supported-in-subcomplex"].measured is True
    assert items["relative-class-nonzero"].measured is True
    assert items["relative-b3"].measured == 1
    assert report.verdict == "pass"


def test_solid_chain_two_dimensional_trivial():
    c = build_complex([(0, 1, 2), (1, 2, 3)])
    report = solid_chain_check(c, build_complex([(0, 1)]))
    items = {i.location: i for i in report.items}
    assert items["has-3-simplex"].measured is False
    assert items["relative-class-nonzero"].measured is False
    assert report.verdict == "pass"


def test_solid_chain_house_in_box():
    from pfcomplex import box_complex

    house = house_with_two_rooms()
    box = box_complex(4, 3, 2)
    report = solid_chain_check(box.complex, house.complex)
    assert report.verdict == "contradiction"
    items = {i.location: i for i in report.items}
    assert items["relative-b3"].measured == 0
    assert items["has-3-simplex"].measured is True
