"""Combinatorial layer: closures, links, free faces, collapses, quotients."""

import random
from itertools import combinations, permutations

import numpy as np
import pytest

from pfcomplex import (
    PfcError,
    QuotientDegeneracyError,
    build_complex,
    collapse_core,
    disjoint_union,
    euler_characteristic,
    example_complex,
    flat_torus3,
    free_faces,
    free_group_complex,
    genus_surface,
    house_with_two_rooms,
    link,
    quotient,
    star,
)
from pfcomplex.builders import _far_pairs, _simplex_pair, box_complex
from pfcomplex.complexes import Complex, _groups, _row_keys, canonical_simplex, faces_of
from pfcomplex.homology import betti
from pfcomplex.pfcio import parse, serialize
from test_metric import random_generator_lists


def random_complex(rng, n_vertices=8, n_generators=6, max_dim=3):
    gens = []
    for _ in range(n_generators):
        k = rng.randint(1, max_dim + 1)
        gens.append(tuple(rng.sample(range(n_vertices), k)))
    return build_complex(gens)


def assert_canonical(c):
    """c equals the closure of its own simplices and iterates in (length,
    lex) order, as a complex built from tuples does."""
    assert c == build_complex(c.simplices)
    cells = list(c)
    assert cells == sorted(cells, key=lambda s: (len(s), s))


def test_delta3_closure_count():
    c = build_complex([(0, 1, 2, 3)])
    assert len(c) == 15
    assert c.counts() == [4, 6, 4, 1]


def test_empty_complex():
    c = build_complex([])
    assert len(c) == 0 and c.dim == -1
    assert euler_characteristic(c) == 0


def test_dim_is_computed_once_per_complex():
    c = build_complex([(0, 1, 2), (2, 3)])
    assert "dim" not in vars(c)
    assert c.dim == 2
    assert vars(c)["dim"] == 2
    assert c == build_complex([(0, 1, 2), (2, 3)])


def test_triangle_boundary():
    c = build_complex([(0, 1), (1, 2), (0, 2)])
    assert len(c) == 6
    assert c.dim == 1


def test_invalid_simplex_rejected():
    with pytest.raises(PfcError,
                       match=r"repeated vertex 1 in simplex \(0, 1, 1\)"):
        build_complex([(0, 1, 1)])


def test_closure_equals_the_union_of_faces():
    """The rows-based closure holds exactly the faces of the generators,
    on ids up to 2**63 - 1, and a bad generator raises the error that
    canonical_simplex gives the first one in input order."""
    top = 2**63 - 1
    near_top = [[(top, top - 1, 0), (top - 2, top), (5,)], [(top,)],
                [(top - 3, top - 1, top - 2, top), (0, top - 3)]]
    for gens in random_generator_lists() + near_top:
        c = build_complex(gens)
        faces = set().union(*(faces_of(canonical_simplex(g)) for g in gens))
        assert c.cells == sorted(faces, key=lambda s: (len(s), s))
        assert c.vertices == [s[0] for s in c.cells if len(s) == 1]
    rng = random.Random(11)
    for _ in range(300):
        gens = [tuple(rng.choice([0, 1, 2, 3, -1, 2**63, 10**20, top])
                      for _ in range(rng.randint(0, 3))) for _ in range(4)]
        errors = []
        for g in gens:
            try:
                canonical_simplex(g)
            except PfcError as e:
                errors.append(str(e))
        if errors:
            with pytest.raises(PfcError) as err:
                build_complex(gens)
            assert str(err.value) == errors[0]
        else:
            faces = set().union(*map(faces_of, map(canonical_simplex, gens)))
            assert build_complex(gens).simplices == faces


def test_row_keys_order_rows_as_lexsort_does():
    """One int64 key per row ascends with the rows in lexicographic order
    and is equal exactly for equal rows, also where the mixed radix is made
    dense between columns (base 2**40, five columns); _groups gives each
    distinct key's first row and each row's group, as np.unique does."""
    rng = np.random.default_rng(5)
    for base, width in [(1, 3), (3, 4), (2**40, 5)]:
        rows = rng.integers(0, base, (400, width))
        rows[200:] = rows[rng.integers(0, 200, 200)]  # repeated rows
        key = _row_keys(rows.T, base, np.empty(len(rows), np.int64))
        order = np.lexsort(rows.T[::-1])
        assert (np.diff(key[order]) >= 0).all()
        same = (rows[order][1:] == rows[order][:-1]).all(axis=1)
        assert (same == (key[order][1:] == key[order][:-1])).all()
        first, inverse = _groups(key)
        _, want_first, want_inverse = np.unique(key, return_index=True, return_inverse=True)
        assert (first == want_first).all() and (inverse == want_inverse).all()


def test_vertex_ids_are_the_callers_first_objects():
    assert {type(v) for v in box_complex(2, 2, 2).complex.vertices} == {np.int64}
    c = build_complex([(np.int64(3), 1), (3, 2)])
    assert list(map(type, c.vertices)) == [int, int, np.int64]
    with pytest.raises(PfcError, match=r"vertex id 1.5 is not an integer"):
        build_complex([(0, 1), (1.5, 0)])


def test_parse_leaves_no_membership_records():
    """parse finds its edges by one search over the edge keys, so a parsed
    complex caches no batch-membership records."""
    doc = serialize(box_complex(2, 1, 1))
    assert "_records" not in vars(parse(doc).complex)


def test_closure_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        c = random_complex(rng)
        again = build_complex(c.simplices)
        assert again.simplices == c.simplices


def test_link_of_vertex_in_delta3():
    c = build_complex([(0, 1, 2, 3)])
    lk = link(c, (0,))
    assert lk.simplices == build_complex([(1, 2, 3)]).simplices


def test_link_in_sphere_is_circle():
    c = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    lk = link(c, (0,))
    assert lk.counts() == [3, 3]
    assert euler_characteristic(lk) == 0


def test_link_example_interface_triangles():
    # three triangles pairwise sharing the edges at vertex 0: the link is a
    # 3-cycle, one node per edge at 0 and one arc per triangle
    j = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    lk = link(j, (0,))
    assert lk.counts() == [3, 3]


def test_link_requires_membership():
    c = build_complex([(0, 1, 2)])
    with pytest.raises(PfcError,
                       match=r"\(7,\) is not a simplex of the complex"):
        link(c, (7,))


def test_link_equals_the_tuple_rebuild():
    """link relabels its cofaces' rows; the complex it gives equals the one
    rebuilt from the cofaces' tuples less s: the same vertex objects, cells,
    order and rows, on the builders' complexes and every cell of each."""
    for c in [example_complex("example1").complex, house_with_two_rooms().complex,
              genus_surface(3).complex, flat_torus3(3).complex,
              free_group_complex(8).complex, box_complex(2, 1, 1).complex]:
        for s in c.cells:
            _, *cofaces = c.open_star(s)
            want = Complex(tuple(x for x in t if x not in s) for t in cofaces)
            got = link(c, s)
            assert got == want and list(got) == list(want)
            assert [type(v) for v in got.vertices] == [type(v) for v in want.vertices]
            assert all(x is y for x, y in zip(got.vertices, want.vertices))
            assert [r.tolist() for r in got.rows] == [r.tolist() for r in want.rows]


def test_star_link_duality():
    rng = random.Random(21)
    for _ in range(10):
        c = random_complex(rng)
        for v in c.vertices:
            st = star(c, (v,))
            lk = link(c, (v,))
            rebuilt = set(lk.simplices)
            for t in lk.simplices:
                rebuilt.add(canonical_simplex(t + (v,)))
            rebuilt.add((v,))
            assert rebuilt == set(st.simplices)


def test_free_faces_of_solid_triangle():
    c = build_complex([(0, 1, 2)])
    pairs = free_faces(c)
    assert [p.face for p in pairs] == [(0, 1), (0, 2), (1, 2)]
    assert all(p.coface == (0, 1, 2) for p in pairs)


def test_collapse_solid_triangle_to_point():
    core, steps = collapse_core(build_complex([(0, 1, 2)]))
    assert len(core) == 1
    assert steps == 3


def test_collapse_preserves_euler():
    rng = random.Random(3)
    for _ in range(20):
        c = random_complex(rng)
        core, _ = collapse_core(c)
        assert euler_characteristic(core) == euler_characteristic(c)
        assert not free_faces(core)


def rescan_collapse(c):
    """Reference collapse: rescan every simplex for the smallest free face
    before each step."""
    cofaces = {s: [] for s in c.simplices}
    for t in c.simplices:
        for f in combinations(t, len(t) - 1):
            if f:
                cofaces[f].append(t)
    steps = 0
    while True:
        frees = [(len(f), f) for f, ts in cofaces.items() if len(ts) == 1]
        if not frees:
            return frozenset(cofaces), steps
        _, f = min(frees)
        t = cofaces[f][0]
        for dead in (f, t):
            cofaces.pop(dead, None)
        for dead in (f, t):
            if len(dead) < 2:
                continue
            for sub in combinations(dead, len(dead) - 1):
                if sub in cofaces:
                    cofaces[sub] = [x for x in cofaces[sub] if x != dead]
        steps += 1


def test_collapse_matches_rescan_reference():
    rng = random.Random(5)
    cases = [random_complex(rng, n_vertices=9, n_generators=8) for _ in range(60)]
    cases += [box_complex(*dims).complex for dims in [(1, 1, 1), (2, 2, 1), (3, 2, 2)]]
    for c in cases:
        core, steps = collapse_core(c)
        assert (core.simplices, steps) == rescan_collapse(c)
        # the core keeps the input's own simplex objects
        assert {id(s) for s in core.simplices} <= {id(s) for s in c.simplices}


def test_euler_characteristic_values():
    assert euler_characteristic(build_complex([(0, 1, 2, 3)])) == 1
    sphere = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert euler_characteristic(sphere) == 2


def test_quotient_identity_pair_is_noop():
    c = build_complex([(0, 1, 2)])
    res = quotient(c, [([(0,)], [(0,)], {0: 0})])
    assert res.complex.simplices == c.simplices
    assert res.vertex_map == {v: v for v in c.vertices}


def test_quotient_strip_to_cylinder():
    # a strip of three squares; identifying its short ends gives chi = 0
    strip = build_complex([(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5),
                           (4, 5, 6), (5, 6, 7)])
    pair = ([(0,), (1,), (0, 1)], [(6,), (7,), (6, 7)], {0: 6, 1: 7})
    res = quotient(strip, [pair])
    assert euler_characteristic(res.complex) == 0
    assert len(res.complex.vertices) == 6


def test_quotients_and_unions_leave_the_cell_index_unbuilt():
    # the glued inputs of example2 are discarded at once, so indexing them
    # would cost more than the quotient itself
    strip = build_complex([(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5),
                           (4, 5, 6), (5, 6, 7)])
    quotient(strip, [([(0,), (1,), (0, 1)], [(6,), (7,), (6, 7)], {0: 6, 1: 7})])
    a, b = build_complex([(0, 1, 2)]), build_complex([(0, 1), (1, 2)])
    c = build_complex([(0, 1, 2, 3)])
    union, shifts = disjoint_union(a, b, c)
    for part in (strip, a, b, c, union):
        assert part.vertices is part.vertices  # cached, without the index
        assert "index" not in vars(part)
    assert shifts == [{0: 3, 1: 4, 2: 5}, {0: 6, 1: 7, 2: 8, 3: 9}]
    assert union.counts() == [10, 11, 5, 1]
    # a box part keeps its numpy ids, which perfbench's box digests hash
    box = box_complex(1, 1, 1).complex
    boxed, _ = disjoint_union(box, a, c)
    for u in (union, boxed):
        assert_canonical(u)
    kept = [s for s in boxed.simplices if s[0] <= box.vertices[-1]]
    assert set(kept) == box.simplices
    assert {type(v) for s in kept for v in s} == {np.int64}


def test_incidence_readers_share_one_cell_index():
    mc = box_complex(2, 1, 1)
    c = mc.complex
    serialize(mc)  # facets read the coface counts alone, so nothing is sorted
    assert "cob" not in vars(c.index)
    free_faces(c)
    idx = c.index
    arrays = idx.faces, idx.ptr, idx.cob
    collapse_core(c)
    betti(c)
    c.facets()
    assert c.index is idx
    assert all(a is b for a, b in zip((idx.faces, idx.ptr, idx.cob), arrays))


@pytest.mark.parametrize("build", [lambda: box_complex(2, 1, 1), house_with_two_rooms,
                                   lambda: flat_torus3(3), lambda: genus_surface(3)],
                         ids=["box211", "house", "torus3", "genus3"])
def test_cofaces_own_their_data(build):
    """cob is a compact array of its own, not a view of the sorted keys,
    which would keep the whole (n, dim + 1) buffer alive with the index."""
    idx = build().complex.index
    assert idx.cob.base is None
    assert len(idx.cob) == idx.ptr[-1]


def test_disjoint_union_keeps_vertex_ids_below_2_63():
    # the cell index holds vertex ids in int64 arrays
    top = build_complex([(2**63 - 2, 2**63 - 1)])
    with pytest.raises(PfcError, match=r"shifted vertex id 9223372036854775809 "
                                       r"is not below 2\*\*63"):
        disjoint_union(top, build_complex([(0, 1)]))
    union, _ = disjoint_union(build_complex([(2**63 - 3,)]), build_complex([(0, 1)]))
    assert union.counts() == [3, 1]
    # three parts: only the last one leaves the range
    first, second = build_complex([(2**63 - 6,)]), build_complex([(0, 1)])
    union, _ = disjoint_union(first, second, build_complex([(0, 1, 2)]))
    assert max(union.vertices) == 2**63 - 1
    assert_canonical(union)
    box = box_complex(1, 1, 1).complex
    union, _ = disjoint_union(box, build_complex([(2**63 - 10, 2**63 - 9)]))
    assert_canonical(union)
    assert {type(v) for s in union.simplices if s[0] <= 7 for v in s} == {np.int64}
    with pytest.raises(PfcError, match=r"shifted vertex id 9223372036854775808 "
                                       r"is not below 2\*\*63"):
        disjoint_union(first, second, build_complex([(0, 1, 2, 3)]))


def test_quotient_rejects_degenerate_map():
    c = build_complex([(0, 1, 2)])
    # folding one edge onto another across their shared vertex collapses it
    with pytest.raises(QuotientDegeneracyError,
                       match=r"simplex \(0, 1\) degenerates to \(0,\)"):
        quotient(c, [([(0,), (1,), (0, 1)], [(1,), (2,), (1, 2)],
                      {0: 1, 1: 2})])


def test_quotient_vertex_count_drops_by_merges():
    rng = random.Random(11)
    c = build_complex([(0, 1, 2), (3, 4, 5)])
    res = quotient(c, [([(0,), (1,), (0, 1)], [(3,), (4,), (3, 4)],
                        {0: 3, 1: 4})])
    assert len(res.complex.vertices) == 6 - 2


def test_quotient_validates_target_membership():
    c = build_complex([(0, 1, 2)])
    with pytest.raises(PfcError,
                       match=r"identification references \(9,\), not in"):
        quotient(c, [([(0,)], [(9,)], {0: 9})])
    # a malformed pair is named by its position, not left to unpacking
    ok = ([(0,)], [(0,)], {0: 0})
    with pytest.raises(PfcError, match=r"identification 1 is not a "
                                       r"\(source, target, map\) triple"):
        quotient(c, [ok, ((0,),)])
    with pytest.raises(PfcError, match=r"identification 0 is not a "):
        quotient(c, [None])
    with pytest.raises(PfcError, match=r"identification 0: vertex map "
                                       r"\[\(0, 0\)\] is not a mapping"):
        quotient(c, [([(0,)], [(0,)], [(0, 0)])])


def test_quotient_names_the_first_bad_pair():
    """Pairs are checked one after another, each completely: a simplex
    missing from the complex in one pair is named before a malformed later
    pair, and after a malformed earlier one."""
    c = build_complex([(0, 1, 2)])
    missing = ([(0,)], [(9,)], {0: 9})
    for bad, error, message in [
            (((0,),), PfcError, r"identification 1 is not a \(source, target, map\) triple"),
            (([(1, 1)], [(1,)], {1: 1}), PfcError, r"repeated vertex 1 in simplex \(1, 1\)"),
            (([(0,)], [(0,)], [(0, 0)]), PfcError, r"identification 1: vertex map"),
            ((5, [(0,)], {}), TypeError, r"not iterable")]:
        with pytest.raises(PfcError, match=r"^identification references \(9,\), not in complex$"):
            quotient(c, [missing, bad])
        with pytest.raises(error, match=message.replace("identification 1", "identification 0")):
            quotient(c, [bad, missing])
    # within a pair, sources come before targets, each in the given order
    with pytest.raises(PfcError, match=r"references \(7,\), not in"):
        quotient(c, [([(0,), (7,)], [(8,), (1,)], {0: 1, 7: 8})])


def test_facets():
    c = build_complex([(0, 1, 2), (2, 3)])
    assert c.facets() == [(2, 3), (0, 1, 2)]


def test_quotient_rejects_undeclared_collision():
    c = build_complex([(0, 1, 2), (1, 2, 3)])
    # merging 0 with 3 alone sends the edges (0,1) and (1,3) onto one edge
    with pytest.raises(QuotientDegeneracyError) as err:
        quotient(c, [([(0,)], [(3,)], {0: 3})])
    assert err.value.witness == ((0, 1), (1, 3))
    # declaring the whole triangle identification makes the same merge valid
    res = quotient(c, [(faces_of((0, 1, 2)), faces_of((1, 2, 3)),
                        {0: 3, 1: 1, 2: 2})])
    assert res.complex.simplices == build_complex([(0, 1, 2)]).simplices
    assert res.vertex_map == {0: 0, 1: 1, 2: 2, 3: 0}


def brute_quotient(c, pairs):
    """Global reference validator: image every simplex of c.

    Returns ((simplices, vertex_map), None) for a valid quotient, or
    (None, (witness, message)) for the first simplex in (length, lex) order
    that degenerates or shares an image with an earlier simplex that no
    declared identification relates to it.
    """
    label = {v: v for v in c.vertices}
    group = {s: s for s in c.simplices}

    def merge(table, a, b):
        keep, drop = sorted((table[a], table[b]))
        for k, x in table.items():
            if x == drop:
                table[k] = keep

    for src, _, vmap in pairs:
        for s in src:
            merge(group, s, tuple(sorted(vmap[v] for v in s)))
        for v, w in vmap.items():
            merge(label, v, w)
    owner = {}
    for s in sorted(c.simplices, key=lambda s: (len(s), s)):
        img = tuple(sorted({label[v] for v in s}))
        if len(img) != len(s):
            return None, (s, f"simplex {s} degenerates to {img} in the quotient")
        first = owner.setdefault(img, s)
        if group[first] != group[s]:
            return None, ((first, s), f"distinct simplices {first} and {s} "
                                      f"collide on {img} without being identified")
    dense = {x: i for i, x in enumerate(sorted(set(label.values())))}
    return ({tuple(dense[x] for x in img) for img in owner},
            {v: dense[label[v]] for v in c.vertices}), None


def random_simplex_pair(rng, c):
    """Faces of one random simplex onto faces of another of its dimension,
    the vertices matched in a random order."""
    a = rng.choice(sorted(c.simplices))
    b = rng.choice(c.k_simplices(len(a) - 1))
    return (faces_of(a), faces_of(b), dict(zip(a, rng.sample(b, len(b)))))


def test_quotient_matches_global_validator():
    rng = random.Random(17)
    verdicts = set()
    for _ in range(400):
        c = random_complex(rng, n_vertices=rng.randint(4, 9),
                           n_generators=rng.randint(2, 7))
        pairs = [random_simplex_pair(rng, c) for _ in range(rng.randint(1, 3))]
        expected, failure = brute_quotient(c, pairs)
        # None: valid; False: a simplex degenerates; True: two collide
        verdicts.add(failure and isinstance(failure[0][0], tuple))
        if expected is None:
            # the first failure in (length, lex) order, with its message
            with pytest.raises(QuotientDegeneracyError) as err:
                quotient(c, pairs)
            assert (err.value.witness, str(err.value)) == failure
        else:
            res = quotient(c, pairs)
            assert (set(res.complex.simplices), res.vertex_map) == expected
            assert_canonical(res.complex)
    assert verdicts == {None, False, True}


def test_gcify_distance_rule_rejects_only_inadmissible_pairs():
    # gcify skips a partner meeting the closed neighbourhood of the free face
    # and every matching that merges two vertices with a common neighbour,
    # and accepts every other matching without a further check
    rng = random.Random(43)
    verdicts = set()
    tested = 0
    while tested < 1000:
        c = random_complex(rng, n_vertices=rng.randint(5, 11),
                           n_generators=rng.randint(2, 7))
        fa = rng.choice(sorted(c.simplices))
        partners = [s for s in c.k_simplices(len(fa) - 1) if not set(s) & set(fa)]
        if not partners:
            continue
        tested += 1
        fb = rng.choice(partners)
        nbrs = {v: set() for v in c.vertices}
        for u, w in c.k_simplices(1):
            nbrs[u].add(w)
            nbrs[w].add(u)
        closed = set(fa).union(*(nbrs[v] for v in fa))
        far = _far_pairs(nbrs, fa, fb)
        for perm in permutations(fb):
            ruled_out = not closed.isdisjoint(fb) or not far.issuperset(zip(fa, perm))
            admissible = brute_quotient(c, [_simplex_pair(fa, perm)])[1] is None
            assert ruled_out != admissible, (sorted(c.simplices), fa, perm)
            verdicts.add((ruled_out, admissible))
    assert verdicts == {(True, False), (False, True)}
