"""Builders: tori, gluings, the house, free groups, gcify, genus surfaces."""

import hashlib
import io
import json
import math
import random
import re
from itertools import permutations

import numpy as np
import pytest

from pfcomplex import (
    MetricComplex,
    MetricError,
    PfcError,
    QuotientDegeneracyError,
    betti,
    box_complex,
    build_complex,
    cat0_two_complex_check,
    collapse_core,
    edge_link_graph,
    euler_characteristic,
    example1_interface_complex,
    example_complex,
    extendability_check,
    flat_torus2,
    flat_torus3,
    free_faces,
    free_group_complex,
    gauss_bonnet,
    gcify,
    genus_surface,
    girth,
    glue_double_tori,
    house_with_two_rooms,
    link_condition_check,
    local_homology,
    metric_disjoint_union,
    midpoint_subdivision,
    quotient,
    simplex_complex,
    validate_metric,
    vertex_link_graph,
)
from pfcomplex import builders, pfcio
from pfcomplex.builders import _isometric_map, _simplex_pair
from pfcomplex.cli import run_command
from pfcomplex.metric import angle_sum_at_vertex

TWO_PI = 2 * math.pi


# --- flat tori ---------------------------------------------------------------

def test_torus3_counts_and_euler():
    t3 = flat_torus3(3)
    assert t3.complex.counts() == [27, 189, 324, 162]
    assert euler_characteristic(t3.complex) == 0
    validate_metric(t3)


def test_torus3_rejects_small_grid():
    with pytest.raises(PfcError, match=r"torus grid needs m >= 3, got 2"):
        flat_torus3(2)
    for build in (flat_torus3, flat_torus2):  # a TypeError from range before
        with pytest.raises(PfcError, match=r"^m must be an integer, got 3\.5$"):
            build(3.5)


def test_torus3_rejects_singular_lattice():
    with pytest.raises(PfcError, match="lattice matrix is singular"):
        flat_torus3(3, shape=[[1, 0, 0], [0, 1, 0], [1, 1, 0]])


@pytest.mark.parametrize("build, dim", [(flat_torus2, 2), (flat_torus3, 3)])
def test_flat_torus_rejects_bad_lattice(build, dim):
    """A non-finite entry, a wrong size or an overflowing edge length is a
    PfcError, not a complex with NaN or inf lengths."""
    for bad in (math.nan, math.inf, -math.inf):
        shape = np.eye(dim)
        shape[0, 0] = bad
        with pytest.raises(PfcError, match=f"finite {dim}x{dim} matrix"):
            build(3, shape)
    with pytest.raises(PfcError, match=f"finite {dim}x{dim} matrix"):
        build(3, np.eye(5 - dim))
    with pytest.raises(PfcError, match="non-finite edge length"):
        build(3, np.eye(dim) * 1e200)


def test_torus3_betti():
    b = betti(flat_torus3(3).complex, "z")
    assert b.ranks == (1, 3, 3, 1)
    assert not any(b.torsion)


def test_torus3_edge_links_flat():
    t3 = flat_torus3(3)
    for e in t3.complex.k_simplices(1):
        g = edge_link_graph(t3, tuple(e))
        assert girth(g) == pytest.approx(TWO_PI, abs=1e-9)


def test_torus3_vertex_links_are_spheres():
    t3 = flat_torus3(3)
    for v in t3.complex.vertices:
        lh = local_homology(t3.complex, v, "z")
        assert lh.ranks == (0, 0, 1)


def test_torus2_is_flat_torus():
    t2 = flat_torus2(4)
    assert euler_characteristic(t2.complex) == 0
    assert betti(t2.complex, "z").ranks == (1, 2, 1)
    rep = cat0_two_complex_check(t2)
    assert rep.verdict == "pass"


# --- gluing double-torus blocks ----------------------------------------------

def test_glue_no_interfaces_is_identity():
    base = simplex_complex(3)
    assert glue_double_tori(base, []) is base


@pytest.mark.parametrize("marked", [(0, 1), (0, 1, 2, 3)])
def test_glue_rejects_a_marked_simplex_that_is_not_a_triangle(marked):
    with pytest.raises(PfcError, match=re.escape(
            f"marked simplex {marked} is not a triangle")):
        glue_double_tori(simplex_complex(3), [marked])


def test_glue_names_the_first_bad_marked_simplex():
    base = simplex_complex(3)
    with pytest.raises(MetricError, match=r"^marked triangle \(0, 1, 5\) not in the base complex$"):
        glue_double_tori(base, [(0, 1, 2), (0, 1, 5), (0, 1), (0, 2, 6)])
    with pytest.raises(PfcError, match=r"^marked simplex \(0, 1\) is not a triangle$"):
        glue_double_tori(base, [(0, 1, 2), (0, 1), (0, 1, 5)])


def test_double_torus_block_euler():
    # two 3-tori identified along one triangle: chi = 0 + 0 - 1
    from pfcomplex.builders import _double_torus_block

    block, interface = _double_torus_block((1.0, 1.0, 1.0), 3)
    assert euler_characteristic(block.complex) == -1
    assert len(interface) == 3
    assert tuple(sorted(interface)) in block.complex.simplices


def test_glue_example1_euler():
    x = example_complex("example1")
    assert euler_characteristic(x.complex) == 1 - 2 * 3


def test_glue_euler_additivity_randomized():
    rng = random.Random(60)
    for _ in range(4):
        base = flat_torus2(3)
        triangles = base.complex.k_simplices(2)
        chosen = rng.sample(triangles, rng.randint(1, 3))
        glued = glue_double_tori(base, chosen)
        assert euler_characteristic(glued.complex) == \
            euler_characteristic(base.complex) - 2 * len(chosen)


def test_glue_block_vertex_has_sphere_link():
    x = example_complex("example1")
    v = max(x.complex.vertices)
    assert local_homology(x.complex, v, "z").ranks == (0, 0, 1)


def test_example1_interface_complex_intrinsic():
    j = example1_interface_complex()
    g = vertex_link_graph(j, 0)
    assert girth(g) == pytest.approx(math.pi, abs=1e-9)


def test_example1_override_reshapes_apex_angles():
    j = example1_interface_complex([2 * math.pi / 3] * 3)
    assert angle_sum_at_vertex(j, 0) == pytest.approx(TWO_PI, abs=1e-9)
    validate_metric(j)


# --- the house with two rooms --------------------------------------------------

def test_house_has_no_free_faces():
    assert free_faces(house_with_two_rooms().complex) == []


def test_house_is_acyclic():
    h = house_with_two_rooms()
    assert betti(h.complex, "z").ranks == (1, 0, 0)
    assert betti(h.complex, "z2").ranks == (1, 0, 0)
    assert euler_characteristic(h.complex) == 1


def test_house_collapse_is_noop():
    h = house_with_two_rooms()
    core, steps = collapse_core(h.complex)
    assert steps == 0
    assert core.simplices == h.complex.simplices


def test_house_embeds_in_box():
    h = house_with_two_rooms()
    box = box_complex(4, 3, 2)
    for s in h.complex.simplices:
        assert s in box.complex.simplices


# --- free group complexes ------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_free_group_complex_certificates(n):
    fc = free_group_complex(n)
    validate_metric(fc)
    assert free_faces(fc.complex) == []
    b = betti(fc.complex, "z")
    assert b.ranks == (1, n, 0)
    assert not any(b.torsion)
    assert euler_characteristic(fc.complex) == 1 - n


BOX_SIZES = "box sizes must be >= 1, got nx={}, ny={}, nz={}"


@pytest.mark.parametrize("sizes, message", [
    ((0, 1, 1), BOX_SIZES.format(0, 1, 1)), ((-1, 1, 1), BOX_SIZES.format(-1, 1, 1)),
    ((2, 0, 1), BOX_SIZES.format(2, 0, 1)), ((2, 1, -3), BOX_SIZES.format(2, 1, -3)),
    ((1, 1, 1.5), "nz must be an integer, got 1.5"), ((0, "1", 1), "ny must be an integer, got '1'"),
], ids=["nx0", "nx-1", "ny0", "nz-3", "nz1.5", "ny-str"])
def test_box_complex_rejects_sizes_below_1(sizes, message):
    with pytest.raises(PfcError, match=f"^{re.escape(message)}$"):
        box_complex(*sizes)


@pytest.mark.parametrize("dim, message", [
    (-1, "simplex dimension must be >= 0, got -1"), (-5, "simplex dimension must be >= 0, got -5"),
    (2.5, "dim must be an integer, got 2.5"), (None, "dim must be an integer, got None"),
], ids=["-1", "-5", "2.5", "None"])
def test_simplex_complex_rejects_negative_dimensions(dim, message):
    with pytest.raises(PfcError, match=f"^{re.escape(message)}$"):
        simplex_complex(dim)
    assert simplex_complex(0).complex.counts() == [1]
    assert simplex_complex(np.int64(1)).complex.counts() == [2, 1]


def test_free_group_complex_rejects_small_rank():
    with pytest.raises(PfcError, match="free group rank must be >= 2, got 1"):
        free_group_complex(1)
    with pytest.raises(PfcError, match=r"^n must be an integer, got 2\.5$"):
        free_group_complex(2.5)


def test_free_group_complex_extendable():
    rep = extendability_check(free_group_complex(3))
    assert rep.verdict == "pass"


# --- gcify ---------------------------------------------------------------------

def test_gcify_fixpoint_on_house():
    h = house_with_two_rooms()
    res = gcify(h)
    assert res.added_loops == 0
    assert res.complex is h


def test_gcify_delta2():
    res = gcify(simplex_complex(2))
    assert res.added_loops >= 1
    assert free_faces(res.complex.complex) == []
    b = betti(res.complex.complex, "z")
    assert b.ranks[1] == res.added_loops
    assert not any(b.torsion)
    validate_metric(res.complex)


def test_gcify_delta3():
    res = gcify(simplex_complex(3))
    assert res.added_loops >= 1
    assert free_faces(res.complex.complex) == []
    b = betti(res.complex.complex, "z")
    assert b.ranks[1] == res.added_loops
    validate_metric(res.complex)


def test_gcify_box211():
    res = gcify(box_complex(2, 1, 1))
    assert res.added_loops >= 1
    assert free_faces(res.complex.complex) == []
    b = betti(res.complex.complex, "z")
    assert b.ranks[1] == res.added_loops
    validate_metric(res.complex)


def test_gcify_idempotent():
    out = gcify(simplex_complex(2)).complex
    again = gcify(out)
    assert again.added_loops == 0
    assert again.complex is out


def test_gcify_counts_no_loop_for_a_component_merge():
    # an identification between two components merges them (b0 falls by
    # one) and adds no loop, so b1 rises by exactly added_loops
    pool = [lambda: simplex_complex(1), lambda: simplex_complex(2),
            lambda: simplex_complex(3), lambda: box_complex(1, 1, 1),
            lambda: box_complex(2, 1, 1), lambda: flat_torus2(3)]
    cases = [((simplex_complex(2), simplex_complex(2)), 0),
             ((simplex_complex(3), simplex_complex(3)), 0),
             ((box_complex(1, 1, 1), simplex_complex(3)), 2)]
    rng = random.Random(29)
    cases += [(tuple(rng.choice(pool)() for _ in range(rng.randint(2, 3))), None)
              for _ in range(12)]
    for parts, loops in cases:
        mc = metric_disjoint_union(*parts)[0]
        res = gcify(mc)
        assert free_faces(res.complex.complex) == []
        before, after = betti(mc.complex).ranks, betti(res.complex.complex).ranks
        width = max(len(before), len(after))
        before, after = (r + (0,) * (width - len(r)) for r in (before, after))
        assert after[1] - before[1] == res.added_loops
        assert after[2:] == before[2:]
        assert 1 <= after[0] <= before[0]
        if loops is not None:
            assert res.added_loops == loops


# The candidate search that the 1-skeleton distance rule replaced, kept as a
# reference: it enumerates every permutation of every partner and lets a
# whole-complex quotient reject them.

def identification_batch_oracle(mc, frees):
    """A maximal set of independent isometric identifications of free faces.

    A free face may glue onto another free face (both stop being free) or
    onto any disjoint isometric simplex elsewhere in the complex, whose
    cofaces it then shares.  Least-entangled free faces go first; partners
    disjoint from the face's whole closed neighborhood are preferred; each
    candidate must be accepted by the quotient of the whole complex, and
    accepted identifications claim their affected vertices so the batch
    members cannot interact.
    """
    nbrs = {v: set() for v in mc.complex.vertices}
    for u, v in mc.complex.k_simplices(1):
        nbrs[u].add(v)
        nbrs[v].add(u)

    def length_key(s):
        if len(s) == 1:
            return (len(s),)
        return (len(s),) + tuple(round(l, 9)
                                 for l in sorted(mc.simplex_lengths(s)))

    def pollution(s):
        return sum(len(nbrs[v]) for v in s)

    free_set = {p.face for p in frees}
    by_key = {}
    for s in mc.complex.simplices:
        by_key.setdefault(length_key(s), []).append(s)
    for group in by_key.values():
        # least-entangled partners first, free or not: fresh free pieces can
        # absorb each other, saving the interior supply for the rest
        group.sort(key=lambda s: (pollution(s), s in free_set, s))

    claimed = set()
    batch = []
    for fa in sorted(free_set, key=lambda s: (len(s), pollution(s), s)):
        if set(fa) & claimed:
            continue
        closed = set(fa)
        for v in fa:
            closed |= nbrs[v]
        group = by_key.get(length_key(fa), ())
        clean = [s for s in group if s != fa and not (set(s) & closed)]
        risky = [s for s in group
                 if s != fa and (set(s) & closed) and not (set(s) & set(fa))]
        found = None
        for fb in (clean + risky)[:80]:
            if set(fb) & claimed:
                continue
            for perm in permutations(fb):
                # merging adjacent vertices degenerates their edge
                if any(w in nbrs[v] for v, w in zip(fa, perm)):
                    continue
                if not _isometric_map(mc, fa, perm):
                    continue
                try:
                    quotient(mc.complex, [_simplex_pair(fa, perm)])
                except QuotientDegeneracyError:
                    continue
                found = perm
                break
            if found:
                break
        if found is None:
            continue
        batch.append(_simplex_pair(fa, found))
        claimed |= set(fa) | set(found)
    return batch


@pytest.mark.parametrize("name", ["simplex2", "simplex3", "box211"])
def test_identification_batch_matches_unfiltered_search(name, monkeypatch):
    mc = {"simplex2": lambda: simplex_complex(2),
          "simplex3": lambda: simplex_complex(3),
          "box211": lambda: box_complex(2, 1, 1)}[name]()
    batch_of = builders._identification_batch
    rounds = []

    def compared(work, frees):
        batch = batch_of(work, frees)
        assert batch == identification_batch_oracle(work, frees)
        rounds.append(len(batch))
        return batch

    monkeypatch.setattr(builders, "_identification_batch", compared)
    gcify(mc)
    assert len(rounds) >= 2 and any(rounds)


@pytest.mark.parametrize("name, digest", [
    ("simplex3", "29c54bf77a0eb671ba315fe4d67c8e5fb52483daf5e75343608a9ec4e19c5b03"),
    ("box211", "61c330de90d9ace1516eb9d675680df01847e3c8eba65a4737e44ba57f2af7a6"),
], ids=["simplex3", "box211"])
def test_build_gcify_bytes_are_pinned(name, digest, tmp_path):
    mc = simplex_complex(3) if name == "simplex3" else box_complex(2, 1, 1)
    path = tmp_path / f"{name}.pfc"
    path.write_text(pfcio.serialize(mc), encoding="utf-8")
    out = io.StringIO()
    assert run_command(["build", "gcify", str(path)], out) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest


def glued_torus2():
    """flat_torus2(3) with double-torus blocks on three of its triangles."""
    base = flat_torus2(3)
    t = base.complex.k_simplices(2)
    return glue_double_tori(base, [t[0], t[5], t[11]])


def library_digest(mc):
    """sha256 of the simplices and lengths with plain int vertex ids, so the
    digest reads the same whatever integer type the ids have."""
    simplices = sorted((tuple(int(v) for v in s) for s in mc.complex.simplices),
                       key=lambda s: (len(s), s))
    lengths = sorted((tuple(int(v) for v in e), l)
                     for e, l in mc.lengths.items())
    text = repr(simplices) + repr(lengths)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("build, digest", [
    (lambda: flat_torus2(5, [[1, .3], [0, 1.2]]),
     "378e2d9063b4c407c3f55fae0c5375cdfa5d0a10ce84da6c8a6502e9b737882c"),
    (lambda: flat_torus3(3, [[1, .2, 0], [0, 1, .1], [0, 0, .9]]),
     "35999a32f44f5531de81d019267a5248af666ba971c32c0526eaa34c1424b622"),
    (lambda: box_complex(4, 3, 2),
     "5119eb8bc96165c4afb30b48205c9c5cba5a7b32d8cdfa2db75ff2ef387551ec"),
    (lambda: midpoint_subdivision(box_complex(2, 1, 1)),
     "96a7fae6151228c9f75f75c3cc1641c1a323d6060e8ad5e8301f6f7b02300374"),
    (lambda: midpoint_subdivision(simplex_complex(3)),
     "da8df5c2558c63d0476f7a87a8f66bf6a4f919c1bcc3bb7ff8e25d2032975dd0"),
    (glued_torus2,
     "177d6f7a10188585dc38133db788c642b5f92b1a8da3e9e6d0cf297ed9773c33"),
], ids=["torus2", "torus3", "box432", "subdivided-box211",
        "subdivided-simplex3", "glued-torus2"])
def test_library_builders_are_pinned(build, digest):
    """Builders without a `pfc build` target keep their simplices and
    lengths, as captured before the builders shared one Freudenthal grid
    and before the gluing went through one n-ary disjoint union."""
    assert library_digest(build()) == digest


@pytest.mark.parametrize("build", [
    lambda: flat_torus3(3), lambda: flat_torus2(3), house_with_two_rooms,
    lambda: free_group_complex(3), lambda: genus_surface(2),
], ids=["torus3", "torus2", "house", "freegroup3", "genus2"])
def test_builder_vertex_ids_are_plain_ints(build):
    """Vertex ids serialise as JSON.  box_complex is left out: its ids stay
    numpy integers until the benchmark digests ids by value (ROADMAP item 2)."""
    c = build().complex
    json.dumps(sorted(c.simplices, key=lambda s: (len(s), s)))


# --- midpoint subdivision --------------------------------------------------------

def test_midpoint_subdivision_counts():
    d3 = simplex_complex(3)
    s = midpoint_subdivision(d3)
    assert len(s.complex.k_simplices(3)) == 8
    assert euler_characteristic(s.complex) == 1
    validate_metric(s)


def test_midpoint_subdivision_preserves_homology():
    t2 = flat_torus2(3)
    s = midpoint_subdivision(t2)
    assert betti(s.complex, "z").ranks == betti(t2.complex, "z").ranks
    validate_metric(s)
    lhs, rhs = gauss_bonnet(s)
    assert abs(lhs - rhs) <= 1e-6
    assert lhs == pytest.approx(0.0, abs=1e-9)


# --- genus surfaces ---------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_genus_surface_before_identification(n):
    y = genus_surface(n, identify_segments=False)
    validate_metric(y)
    assert euler_characteristic(y.complex) == 2 - 2 * n
    lhs, rhs = gauss_bonnet(y)
    assert abs(lhs - rhs) <= 1e-6
    assert lhs == pytest.approx(TWO_PI * (2 - 2 * n), abs=1e-6)
    sums = {round(angle_sum_at_vertex(y, v), 6) for v in y.complex.vertices}
    assert round(TWO_PI * (2 * n - 1), 6) in sums


def test_genus_surface_identified_certificates():
    z = genus_surface(2)
    validate_metric(z)
    assert free_faces(z.complex) == []
    counts = {}
    for t in z.complex.k_simplices(2):
        for i in range(3):
            e = t[:i] + t[i + 1:]
            counts[e] = counts.get(e, 0) + 1
    assert max(counts.values()) == 4  # the merged segment: not a surface
    assert sorted(counts.values()).count(4) == 1
    assert cat0_two_complex_check(z).verdict == "pass"
    assert extendability_check(z).verdict == "pass"


@pytest.mark.parametrize("n", [2, 3])
def test_npc_surface_with_fins_collapses_to_an_extendable_core(n):
    # the paper's positive case for 2-complexes (Bridson-Haefliger p. 208):
    # collapsing the free faces of an npc 2-complex leaves a geodesically
    # complete npc subcomplex.  A fin is an equilateral triangle on a
    # surface edge and a new vertex; its link arcs hang off the link
    # circles, so the link condition still holds, and its two free edges
    # collapse away.
    y = genus_surface(n, identify_segments=False)
    rng = random.Random(n)
    tris, lengths = list(y.complex), dict(y.lengths)
    for w, (u, v) in enumerate(rng.sample(y.complex.k_simplices(1), 5),
                               start=y.complex.vertices[-1] + 1):
        tris.append((u, v, w))
        lengths[(u, w)] = lengths[(v, w)] = y.lengths[(u, v)]
    finned = MetricComplex(build_complex(tris), lengths)
    validate_metric(finned)
    assert link_condition_check(finned).verdict == "pass"
    core, steps = collapse_core(finned.complex)
    assert steps == 10 and core == y.complex
    assert extendability_check(finned.restrict(core)).verdict == "pass"


def test_genus_surface_rejects_small_genus():
    with pytest.raises(PfcError, match="genus must be >= 2, got 1"):
        genus_surface(1)
    with pytest.raises(PfcError, match="^n must be an integer, got 'a'$"):
        genus_surface("a")  # a TypeError from the comparison before


# --- example 2 ---------------------------------------------------------------------

def test_example2_certificates():
    x = example_complex("example2")
    house = house_with_two_rooms()
    r = len(house.complex.k_simplices(2))
    box = box_complex(4, 3, 2)
    assert euler_characteristic(x.complex) == \
        euler_characteristic(box.complex) - 2 * r
    b = betti(x.complex, "z")
    assert b.ranks[3] == 2 * r
    assert b.ranks[1] == b.ranks[2] == 3 * 2 * r  # wedge of 2r three-tori
    # a vertex deep inside some torus copy has a 2-sphere link
    v = max(x.complex.vertices)
    assert local_homology(x.complex, v, "z").ranks == (0, 0, 1)
    # simplices and lengths as built before the gluing used one n-ary union
    assert library_digest(x) == \
        "e3d8acda23fc5010493abf3a12c14988e35675c9609e9fb8d8469dac3b201d49"
