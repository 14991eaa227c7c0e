"""
Compact flat 2-complexes with free fundamental group, and free-face
elimination by self-identification.

A flat cylinder of circumference one absorbs a wrapped interior segment
into its bottom circle and covers its top circle with further interior
segments; the result has no free faces and first homology of rank n (the
rank-2 case uses a Moebius band instead).  Separately, `gcify` removes the
free faces of an arbitrary complex by gluing them isometrically elsewhere
(each gluing within one component adds exactly one loop) and collapsing
whatever remains; the reported count N is certified by the homology rank
afterwards.
"""

from pfcomplex import (
    betti,
    euler_characteristic,
    extendability_check,
    free_faces,
    free_group_complex,
    gcify,
    simplex_complex,
)

for n in (2, 3, 5):
    fc = free_group_complex(n)
    b = betti(fc.complex, "z")
    print(f"rank {n}: free faces {len(free_faces(fc.complex))}, "
          f"betti {b.ranks}, chi {euler_characteristic(fc.complex)}"
          f" (expected {1 - n})")
print(f"extendability of the rank-3 complex: "
      f"{extendability_check(free_group_complex(3)).verdict}")

print("\nEliminating the free faces of a solid triangle and tetrahedron:")
for dim in (2, 3):
    res = gcify(simplex_complex(dim))
    b = betti(res.complex.complex, "z")
    print(f"  dim {dim}: N = {res.added_loops} identifications, "
          f"free faces {len(free_faces(res.complex.complex))}, "
          f"H1 rank {b.ranks[1]} (equals N: {b.ranks[1] == res.added_loops})")
    again = gcify(res.complex)
    print(f"    run again on the output: N = {again.added_loops} (fixpoint)")
