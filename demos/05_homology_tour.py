"""
A short homology tour: flat tori, torsion, relative pairs, local homology.

Under the hood coreduction first pairs each cell that has a single working
face with that face, keeping the exact boundary of the cells it leaves
critical, and those critical cells go through integer Smith reduction, so
ranks and torsion come out exact.  The pairing runs in numpy rounds that
take every ready cell at once; when none is ready, the least cell of each
connected component of the working cells becomes critical.  On the paper's
195,399-cell example2 `betti` takes about 0.2-0.3 s on a 2-core Xeon.  GF(2)
ranks follow from the integer invariant factors: each even one adds a rank
mod 2 in two adjacent degrees, as the projective plane below shows.
"""

from pfcomplex import (
    betti,
    build_complex,
    flat_torus3,
    local_homology,
    solid_chain_check,
)

t3 = flat_torus3(3)
b = betti(t3.complex, "z")
print(f"flat 3-torus: betti {b.ranks}, torsion {b.torsion}")
print(f"  local homology at a vertex (link is a 2-sphere): "
      f"{local_homology(t3.complex, 0).ranks}")

rp2 = build_complex([
    (0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 3, 4), (0, 3, 5),
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 3, 5), (2, 4, 5)])
bz, b2 = betti(rp2, "z"), betti(rp2, "z2")
print(f"\nprojective plane: Z-betti {bz.ranks} with torsion {bz.torsion}, "
      f"GF(2)-betti {b2.ranks}")

tet = build_complex([(0, 1, 2, 3)])
boundary = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
print(f"\nrelative pair (solid tetrahedron, boundary sphere): "
      f"{betti(tet, 'z', relative_to=boundary).ranks}")

report = solid_chain_check(tet, boundary)
print("top-chain certificate on that pair:")
for item in report.items:
    print(f"  {item.location}: {item.measured}")
print(f"  verdict: {report.verdict}")
