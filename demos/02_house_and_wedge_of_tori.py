"""
The house with two rooms and the second counterexample.

The house is contractible yet has no free faces, so it cannot be collapsed
at all.  Gluing a double-torus block to a solid box along every triangle of
the embedded house produces a complex whose third homology has rank 2r
(one rank per torus copy, two copies per block): homotopically a wedge of
2r three-dimensional tori.  The top-chain certificate shows why no
free-face-free 3-dimensional core can exist relative to the house: the box
has 3-cells while the relative b3 vanishes.
"""

from pfcomplex import (
    betti,
    box_complex,
    collapse_core,
    euler_characteristic,
    free_faces,
    house_with_two_rooms,
    solid_chain_check,
)

house = house_with_two_rooms()
print("Bing's house with two rooms:")
print(f"  counts by dimension: {house.complex.counts()}")
print(f"  free faces: {len(free_faces(house.complex))}")
print(f"  betti over Z:  {betti(house.complex, 'z').ranks}")
print(f"  betti over Z2: {betti(house.complex, 'z2').ranks}")
core, steps = collapse_core(house.complex)
print(f"  collapse attempts: {steps} steps (nothing to collapse)")

box = box_complex(4, 3, 2)
print("\nTop-chain certificate for (solid box, house):")
report = solid_chain_check(box.complex, house.complex)
print(f"  verdict: {report.verdict}")
for item in report.items:
    print(f"    {item.location}: {item.measured}")

r = len(house.complex.k_simplices(2))
print(f"\nThe full gluing attaches {r} blocks (two tori each).")
print("Expected homology of the result: b1 = b2 = 6r, b3 = 2r,")
print(f"chi = {euler_characteristic(box.complex)} - 2*{r} "
      f"= {euler_characteristic(box.complex) - 2 * r}.")
print("Build and verify it with:  pfc report example2   "
      "(about 3.5 s on a 2-core Xeon)")
