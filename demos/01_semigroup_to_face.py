"""Walk one semigroup from its generators down to its face of the Kunz cone.

Run:  python3 demos/01_semigroup_to_face.py
"""

from kunzcone import (
    APERY,
    KUNZ,
    NumericalSemigroup,
    apery_poset,
    face_of,
    from_kunz_tuple,
)

S = NumericalSemigroup([4, 13, 18, 31])
print("generators (31 = 13 + 18 was dropped):", S.generators)
print("multiplicity:", S.multiplicity)
print("Frobenius number:", S.frobenius())
print("first members:", [n for n in range(20) if S.contains(n)])

m = S.multiplicity
print("\nApery set mod", m, "=", list(S.apery_set(m)))
z = S.coordinates(m, KUNZ)
print("Kunz coordinates:", z.entries)
print("round trip recovers S:", from_kunz_tuple(m, z) == S)

P = apery_poset(S, m)
print("\ndivisibility poset on residue classes")
print("  relations:", P.relations())
print("  covers:   ", P.covers())
print("  atoms:    ", P.atoms(), "(the generator classes)")
print("  heights:  ", P.heights())

# the same poset falls out of the face the coordinates land on
F = face_of(S.coordinates(m, APERY))
print("\nface of the group cone over Z_%d" % m)
print("  tight facets:", F.canonical_tight())
print("  dimension:   ", F.dimension)
print("  Kunz subgroup:", list(F.kunz_subgroup))
print("  poset matches the Apery one:", F.kunz_poset == P)

print("\nDOT source for the Hasse diagram:\n")
print(P.to_dot())
