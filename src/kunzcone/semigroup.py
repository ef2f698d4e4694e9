"""Numerical semigroups and their Apery/Kunz coordinate tuples.

All arithmetic is exact (Python integers, with ``fractions.Fraction``
allowed in coordinate tuples).  The residue-graph shortest path that
computes Apery sets doubles as the ground-truth membership oracle for
the closed forms implemented elsewhere in the package.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    EmptyGenerators,
    NoGaps,
    NotAnElement,
    NotCofinite,
    NotInPolyhedron,
)

APERY = "apery"
KUNZ = "kunz"


def apery_by_class(generators, modulus: int) -> list[int]:
    """Smallest element of <generators> in each residue class mod ``modulus``.

    Dijkstra on the residue graph whose arcs are r -> (r + g) mod modulus
    with weight g.  Paths from 0 are exactly the non-negative generator
    combinations, so dist[r] is the least element of the generated monoid
    congruent to r.  Requires gcd of the generators to be 1 so that every
    class is reachable.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    dist: list[int | None] = [None] * modulus
    dist[0] = 0
    arcs = sorted({g for g in generators if g % modulus != 0})
    heap: list[tuple[int, int]] = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] is not None and d > dist[r]:
            continue
        for g in arcs:
            nr = (r + g) % modulus
            nd = d + g
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    if any(v is None for v in dist):
        raise ValueError("generators do not reach every residue class")
    return dist  # type: ignore[return-value]


def _exact(value):
    """Collapse integral Fractions to int; leave ints and proper Fractions."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    raise TypeError(f"entries must be int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class CoordTuple:
    """Coordinate vector indexed by Z_n with the entry at 0 pinned to 0.

    kind "apery" means homogeneous cone coordinates (the Apery side);
    kind "kunz" means the translated polyhedron coordinates.  Entries are
    integers for tuples derived from semigroups and may be Fractions for
    synthetic cone points.
    """

    modulus: int
    kind: str
    entries: tuple

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        if self.kind not in (APERY, KUNZ):
            raise ValueError(f"kind must be {APERY!r} or {KUNZ!r}")
        entries = tuple(_exact(v) for v in self.entries)
        if len(entries) != self.modulus:
            raise ValueError("need exactly one entry per residue class")
        if entries[0] != 0:
            raise ValueError("the entry at index 0 must be 0")
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, index: int):
        return self.entries[index % self.modulus]

    def __add__(self, other: "CoordTuple") -> "CoordTuple":
        if not isinstance(other, CoordTuple):
            return NotImplemented
        if (self.modulus, self.kind) != (other.modulus, other.kind):
            raise ValueError("can only add tuples of equal modulus and kind")
        return CoordTuple(
            self.modulus,
            self.kind,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def scale(self, factor) -> "CoordTuple":
        return CoordTuple(self.modulus, self.kind, tuple(factor * v for v in self.entries))

    def to_json_dict(self) -> dict:
        entries = [v if isinstance(v, int) else str(v) for v in self.entries]
        return {"modulus": self.modulus, "kind": self.kind, "entries": entries}


class NumericalSemigroup:
    """A cofinite additive submonoid of the non-negative integers.

    The generating set is minimalized at construction and the Apery table
    for the multiplicity is computed eagerly, making membership a single
    table lookup.  Instances are immutable and hashable.
    """

    __slots__ = ("generators", "_apery_mult")

    def __init__(self, generators):
        gens = sorted({int(g) for g in generators})
        if not gens:
            raise EmptyGenerators("at least one generator is required")
        if gens[0] <= 0:
            raise ValueError(f"generators must be positive, got {gens[0]}")
        g = 0
        for v in gens:
            g = gcd(g, v)
        if g != 1:
            raise NotCofinite(f"generators {gens} share the common divisor {g}")
        minimal, apery = _minimalize(gens)
        object.__setattr__(self, "generators", tuple(minimal))
        object.__setattr__(self, "_apery_mult", tuple(apery))

    def __setattr__(self, name, value):
        raise AttributeError("NumericalSemigroup is immutable")

    def __repr__(self):
        return f"NumericalSemigroup({list(self.generators)})"

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.generators) + ">"

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @property
    def embedding_dimension(self) -> int:
        return len(self.generators)

    def contains(self, n: int) -> bool:
        """Membership via the Apery table: n is in S iff it is at least the
        smallest element of S in its residue class mod the multiplicity."""
        if n < 0:
            return False
        table = self._apery_mult
        return n >= table[n % len(table)]

    def _apery_values(self, m: int) -> list[int]:
        """Least element per class mod m, indexed by residue; m must be in S."""
        if m <= 0 or not self.contains(m):
            raise NotAnElement(f"{m} is not a positive element of {self}")
        if m == self.multiplicity:
            return list(self._apery_mult)
        return apery_by_class(self.generators, m)

    def apery_set(self, m: int) -> list[int]:
        """Sorted Apery set {n in S : n - m not in S}, one element per class mod m."""
        return sorted(self._apery_values(m))

    def frobenius(self) -> int:
        """Largest integer not in S."""
        if self.multiplicity == 1:
            raise NoGaps("the semigroup contains every non-negative integer")
        return max(self._apery_mult) - self.multiplicity

    def coordinates(self, m: int, kind: str = APERY) -> CoordTuple:
        """Apery tuple (a_i) or Kunz tuple (z_i with a_i = m*z_i + i) mod m."""
        values = self._apery_values(m)
        if m == 1:
            # 1 in S means S is all of N, which has no point in any cone
            raise NoGaps("the semigroup contains every non-negative integer")
        if kind == APERY:
            entries = values
        elif kind == KUNZ:
            entries = [(values[i] - i) // m for i in range(m)]
        else:
            raise ValueError(f"kind must be {APERY!r} or {KUNZ!r}")
        return CoordTuple(m, kind, tuple(entries))

    def to_json_dict(self) -> dict:
        return {"generators": list(self.generators)}


def _minimalize(gens: list[int]) -> tuple[list[int], list[int]]:
    """Keep exactly the minimal generators of <gens>; also return the
    Apery table mod the multiplicity gens[0], which the generating set
    does not change.

    g is redundant iff g = s + s' with s, s' nonzero elements of the full
    semigroup; it suffices to try, for each class c, the least nonzero
    element s of the semigroup in class c (any witness s can be shrunk to
    the class minimum because the multiplicity stays available).
    """
    m = gens[0]
    dist = apery_by_class(gens, m)
    out = []
    for g in gens:
        redundant = False
        for c in range(m):
            s = dist[c] if c != 0 else m
            if 0 < s < g and (g - s) >= dist[(g - s) % m]:
                redundant = True
                break
        if not redundant:
            out.append(g)
    return out, dist


def from_kunz_tuple(m: int, entries) -> NumericalSemigroup:
    """Reconstruct the semigroup with Kunz tuple ``entries`` over Z_m.

    Validates the defining inequalities z_i + z_j >= z_{i+j} (i + j < m)
    and z_i + z_j + 1 >= z_{i+j-m} (i + j > m), plus non-negativity, which
    the inequalities already force for m >= 3 but not in the degenerate
    m = 2 case where the facet list is empty.

    The same facet scan also finds the generators.  With a_s = m*z_s + s,
    a facet that holds with equality says a_i + a_j = a_s for its target
    class s, so a_s is a sum of two smaller elements and cannot be a
    minimal generator.  Only m and the a_s of the other classes go to
    ``NumericalSemigroup``, which still minimalizes them.
    """
    if isinstance(entries, CoordTuple):
        if entries.kind != KUNZ:
            raise ValueError("expected a Kunz-kind tuple")
        if entries.modulus != m:
            raise ValueError("modulus mismatch")
        raw = entries.entries[1:]
    else:
        raw = tuple(entries)
    z = []
    for v in raw:
        v = _exact(v)
        if not isinstance(v, int):
            raise ValueError(f"Kunz coordinates must be integers, got {v}")
        z.append(v)
    z = tuple(z)
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if len(z) != m - 1:
        raise ValueError(f"need {m - 1} coordinates for modulus {m}, got {len(z)}")
    full = (0,) + z
    for i in range(1, m):
        if full[i] < 0:
            raise NotInPolyhedron(f"z_{i} = {full[i]} is negative")
    # facets (i, j) with i <= j in scan order: targets i + j < m, then i + j > m
    summed = [False] * m
    for i in range(1, m):
        zi = full[i]
        for j in range(i, m - i):
            s = i + j
            lhs = zi + full[j]
            if lhs <= full[s]:
                if lhs < full[s]:
                    raise NotInPolyhedron(
                        f"z_{i} + z_{j} >= z_{s} fails: {zi} + {full[j]} < {full[s]}"
                    )
                summed[s] = True
        for j in range(max(i, m - i + 1), m):
            s = i + j - m
            lhs = zi + full[j] + 1
            if lhs <= full[s]:
                if lhs < full[s]:
                    raise NotInPolyhedron(
                        f"z_{i} + z_{j} + 1 >= z_{s} fails: "
                        f"{zi} + {full[j]} + 1 < {full[s]}"
                    )
                summed[s] = True
    gens = [m] + [m * full[s] + s for s in range(1, m) if not summed[s]]
    return NumericalSemigroup(gens)
