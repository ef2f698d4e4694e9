"""Numerical semigroups and their Apery/Kunz coordinate tuples.

All arithmetic is exact (Python integers, with ``fractions.Fraction``
allowed in coordinate tuples).  The Apery sets computed here from the
generators (a bitset closure, or the round robin past the closure's
cap) double as the ground-truth membership oracle for the closed forms
implemented elsewhere in the package.
"""

from __future__ import annotations

from math import gcd, inf
from operator import index

from .errors import (
    EmptyGenerators,
    NoGaps,
    NotAnElement,
    NotCofinite,
    NotInPolyhedron,
)

APERY = "apery"
KUNZ = "kunz"


# Bits per residue class past which the bitset closure gives up and the
# round robin runs: at 16 bytes a class the bitset stays no larger than
# the table it fills, for every input, with nothing to tune.
_CAP_BITS = 128


def apery_by_class(generators, modulus: int) -> list[int]:
    """Smallest element of <generators> in each residue class mod ``modulus``.

    ``_close`` finds the table as a bitset closure of the generators and
    the modulus (which never changes a class minimum, so a modulus outside
    the monoid is fine), or past ``_CAP_BITS`` bits per class, as for
    <1000, 1999> or <3, 10**12 + 1>, by the round robin of ``_walk``.
    Generators must be non-negative; 0 and multiples of the modulus are
    skipped, and the rest must have gcd 1 with the modulus so that every
    class is reachable.
    """
    if (modulus := index(modulus)) < 1:
        raise ValueError("modulus must be positive")
    # sized before the closure, so that an absurd modulus fails here at once
    dist: list[int | None] = [None] * modulus
    gens = set(generators)
    if min(gens, default=0) < 0:
        raise ValueError(f"generators must be non-negative, got {min(gens)}")
    arcs = sorted(g for g in gens if g % modulus != 0)
    if gcd(modulus, *arcs) != 1:
        raise ValueError("generators do not reach every residue class")
    _close(arcs, modulus, dist)
    return dist  # type: ignore[return-value]


def _close(gens: list[int], modulus: int, table: list) -> list[int]:
    """Fill ``table`` with the least element of <modulus, gens> per class
    and return the sorted ``gens`` that are not sums of the modulus and
    smaller ones; past the cap, ``_walk`` does both instead.

    Bit n of the closure B marks n as a sum of what is folded in so far;
    g is folded in by or-ing copies of B shifted by g, 2g, 4g, ...  Cut
    at a limit L, B is exact below L, so a generator whose bit is already
    set is a sum of smaller ones, and the Apery elements below L are the
    bits of B & ~(B << modulus).  L doubles until there is one per class.

    Class minima are distinct sums of generators other than the modulus.
    With k of them there are C(j + k, k) multisets of at most j; for the
    first j where that reaches the number of classes, some minimum is a
    sum of at least j generators, so the largest is at least j * gens[0].
    The closure starts above that bound, or hands over at once when the
    bound is past the cap.
    """
    cap = _CAP_BITS * modulus
    j, count = 0, 1
    while count < modulus and gens:
        j += 1
        count = count * (j + len(gens)) // j
    top, low = (gens[-1], j * gens[0]) if gens else (0, 0)
    if max(top, low) >= cap:
        return _walk(gens, modulus, table)
    limit = min(3 * max(top, low, modulus), cap)
    while True:
        mask = (1 << limit) - 1
        bits = 1
        kept = []
        for g in [modulus] + gens:
            if bits >> g & 1:
                continue
            kept.append(g)
            shift = g
            while shift < limit:
                bits |= (bits << shift) & mask
                shift <<= 1
        apery = bits & ~(bits << modulus)
        if apery.bit_count() == modulus:
            break
        if limit >= cap:
            return _walk(gens, modulus, table)
        limit = min(2 * limit, cap)
    digits = format(apery, "b")[::-1]
    n = digits.find("1")
    while n >= 0:
        table[n % modulus] = n
        n = digits.find("1", n + 1)
    return kept[1:]


def _walk(gens: list[int], modulus: int, table: list) -> list[int]:
    """``_close`` without a cap: the round robin of Boecker and Liptak
    ("A fast and simple algorithm for the money changing problem", 2007).

    The table starts as <modulus> and folds in the sorted ``gens`` one at
    a time.  g is a sum of the modulus and smaller ones exactly when
    table[g % modulus] <= g; it is then skipped.  Otherwise each of the
    gcd(g, modulus) cycles of r -> r + g is walked once round from its
    least entry, which no multiple of g can lower, taking each class
    down to its predecessor plus g.
    """
    table[:] = [0] + [inf] * (modulus - 1)
    kept = []
    for g in gens:
        if table[g % modulus] <= g:
            continue
        kept.append(g)
        cycles = gcd(g, modulus)
        for start in range(cycles):
            cycle = [(start + i * g) % modulus for i in range(modulus // cycles)]
            values = [table[r] for r in cycle]
            i = values.index(min(values))
            n = values[i]
            for r in cycle[i + 1:] + cycle[:i]:
                n += g
                if table[r] < n:
                    n = table[r]
                else:
                    table[r] = n
    return kept


def _exact(value):
    """Collapse integral Fractions to int; leave ints and proper Fractions."""
    if isinstance(value, int):
        return value
    from fractions import Fraction  # imported here: no library path builds one
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"entries must be int or Fraction, got {type(value).__name__}")


class _Record:
    """Immutable value: ``_fields`` give its repr, its equality (with the
    same class only), its hash and the arguments copies and pickles
    rebuild it from; other attributes take no part in these."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())


class CoordTuple(_Record):
    """Coordinate vector indexed by Z_n with the entry at 0 pinned to 0.

    kind "apery" means homogeneous cone coordinates (the Apery side);
    kind "kunz" means the translated polyhedron coordinates.  Entries are
    integers for tuples derived from semigroups and may be Fractions for
    synthetic cone points.
    """

    _fields = ("modulus", "kind", "entries")

    def __init__(self, modulus: int, kind: str, entries: tuple):
        if (modulus := index(modulus)) < 2:
            raise ValueError("modulus must be at least 2")
        if kind not in (APERY, KUNZ):
            raise ValueError(f"kind must be {APERY!r} or {KUNZ!r}")
        entries = tuple(entries)
        if not {*map(type, entries)} <= {int}:  # one C-level test for the usual all-int tuple
            entries = tuple(map(_exact, entries))
        if len(entries) != modulus:
            raise ValueError("need exactly one entry per residue class")
        if entries[0] != 0:
            raise ValueError("the entry at index 0 must be 0")
        vars(self).update(modulus=modulus, kind=kind, entries=entries)

    def __getitem__(self, index: int):
        return self.entries[index % self.modulus]

    def __add__(self, other: "CoordTuple") -> "CoordTuple":
        if not isinstance(other, CoordTuple):
            return NotImplemented
        if (self.modulus, self.kind) != (other.modulus, other.kind):
            raise ValueError("can only add tuples of equal modulus and kind")
        entries = tuple(a + b for a, b in zip(self.entries, other.entries))
        return CoordTuple(self.modulus, self.kind, entries)

    def scale(self, factor) -> "CoordTuple":
        return CoordTuple(self.modulus, self.kind, tuple(factor * v for v in self.entries))

    def to_json_dict(self) -> dict:
        entries = [v if isinstance(v, int) else str(v) for v in self.entries]
        return {"modulus": self.modulus, "kind": self.kind, "entries": entries}


class NumericalSemigroup(_Record):
    """A cofinite additive submonoid of the non-negative integers.

    The generating set is minimalized at construction and the Apery table
    for the multiplicity is computed eagerly, making membership a single
    table lookup.  One pass over the generators in increasing order gives
    both (``_close``): a generator already reached from the multiplicity
    and the smaller ones is dropped.  The pass is a bitset closure, or
    the round robin past ``_CAP_BITS`` bits per class; the cap is a
    constant multiple of the multiplicity, not an option, because all it
    must do is keep the bitset no larger than the table.  Instances are
    immutable and hashable.
    """

    __slots__ = ("generators", "_apery_mult")
    _fields = ("generators",)

    def __init__(self, generators):
        gens = sorted({index(g) for g in generators})
        if not gens:
            raise EmptyGenerators("at least one generator is required")
        if gens[0] <= 0:
            raise ValueError(f"generators must be positive, got {gens[0]}")
        g = gcd(*gens)
        if g != 1:
            raise NotCofinite(f"generators {gens} share the common divisor {g}")
        m = gens[0]
        table: list = [None] * m
        object.__setattr__(self, "generators", tuple([m] + _close(gens[1:], m, table)))
        object.__setattr__(self, "_apery_mult", tuple(table))

    def __repr__(self):
        return f"NumericalSemigroup({list(self.generators)})"

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.generators) + ">"

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @property
    def embedding_dimension(self) -> int:
        return len(self.generators)

    def contains(self, n: int) -> bool:
        """Membership via the Apery table: n is in S iff it is at least the
        smallest element of S in its residue class mod the multiplicity
        (so a negative n is not: every entry is at least 0)."""
        table = self._apery_mult
        return n >= table[n % len(table)]

    def _apery_values(self, m: int) -> list[int]:
        """Least element per class mod m, indexed by residue; m must be in S."""
        if (m := index(m)) <= 0 or not self.contains(m):
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
        if kind == KUNZ:
            values = [(values[i] - i) // m for i in range(m)]
        return CoordTuple(m, kind, tuple(values))

    def to_json_dict(self) -> dict:
        return {"generators": list(self.generators)}


def from_kunz_tuple(m: int, entries) -> NumericalSemigroup:
    """The semigroup with Kunz tuple ``entries`` (z_1..z_{m-1}, or a CoordTuple) over Z_m.

    The tuple must be non-negative (forced by the inequalities below for
    m >= 3, not for m = 2, which has none) and satisfy z_i + z_j >= z_{i+j}
    (i + j < m) and z_i + z_j + 1 >= z_{i+j-m} (i + j > m).  By Kunz's
    bijection (Kunz 1987; Rosales, Garcia-Sanchez, Garcia-Garcia and
    Branco 2002) these integer points are the semigroups containing m:
    with a_s = m*z_s + s, z is one exactly when <m, a_1, ..., a_{m-1}> has
    Apery table a mod m, that is (a_s and m are generators) when no
    a_s - m is in it, which its own membership table decides.
    ``_facet_scan`` runs only on a rejection, to name the violated facet.
    """
    m = index(m)
    x = entries if isinstance(entries, CoordTuple) else CoordTuple(m, KUNZ, (0, *entries))
    if x.kind != KUNZ:
        raise ValueError("expected a Kunz-kind tuple")
    if x.modulus != m:
        raise ValueError("modulus mismatch")
    full = x.entries
    for v in full:
        if not isinstance(v, int):
            raise ValueError(f"Kunz coordinates must be integers, got {v}")
    for i in range(1, m):
        if full[i] < 0:
            raise NotInPolyhedron(f"z_{i} = {full[i]} is negative")
    apery = [m * full[s] + s for s in range(m)]
    S = NumericalSemigroup([m] + apery[1:])
    table = S._apery_mult  # a negative a - m is below every entry, so not in S
    if not any(a - m >= table[(a - m) % len(table)] for a in apery[1:]):
        return S
    # a rejection means some inequality fails, so the scan finds one
    _, (i, j) = _facet_scan(full, 1)
    s, plus = (i + j, "") if i + j < m else (i + j - m, " + 1")
    raise NotInPolyhedron(
        f"z_{i} + z_{j}{plus} >= z_{s} fails: {full[i]} + {full[j]}{plus} < {full[s]}"
    )


def _facet_scan(entries, wrap: int):
    """Tight facets of the point ``entries`` over Z_n as bit rows, and the
    first violated facet or None.

    Facet (i, j), 1 <= i <= j < n, is x_i + x_j >= x_{i+j} if i + j < n
    and x_i + x_j + wrap >= x_{i+j-n} if i + j > n (wrap 0: the group
    cone; wrap 1: the Kunz polyhedron).  Row up[a] has bit t when the
    facet (a, t - a) is tight; row 0 stays empty.  For each i, targets
    below n come first; the scan stops at the first violated facet.
    """
    n = len(entries)
    # facet (i, j) bounds ext[i + j]: x_{i+j} below n, x_{i+j-n} - wrap above,
    # and at n a value below every x_i + x_j, so that no facet is read there
    ext = [*entries, 2 * min(entries) - 1, *(x - wrap for x in entries[1:])]
    up = [0] * n
    for i in range(1, n):
        xi, row = entries[i], up[i]
        for j in range(i, n):
            slack = xi + entries[j] - ext[i + j]
            if slack <= 0:
                if slack < 0:
                    return up, (i, j)
                bit = 1 << (i + j) % n
                row |= bit
                up[j] |= bit
        up[i] = row
    return up, None
