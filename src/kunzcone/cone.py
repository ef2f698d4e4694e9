"""The group cone over Z_n, its Kunz-polyhedron translate, and their faces.

A face is stored as the set of facet index pairs (i, j) that hold with
equality; the subgroup, poset, and dimension are derived from that set by
exact integer linear algebra.  Ray or vertex enumeration is deliberately
absent: every theorem implemented here needs only the equality data.

The tight pairs also live as Z_n bit rows up[a] = {a+u : (a, u) tight},
read by the poset, the consistency walk and the echelon's row choice.
The row r(a, w) = e_a + e_w - e_{a+w} of a tight pair satisfies
r(a, w) = r(a, u) + r(a+u, v) - r(u, v) for w = u + v, so
``_spanning_pairs`` leaves it out when (a, u), (a+u, v) and (u, v) are
all tight and w has a place in a Kahn order of a -> a+u (w is on or
above no cycle) that is at or before a's; u and v precede w, so by
induction on that place every row left out is in the span of the rest.
"""

from __future__ import annotations

from math import gcd

from .errors import InconsistentFace, NotAUnit, NotInCone
from .linalg import IntegerEchelon
from .poset import KunzPoset, _bits
from .semigroup import APERY, CoordTuple, _facet_scan

CONE = "cone"
POLYHEDRON = "polyhedron"


class ConeFace:
    """A face of the group cone C(Z_n), given by its tight facet set.

    Faces produced by face_of are genuine and skip consistency checks;
    hand-built tight sets are vetted by a span test and a transitivity walk
    over Z_n bit rows (not exhaustive, but enough to catch equality systems
    that force some recorded-strict facet) before subgroup or poset extraction.

    Dimension, subgroup and the span test all come from one reduced
    integer echelon, fed the spanning tight rows of the module docstring
    in Kahn order of their target a+w, so most new pivots land on a fresh
    column.  The dimension is n-1 minus its rank.  A class h lies in the
    Kunz subgroup when e_h is in the row space, and in reduced form that
    holds exactly when column h-1 is a pivot whose row has no other
    entries, so the subgroup is read off the echelon without queries.
    """

    def __init__(self, modulus: int, tight, trusted: bool = False):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        n = modulus
        sym = set()
        up = [0] * n
        for i, j in tight:
            i %= n
            j %= n
            t = (i + j) % n
            if i == 0 or j == 0 or t == 0:
                raise ValueError(f"({i},{j}) does not index a facet of C(Z_{n})")
            sym.add((i, j))
            sym.add((j, i))
            up[i] |= 1 << t
            up[j] |= 1 << t
        self.modulus = n
        self.tight = frozenset(sym)
        self._up = up
        self._trusted = trusted
        self._echelon = None
        self._subgroup = None
        self._poset = None

    def __eq__(self, other):
        return (
            isinstance(other, ConeFace)
            and self.modulus == other.modulus
            and self.tight == other.tight
        )

    def __hash__(self):
        return hash((self.modulus, self.tight))

    def __repr__(self):
        return f"ConeFace(modulus={self.modulus}, tight={len(self.canonical_tight())} facets)"

    def canonical_tight(self) -> list[tuple[int, int]]:
        """Tight pairs with the symmetric duplicates removed, sorted."""
        return sorted((i, j) for i, j in self.tight if i <= j)

    def _equality(self, i: int, j: int) -> dict[int, int]:
        """Row of facet (i,j) as {column c: coefficient of x_{c+1}}."""
        row = {i - 1: 1}
        row[j - 1] = row.get(j - 1, 0) + 1
        row[(i + j) % self.modulus - 1] = -1
        return row

    def _tight_echelon(self) -> IntegerEchelon:
        if self._echelon is None:
            ech = IntegerEchelon(self.modulus - 1)
            for a, w in _spanning_pairs(self.modulus, self._up):
                ech.add(self._equality(a, w))
            self._echelon = ech
        return self._echelon

    @property
    def dimension(self) -> int:
        """(n-1) minus the exact rank of the tight equality system."""
        return (self.modulus - 1) - self._tight_echelon().rank

    def _check_consistency(self):
        """Reject tight sets whose equalities force a recorded-strict facet.

        Two sound (not complete) detectors: a strict facet's row in the
        span of the tight rows, and the Kunz order's transitivity walked on
        the rows up[a], since tight (a, u) and (a+u, v) force (a, u+v).
        Difference closure holds because the tight set is symmetric;
        antisymmetry is not asked, as classes pinned to zero form cycles.
        """
        n = self.modulus
        ech = self._tight_echelon()
        for i in range(1, n):
            for j in range(i, n):
                if (i + j) % n and (i, j) not in self.tight and ech.contains(self._equality(i, j)):
                    raise InconsistentFace(
                        f"equalities force facet ({i},{j}) which is recorded strict"
                    )
        up = self._up
        for a in range(1, n):
            for b in _bits(up[a]):
                missing = up[b] & ~up[a] & ~(1 << a)
                if missing:
                    c = (missing & -missing).bit_length() - 1
                    raise InconsistentFace(
                        f"tight pairs ({a},{(b - a) % n}) and ({b},{(c - b) % n}) force "
                        f"facet ({a},{(c - a) % n}) which is recorded strict"
                    )

    @property
    def kunz_subgroup(self) -> tuple[int, ...]:
        """H = classes whose coordinate the equality system pins to zero."""
        if self._subgroup is None:
            if not self._trusted:
                self._check_consistency()
            pinned = self._tight_echelon().unit_columns()
            self._subgroup = (0, *(col + 1 for col in pinned))
        return self._subgroup

    @property
    def kunz_poset(self) -> KunzPoset:
        """Order on Z_n / H with a before a+j for every tight pair (a, j)."""
        if self._poset is None:
            sub = self.kunz_subgroup
            try:
                self._poset = KunzPoset._from_rows(self.modulus, self._up, subgroup=sub)
            except ValueError as exc:
                raise InconsistentFace(
                    f"tight set does not induce a partial order: {exc}"
                ) from exc
        return self._poset

    def to_json_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "tight": [list(p) for p in self.canonical_tight()],
            "dimension": self.dimension,
            "subgroup": list(self.kunz_subgroup),
        }


def _spanning_pairs(n: int, up: list[int]) -> list[tuple[int, int]]:
    """Tight pairs (a, w) whose rows span all tight rows, in Kahn order of
    a+w; w is at or before a, and pairs are left out as the module says."""
    order, rest, layer = [], list(range(1, n)), True
    while layer:  # Kahn by layers; what stays in rest is on or above a cycle
        reach = 0
        for a in rest:
            reach |= up[a]
        layer = [b for b in rest if not reach >> b & 1]
        order += layer
        rest = [b for b in rest if reach >> b & 1]
    pos = {b: i for i, b in enumerate(order)}
    # doubled masks: (x | x << n) >> (n - a) holds x rotated by a in its low n bits
    finite = sum(1 << b for b in order) * ((1 << n) + 1)
    dbl = [row | row << n for row in up]
    before, kept = 0, []
    for a in order + rest:
        before |= 1 << a
        s = n - a
        own = up[a] & (before | before << n) >> s
        implied = 0  # targets a+w in up[k] with (k-a, a+w-k) tight, k in up[a]
        for k in _bits(up[a]):
            implied |= up[k] & dbl[k - a] >> s
        for t in _bits(own & ~(implied & finite >> s)):
            kept.append((pos.get(t, n), a, (t - a) % n))
    return [(a, w) for _, a, w in sorted(kept)]


def face_of(x: CoordTuple, kind: str | None = None) -> ConeFace:
    """Locate the face of C(Z_n) or of the Kunz polyhedron containing x.

    kind "cone" scans x_i + x_j >= x_{i+j}; kind "polyhedron" scans the
    translated system z_i + z_j >= z_{i+j} (i+j < n) and
    z_i + z_j + 1 >= z_{i+j-n} (i+j > n), both in ``_facet_scan``, whose
    first violated facet NotInCone names.  Defaults to the family that
    matches the tuple's own kind; a semigroup's Apery and Kunz tuples then
    land on faces with identical tight sets.
    """
    if kind is None:
        kind = CONE if x.kind == APERY else POLYHEDRON
    if kind not in (CONE, POLYHEDRON):
        raise ValueError(f"kind must be {CONE!r} or {POLYHEDRON!r}")
    n = x.modulus
    # the two families differ only by the +1 on facets with i + j > n
    tight, bad = _facet_scan(x.entries, 0 if kind == CONE else 1)
    if bad is not None:
        i, j = bad
        v, plus = ("x", "") if kind == CONE else ("z", " + 1" if i + j > n else "")
        raise NotInCone(
            f"violated: {v}_{i} + {v}_{j}{plus} >= {v}_{(i + j) % n} at indices ({i},{j})"
        )
    return ConeFace(n, tight, trusted=True)


def apply_automorphism(obj, u: int):
    """Relabel coordinates by the unit u of Z_n: index i moves to u*i.

    Accepts coordinate tuples, cone faces, and Kunz posets, returning the
    same type.  Multiplication by a unit permutes the facet family, so
    the image of a face is a face and dimensions are preserved.
    """
    if isinstance(obj, CoordTuple):
        n = obj.modulus
        _require_unit(u, n)
        entries = [0] * n
        for i in range(n):
            entries[u * i % n] = obj.entries[i]
        return CoordTuple(n, obj.kind, tuple(entries))
    if isinstance(obj, ConeFace):
        n = obj.modulus
        _require_unit(u, n)
        moved = [(u * i % n, u * j % n) for i, j in obj.tight]
        return ConeFace(n, moved, trusted=obj._trusted)
    if isinstance(obj, KunzPoset):
        n = obj.modulus
        _require_unit(u, n)
        pairs = [(u * a % n, u * b % n) for a, b in obj.relations()]
        # a unit maps the subgroup onto itself, so the image of the coset
        # of g is the coset of u*g
        labels = None if obj.labels is None else {
            obj.index_of(u * g): v for g, v in zip(obj.ground, obj.labels)
        }
        return KunzPoset(n, pairs, subgroup=obj.subgroup, labels=labels)
    raise TypeError(f"cannot apply automorphism to {type(obj).__name__}")


def _require_unit(u: int, n: int):
    if gcd(u % n, n) != 1:
        raise NotAUnit(f"{u} is not a unit of Z_{n}")
