"""The group cone over Z_n, its Kunz-polyhedron translate, and their faces.

A face is stored as the set of facet index pairs (i, j) that hold with
equality; the subgroup, poset, and dimension are derived from that set by
exact integer linear algebra.  Ray or vertex enumeration is deliberately
absent: every theorem implemented here needs only the equality data.
"""

from __future__ import annotations

from math import gcd

from .errors import InconsistentFace, NotAUnit, NotInCone
from .linalg import IntegerEchelon
from .poset import KunzPoset
from .semigroup import APERY, KUNZ, CoordTuple

CONE = "cone"
POLYHEDRON = "polyhedron"

# coordinate kind -> inequality family used by face_of
_KIND_OF_TUPLE = {APERY: CONE, KUNZ: POLYHEDRON}


def _facet_pairs(n: int):
    """Canonical facet indices: 1 <= i <= j < n with i + j != 0 in Z_n."""
    for i in range(1, n):
        for j in range(i, n):
            if (i + j) % n != 0:
                yield i, j


class ConeFace:
    """A face of the group cone C(Z_n), given by its tight facet set.

    Faces produced by face_of are genuine and skip consistency checks;
    hand-built tight sets are vetted (not exhaustively, but enough to
    catch equality systems that force some recorded-strict facet) before
    subgroup or poset extraction.

    Dimension, subgroup and the span test all come from one reduced
    integer echelon of the tight equality rows.  The dimension is n-1
    minus its rank.  A class h lies in the Kunz subgroup when the unit
    vector e_h is in the row space, and in reduced form that holds
    exactly when column h-1 is a pivot whose row has no other entries,
    so the subgroup is read off the echelon without further queries.
    """

    def __init__(self, modulus: int, tight, trusted: bool = False):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        n = modulus
        sym = set()
        for i, j in tight:
            i %= n
            j %= n
            if i == 0 or j == 0 or (i + j) % n == 0:
                raise ValueError(f"({i},{j}) does not index a facet of C(Z_{n})")
            sym.add((i, j))
            sym.add((j, i))
        self.modulus = n
        self.tight = frozenset(sym)
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
        """Equality row of facet (i,j) over coordinates x_1..x_{n-1}, as
        {column: coefficient} with column c standing for x_{c+1}."""
        row = {i - 1: 1}
        row[j - 1] = row.get(j - 1, 0) + 1
        row[(i + j) % self.modulus - 1] = -1
        return row

    def _row(self, i: int, j: int) -> list[int]:
        """The equality row of facet (i,j) written out densely."""
        row = [0] * (self.modulus - 1)
        for col, v in self._equality(i, j).items():
            row[col] = v
        return row

    def _tight_echelon(self) -> IntegerEchelon:
        if self._echelon is None:
            ech = IntegerEchelon(self.modulus - 1)
            for i, j in self.canonical_tight():
                ech.add(self._equality(i, j))
            self._echelon = ech
        return self._echelon

    @property
    def dimension(self) -> int:
        """(n-1) minus the exact rank of the tight equality system."""
        return (self.modulus - 1) - self._tight_echelon().rank

    def _check_consistency(self):
        """Reject tight sets whose equalities force a recorded-strict facet.

        Two sound (not complete) detectors: a strict facet's row lying in
        the span of the tight rows, and the squeeze along composable tight
        pairs, where x_a + x_u = x_{a+u} and x_{a+u} + x_v = x_{a+u+v}
        force the facets (u, v) and (a, u+v) to be tight as well.
        """
        n = self.modulus
        ech = self._tight_echelon()
        for i, j in _facet_pairs(n):
            if (i, j) not in self.tight and ech.contains(self._equality(i, j)):
                raise InconsistentFace(
                    f"equalities force facet ({i},{j}) which is recorded strict"
                )
        by_first: dict[int, list[int]] = {}
        for a, u in self.tight:
            by_first.setdefault(a, []).append(u)
        for a, u in self.tight:
            b = (a + u) % n
            for v in by_first.get(b, ()):
                w = (u + v) % n
                if w == 0:
                    continue
                for p, q in ((u, v), (a, w)):
                    if (p, q) not in self.tight:
                        raise InconsistentFace(
                            f"tight pairs ({a},{u}) and ({b},{v}) force facet "
                            f"({p},{q}) which is recorded strict"
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
            n = self.modulus
            pairs = [(i, (i + j) % n) for i, j in self.tight]
            try:
                self._poset = KunzPoset(n, pairs, subgroup=sub)
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


def face_of(x: CoordTuple, kind: str | None = None) -> ConeFace:
    """Locate the face of C(Z_n) or of the Kunz polyhedron containing x.

    kind "cone" scans x_i + x_j >= x_{i+j}; kind "polyhedron" scans the
    translated system z_i + z_j >= z_{i+j} (i+j < n) and
    z_i + z_j + 1 >= z_{i+j-n} (i+j > n).  Defaults to the family that
    matches the tuple's own kind; a semigroup's Apery and Kunz tuples then
    land on faces with identical tight sets.
    """
    if kind is None:
        kind = _KIND_OF_TUPLE[x.kind]
    if kind not in (CONE, POLYHEDRON):
        raise ValueError(f"kind must be {CONE!r} or {POLYHEDRON!r}")
    n = x.modulus
    tight = []
    for i, j in _facet_pairs(n):
        if kind == CONE:
            slack = x[i] + x[j] - x[(i + j) % n]
        elif i + j < n:
            slack = x[i] + x[j] - x[i + j]
        else:
            slack = x[i] + x[j] + 1 - x[i + j - n]
        if slack < 0:
            raise NotInCone(f"violated: {_facet_label(kind, i, j, n)} at indices ({i},{j})")
        if slack == 0:
            tight.append((i, j))
    return ConeFace(n, tight, trusted=True)


def _facet_label(kind: str, i: int, j: int, n: int) -> str:
    """The inequality of facet (i, j) as written in NotInCone messages."""
    if kind == CONE:
        return f"x_{i} + x_{j} >= x_{(i + j) % n}"
    if i + j < n:
        return f"z_{i} + z_{j} >= z_{i + j}"
    return f"z_{i} + z_{j} + 1 >= z_{i + j - n}"


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
        sub = [u * h % n for h in obj.subgroup]
        labels = None
        if obj.labels is not None:
            # key by the canonical representative of the image coset
            labels = {
                min((u * (g + h)) % n for h in obj.subgroup): v
                for g, v in zip(obj.ground, obj.labels)
            }
        return KunzPoset(n, pairs, subgroup=sub, labels=labels)
    raise TypeError(f"cannot apply automorphism to {type(obj).__name__}")


def _require_unit(u: int, n: int):
    if gcd(u % n, n) != 1:
        raise NotAUnit(f"{u} is not a unit of Z_{n}")
