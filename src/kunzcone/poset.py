"""Apery and Kunz posets: divisibility order on Apery elements.

A KunzPoset lives on the quotient Z_n / H for a subgroup H (trivial for
posets built from semigroups).  The relation is stored densely as one
bitmask per ground element, which keeps closure and reduction exact and
fast at the sizes that occur here (n up to a few hundred).

Construction validates the order in one walk over the set bits of each
row: every strict relation a -> b is checked for antisymmetry,
transitivity and difference closure, and recorded in the down-sets, so
the cost is O(relations) rather than O(size^2) per check.  Heights are
computed iteratively along a linear extension, so long chains need no
recursion.
"""

from __future__ import annotations

from math import gcd

from .errors import NotGraded
from .semigroup import APERY, NumericalSemigroup, _facet_scan


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subgroup_of(modulus: int, elements) -> tuple[int, ...]:
    """Closure of {0} ∪ elements under addition mod ``modulus``: the
    multiples of gcd(modulus, elements)."""
    return tuple(range(0, modulus, gcd(modulus, *elements)))


class KunzPoset:
    """Partial order on Z_n / H with the class of 0 as unique minimum.

    ``pairs`` are (a, b) relations meaning a precedes b; elements are
    arbitrary members of Z_n and get reduced to canonical coset
    representatives, the smallest member of each coset.  The validated
    subgroup is g*Z_n for its least positive member g (g = n when
    trivial), so that minimum is x mod g and ``ground`` is range(g).
    Closed forms hand in one bit row per member of Z_n instead (private
    ``_from_rows``), folded onto x mod g.  Reflexivity and the bottom
    element are added automatically; antisymmetry, transitivity, and
    difference closure (a before b forces b-a before b) are validated in
    one walk over the rows for either intake, so malformed input fails
    fast with ValueError.

    Equality and hashing compare modulus, subgroup, and the relation
    table only; labels are cosmetic.
    """

    def __init__(self, modulus: int, pairs, subgroup=(0,), labels=None):
        up = self._reflexive(modulus, subgroup)
        size = self._g
        for a, b in pairs:
            up[a % size] |= 1 << b % size
        self._validate(up, labels)

    @classmethod
    def _from_rows(cls, modulus: int, rows, subgroup=(0,), labels=None) -> "KunzPoset":
        """As ``__init__`` with the pairs x -> y, y in rows[x], over Z_n."""
        self = cls.__new__(cls)
        up = self._reflexive(modulus, subgroup)
        size, low = self._g, (1 << self._g) - 1
        for x, row in enumerate(rows):
            while row:
                up[x % size] |= row & low
                row >>= size
        self._validate(up, labels)
        return self

    def _reflexive(self, modulus: int, subgroup) -> list[int]:
        """Validate the subgroup, set the ground and return its reflexive rows."""
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = modulus
        sub = frozenset(h % modulus for h in subgroup) | {0}
        for a in sub:
            for b in sub:
                if (a + b) % modulus not in sub:
                    raise ValueError(f"subgroup not closed: {a} + {b}")
        self.subgroup = tuple(sorted(sub))

        # a closed subset of Z_n is g*Z_n for its least positive member g,
        # so the coset minimum of x is x mod g and class i is ground[i] = i
        size = self._g = self.subgroup[1] if len(sub) > 1 else modulus
        self.ground = tuple(range(size))
        return [1 << i for i in range(size)]

    def _validate(self, up: list[int], labels) -> None:
        """Add the bottom row, then check every strict relation i -> j of
        the reflexive rows ``up`` in one walk, filling the down-sets."""
        size = len(up)
        up[0] = (1 << size) - 1
        self._up = up
        down = [1 << i for i in range(size)]
        for i, row in enumerate(up):
            bit = 1 << i
            outside = ~row | bit
            rest = row ^ bit
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                down[j] |= bit
                if up[j] & outside:
                    if up[j] & bit:
                        raise ValueError(f"antisymmetry fails between classes {i} and {j}")
                    raise ValueError(f"relation is not transitive at class {i}")
                if not up[j - i] & low:  # j - i wraps mod size as a negative index
                    raise ValueError(
                        f"difference closure fails: {i} precedes "
                        f"{j} but their difference class does not"
                    )
        self._down = down
        try:
            self.labels = None if labels is None else tuple(int(labels[g]) for g in self.ground)
        except (IndexError, KeyError) as exc:
            # classes run up from 0, so a short sequence first lacks class len(labels)
            missing = exc.args[0] if isinstance(exc, KeyError) else len(labels)
            raise ValueError(f"labels give no value for class {missing}") from None

    # -- queries ---------------------------------------------------------

    def index_of(self, x: int) -> int:
        """Index into ground of the coset of x, which is its minimum x mod g."""
        return x % self._g

    def leq(self, a: int, b: int) -> bool:
        g = self._g
        return bool(self._up[a % g] >> b % g & 1)

    def relations(self) -> list[tuple[int, int]]:
        """All strict pairs (a, b) with a before b, sorted."""
        return [(i, j) for i, row in enumerate(self._up) for j in _bits(row & ~(1 << i))]

    def covers(self) -> list[tuple[int, int]]:
        """Transitive reduction: pairs (a, b) with b immediately above a, sorted."""
        down = self._down
        out = []
        for i, row in enumerate(self._up):
            rest = strict_up = row & ~(1 << i)
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                if not strict_up & down[j] & ~low:
                    out.append((i, j))
        return out

    def atoms(self) -> list[int]:
        """Elements covering the bottom class."""
        return sorted(b for a, b in self.covers() if a == self.ground[0])

    def _grading(self, covers):
        """Height of each ground index (length of the longest chain from
        the bottom) and the first of ``covers`` that skips a level, or None.

        A strictly lower element has a strictly smaller down-set, so
        visiting indices by down-set size is a linear extension and every
        element below has its height before it is needed.
        """
        down = self._down
        h = [0] * len(down)
        for i in sorted(range(len(down)), key=lambda i: down[i].bit_count()):
            h[i] = max((h[j] + 1 for j in _bits(down[i] & ~(1 << i))), default=0)
        skip = next(((a, b) for a, b in covers if h[b] != h[a] + 1), None)
        return h, skip

    def is_graded(self) -> bool:
        return self._grading(self.covers())[1] is None

    def heights(self) -> dict[int, int]:
        """Rank of each ground element; only defined for graded posets."""
        h, skip = self._grading(self.covers())
        if skip is not None:
            raise NotGraded(
                f"cover {skip[0]} -> {skip[1]} skips a level; no consistent rank function"
            )
        return dict(zip(self.ground, h))

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, KunzPoset)
            and self.modulus == other.modulus
            and self.subgroup == other.subgroup
            and self._up == other._up
        )

    def __hash__(self):
        return hash((self.modulus, self.subgroup, tuple(self._up)))

    def __repr__(self):
        return (
            f"KunzPoset(modulus={self.modulus}, ground={len(self.ground)} classes, "
            f"relations={len(self.relations())})"
        )

    # -- export ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "modulus": self.modulus,
            "subgroup": list(self.subgroup),
            "relations": [list(p) for p in self.relations()],
        }
        if self.labels is not None:
            out["labels"] = {str(g): v for g, v in zip(self.ground, self.labels)}
        return out

    def to_dot(self) -> str:
        """Hasse diagram in DOT, nodes in ascending class order."""
        lines = ["digraph kunz_poset {", "  rankdir=BT;", '  node [shape=box];']
        for i, g in enumerate(self.ground):
            if self.labels is not None:
                lines.append(f'  n{g} [label="{g}\\n{self.labels[i]}"];')
            else:
                lines.append(f'  n{g} [label="{g}"];')
        covers = self.covers()
        for a, b in covers:
            lines.append(f"  n{a} -> n{b};")
        h, skip = self._grading(covers)
        if skip is None:
            by_height: dict[int, list[int]] = {}
            for g, level in zip(self.ground, h):
                by_height.setdefault(level, []).append(g)
            for level in sorted(by_height):
                row = "; ".join(f"n{g}" for g in by_height[level])
                lines.append(f"  {{ rank=same; {row}; }}")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _apery_order(S: NumericalSemigroup, m: int):
    """Apery values of S mod m and the strict up-set bit row of each class
    in their divisibility order (row 0, the bottom's, left empty).

    i precedes j exactly when a_j - a_i is itself an Apery element, which
    for elements of one class pins it to the class minimum a_{j-i}: the
    tight facet a_i + a_k = a_{i+k} puts i and k below i+k.  (The tuple
    lies in the cone, so the facet scan meets no violated facet.)
    """
    values = S.coordinates(m, APERY).entries
    tight, _ = _facet_scan(values, 0)
    rows = [0] * m
    for i, k in tight:
        bit = 1 << (i + k) % m
        rows[i] |= bit
        rows[k] |= bit
    return values, rows


def apery_poset(S: NumericalSemigroup, m: int) -> KunzPoset:
    """Divisibility order on Ap(S; m), labelled by the Apery values."""
    values, rows = _apery_order(S, m)
    return KunzPoset._from_rows(m, rows, labels=values)


def kunz_poset_of(S: NumericalSemigroup, m: int) -> KunzPoset:
    """Same order as apery_poset, with ground elements as plain classes."""
    return KunzPoset._from_rows(m, _apery_order(S, m)[1])
