"""Apery and Kunz posets: divisibility order on Apery elements.

A KunzPoset lives on the quotient Z_n / H for a subgroup H (trivial for
posets built from semigroups), stored densely as one bitmask per ground
element, so that each check and query is a few whole-row operations.
Construction checks the order by two of them that also yield the covers
(``KunzPoset._validate``); heights are relaxed along the cover rows.
"""

from __future__ import annotations

from math import gcd
from operator import index

from .errors import NotGraded
from .semigroup import APERY, NumericalSemigroup, _facet_scan


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _symmetric(rows: list[int]) -> bool:
    """Whether bit j of rows[i] is bit i of rows[j] for all i, j, by Eklundh's
    block transpose (IEEE Trans. Comput. 1972) of the rows packed w bits apart
    (w a power of two, at least 8): step s = w/2, ..., 1 swaps the
    off-diagonal s x s blocks of each 2s x 2s block."""
    w = max(8, 1 << (len(rows) - 1).bit_length())
    t = matrix = int.from_bytes(b"".join(r.to_bytes(w >> 3, "little") for r in rows), "little")
    s = w >> 1
    low_rows = (1 << s * w) - 1  # the rows, then the columns, with bit s clear
    low_cols = int.from_bytes(((1 << s) - 1).to_bytes(w >> 3, "little") * w, "little")
    while s:
        swap = (t >> s ^ t >> s * w) & low_rows & low_cols
        t ^= swap << s | swap << s * w
        s >>= 1
        low_rows ^= low_rows << s * w
        low_cols ^= low_cols << s
    return t == matrix


def subgroup_of(modulus: int, elements) -> tuple[int, ...]:
    """Closure of {0} ∪ elements under addition mod ``modulus``: the
    multiples of gcd(modulus, elements)."""
    return tuple(range(0, modulus, gcd(modulus, *elements)))


class KunzPoset:
    """Partial order on Z_n / H with the class of 0 as unique minimum.

    ``pairs`` are (a, b) relations meaning a precedes b; elements are
    arbitrary members of Z_n and get reduced to canonical coset
    representatives, the smallest member of each coset.  The validated
    subgroup is g*Z_n for g the gcd of n and its members (g = n when
    trivial), so that minimum is x mod g and ``ground`` is range(g).
    Closed forms hand in one bit row per member of Z_n instead (private
    ``_from_rows``), folded onto x mod g.  Reflexivity and the bottom
    element are added automatically; antisymmetry, transitivity and
    difference closure (a before b forces b-a before b) are checked for
    either intake, so malformed input fails fast with ValueError.

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
        given = {h % modulus for h in subgroup} | {0}
        # its sums reach g*Z_n, g the gcd, so it is closed iff it holds all of it;
        # the coset minimum of x is then x mod g, and class i is ground[i] = i
        self.subgroup = subgroup_of(modulus, given)
        if len(given) != len(self.subgroup):
            missing = next(h for h in self.subgroup if h not in given)
            raise ValueError(f"subgroup not closed: its sums reach {missing}")
        size = self._g = modulus // len(given)
        self.ground = tuple(range(size))
        return [1 << i for i in range(size)]

    def _validate(self, up: list[int], labels) -> None:
        """Add the bottom row, check the reflexive rows ``up`` and keep their covers.
        Difference closure is symmetry of the rows rotated down by their class.
        Row i ORs up[j] less j into ``above`` for the lowest j left of its strict
        row and drops up[j]; if each ``above`` stays in its row and misses i, then
        by induction on |up[i]| each row is transitive and antisymmetric and
        ``above`` is the union of the strict rows above i: a picked up[j] lies in
        up[i] less i, and a dropped class in a picked up[j] less j."""
        size = len(up)
        full = up[0] = (1 << size) - 1
        self._up = up
        self._covers = covers = [0] * size
        bad = 0
        for i, row in enumerate(up):
            bit, above = 1 << i, 0
            rest = strict = row ^ bit
            while rest:
                low = rest & -rest
                above |= (picked := up[low.bit_length() - 1]) ^ low
                rest &= ~picked
            bad |= above & (~row | bit)  # a row above leaves i's row or holds i
            covers[i] = strict & ~above
        if bad or not _symmetric([(row >> i | row << size - i) & full for i, row in enumerate(up)]):
            for i in range(size):
                self._raise_first(i)
        try:
            self.labels = None if labels is None else tuple(index(labels[g]) for g in self.ground)
        except (IndexError, KeyError) as exc:
            # classes run up from 0, so a short sequence first lacks class len(labels)
            missing = exc.args[0] if isinstance(exc, KeyError) else len(labels)
            raise ValueError(f"labels give no value for class {missing}") from None

    def _raise_first(self, i: int):
        """Raise for the first relation i -> j, in ascending j, that breaks
        antisymmetry, transitivity or difference closure."""
        up, bit = self._up, 1 << i
        for j in _bits(up[i] ^ bit):
            if up[j] & (~up[i] | bit):
                if up[j] & bit:
                    raise ValueError(f"antisymmetry fails between classes {i} and {j}")
                raise ValueError(f"relation is not transitive at class {i}")
            if not up[j - i] >> j & 1:
                raise ValueError(f"difference closure fails: {i} precedes "
                                 f"{j} but their difference class does not")

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
        return [(i, j) for i, row in enumerate(self._covers) for j in _bits(row)]

    def atoms(self) -> list[int]:
        """Elements covering the bottom class."""
        return list(_bits(self._covers[0]))

    def _grading(self, covers):
        """Height of each ground index (length of the longest chain from
        the bottom) and the first of ``covers`` that skips a level, or None.

        A strictly lower element has a strictly larger up-set, so visiting
        indices by decreasing up-set size is a linear extension, and each
        height is final before it is pushed along the cover rows.
        """
        h = [0] * len(self._up)
        for i in sorted(range(len(h)), key=lambda i: -self._up[i].bit_count()):
            for j in _bits(self._covers[i]):
                h[j] = max(h[j], h[i] + 1)
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

    def __eq__(self, other):  # the subgroup is g*Z_n for the row count g
        return isinstance(other, KunzPoset) and (self.modulus, self._up) == (other.modulus, other._up)

    def __hash__(self):
        return hash((self.modulus, self.subgroup, tuple(self._up)))

    def __repr__(self):  # the strict relations: every row bit but the reflexive one
        return (
            f"KunzPoset(modulus={self.modulus}, ground={len(self.ground)} classes, "
            f"relations={sum(map(int.bit_count, self._up)) - self._g})"
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
            text = g if self.labels is None else f"{g}\\n{self.labels[i]}"
            lines.append(f'  n{g} [label="{text}"];')
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


def apery_poset(S: NumericalSemigroup, m: int) -> KunzPoset:
    """Divisibility order on Ap(S; m), labelled by the Apery values.

    i precedes j iff a_j - a_i is an Apery element, hence the class minimum
    a_{j-i}: iff the facet a_i + a_{j-i} >= a_j is tight, so the rows are
    the facet scan's (which meets no violated facet on a cone point).
    """
    values = S.coordinates(m, APERY).entries
    return KunzPoset._from_rows(m, _facet_scan(values, 0)[0], labels=values)


def kunz_poset_of(S: NumericalSemigroup, m: int) -> KunzPoset:
    """Same order as apery_poset, with ground elements as plain classes."""
    return KunzPoset._from_rows(m, _facet_scan(S.coordinates(m, APERY).entries, 0)[0])
