"""The group cone over Z_n, its Kunz-polyhedron translate, and their faces.

A face is stored as the Z_n bit rows up[a] = {a+u : (a, u) tight} of the
facet index pairs that hold with equality, as the facet scan emits them.
The subgroup, poset, and dimension are derived from them by exact integer
linear algebra.  Ray or vertex enumeration is deliberately absent: every
theorem implemented here needs only the equality data.

The poset, the consistency walk and ``_FaceSpan`` read the rows; the latter spans
the rows r(a, w) = e_a + e_w - e_{a+w} by substitution in pin order.
The classes no tight pair reaches are free and known; walking the known
classes in order, t is pinned (and known) by its first tight pair (a, w)
with w known, and c_t = c_a + c_w.  When the walk runs out with classes
left, each waits on a cycle: the least is freed and the walk goes on from
it.  c_t of a free t is a unit vector over the free classes.  Let phi(e_t)
= c_t, and c'_t be c_t on the free columns.  For pinned t, a and w come
before t in the walk (whichever classes are free), so e_t - c'_t =
(e_a - c'_a) + (e_w - c'_w) - r(a, w) is in the span by induction, and
these rows span ker phi, of dimension |pinned|.  A row r is
(r - phi(r)') + phi(r)', so the span is ker phi (+) R' for
R = span{c_i + c_j - c_{i+j} : (i, j) tight}: the rank is |pinned| +
rank R, rho is in the span iff phi(rho) is in R, and class h is pinned
to zero iff c_h is in R.
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import gcd
from operator import index, or_

from .errors import InconsistentFace, NotAUnit, NotInCone
from .linalg import IntegerEchelon
from .poset import KunzPoset, _bits
from .semigroup import APERY, CoordTuple, _facet_scan


class ConeFace:
    """A face of the group cone C(Z_n), given by its tight facet set.

    The set lives only in the bit rows (see the module): ``tight`` and its
    canonical half are read off them per call; equality and hashing compare them.
    Only ``_from_rows`` takes trusted rows (face_of's, and their images under
    apply_automorphism); tight pairs given here are vetted by a span test
    and a transitivity walk over Z_n bit rows (not exhaustive, but enough to
    catch equality systems that force some recorded-strict facet) before
    subgroup or poset extraction.

    Dimension, subgroup and the span test come from one ``_FaceSpan``,
    built on first use; the dimension is n-1 minus its rank.
    """

    def __init__(self, modulus: int, tight):
        n = index(modulus)
        if n < 2:
            raise ValueError("modulus must be at least 2")
        up = [0] * n
        for i, j in tight:
            i, j = index(i) % n, index(j) % n
            t = (i + j) % n
            if i == 0 or j == 0 or t == 0:
                raise ValueError(f"({i},{j}) does not index a facet of C(Z_{n})")
            up[i] |= 1 << t
            up[j] |= 1 << t
        self.modulus, self._up, self._trusted = n, up, False

    @classmethod
    def _from_rows(cls, modulus: int, up: list[int], trusted: bool) -> "ConeFace":
        """As ``__init__`` from the rows up[a] themselves, unchecked."""
        self = cls.__new__(cls)
        self.modulus, self._up, self._trusted = modulus, up, trusted
        return self

    @property
    def tight(self) -> frozenset:
        """The tight pairs (a, u), both orders of each facet."""
        return frozenset(p for a, w in self.canonical_tight() for p in ((a, w), (w, a)))

    def __eq__(self, other):
        return isinstance(other, ConeFace) and (self.modulus, self._up) == (other.modulus, other._up)

    def __hash__(self):
        return hash((self.modulus, tuple(self._up)))

    def __repr__(self):  # facet (i, j) sets bit i+j of rows i and j: one bit if i = j
        n, up = self.modulus, self._up
        count = (sum(map(int.bit_count, up)) + sum(up[a] >> 2 * a % n & 1 for a in range(n))) // 2
        return f"ConeFace(modulus={n}, tight={count} facets)"

    def canonical_tight(self) -> list[tuple[int, int]]:
        """Tight pairs (a, w), a <= w, sorted: bit w >= a of row a rotated down by a."""
        n, full = self.modulus, (1 << self.modulus) - 1
        return [(a, w) for a, row in enumerate(self._up)
                for w in _bits((row >> a | row << n - a) & full >> a << a)]

    @cached_property
    def _span(self) -> "_FaceSpan":
        return _FaceSpan(self.modulus, self._up)

    @property
    def dimension(self) -> int:
        """(n-1) minus the exact rank of the tight equality system."""
        return (self.modulus - 1) - self._span.rank

    def _check_consistency(self):
        """Reject tight sets whose equalities force a recorded-strict facet.

        Two sound (not complete) detectors: a strict facet's row in the
        span of the tight rows, and the Kunz order's transitivity walked on
        the rows up[a], since tight (a, u) and (a+u, v) force (a, u+v).
        Difference closure holds because the tight set is symmetric;
        antisymmetry is not asked, as classes pinned to zero form cycles.
        """
        n, up = self.modulus, self._up
        y = self._span._kernel_values  # row (i, j) in the span iff y_i + y_j = y_{i+j}
        for i in range(1, n):
            for j in range(i, n):
                t = (i + j) % n
                if t and not up[i] >> t & 1 and y[i] + y[j] == y[t]:
                    raise InconsistentFace(
                        f"equalities force facet ({i},{j}) which is recorded strict"
                    )
        for a in range(1, n):
            for b in _bits(up[a]):
                missing = up[b] & ~up[a] & ~(1 << a)
                if missing:
                    c = (missing & -missing).bit_length() - 1
                    raise InconsistentFace(
                        f"tight pairs ({a},{(b - a) % n}) and ({b},{(c - b) % n}) force "
                        f"facet ({a},{(c - a) % n}) which is recorded strict"
                    )

    @cached_property
    def kunz_subgroup(self) -> tuple[int, ...]:
        """H = classes whose coordinate the equality system pins to zero."""
        if not self._trusted:
            self._check_consistency()
        y = self._span._kernel_values  # e_h in the span iff y_h = 0
        return (0, *(h for h in range(1, self.modulus) if not y[h]))

    @cached_property
    def kunz_poset(self) -> KunzPoset:
        """Order on Z_n / H with a before a+j for every tight pair (a, j)."""
        sub = self.kunz_subgroup
        try:
            return KunzPoset._from_rows(self.modulus, self._up, subgroup=sub)
        except ValueError as exc:
            raise InconsistentFace(
                f"tight set does not induce a partial order: {exc}"
            ) from exc

    def to_json_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "tight": [list(p) for p in self.canonical_tight()],
            "dimension": self.dimension,
            "subgroup": list(self.kunz_subgroup),
        }


class _FaceSpan:
    """Span of a face's tight rows by substitution, as the module says: a
    stuck walk frees the least class left, which keeps the free columns few
    (the unreached classes, or class 1, and one per stuck cycle) and the
    rank exact, as each pinned class still follows both halves of its first
    pair.  The rows c fails reach the echelon of R as the row walk meets
    them, unless y_a + y_w == y_{a+w} (``_values``) puts them in R; y is
    refreshed after each add, so every add raises the rank."""

    def __init__(self, n: int, up: list[int]):
        known = (left := (1 << n) - 2) & ~reduce(or_, up, 0) or 2  # free: the unreached, or 1
        order, first, size = list(_bits(known)), [0] * n, [1] * n
        for a in order:  # grows: pin t by its first pair (a, w) whose w is known
            for t in _bits(up[a] & ~known):
                w = t - a if t > a else t - a + n
                if known >> w & 1:
                    first[t], size[t], known = a, size[a] + size[w], known | 1 << t
                    order.append(t)
            if a == order[-1] and (rest := left & ~known):  # stuck on cycles: free the least
                order.append((rest & -rest).bit_length() - 1)
                known |= rest & -rest
        self._free, self._pinned = [t for t in order if not first[t]], [t for t in order if first[t]]
        self._first, self._size_bits = first, max(size).bit_length()
        self._relations = rel = IntegerEchelon(len(self._free))
        c, field = self._values()
        mask, y = (1 << field) - 1, c  # y is c . K for R as it stands
        for a in range(1, n):  # a + w for w >= a: [0, a) and [2a, n), or [2a - n, a) if 2a >= n
            half = (1 << a) - (1 << 2 * a - n) if 2 * a >= n else ~(1 << 2 * a) + (1 << a)
            for t in _bits(up[a] & half):
                w = t - a if t > a else t - a + n
                if y[a] + y[w] != y[t]:
                    s, u = c[a] + c[w], c[t]  # the fields where they differ give the row
                    row = {f: (s >> f * field & mask) - (u >> f * field & mask)
                           for f in {k // field for k in _bits(s ^ u)}}
                    rel.add(row)  # not in R, as y says, so the rank goes up
                    y = self._values()[0]
        self.rank = len(self._pinned) + rel.rank
        self._kernel_values = y

    def _values(self) -> tuple[list[int], int]:
        """y_h = c_h . K (K = kernel() of R; y = c while R = 0) packed in
        signed fields, and their width: the entries of c_t are non-negative
        and add up to size_t (1 if t is free, size_a + size_w along its
        first pair), so for |K| <= top a sum of y with |coefficients| adding
        to at most 3 (a facet row or a unit vector) is 0 only if each field
        is.  y_t = y_a + y_w in pin order."""
        kernel = self._relations.kernel()  # per free column f: {j: K[f][j]}
        top = max((abs(v) for k in kernel for v in k.values()), default=1)
        field = self._size_bits + top.bit_length() + 3  # 2 bits for the sum of 3, 1 for the sign
        shift = {j: i * field for i, j in enumerate(f for f, k in enumerate(kernel) if f in k)}
        y = [0] * (n := len(self._first))
        for f, t in enumerate(self._free):
            y[t] = sum(v << shift[j] for j, v in kernel[f].items())
        for t in self._pinned:
            y[t] = y[self._first[t]] + y[(t - self._first[t]) % n]
        return y, field


def face_of(x: CoordTuple) -> ConeFace:
    """Locate the face of C(Z_n) or of the Kunz polyhedron containing x.

    The tuple's kind picks the family.  An Apery tuple is a point of the
    cone, scanned against x_i + x_j >= x_{i+j}; a Kunz tuple is a point of
    the polyhedron, scanned against z_i + z_j >= z_{i+j} (i+j < n) and
    z_i + z_j + 1 >= z_{i+j-n} (i+j > n).  Both scans are ``_facet_scan``,
    whose first violated facet NotInCone names.  A semigroup's Apery and
    Kunz tuples land on faces with identical tight sets.
    """
    n, cone = x.modulus, x.kind == APERY
    # the two families differ only by the +1 on facets with i + j > n
    up, bad = _facet_scan(x.entries, 0 if cone else 1)
    if bad is not None:
        i, j = bad
        v, plus = ("x", "") if cone else ("z", " + 1" if i + j > n else "")
        raise NotInCone(
            f"violated: {v}_{i} + {v}_{j}{plus} >= {v}_{(i + j) % n} at indices ({i},{j})"
        )
    return ConeFace._from_rows(n, up, True)


def apply_automorphism(obj, u: int):
    """Relabel coordinates by the unit u of Z_n: index i moves to u*i.

    Accepts Apery-kind coordinate tuples, cone faces, and Kunz posets,
    returning the same type.  Multiplication by a unit permutes the facet
    family of the cone (not of the Kunz polyhedron, whose +1 depends on
    whether i + j wraps), so the image of a face or poset is its rows
    permuted (bit t of up[a] moved to bit u*t of up[u*a]): a face as
    trusted as the original, of the same dimension.
    """
    if not isinstance(obj, (CoordTuple, ConeFace, KunzPoset)):
        raise TypeError(f"cannot apply automorphism to {type(obj).__name__}")
    n = obj.modulus
    if gcd(u % n, n) != 1:
        raise NotAUnit(f"{u} is not a unit of Z_{n}")
    if isinstance(obj, CoordTuple):
        if obj.kind != APERY:
            raise ValueError("apply_automorphism expects homogeneous (apery-kind) coordinates")
        entries = [0] * n
        for i in range(n):
            entries[u * i % n] = obj.entries[i]
        return CoordTuple(n, APERY, tuple(entries))
    k = len(obj._up)  # a unit of Z_n is one of Z_k, k | n
    up = [0] * k
    for a, row in enumerate(obj._up):  # a -> u*a and t -> u*t are bijections
        up[u * a % k] = sum(1 << u * t % k for t in _bits(row))
    if isinstance(obj, ConeFace):
        return ConeFace._from_rows(n, up, obj._trusted)
    # a unit maps the subgroup onto itself, so the coset of g goes to that of u*g
    labels = None if obj.labels is None else {u * g % k: v for g, v in enumerate(obj.labels)}
    return KunzPoset._from_rows(n, up, subgroup=obj.subgroup, labels=labels)
