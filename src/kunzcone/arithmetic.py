"""Closed forms for arithmetic-like semigroups <a, ah+d, ah+2d, ..., ah+kd>.

The family (here "EGA", extra-generalized arithmetical) admits exact
formulas for membership, the Apery set (a rectangular grid), the Kunz
poset, the Frobenius number, and the dimension and extremal rays of the
face its Kunz tuples populate.  Everything is validated on the fly
against cheap structural invariants; the heavyweight oracle checks live
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple, Optional

from .cone import apply_automorphism, face_of
from .errors import CheckFailed, InvalidParams, OutOfRegime
from .poset import KunzPoset
from .semigroup import APERY, CoordTuple, NumericalSemigroup


@dataclass(frozen=True)
class EgaParams:
    """Parameters (a, h, k, d) with gcd(a,d)=1 and ah+kd > a.

    The last condition keeps a the multiplicity and the generating set
    minimal; d may be negative (the generator run then descends).  The
    inverse of d mod a is computed once here for ``ega_contains``; it is
    not a field, so it takes no part in repr, equality or hashing.
    """

    a: int
    h: int
    k: int
    d: int

    def __post_init__(self):
        if self.a < 2:
            raise InvalidParams(f"need multiplicity a >= 2, got a={self.a}")
        if self.h < 1:
            raise InvalidParams(f"need h >= 1, got h={self.h}")
        if not 1 <= self.k < self.a:
            raise InvalidParams(f"need 1 <= k < a, got k={self.k}, a={self.a}")
        if self.d == 0 or gcd(self.a, self.d) != 1:
            raise InvalidParams(f"need gcd(a, d) = 1 and d != 0, got a={self.a}, d={self.d}")
        if self.a * self.h + self.k * self.d <= self.a:
            raise InvalidParams(
                f"need ah + kd > a so the multiplicity is a, got {self.a * self.h + self.k * self.d}"
            )
        object.__setattr__(self, "_d_inv", pow(self.d, -1, self.a))

    @property
    def generators(self) -> tuple[int, ...]:
        return (self.a,) + tuple(self.a * self.h + i * self.d for i in range(1, self.k + 1))


class GridCoord(NamedTuple):
    """Grid position of an Apery element: row x >= 1, column 1 <= y <= k."""

    x: int
    y: int


def _spot(m: int, k: int) -> tuple[int, int]:
    """(row, column) of Apery position m in a grid of k columns; the zero
    element, position 0, is in row 0."""
    return (m - 1) // k + 1, (m - 1) % k + 1


def ega_new(a: int, h: int, k: int, d: int) -> tuple[EgaParams, NumericalSemigroup]:
    """Validate parameters and build the semigroup they generate.

    The k+1 presented generators need not all be minimal (for a few
    pessimistic parameter choices some are sums of the others, e.g.
    a=5, h=3, k=3, d=-3 gives <5,6,9,12> with 12 = 6+6).  Membership and
    the Frobenius formula are unaffected; the grid poset and ray formulas
    require a minimal presentation.
    """
    params = EgaParams(a, h, k, d)
    S = NumericalSemigroup(params.generators)
    if S.multiplicity != a:
        raise CheckFailed(f"{params} generates {S}, whose multiplicity is not a")
    return params, S


def ega_is_minimal(p: EgaParams) -> bool:
    """Whether the k+1 presented generators are exactly the minimal ones."""
    return NumericalSemigroup(p.generators).generators == tuple(sorted(p.generators))


def ega_contains(p: EgaParams, n: int) -> bool:
    """Closed-form membership: with r in [0, a-1] such that r*d = n mod a
    and q = (n - r*d)/a, n lies in the semigroup iff q >= 0 and
    ceil(r/k)*h <= q."""
    a = p.a
    r = n * p._d_inv % a
    q = (n - r * p.d) // a
    return q >= 0 and -(-r // p.k) * p.h <= q


def ega_apery_grid(p: EgaParams) -> list[tuple[GridCoord, int]]:
    """All a-1 nonzero Apery elements of the multiplicity, with grid spots.

    Writing a - 1 = q*k + r, the grid has q full rows of k columns plus a
    partial row of r; the element at (x, y) is x*ah + ((x-1)k + y)*d.
    Each value is cross-checked to be an Apery element by ``ega_contains``:
    it lies in the semigroup and its difference with a does not.
    """
    a, h, k, d = p.a, p.h, p.k, p.d
    out = []
    for m in range(1, a):
        spot = GridCoord(*_spot(m, k))
        value = spot.x * a * h + m * d
        if not ega_contains(p, value) or ega_contains(p, value - a):
            raise CheckFailed(f"grid value {value} at {spot} of {p} is not an Apery element")
        out.append((spot, value))
    return out


def ega_kunz_poset(a: int, k: int, d: int) -> KunzPoset:
    """Kunz poset of the family; depends only on (a, k, d mod a).

    Grid position m sits at class m*d mod a; position i precedes j iff
    x_i < x_j and y_i >= y_j.  This is the poset of every member whose
    k+1 presented generators are minimal; non-minimal presentations gain
    extra relations and land on a smaller face.
    """
    if a < 2 or not 1 <= k < a:
        raise InvalidParams(f"need 1 <= k < a and a >= 2, got a={a}, k={k}")
    if gcd(a, d) != 1:
        raise InvalidParams(f"need gcd(a, d) = 1, got a={a}, d={d}")
    coords = [_spot(m, k) for m in range(a)]
    pairs = []
    for i in range(1, a):
        xi, yi = coords[i]
        for j in range(1, a):
            xj, yj = coords[j]
            if xi < xj and yi >= yj:
                pairs.append((i * d % a, j * d % a))
    return KunzPoset(a, pairs)


def ega_frobenius(p: EgaParams) -> int:
    """Largest gap, by the sign-split closed form."""
    a, h, k, d = p.a, p.h, p.k, p.d
    top = _spot(a - 1, k)[0]  # rows of the Apery grid
    if d > 0:
        return top * a * h + (a - 1) * d - a
    return top * (a * h + k * d) + (1 - k) * d - a


def ega_face_dimension(a: int, k: int) -> int:
    """Dimension of the face of C(Z_a) cut out by the family's tuples."""
    if a < 2 or not 1 <= k < a:
        raise InvalidParams(f"need 1 <= k < a and a >= 2, got a={a}, k={k}")
    if k == a - 1:
        return a - 1
    if k == a - 2:
        return a // 2
    if k == 1:
        return 1
    return 2


def _primitive(ray: CoordTuple) -> CoordTuple:
    g = gcd(*ray.entries)
    if g > 1:
        ray = CoordTuple(ray.modulus, ray.kind, tuple(v // g for v in ray.entries))
    for v in ray.entries:
        if v != 0:
            if v < 0:
                ray = ray.scale(-1)
            break
    return ray


def ega_rays(p: EgaParams) -> tuple[CoordTuple, CoordTuple]:
    """The two extremal rays of the 2-dimensional face (regime 1 < k < a-2).

    Both rays are first written down for d = 1, where they have the plain
    shape r_i = i and t at position m equal to x*a - m*floor(a/k), then
    moved to the actual d by the coordinate automorphism i -> d*i.  The
    results are normalized primitive and checked to sharpen the
    containing face: every tight facet stays tight and at least one more
    becomes tight on each ray.
    """
    a, k = p.a, p.k
    if not 1 < k < a - 2:
        raise OutOfRegime(f"rays are defined for 1 < k < a - 2, got k={k}, a={a}")
    S = NumericalSemigroup(p.generators)
    if S.generators != tuple(sorted(p.generators)):
        raise OutOfRegime("presented generators are not minimal; the semigroup lies on a smaller face")
    fl = a // k
    r_base = CoordTuple(a, APERY, tuple(range(a)))
    t_base = CoordTuple(a, APERY, tuple(_spot(m, k)[0] * a - m * fl for m in range(a)))
    u = p.d % a
    r = _primitive(apply_automorphism(r_base, u))
    t = _primitive(apply_automorphism(t_base, u))

    face = face_of(S.coordinates(a, APERY))
    for name, ray in (("r", r), ("t", t)):
        if not face.tight < face_of(ray).tight:
            raise CheckFailed(f"ray {name} of {p} does not sharpen the face's tight set")
    if r.entries == t.entries:
        raise CheckFailed(f"rays of {p} are not independent")
    return r, t


def ega_detect(S: NumericalSemigroup) -> Optional[EgaParams]:
    """Recognize the family from a semigroup's minimal generators.

    The non-multiplicity generators must form an arithmetic run; both
    orientations (ascending d = delta, descending d = -delta) are tried,
    preferring the ascending one.  Returns None when no orientation fits.
    """
    gens = S.generators
    a = gens[0]
    rest = gens[1:]
    if a < 2 or not rest:
        return None
    k = len(rest)
    if k >= a:
        return None
    if k == 1:
        return EgaParams(a, rest[0] // a, 1, rest[0] % a)
    deltas = {rest[i + 1] - rest[i] for i in range(k - 1)}
    if len(deltas) != 1:
        return None
    delta = deltas.pop()
    for d, anchor in ((delta, rest[0]), (-delta, rest[-1])):
        ah = anchor - d
        if ah % a != 0 or ah // a < 1:
            continue
        try:
            params = EgaParams(a, ah // a, k, d)
        except InvalidParams:
            continue
        if sorted(params.generators) == list(gens):
            return params
    return None
