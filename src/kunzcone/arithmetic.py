"""Closed forms for arithmetic-like semigroups <a, ah+d, ah+2d, ..., ah+kd>.

The family (here "EGA", extra-generalized arithmetical) admits exact
formulas for the Apery set (a rectangular grid, whose closed form also
gives the class table behind membership), the Kunz poset, the Frobenius
number, and the dimension and extremal rays of the face its Kunz tuples
populate.  Everything is validated on the fly against cheap structural
invariants; the heavyweight oracle checks live in the test suite.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from operator import index

from .cone import apply_automorphism, face_of
from .errors import CheckFailed, InvalidParams, OutOfRegime
from .poset import KunzPoset
from .semigroup import APERY, CoordTuple, NumericalSemigroup, _Record


class EgaParams(_Record):
    """Parameters (a, h, k, d) with gcd(a,d)=1 and ah+kd > a.

    The last condition keeps a the multiplicity and the generating set
    minimal; d may be negative (the generator run then descends).  The
    Apery table ``ega_contains`` reads is built here in O(a) from the closed
    form; it is not a field, so it takes no part in repr, equality or hashing.
    """

    _fields = ("a", "h", "k", "d")

    def __init__(self, a: int, h: int, k: int, d: int):
        a, h, k, d = index(a), index(h), index(k), index(d)
        if a < 2:
            raise InvalidParams(f"need multiplicity a >= 2, got a={a}")
        if h < 1:
            raise InvalidParams(f"need h >= 1, got h={h}")
        if not 1 <= k < a:
            raise InvalidParams(f"need 1 <= k < a, got k={k}, a={a}")
        if d == 0 or gcd(a, d) != 1:
            raise InvalidParams(f"need gcd(a, d) = 1 and d != 0, got a={a}, d={d}")
        if a * h + k * d <= a:
            raise InvalidParams(f"need ah + kd > a so the multiplicity is a, got {a * h + k * d}")
        apery = [0] * a
        for r in range(1, a):  # class r*d mod a holds r*d + a*h*ceil(r/k)
            apery[r * d % a] = r * d - (-r // k) * a * h
        vars(self).update(a=a, h=h, k=k, d=d, _apery=tuple(apery))

    @property
    def generators(self) -> tuple[int, ...]:
        return (self.a,) + tuple(self.a * self.h + i * self.d for i in range(1, self.k + 1))


GridCoord = namedtuple("GridCoord", "x y")
GridCoord.__doc__ = """Grid position of an Apery element: row x >= 1, column 1 <= y <= k."""


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
    """Membership as in ``NumericalSemigroup.contains``: n is in the semigroup
    iff it is at least the Apery table's entry for its class mod a."""
    table = p._apery
    return n >= table[n % len(table)]


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
    a, k, d = index(a), index(k), index(d)
    if a < 2 or not 1 <= k < a:
        raise InvalidParams(f"need 1 <= k < a and a >= 2, got a={a}, k={k}")
    if gcd(a, d) != 1:
        raise InvalidParams(f"need gcd(a, d) = 1, got a={a}, d={d}")
    spots = [_spot(m, k) for m in range(a)]
    rows = [0] * a
    for i, (x, y) in enumerate(spots):
        rows[i * d % a] = sum(1 << j * d % a for j, (u, v) in enumerate(spots) if x < u and y >= v)
    return KunzPoset._from_rows(a, rows)


def ega_frobenius(p: EgaParams) -> int:
    """Largest gap, by the sign-split closed form."""
    a, h, k, d = p.a, p.h, p.k, p.d
    top = _spot(a - 1, k)[0]  # rows of the Apery grid
    if d > 0:
        return top * a * h + (a - 1) * d - a
    return top * (a * h + k * d) + (1 - k) * d - a


def ega_face_dimension(a: int, k: int) -> int:
    """Dimension of the face of C(Z_a) cut out by the family's tuples."""
    a, k = index(a), index(k)
    if a < 2 or not 1 <= k < a:
        raise InvalidParams(f"need 1 <= k < a and a >= 2, got a={a}, k={k}")
    if k == a - 1:
        return a - 1
    if k == a - 2:
        return a // 2
    if k == 1:
        return 1
    return 2


def ega_rays(p: EgaParams) -> tuple[CoordTuple, CoordTuple]:
    """The two extremal rays of the 2-dimensional face (regime 1 < k < a-2).

    Both rays are first written down for d = 1, where they have the plain
    shape r_i = i and t at position m equal to x*a - m*floor(a/k), then
    moved to the actual d by the coordinate automorphism i -> d*i.  The
    templates are >= 0 and t's is divided by its gcd, so the rays come out
    primitive.  Each is checked to sharpen the containing face: every tight
    facet stays tight and at least one more becomes tight on it.
    """
    a, k = p.a, p.k
    if not 1 < k < a - 2:
        raise OutOfRegime(f"rays are defined for 1 < k < a - 2, got k={k}, a={a}")
    S = NumericalSemigroup(p.generators)
    if S.generators != tuple(sorted(p.generators)):
        raise OutOfRegime("presented generators are not minimal; the semigroup lies on a smaller face")
    fl = a // k
    t_base = [_spot(m, k)[0] * a - m * fl for m in range(a)]
    g = gcd(*t_base)
    u = p.d % a
    r = apply_automorphism(CoordTuple(a, APERY, tuple(range(a))), u)
    t = apply_automorphism(CoordTuple(a, APERY, tuple(v // g for v in t_base)), u)

    up = face_of(S.coordinates(a, APERY))._up
    for name, ray in (("r", r), ("t", t)):
        ray_up = face_of(ray)._up  # the rows of a strict superset of the tight pairs
        if up == ray_up or any(row & ~ray_row for row, ray_row in zip(up, ray_up)):
            raise CheckFailed(f"ray {name} of {p} does not sharpen the face's tight set")
    if r.entries == t.entries:
        raise CheckFailed(f"rays of {p} are not independent")
    return r, t


def ega_detect(S: NumericalSemigroup) -> EgaParams | None:
    """Recognize the family from a semigroup's minimal generators.

    The non-multiplicity generators must form an arithmetic run; both
    orientations (ascending d = delta, descending d = -delta) are tried,
    preferring the ascending one.  Returns None when no orientation fits.
    """
    gens = S.generators
    a = gens[0]
    rest = gens[1:]
    if not rest:
        return None
    k = len(rest)  # minimal generators lie in distinct nonzero classes mod a, so k < a
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
        # gcd(a, delta) = 1 as gens has gcd 1, and ah + kd is an extreme of rest, so > a
        params = EgaParams(a, ah // a, k, d)
        if sorted(params.generators) == list(gens):
            return params
    return None
