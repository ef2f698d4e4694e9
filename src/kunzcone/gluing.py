"""Monoscopic gluings T = <alpha> + beta*S and the matching cone embedding.

The gluing side works on semigroups; the embedding side works on cones
over Z_n, mapping tuples over the subgroup H = <h_gen> into tuples over
Z_n along a class rho that generates the quotient.  The two meet in
one walk, ``_extension_rows``: the Kunz poset of a gluing is the
(augmented or plain) extension of the base order, and glued_poset and
extend_poset both build their bit rows through it.
"""

from __future__ import annotations

import random
from itertools import accumulate
from math import gcd
from operator import or_

from .cone import face_of
from .errors import (
    AlphaIsGenerator,
    AlphaNotInS,
    CheckFailed,
    InvalidParams,
    InvalidQuotient,
    NotCoprime,
    SampleNotInterior,
)
from .poset import KunzPoset, _bits, subgroup_of
from .semigroup import APERY, CoordTuple, NumericalSemigroup, _facet_scan, _Record

class GluingSpec(_Record):
    """Data of a gluing: base semigroup S, alpha in S (not a minimal
    generator), and a scaling factor beta >= 2 coprime to alpha.  The glued
    semigroup is built once, after the checks, and is not a field."""

    _fields = ("base", "alpha", "beta")

    def __init__(self, base: NumericalSemigroup, alpha: int, beta: int):
        if beta < 2:
            raise InvalidParams(f"need beta >= 2, got {beta}")
        if gcd(alpha, beta) != 1:
            raise NotCoprime(f"gcd({alpha}, {beta}) != 1")
        if not base.contains(alpha):
            raise AlphaNotInS(f"{alpha} is not an element of {base}")
        if alpha in base.generators:
            raise AlphaIsGenerator(f"{alpha} is a minimal generator of {base}")
        glued = NumericalSemigroup([alpha] + [beta * g for g in base.generators])
        vars(self).update(base=base, alpha=alpha, beta=beta, _glued=glued)


def glue(spec: GluingSpec) -> NumericalSemigroup:
    """The glued semigroup <alpha, beta*n_1, ..., beta*n_k>."""
    gens = sorted([spec.alpha] + [spec.beta * g for g in spec.base.generators])
    T = spec._glued
    if T.generators != tuple(gens):
        raise CheckFailed(f"glued generating set {gens} of {spec} is not minimal")
    return T


def _glued_values(spec: GluingSpec) -> dict[int, int]:
    """class mod beta*m -> value, for the glued Apery set."""
    S, alpha, beta = spec.base, spec.alpha, spec.beta
    n = beta * S.multiplicity
    ap = S._apery_values(S.multiplicity)
    table = {}
    for b in range(beta):
        for a in ap:
            v = b * alpha + a * beta
            table[v % n] = v
    if len(table) != n:
        raise CheckFailed(f"glued Apery classes of {spec} collide")
    return table


def _is_apery_table(T: NumericalSemigroup, n: int, table: dict[int, int]) -> bool:
    """Whether ``table`` is Ap(T; n), n in T: each v in T, each v - n not."""
    return len(table) == n and all(
        v % n == c and T.contains(v) and not T.contains(v - n) for c, v in table.items()
    )


def glued_apery(spec: GluingSpec) -> list[int]:
    """Ap(T; beta*m) = {b*alpha + a*beta}, checked on T's membership table."""
    table = _glued_values(spec)
    if not _is_apery_table(glue(spec), spec.beta * spec.base.multiplicity, table):
        raise CheckFailed(f"closed-form Apery set of {spec} disagrees with the oracle")
    return sorted(table.values())


def _extension_rows(up: list[int], beta: int, rho: int, n: int, wrap: int) -> list[int]:
    """Bit rows over Z_n of the extension of the reflexive order ``up`` on
    Z_k (k = len(up)) along rho: beta*a + b*rho precedes beta*a' + b'*rho
    when a precedes a' and either b <= b' or ``wrap`` (the row of beta*rho's
    class; 0 for the plain extension) holds a' - a.  Each relation a -> a'
    ORs the mask of the classes beta*a' + b'*rho (b' >= b, or every b' on a
    wrap) into the row of each beta*a + b*rho: O(beta * relations)."""
    k = len(up)
    classes = [[(beta * a + b * rho) % n for b in range(beta)] for a in range(k)]
    suffix = [list(accumulate([1 << c for c in row[::-1]], or_))[::-1] for row in classes]
    rows = [0] * n
    for a1, row in enumerate(up):
        for a2 in _bits(row):
            masks = suffix[a2]
            if wrap >> (a2 - a1) % k & 1:
                masks = [masks[0]] * beta
            for c, mask in zip(classes[a1], masks):
                rows[c] |= mask
    return rows


def glued_poset(spec: GluingSpec) -> KunzPoset:
    """Kunz poset of the gluing, built from the closed-form order.

    b*alpha + a*beta precedes b'*alpha + a'*beta iff a precedes a' in the
    base Apery order and either b <= b' or (when alpha is itself an Apery
    element) alpha precedes a' - a: the extension of that order along
    alpha, as ``_extension_rows`` walks it, from the facet scan's rows of
    Ap(S; m).  (S = <1> has no Kunz poset, so this is not extend_poset.)
    The labels must pass ``glued_apery``'s membership test, so they are T's
    Apery values, and the rows' strict part must equal the order one facet
    scan reads off them (kunz_poset_of's oracle, with no Apery closure).
    """
    S, alpha, beta = spec.base, spec.alpha, spec.beta
    m = S.multiplicity
    n = beta * m
    ap = S._apery_values(m)
    up = [row | 1 << c for c, row in enumerate(_facet_scan(ap, 0)[0])]
    up[0] = (1 << m) - 1
    rows = _extension_rows(up, beta, alpha, n, up[alpha % m] if ap[alpha % m] == alpha else 0)
    table = _glued_values(spec)
    if not _is_apery_table(glue(spec), n, table):
        raise CheckFailed(f"closed-form Apery labels of {spec} disagree with the oracle")
    strict = [row & ~(1 << c) for c, row in enumerate(rows)]
    strict[0] = 0
    if strict != _facet_scan([table[c] for c in range(n)], 0)[0]:
        raise CheckFailed(f"closed-form poset of {spec} disagrees with the oracle")
    return KunzPoset._from_rows(n, rows, labels=table)


class EmbeddingSpec:
    """Embedding data: ambient Z_n, subgroup H = <h_gen>, and a class rho
    generating Z_n/H.

    H consists of the multiples of beta = gcd(n, h_gen), so H is a copy
    of Z_{n/beta} via division by beta.  Every g decomposes uniquely as
    g = a + b*rho with a in H and 0 <= b < beta; the table of (a/beta, b)
    is precomputed and drives phi, the beta ray, and poset extension.
    """

    def __init__(self, n: int, h_gen: int, rho: int):
        beta = gcd(n, h_gen % n) if n else 0  # n = 0 fails below, not in h_gen % n
        if n < 4 or beta < 2 or n // beta < 2:
            raise InvalidParams(
                f"need a proper nontrivial subgroup: n={n}, h_gen={h_gen} "
                f"gives index {beta}"
            )
        if gcd(rho % beta, beta) != 1:
            raise InvalidParams(f"rho={rho} does not generate Z_{n}/H (index {beta})")
        self.n = n
        self.h_gen = h_gen % n
        self.rho = rho % n
        self.beta = beta
        self.sub_modulus = n // beta
        self.subgroup = tuple(range(0, n, beta))
        rho_inv = pow(self.rho, -1, beta)
        decomp = []
        for g in range(n):
            b = g * rho_inv % beta
            a = (g - b * self.rho) % n
            decomp.append((a // beta, b))
        self._decomp = tuple(decomp)
        self.brho_sub = (beta * self.rho) % n // beta

    def decompose(self, g: int) -> tuple[int, int]:
        """(a/beta, b) with g = a + b*rho, a in H, 0 <= b < beta."""
        return self._decomp[g % self.n]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "h_gen": self.h_gen,
            "rho": self.rho,
            "beta": self.beta,
            "sub_modulus": self.sub_modulus,
            "subgroup": list(self.subgroup),
            "decomposition": {
                str(g): [ai * self.beta, b] for g, (ai, b) in enumerate(self._decomp)
            },
        }


def phi(spec: EmbeddingSpec, w: CoordTuple) -> CoordTuple:
    """Linear embedding of a cone point over H: the image entry at
    g = a + b*rho is beta*w_a + b*w_{beta*rho}."""
    if w.modulus != spec.sub_modulus:
        raise InvalidQuotient(
            f"tuple modulus {w.modulus} does not match the subgroup copy "
            f"Z_{spec.sub_modulus}"
        )
    if w.kind != APERY:
        raise ValueError("phi expects homogeneous (apery-kind) coordinates")
    face_of(w)  # membership check; raises NotInCone on a violated facet
    wb = w.entries[spec.brho_sub]
    entries = tuple(
        spec.beta * w.entries[ai] + b * wb for ai, b in spec._decomp
    )
    return CoordTuple(spec.n, APERY, entries)


def beta_ray(spec: EmbeddingSpec) -> CoordTuple:
    """The ray with entry b at g = a + b*rho; zero exactly on H."""
    return CoordTuple(spec.n, APERY, tuple(b for _, b in spec._decomp))


def extend_poset(P: KunzPoset, spec: EmbeddingSpec, augmented: bool) -> KunzPoset:
    """Extend a poset on a quotient of H to one on the matching quotient
    of Z_n.

    Plain extension: a + b*rho precedes a' + b'*rho iff a precedes a' in
    P and b <= b'; order-isomorphic to the product of P with a chain of
    length beta.  The augmented extension also accepts pairs with
    beta*rho preceding a' - a in P.  When the class of beta*rho is the
    bottom of P the augmented order collapses along rho: the result then
    lives on Z_n/(H' + <rho>) and is a relabelled copy of P.

    beta*a + b*rho (a in P's ground, 0 <= b < beta) meets every class of
    Z_n / beta*H' once, and the rows come from one ``_extension_rows``
    walk over P's rows in all three cases; a collapsed order's rows fold
    onto Z_n/(H' + <rho>).
    """
    if P.modulus != spec.sub_modulus:
        raise InvalidQuotient(
            f"poset modulus {P.modulus} does not match the subgroup copy "
            f"Z_{spec.sub_modulus}"
        )
    n, beta = spec.n, spec.beta
    wrap = P._up[P.index_of(spec.brho_sub)] if augmented else 0
    rows = _extension_rows(P._up, beta, spec.rho, n, wrap)
    sub = [beta * h % n for h in P.subgroup]
    if wrap & 1:  # beta*rho is the bottom of P: the order collapses along rho
        sub.append(spec.rho)
    return KunzPoset._from_rows(n, rows, subgroup=subgroup_of(n, sub))


def verify_face_image(spec: EmbeddingSpec, samples, rng=None) -> dict:
    """Check the face-image claims on interior samples of one face F.

    For each sample w: the face of phi(w) must have the augmented
    extension of F's poset and the same dimension, and the push off
    q*phi(w) + p*ray along the beta ray (random p, q in 1..9) must land
    on a face with the plain extension's poset and dimension one higher.
    The cone is homogeneous, so that is the face of phi(w) + (p/q)*ray,
    and the point stays integral for integral samples.  Image faces with
    equal rows are kept as one ConeFace, so they share one span and poset.
    """
    if rng is None:
        rng = random.Random(0)
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    F, *others = [face_of(w) for w in samples]
    if any(f != F for f in others):
        raise SampleNotInterior("samples lie on different faces of the cone")
    P = F.kunz_poset
    augmented = extend_poset(P, spec, augmented=True)
    plain = extend_poset(P, spec, augmented=False)
    ray, faces = beta_ray(spec), {}  # image face -> its first ConeFace object
    keys = ("augmented_poset", "plain_poset", "image_dimension", "ray_dimension")
    report = {"samples": len(samples), **dict.fromkeys(keys, True)}
    for w in samples:
        x = phi(spec, w)
        fx = faces.setdefault(f := face_of(x), f)
        p, q = rng.randint(1, 9), rng.randint(1, 9)
        fy = faces.setdefault(f := face_of(x.scale(q) + ray.scale(p)), f)
        held = (fx.kunz_poset == augmented, fy.kunz_poset == plain,
                fx.dimension == F.dimension, fy.dimension == F.dimension + 1)
        for key, ok in zip(keys, held):
            report[key] = report[key] and ok
    report["passed"] = all(report[key] for key in keys)
    return report


def factor_monoscopic(T: NumericalSemigroup) -> tuple[NumericalSemigroup, int, int] | None:
    """Express T as <alpha> + beta*S if possible.

    Scans the minimal generators in ascending order for an alpha whose
    complement has a common factor beta >= 2 coprime to alpha, such that
    alpha lies in S = <complement/beta> without being one of its minimal
    generators.  Returns (S, alpha, beta), or None.
    """
    gens = T.generators
    for alpha in gens:
        rest = [g for g in gens if g != alpha]
        beta = gcd(*rest)
        if beta < 2 or gcd(alpha, beta) != 1:
            continue
        S = NumericalSemigroup(g // beta for g in rest)
        if S.contains(alpha) and alpha not in S.generators:
            return S, alpha, beta
    return None
