"""Monoscopic gluings T = <alpha> + beta*S and the matching cone embedding.

The gluing side works on semigroups; the embedding side works on cones
over Z_n, mapping tuples over the subgroup H = <h_gen> into tuples over
Z_n along a class rho that generates the quotient.  The two meet in
extend_poset: the Kunz poset of a gluing is the (augmented or plain)
extension of the base poset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import or_
from typing import Optional

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
from .poset import KunzPoset, _apery_order, subgroup_of
from .semigroup import APERY, CoordTuple, NumericalSemigroup

@dataclass(frozen=True)
class GluingSpec:
    """Data of a gluing: base semigroup S, alpha in S (not a minimal
    generator), and a scaling factor beta >= 2 coprime to alpha.  The glued
    semigroup is built once, after the checks, and is not a field."""

    base: NumericalSemigroup
    alpha: int
    beta: int

    def __post_init__(self):
        if self.beta < 2:
            raise InvalidParams(f"need beta >= 2, got {self.beta}")
        if gcd(self.alpha, self.beta) != 1:
            raise NotCoprime(f"gcd({self.alpha}, {self.beta}) != 1")
        if not self.base.contains(self.alpha):
            raise AlphaNotInS(f"{self.alpha} is not an element of {self.base}")
        if self.alpha in self.base.generators:
            raise AlphaIsGenerator(f"{self.alpha} is a minimal generator of {self.base}")
        gens = [self.alpha] + [self.beta * g for g in self.base.generators]
        object.__setattr__(self, "_glued", NumericalSemigroup(gens))


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


def glued_apery(spec: GluingSpec) -> list[int]:
    """Ap(T; beta*m) = {b*alpha + a*beta}, cross-checked against the oracle:
    n = beta*m is in T, so v is the least element of T in its class exactly
    when v is in T and v - n is not, which T's membership table decides."""
    table = _glued_values(spec)
    T, n = glue(spec), spec.beta * spec.base.multiplicity
    if len(table) != n or not all(
        v % n == c and T.contains(v) and not T.contains(v - n) for c, v in table.items()
    ):
        raise CheckFailed(f"closed-form Apery set of {spec} disagrees with the oracle")
    return sorted(table.values())


def _class_grid(parts, beta: int, step: int, n: int):
    """For each a in ``parts``: the classes (beta*a + b*step) mod n for
    0 <= b < beta, and for each b the mask of those with b' >= b."""
    classes = [[(beta * a + b * step) % n for b in range(beta)] for a in parts]
    return classes, [list(accumulate([1 << c for c in row[::-1]], or_))[::-1] for row in classes]


def glued_poset(spec: GluingSpec) -> KunzPoset:
    """Kunz poset of the gluing, built from the closed-form order.

    b*alpha + a*beta precedes b'*alpha + a'*beta iff a precedes a' in the
    base Apery order and either b <= b' or (when alpha is itself an Apery
    element) alpha precedes a' - a.  Each base pair a, a' with a' - a in
    Ap(S; m) ORs a precomputed mask of the classes b'*alpha + a'*beta
    (b' >= b, or all b' on a wrap) into the up-set row of each class
    b*alpha + a*beta: O(m^2 + beta * relations) for n bit rows.  Their
    strict part above the bottom must equal the rows of the glued
    semigroup's Apery order (the oracle of kunz_poset_of), and the labels
    must match its Apery values class by class, before the one poset is
    built; both hold the reflexive pairs and the bottom row.
    """
    S, alpha, beta = spec.base, spec.alpha, spec.beta
    m = S.multiplicity
    n = beta * m
    ap = S._apery_values(m)
    alpha_in_ap = alpha in ap
    table = _glued_values(spec)
    classes, suffix = _class_grid(ap, beta, alpha, n)
    rows = [0] * n
    for c1, a1 in enumerate(ap):
        for c2, a2 in enumerate(ap):
            diff = a2 - a1
            if diff < 0 or ap[diff % m] != diff:
                continue
            masks = suffix[c2]
            if alpha_in_ap and S.contains(diff - alpha):
                masks = [masks[0]] * beta
            for c, mask in zip(classes[c1], masks):
                rows[c] |= mask
    values, oracle = _apery_order(glue(spec), n)
    strict = [row & ~(1 << c) for c, row in enumerate(rows)]
    strict[0] = 0
    if strict != oracle:
        raise CheckFailed(f"closed-form poset of {spec} disagrees with the oracle")
    if table != dict(enumerate(values)):
        raise CheckFailed(f"closed-form Apery labels of {spec} disagree with the oracle")
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

    Otherwise beta*a + b*rho (a in P's ground, 0 <= b < beta) meets every
    class of Z_n / beta*H' once, and one walk over the relation of P,
    reflexive pairs included, ORs for each a -> a' a precomputed mask of
    the classes beta*a' + b'*rho (b' >= b, or all b' on a wrap) into the
    bit row of each beta*a + b*rho: O(beta * relations) for n rows.
    """
    if P.modulus != spec.sub_modulus:
        raise InvalidQuotient(
            f"poset modulus {P.modulus} does not match the subgroup copy "
            f"Z_{spec.sub_modulus}"
        )
    n, beta, rho = spec.n, spec.beta, spec.rho
    if augmented and P.index_of(spec.brho_sub) == 0:
        sub = subgroup_of(n, [beta * h % n for h in P.subgroup] + [rho])
        pairs = [(beta * a % n, beta * b % n) for a, b in P.relations()]
        return KunzPoset(n, pairs, subgroup=sub)
    sub = tuple(beta * h % n for h in P.subgroup)
    classes, suffix = _class_grid(P.ground, beta, rho, n)
    rows = [0] * n
    for a1, a2 in [(a, a) for a in P.ground] + P.relations():
        masks = suffix[a2]
        if augmented and P.leq(spec.brho_sub, a2 - a1):
            masks = [masks[0]] * beta
        for c, mask in zip(classes[a1], masks):
            rows[c] |= mask
    return KunzPoset._from_rows(n, rows, subgroup=sub)


def verify_face_image(spec: EmbeddingSpec, samples, rng=None) -> dict:
    """Check the face-image claims on interior samples of one face F.

    For each sample w: the face of phi(w) must have the augmented
    extension of F's poset and the same dimension; pushing off along the
    beta ray by a random positive amount must land on a face with the
    plain extension's poset and dimension one higher.
    """
    if rng is None:
        rng = random.Random(0)
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    faces = [face_of(w) for w in samples]
    for f in faces[1:]:
        if f.tight != faces[0].tight:
            raise SampleNotInterior("samples lie on different faces of the cone")
    F = faces[0]
    P = F.kunz_poset
    augmented = extend_poset(P, spec, augmented=True)
    plain = extend_poset(P, spec, augmented=False)
    ray = beta_ray(spec)
    keys = ("augmented_poset", "plain_poset", "image_dimension", "ray_dimension")
    report = {"samples": len(samples), **dict.fromkeys(keys, True)}
    for w in samples:
        x = phi(spec, w)
        fx = face_of(x)
        if fx.kunz_poset != augmented:
            report["augmented_poset"] = False
        if fx.dimension != F.dimension:
            report["image_dimension"] = False
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        fy = face_of(x + ray.scale(c))
        if fy.kunz_poset != plain:
            report["plain_poset"] = False
        if fy.dimension != F.dimension + 1:
            report["ray_dimension"] = False
    report["passed"] = all(report[key] for key in keys)
    return report


def factor_monoscopic(
    T: NumericalSemigroup,
) -> Optional[tuple[NumericalSemigroup, int, int]]:
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
