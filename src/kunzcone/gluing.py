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
from math import gcd
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
    generator), and a scaling factor beta >= 2 coprime to alpha."""

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


def glue(spec: GluingSpec) -> NumericalSemigroup:
    """The glued semigroup <alpha, beta*n_1, ..., beta*n_k>."""
    gens = [spec.alpha] + [spec.beta * g for g in spec.base.generators]
    T = NumericalSemigroup(gens)
    if T.generators != tuple(sorted(gens)):
        raise CheckFailed(f"glued generating set {sorted(gens)} of {spec} is not minimal")
    return T


def _glued_values(spec: GluingSpec) -> dict[int, tuple[int, int, int]]:
    """class mod beta*m -> (value, b, a) for the glued Apery set."""
    S, alpha, beta = spec.base, spec.alpha, spec.beta
    m = S.multiplicity
    n = beta * m
    ap = S.apery_set(m)
    table = {}
    for b in range(beta):
        for a in ap:
            v = b * alpha + a * beta
            table[v % n] = (v, b, a)
    if len(table) != n:
        raise CheckFailed(f"glued Apery classes of {spec} collide")
    return table


def glued_apery(spec: GluingSpec) -> list[int]:
    """Ap(T; beta*m) = {b*alpha + a*beta}, cross-checked against the oracle."""
    values = sorted(v for v, _, _ in _glued_values(spec).values())
    T = glue(spec)
    if values != T.apery_set(spec.beta * spec.base.multiplicity):
        raise CheckFailed(f"closed-form Apery set of {spec} disagrees with the oracle")
    return values


def glued_poset(spec: GluingSpec) -> KunzPoset:
    """Kunz poset of the gluing, built from the closed-form order.

    b*alpha + a*beta precedes b'*alpha + a'*beta iff a precedes a' in the
    base Apery order and either b <= b' or (when alpha is itself an Apery
    element) alpha precedes a' - a.  Each base pair a, a' with a' - a in
    Ap(S; m) emits its class pairs: O(m^2 + beta^2 * relations), not
    O((beta*m)^2).  Before the one poset is built, the pair set must equal
    the glued semigroup's Apery order (the oracle of kunz_poset_of); both
    are reflexive with a bottom row, so equal sets mean equal posets.
    """
    S, alpha, beta = spec.base, spec.alpha, spec.beta
    m = S.multiplicity
    n = beta * m
    ap = S.apery_set(m)
    ap_set = set(ap)
    alpha_in_ap = alpha in ap_set
    table = _glued_values(spec)
    pairs = set()
    for a1 in ap:
        for a2 in ap:
            diff = a2 - a1
            if diff not in ap_set:
                continue
            wrap = alpha_in_ap and S.contains(diff - alpha)
            for b1 in range(beta):
                c1 = (b1 * alpha + a1 * beta) % n
                for b2 in range(0 if wrap else b1, beta):
                    pairs.add((c1, (b2 * alpha + a2 * beta) % n))
    if pairs != set(_apery_order(glue(spec), n)[1]):
        raise CheckFailed(f"closed-form poset of {spec} disagrees with the oracle")
    return KunzPoset(n, pairs, labels={c: v for c, (v, _, _) in table.items()})


class EmbeddingSpec:
    """Embedding data: ambient Z_n, subgroup H = <h_gen>, and a class rho
    generating Z_n/H.

    H consists of the multiples of beta = gcd(n, h_gen), so H is a copy
    of Z_{n/beta} via division by beta.  Every g decomposes uniquely as
    g = a + b*rho with a in H and 0 <= b < beta; the table of (a/beta, b)
    is precomputed and drives phi, the beta ray, and poset extension.
    """

    def __init__(self, n: int, h_gen: int, rho: int):
        beta = gcd(n, h_gen % n)
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

    Otherwise one walk over the relation of P, reflexive pairs included,
    emits the pairs: beta*a + b*rho (a in P's ground, 0 <= b < beta) meets
    every class of Z_n / beta*H' once, so the cost is O(beta^2 * relations).
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
    pairs = []
    for a1, a2 in [(a, a) for a in P.ground] + P.relations():
        wrap = augmented and P.leq(spec.brho_sub, a2 - a1)
        for b1 in range(beta):
            g1 = (beta * a1 + b1 * rho) % n
            for b2 in range(0 if wrap else b1, beta):
                pairs.append((g1, (beta * a2 + b2 * rho) % n))
    return KunzPoset(n, pairs, subgroup=sub)


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
    report = {
        "samples": len(samples),
        "augmented_poset": True,
        "plain_poset": True,
        "image_dimension": True,
        "ray_dimension": True,
    }
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
    report["passed"] = all(
        report[key]
        for key in ("augmented_poset", "plain_poset", "image_dimension", "ray_dimension")
    )
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
        beta = 0
        for g in rest:
            beta = gcd(beta, g)
        if beta < 2 or gcd(alpha, beta) != 1:
            continue
        S = NumericalSemigroup(g // beta for g in rest)
        if S.contains(alpha) and alpha not in S.generators:
            return S, alpha, beta
    return None
