"""Seeded verification sweeps for the CLI verify subcommand.

Each suite replays a family of closed-form results against the
brute-force side of the library (Dijkstra Apery sets, exact rank).  One
recorder counts the checks of a run and keeps a label for each failed
one, formatted only on a miss; its report holds the count, the number
of failures and the first 20 labels.  All randomness flows through one
seeded Random instance, so output is reproducible byte for byte.
"""

from __future__ import annotations

import random
from math import gcd

from .arithmetic import (
    EgaParams,
    ega_contains,
    ega_face_dimension,
    ega_frobenius,
    ega_kunz_poset,
    ega_rays,
)
from .cone import apply_automorphism, face_of
from .errors import CheckFailed, DomainError, InvalidParams
from .gluing import (
    EmbeddingSpec,
    GluingSpec,
    extend_poset,
    factor_monoscopic,
    glue,
    glued_apery,
    glued_poset,
    verify_face_image,
)
from .poset import kunz_poset_of
from .semigroup import APERY, KUNZ, NumericalSemigroup, from_kunz_tuple

SUITES = ("roundtrip", "ega", "gluing", "embedding")


def random_semigroup_with_multiplicity(rng: random.Random, m: int) -> NumericalSemigroup:
    """Random semigroup with the given multiplicity; generators < 3m."""
    if m == 1:
        return NumericalSemigroup([1])
    gens = {m}
    for _ in range(rng.randint(1, max(2, m // 2))):
        gens.add(rng.randint(m + 1, 3 * m - 1))
    while gcd(*gens) != 1:
        gens.add(rng.randint(m + 1, 3 * m - 1))
    return NumericalSemigroup(gens)


def iter_ega_params(max_a: int, max_h: int):
    """All valid parameter tuples with a <= max_a, h <= max_h, |d| <= a."""
    for a in range(2, max_a + 1):
        for k in range(1, a):
            for h in range(1, max_h + 1):
                for dd in range(1, a + 1):
                    for d in (dd, -dd):
                        try:
                            yield EgaParams(a, h, k, d)
                        except InvalidParams:
                            continue


class _Audit:
    """Check count and failure labels of one suite run."""

    def __init__(self, suite: str, seed: int):
        self.suite, self.seed, self.checks, self.failures = suite, seed, 0, []

    def check(self, ok, label: str, *args) -> bool:
        """Count one check; on a miss keep ``label.format(*args)``."""
        self.checks += 1
        if not ok:
            self.failures.append(label.format(*args))
        return ok

    def report(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "checks": self.checks,
            "failures": len(self.failures),
            "failed_checks": self.failures[:20],
        }


def suite_roundtrip(seed: int, max_m: int = 15) -> dict:
    """Kunz-tuple reconstruction, face/poset agreement and automorphism
    action on 200 random semigroups."""
    rng = random.Random(seed)
    audit = _Audit("roundtrip", seed)
    for _ in range(200):
        S = random_semigroup_with_multiplicity(rng, rng.randint(2, max_m))
        m = S.multiplicity
        audit.check(from_kunz_tuple(m, S.coordinates(m, KUNZ)) == S, "kunz round trip {}", S)
        face = face_of(S.coordinates(m, APERY))
        ok = face.kunz_subgroup == (0,) and face.kunz_poset == kunz_poset_of(S, m)
        audit.check(ok, "face data of {}", S)
        u = rng.choice([u for u in range(1, m) if gcd(u, m) == 1])
        ok = apply_automorphism(apply_automorphism(face, u), pow(u, -1, m)) == face
        audit.check(ok, "automorphism round trip {} u={}", S, u)
    return audit.report()


def suite_ega(seed: int, max_m: int = 12) -> dict:
    """Membership, Frobenius, grid poset, dimension, and rays vs the oracle,
    for every parameter tuple with h <= 2."""
    audit = _Audit("ega", seed)
    tag = " (a={0.a},h={0.h},k={0.k},d={0.d})"
    for p in iter_ega_params(max_m, 2):
        S = NumericalSemigroup(p.generators)
        x = S.coordinates(p.a, APERY)
        dist = x.entries
        audit.check(ega_frobenius(p) == max(dist) - p.a, "frobenius" + tag, p)
        ok = all(
            ega_contains(p, dist[c]) and (dist[c] < p.a or not ega_contains(p, dist[c] - p.a))
            for c in range(p.a)
        )
        audit.check(ok, "membership boundary" + tag, p)
        audit.check(ega_kunz_poset(p.a, p.k, p.d) == kunz_poset_of(S, p.a), "grid poset" + tag, p)
        audit.check(ega_face_dimension(p.a, p.k) == face_of(x).dimension, "face dimension" + tag, p)
        if 1 < p.k < p.a - 2 and p.h == 1:
            try:
                ega_rays(p)
                ok = True
            except CheckFailed:
                ok = False
            audit.check(ok, "rays" + tag, p)
    return audit.report()


def suite_gluing(seed: int, max_m: int = 10, max_beta: int = 5) -> dict:
    """Closed-form Apery/poset of gluings, the extension bridge and
    factoring, on 12 random bases."""
    rng = random.Random(seed)
    audit = _Audit("gluing", seed)
    tag = " ({}, a={}, b={})"
    for _ in range(12):
        S = random_semigroup_with_multiplicity(rng, rng.randint(3, max_m))
        m = S.multiplicity
        ap = set(S.apery_set(m))
        base_poset = kunz_poset_of(S, m)
        top = S.frobenius() + 2 * m
        for beta in range(2, max_beta + 1):
            for alpha in range(1, top + 1):
                try:
                    spec = GluingSpec(S, alpha, beta)
                except DomainError:
                    continue
                try:
                    T = glue(spec)
                    glued_apery(spec)
                    P = glued_poset(spec)
                except CheckFailed:
                    P = None
                if not audit.check(P is not None, "gluing closed form" + tag, S, alpha, beta):
                    continue
                n = beta * m
                emb = EmbeddingSpec(n, beta, alpha % n)
                ok = extend_poset(base_poset, emb, augmented=alpha in ap) == P
                audit.check(ok, "extension bridge" + tag, S, alpha, beta)
                triple = factor_monoscopic(T)
                ok = triple is not None and glue(GluingSpec(*triple)) == T
                audit.check(ok, "factor round trip" + tag, S, alpha, beta)
    return audit.report()


def suite_embedding(seed: int) -> dict:
    """verify_face_image over 25 embedding specs with n <= 24 (the first
    one fixed, the others random) and a random face for each."""
    rng = random.Random(seed)
    audit = _Audit("embedding", seed)
    specs = [EmbeddingSpec(12, 3, 7)]
    while len(specs) < 25:
        n = rng.randint(4, 24)
        divisors = [b for b in range(2, n) if n % b == 0 and n // b >= 2]
        if not divisors:
            continue
        beta = rng.choice(divisors)
        rho = rng.choice([r for r in range(1, n) if gcd(r % beta, beta) == 1])
        specs.append(EmbeddingSpec(n, beta, rho))
    for spec in specs:
        S = random_semigroup_with_multiplicity(rng, spec.sub_modulus)
        w = S.coordinates(spec.sub_modulus, APERY)
        report = verify_face_image(spec, [w, w.scale(2)], rng)
        for key in ("augmented_poset", "plain_poset", "image_dimension", "ray_dimension"):
            audit.check(report[key], "{0} n={1.n} h={1.h_gen} rho={1.rho} {2}", key, spec, S)
    return audit.report()


# (least, greatest) value of each size a suite reads: multiplicities start at 2
# (3 for gluing bases); the largest sizes make sweeps of a few tens of seconds
MAX_M, MAX_BETA = 400, 20
SIZE_BOUNDS = {
    "roundtrip": {"max_m": (2, MAX_M)},
    "ega": {"max_m": (2, MAX_M)},
    "gluing": {"max_m": (3, MAX_M), "max_beta": (2, MAX_BETA)},
}


def size_error(name: str, **sizes):
    """The first of the size arguments ``sizes`` that suite ``name`` reads
    and that is out of its bounds, as (argument, comparison, bound), or None."""
    for arg, (least, most) in SIZE_BOUNDS.get(name, {}).items():
        if not least <= sizes[arg] <= most:
            return (arg, ">=", least) if sizes[arg] < least else (arg, "<=", most)
    return None


def run_suite(name: str, seed: int, max_m: int = 15, max_beta: int = 5) -> dict:
    bad = size_error(name, max_m=max_m, max_beta=max_beta)
    if bad is not None:
        raise ValueError("suite {} needs {} {} {}".format(name, *bad))
    if name == "roundtrip":
        return suite_roundtrip(seed, max_m=max_m)
    if name == "ega":
        return suite_ega(seed, max_m=min(max_m, 12))
    if name == "gluing":
        return suite_gluing(seed, max_m=min(max_m, 10), max_beta=max_beta)
    if name == "embedding":
        return suite_embedding(seed)
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
