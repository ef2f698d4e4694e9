"""Seeded verification sweeps for the CLI verify subcommand.

Each suite replays a family of closed-form results against the
brute-force side of the library (Dijkstra Apery sets, exact rank) and
reports check/failure counts.  All randomness flows through one seeded
Random instance, so output is reproducible byte for byte.
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
from .semigroup import (
    APERY,
    KUNZ,
    NumericalSemigroup,
    from_kunz_tuple,
)

SUITES = ("roundtrip", "ega", "gluing", "embedding")


def random_semigroup(rng: random.Random, max_m: int, min_m: int = 2) -> NumericalSemigroup:
    """Random semigroup with multiplicity in [min_m, max_m]."""
    return random_semigroup_with_multiplicity(rng, rng.randint(min_m, max_m))


def random_semigroup_with_multiplicity(rng: random.Random, m: int) -> NumericalSemigroup:
    """Random semigroup with the given multiplicity; generators < 3m."""
    if m == 1:
        return NumericalSemigroup([1])
    gens = {m}
    for _ in range(rng.randint(1, max(2, m // 2))):
        gens.add(rng.randint(m + 1, 3 * m - 1))
    acc = 0
    for v in gens:
        acc = gcd(acc, v)
    while acc != 1:
        g = rng.randint(m + 1, 3 * m - 1)
        gens.add(g)
        acc = gcd(acc, g)
    return NumericalSemigroup(gens)


def iter_ega_params(max_a: int, max_h: int, d_factor: int = 2):
    """All valid parameter tuples with a <= max_a, h <= max_h, |d| <= d_factor*a."""
    for a in range(2, max_a + 1):
        for k in range(1, a):
            for h in range(1, max_h + 1):
                for dd in range(1, d_factor * a + 1):
                    for d in (dd, -dd):
                        try:
                            yield EgaParams(a, h, k, d)
                        except InvalidParams:
                            continue


def _report(suite: str, seed: int, checks: int, failures: list) -> dict:
    return {
        "suite": suite,
        "seed": seed,
        "checks": checks,
        "failures": len(failures),
        "failed_checks": failures[:20],
    }


def suite_roundtrip(seed: int, max_m: int = 15, count: int = 200) -> dict:
    """Kunz-tuple reconstruction, face/poset agreement, automorphism action."""
    rng = random.Random(seed)
    checks = 0
    failures: list[str] = []
    for _ in range(count):
        S = random_semigroup(rng, max_m)
        m = S.multiplicity
        checks += 1
        if from_kunz_tuple(m, S.coordinates(m, KUNZ)) != S:
            failures.append(f"kunz round trip {S}")
        face = face_of(S.coordinates(m, APERY))
        checks += 1
        if face.kunz_subgroup != (0,) or face.kunz_poset != kunz_poset_of(S, m):
            failures.append(f"face data of {S}")
        units = [u for u in range(1, m) if gcd(u, m) == 1]
        u = rng.choice(units)
        checks += 1
        if apply_automorphism(apply_automorphism(face, u), pow(u, -1, m)) != face:
            failures.append(f"automorphism round trip {S} u={u}")
    return _report("roundtrip", seed, checks, failures)


def suite_ega(seed: int, max_m: int = 12, max_h: int = 2) -> dict:
    """Membership, Frobenius, grid poset, dimension, and rays vs the oracle."""
    checks = 0
    failures: list[str] = []
    for p in iter_ega_params(max_m, max_h, d_factor=1):
        tag = f"(a={p.a},h={p.h},k={p.k},d={p.d})"
        S = NumericalSemigroup(p.generators)
        x = S.coordinates(p.a, APERY)
        dist = x.entries
        frob = max(dist) - p.a
        checks += 1
        if ega_frobenius(p) != frob:
            failures.append(f"frobenius {tag}")
        checks += 1
        ok = all(
            ega_contains(p, dist[c]) and (dist[c] < p.a or not ega_contains(p, dist[c] - p.a))
            for c in range(p.a)
        )
        if not ok:
            failures.append(f"membership boundary {tag}")
        checks += 1
        if ega_kunz_poset(p.a, p.k, p.d) != kunz_poset_of(S, p.a):
            failures.append(f"grid poset {tag}")
        checks += 1
        if ega_face_dimension(p.a, p.k) != face_of(x).dimension:
            failures.append(f"face dimension {tag}")
        if 1 < p.k < p.a - 2 and p.h == 1:
            checks += 1
            try:
                ega_rays(p)
            except CheckFailed:
                failures.append(f"rays {tag}")
    return _report("ega", seed, checks, failures)


def suite_gluing(seed: int, max_m: int = 10, max_beta: int = 5, bases: int = 12) -> dict:
    """Closed-form Apery/poset of gluings, the extension bridge, factoring."""
    rng = random.Random(seed)
    checks = 0
    failures: list[str] = []
    for _ in range(bases):
        S = random_semigroup(rng, max_m, min_m=3)
        m = S.multiplicity
        ap = set(S.apery_set(m))
        top = S.frobenius() + 2 * m
        for beta in range(2, max_beta + 1):
            for alpha in range(1, top + 1):
                try:
                    spec = GluingSpec(S, alpha, beta)
                except DomainError:
                    continue
                tag = f"({S}, a={alpha}, b={beta})"
                T = glue(spec)
                n = beta * m
                checks += 1
                try:
                    glued_apery(spec)
                    P = glued_poset(spec)
                except CheckFailed:
                    failures.append(f"gluing closed form {tag}")
                    continue
                emb = EmbeddingSpec(n, beta, alpha % n)
                checks += 1
                if extend_poset(kunz_poset_of(S, m), emb, augmented=alpha in ap) != P:
                    failures.append(f"extension bridge {tag}")
                checks += 1
                triple = factor_monoscopic(T)
                if triple is None or glue(GluingSpec(*triple)) != T:
                    failures.append(f"factor round trip {tag}")
    return _report("gluing", seed, checks, failures)


def suite_embedding(seed: int, count: int = 25, max_n: int = 24) -> dict:
    """verify_face_image over random embedding specs and sample faces."""
    rng = random.Random(seed)
    checks = 0
    failures: list[str] = []
    specs = [EmbeddingSpec(12, 3, 7)]
    while len(specs) < count:
        n = rng.randint(4, max_n)
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
            checks += 1
            if not report[key]:
                failures.append(f"{key} n={spec.n} h={spec.h_gen} rho={spec.rho} {S}")
    return _report("embedding", seed, checks, failures)


def run_suite(name: str, seed: int, max_m: int = 15, max_beta: int = 5) -> dict:
    if name == "roundtrip":
        return suite_roundtrip(seed, max_m=max_m)
    if name == "ega":
        return suite_ega(seed, max_m=min(max_m, 12))
    if name == "gluing":
        return suite_gluing(seed, max_m=min(max_m, 10), max_beta=max_beta)
    if name == "embedding":
        return suite_embedding(seed)
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
