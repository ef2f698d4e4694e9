"""End-to-end acceptance sweeps for every closed form in the package.

Each criterion prints one visible PASS/FAIL line (bypassing capture) so a
plain pytest run shows the sweep sizes and timings.  All comparisons are
against the brute-force oracles in oracles.py or against frozen golden
values; nothing here consults the library's own Apery kernel except as
the explicitly stated subject under test.
"""

import random
import time
from math import gcd

import pytest

from kunzcone import (
    APERY,
    EgaParams,
    EmbeddingSpec,
    GluingSpec,
    KUNZ,
    NumericalSemigroup,
    ega_contains,
    ega_detect,
    ega_face_dimension,
    ega_frobenius,
    ega_is_minimal,
    ega_kunz_poset,
    ega_new,
    ega_rays,
    extend_poset,
    face_of,
    factor_monoscopic,
    from_kunz_tuple,
    glue,
    glued_apery,
    glued_poset,
    kunz_poset_of,
    verify_face_image,
)
from kunzcone.errors import InvalidParams
from oracles import bit_members, bit_table, dp_apery, dp_frobenius, dp_members, is_chain, random_gens


def announce(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_fast_oracle_matches_slow_oracle():
    rng = random.Random(1)
    for _ in range(150):
        gens = sorted(rng.sample(range(2, 40), rng.randint(2, 4)))
        limit = rng.randint(10, 300)
        assert bit_table(bit_members(gens, limit), limit) == dp_members(gens, limit)


@pytest.fixture(scope="module")
def sweep_tuples():
    """Every valid parameter tuple with a <= 25, h <= 3, k < a, |d| <= 2a."""
    out = []
    for a in range(2, 26):
        for h in range(1, 4):
            for k in range(1, a):
                for d in range(-2 * a, 2 * a + 1):
                    if d == 0:
                        continue
                    try:
                        params, _ = ega_new(a, h, k, d)
                    except InvalidParams:
                        continue
                    out.append(params)
    return out


@pytest.fixture(scope="module")
def membership_audit(sweep_tuples):
    """One oracle pass shared by criteria 1 and 2.

    Per tuple: build the full membership table up to
    max(Frobenius + 2a, (a-1)(ah+d)) by bit closure, compare
    ega_contains pointwise on [0, Frobenius + 2a], and read the oracle
    Frobenius off the table (sound because ah+d is coprime to a, so
    every gap is below (a-1)(ah+d)).
    """
    t0 = time.time()
    points = 0
    member_bad = []
    frob_bad = []
    for p in sweep_tuples:
        fro = ega_frobenius(p)
        lim = fro + 2 * p.a
        bound = (p.a - 1) * (p.a * p.h + p.d)
        big = max(lim, bound)
        tbl = bit_table(bit_members(p.generators, big), big)
        for n in range(lim + 1):
            if ega_contains(p, n) != tbl[n]:
                member_bad.append((p, n))
        points += lim + 1
        oracle_fro = max(n for n in range(big + 1) if not tbl[n])
        if oracle_fro != fro:
            frob_bad.append((p, oracle_fro, fro))
    return {
        "tuples": len(sweep_tuples),
        "points": points,
        "member_bad": member_bad,
        "frob_bad": frob_bad,
        "elapsed": time.time() - t0,
    }


def test_criterion_1_membership_closed_form(membership_audit, capsys):
    a = membership_audit
    ok = not a["member_bad"] and a["elapsed"] < 60
    announce(
        capsys, 1, "closed-form membership vs oracle", ok,
        f"{a['tuples']} tuples, {a['points']} values, "
        f"{len(a['member_bad'])} mismatches, {a['elapsed']:.1f}s",
    )


def test_criterion_2_frobenius_closed_form(membership_audit, capsys):
    anchors_ok = (
        ega_frobenius(EgaParams(13, 1, 4, 1)) == 38 == dp_frobenius([13, 14, 15, 16, 17])
        and ega_frobenius(EgaParams(11, 2, 5, -2)) == 21
        == dp_frobenius([11, 12, 14, 16, 18, 20])
    )
    a = membership_audit
    ok = not a["frob_bad"] and anchors_ok
    announce(
        capsys, 2, "Frobenius formula vs oracle", ok,
        f"{a['tuples']} tuples, {len(a['frob_bad'])} mismatches, "
        f"anchors 38/21 {'ok' if anchors_ok else 'BAD'}",
    )


def _oracle_apery_relations(p):
    """Apery set and strict divisibility pairs straight off a bit table."""
    a = p.a
    big = (a - 1) * (a * p.h + p.d)
    tbl = bit_table(bit_members(p.generators, big), big)
    apery = [None] * a
    seen = 0
    for n in range(big + 1):
        if tbl[n] and apery[n % a] is None:
            apery[n % a] = n
            seen += 1
            if seen == a:
                break
    assert seen == a
    pairs = []
    for i in range(a):
        for j in range(a):
            diff = apery[j] - apery[i]
            if i != j and diff > 0 and tbl[diff]:
                pairs.append((i, j))
    return apery, pairs


def _covers_of(a, pairs):
    """Transitive reduction of strict pairs, by bitmask interval tests."""
    up = [0] * a
    for i, j in pairs:
        up[i] |= 1 << j
    covers = []
    for i, j in pairs:
        between = up[i] & ~(1 << j)
        if not any(between >> l & 1 and up[l] >> j & 1 for l in range(a)):
            covers.append((i, j))
    return sorted(covers)


def _grid_rule_covers(a, k, d):
    """Cover pairs the grid order predicts: one row up, no move right."""
    coords = [((m - 1) // k + 1, (m - 1) % k + 1) for m in range(1, a)]
    covers = [(0, (m + 1) * d % a) for m, (x, _) in enumerate(coords) if x == 1]
    for mi, (xi, yi) in enumerate(coords):
        for mj, (xj, yj) in enumerate(coords):
            if xj == xi + 1 and yi >= yj:
                covers.append(((mi + 1) * d % a, (mj + 1) * d % a))
    return sorted(covers)


def test_criterion_3_grid_poset_matches_oracle(sweep_tuples, capsys):
    t0 = time.time()
    minimal = [p for p in sweep_tuples if ega_is_minimal(p)]
    skipped = len(sweep_tuples) - len(minimal)
    # the handful of non-minimal presentations sit on smaller faces with
    # extra relations, outside the grid statement; every (a, k, d mod a)
    # class still keeps a minimal representative
    assert skipped == 32
    reps = {}
    for p in minimal:
        reps.setdefault((p.a, p.k, p.d % p.a), p)
    assert {(p.a, p.k, p.d % p.a) for p in sweep_tuples} == set(reps)

    bad = []
    for (a, k, _), p in reps.items():
        _, pairs = _oracle_apery_relations(p)
        if sorted(ega_kunz_poset(a, k, p.d).relations()) != sorted(pairs):
            bad.append(("relations", p))
        if _covers_of(a, pairs) != _grid_rule_covers(a, k, p.d):
            bad.append(("covers", p))
    # the grid order only reads (a, k, d mod a); confirm on full tuples
    # with varying h and raw d rather than taking that reduction on faith
    rng = random.Random(99)
    for p in rng.sample(minimal, 300):
        _, pairs = _oracle_apery_relations(p)
        if sorted(ega_kunz_poset(p.a, p.k, p.d).relations()) != sorted(pairs):
            bad.append(("relations-random", p))
        if _covers_of(p.a, pairs) != _grid_rule_covers(p.a, p.k, p.d):
            bad.append(("covers-random", p))
    ok = not bad
    announce(
        capsys, 3, "grid poset and cover rule vs oracle", ok,
        f"{len(reps)} classes + 300 spot checks, {skipped} non-minimal skipped, "
        f"{len(bad)} mismatches, {time.time() - t0:.1f}s",
    )


def test_criterion_4_face_dimension_formula(capsys):
    t0 = time.time()
    bad = []
    cases = 0
    for a in range(2, 19):
        for k in range(1, a):
            _, S = ega_new(a, 1, k, 1)
            face = face_of(S.coordinates(a, APERY))
            if ega_face_dimension(a, k) != face.dimension:
                bad.append((a, k, face.dimension))
            cases += 1
    ok = not bad
    announce(
        capsys, 4, "face dimension formula vs exact rank", ok,
        f"{cases} (a, k) pairs, {len(bad)} mismatches, {time.time() - t0:.1f}s",
    )


def test_criterion_5_extremal_rays(capsys):
    t0 = time.time()
    cases = 0
    for a in range(5, 19):
        for k in range(2, a - 2):
            for d in range(1, a):
                if gcd(a, d) != 1:
                    continue
                # rays only read d mod a, so the coprime residues cover
                # every admissible common difference
                p, S = ega_new(a, 1, k, d)
                r, t = ega_rays(p)
                face = face_of(S.coordinates(a, APERY))
                for ray in (r, t):
                    assert face.tight < face_of(ray).tight, (a, k, d)
                assert r.entries != t.entries
                chain_r = face_of(r).kunz_poset
                assert is_chain(chain_r), (a, k, d)
                assert chain_r.atoms() == [d % a], (a, k, d)
                if (a - 1) % k == 0:
                    chain_t = face_of(t).kunz_poset
                    assert is_chain(chain_t), (a, k, d)
                    assert chain_t.atoms() == [k * d % a], (a, k, d)
                cases += 1
    p13, _ = ega_new(13, 1, 4, 1)
    _, t13 = ega_rays(p13)
    golden = t13.entries == (0, 10, 7, 4, 1, 11, 8, 5, 2, 12, 9, 6, 3)
    announce(
        capsys, 5, "extremal rays: sharpening, chains, golden tuple", golden,
        f"{cases} (a, k, d) cases, golden {'ok' if golden else 'BAD'}, "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_6_gluing_suite(gluing_sweep, capsys):
    t0 = time.time()
    wrap_bad = []
    for spec in gluing_sweep:
        glued_apery(spec)            # closed form vs oracle, asserted inside
        P = glued_poset(spec)        # closed form vs oracle, asserted inside
        alpha_in = spec.alpha in spec.base.apery_set(spec.base.multiplicity)
        alpha_inv = pow(spec.alpha, -1, spec.beta)
        has_wrap = False
        for i, j in P.covers():
            v1, v2 = P.labels[i], P.labels[j]
            b1 = v1 * alpha_inv % spec.beta
            b2 = v2 * alpha_inv % spec.beta
            a1 = (v1 - b1 * spec.alpha) // spec.beta
            a2 = (v2 - b2 * spec.alpha) // spec.beta
            if b1 == spec.beta - 1 and b2 == 0 and a2 - a1 == spec.alpha:
                has_wrap = True
                break
        if has_wrap != alpha_in:
            wrap_bad.append(spec)
    # independent slow-oracle spot check on a fixed subsample
    rng = random.Random(606)
    for spec in rng.sample(gluing_sweep, 200):
        T = glue(spec)
        n = spec.beta * spec.base.multiplicity
        assert glued_apery(spec) == sorted(dp_apery(T.generators, n)), spec
    ok = not wrap_bad
    announce(
        capsys, 6, "gluing Apery/poset closed forms + wrap covers", ok,
        f"{len(gluing_sweep)} gluings, 200 slow-oracle spot checks, "
        f"{len(wrap_bad)} wrap mismatches, {time.time() - t0:.1f}s",
    )


def test_criterion_7_embedding_suite(capsys):
    t0 = time.time()
    base = NumericalSemigroup([4, 13, 18])
    fig = EmbeddingSpec(12, 3, 7)
    w = base.coordinates(4, APERY)
    reports = [verify_face_image(fig, [w, w.scale(2)], rng=random.Random(5))]

    rng = random.Random(777)
    specs = []
    while len(specs) < 50:
        n = rng.randint(4, 24)
        try:
            spec = EmbeddingSpec(n, rng.randint(1, n - 1), rng.randint(1, n - 1))
        except InvalidParams:
            continue
        if (spec.beta * spec.rho) % spec.n == 0:
            continue    # extension degenerates, no interior image face
        specs.append(spec)
    for spec in specs:
        sub = spec.sub_modulus
        gens = None
        while gens is None:
            gens = random_gens(rng, sub, sub)
        ws = NumericalSemigroup(gens).coordinates(sub, APERY)
        reports.append(verify_face_image(spec, [ws, ws.scale(2)], rng=rng))
    checks = ("augmented_poset", "plain_poset", "image_dimension", "ray_dimension")
    ok = all(r["passed"] and all(r[c] for c in checks) for r in reports)
    announce(
        capsys, 7, "face-image verification on embeddings", ok,
        f"1 fixed + {len(specs)} random specs, {time.time() - t0:.1f}s",
    )


def test_criterion_8_round_trips(gluing_sweep, capsys):
    t0 = time.time()
    rng = random.Random(4242)
    done = 0
    while done < 1000:
        gens = random_gens(rng, 2, 20)
        if gens is None:
            continue
        S = NumericalSemigroup(gens)
        m = S.multiplicity
        assert from_kunz_tuple(m, S.coordinates(m, KUNZ)) == S, gens
        done += 1
    for spec in gluing_sweep:
        T = glue(spec)
        factored = factor_monoscopic(T)
        assert factored is not None, spec
        S2, alpha2, beta2 = factored
        assert glue(GluingSpec(S2, alpha2, beta2)) == T, spec
    announce(
        capsys, 8, "Kunz and gluing round trips", True,
        f"1000 Kunz round trips, {len(gluing_sweep)} glue/factor round trips, "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_9_worked_example_goldens(capsys):
    pess = NumericalSemigroup([11, 12, 14, 16, 18, 20])
    detected = ega_detect(pess)
    same_family = NumericalSemigroup([11, 20, 29, 38, 47, 56])
    ok_pess = (
        detected == EgaParams(11, 2, 5, -2)
        and kunz_poset_of(pess, 11) == kunz_poset_of(same_family, 11)
    )

    pairs = [
        ([6, 7, 8, 9, 10, 11], [6, 8, 10, 13, 15, 17]),
        ([6, 13, 14, 15, 16], [6, 15, 16, 19, 20]),
    ]
    ok_pairs = all(
        kunz_poset_of(NumericalSemigroup(u), 6) == kunz_poset_of(NumericalSemigroup(v), 6)
        for u, v in pairs
    )

    base = NumericalSemigroup([4, 13, 18])
    plain = kunz_poset_of(glue(GluingSpec(base, 43, 3)), 12)
    augmented = kunz_poset_of(glue(GluingSpec(base, 31, 3)), 12)
    extras = set(augmented.relations()) - set(plain.relations())
    fig = EmbeddingSpec(12, 3, 7)
    P = face_of(base.coordinates(4, APERY)).kunz_poset
    ext_extras = set(extend_poset(P, fig, augmented=True).relations()) - set(
        extend_poset(P, fig, augmented=False).relations()
    )
    ok_glue = (
        set(plain.relations()) < set(augmented.relations())
        and extras == {(2, 4), (2, 9), (7, 9)}
        and extras == ext_extras
    )

    ok = ok_pess and ok_pairs and ok_glue
    announce(
        capsys, 9, "worked-example goldens", ok,
        f"pessimistic pair {'ok' if ok_pess else 'BAD'}, "
        f"shared-poset pairs {'ok' if ok_pairs else 'BAD'}, "
        f"augmented extras {'ok' if ok_glue else 'BAD'}",
    )
