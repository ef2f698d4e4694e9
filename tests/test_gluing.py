import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import kunzcone.gluing as gluing
import kunzcone.semigroup as semigroup
from kunzcone import (
    APERY,
    KUNZ,
    AlphaIsGenerator,
    AlphaNotInS,
    CheckFailed,
    CoordTuple,
    EmbeddingSpec,
    GluingSpec,
    InvalidParams,
    InvalidQuotient,
    KunzPoset,
    NotCoprime,
    NotInCone,
    NumericalSemigroup,
    SampleNotInterior,
    beta_ray,
    extend_poset,
    face_of,
    factor_monoscopic,
    glue,
    glued_apery,
    glued_poset,
    kunz_poset_of,
    phi,
    verify_face_image,
)
from kunzcone.sweeps import random_semigroup_with_multiplicity
from oracles import dp_apery, extend_relation, random_gens

BASE = NumericalSemigroup([4, 13, 18])


def run_optimized(script):
    """Run ``script`` under ``python -O`` against this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.fixture
def plain_spec():
    # alpha = 43 lies in S but not in Ap(S; 4)
    return GluingSpec(BASE, 43, 3)


@pytest.fixture
def augmented_spec():
    # alpha = 31 = 13 + 18 is an Apery element of S
    return GluingSpec(BASE, 31, 3)


class TestGluingSpec:
    def test_validation_order(self):
        with pytest.raises(InvalidParams):
            GluingSpec(BASE, 31, 1)
        with pytest.raises(NotCoprime):
            GluingSpec(BASE, 26, 2)
        with pytest.raises(AlphaNotInS):
            GluingSpec(BASE, 27, 2)     # 27 is the Frobenius number
        with pytest.raises(AlphaIsGenerator):
            GluingSpec(BASE, 13, 3)

    def test_glue_goldens(self, plain_spec, augmented_spec):
        assert glue(plain_spec).generators == (12, 39, 43, 54)
        assert glue(augmented_spec).generators == (12, 31, 39, 54)

    def test_glued_semigroup_built_once(self, monkeypatch):
        built = []

        class Counting(NumericalSemigroup):
            def __init__(self, generators):
                built.append(tuple(generators))
                super().__init__(generators)

        monkeypatch.setattr(gluing, "NumericalSemigroup", Counting)
        spec = GluingSpec(BASE, 31, 3)
        T = glue(spec)
        glued_apery(spec)
        glued_poset(spec)
        assert glue(spec) is T
        assert built == [(31, 12, 39, 54)]

    def test_glued_semigroup_is_not_a_field(self):
        spec = GluingSpec(BASE, 31, 3)
        assert repr(spec) == "GluingSpec(base=NumericalSemigroup([4, 13, 18]), alpha=31, beta=3)"
        assert spec == GluingSpec(NumericalSemigroup([4, 13, 18]), 31, 3)
        assert spec != GluingSpec(BASE, 43, 3)
        assert hash(spec) == hash((BASE, 31, 3))
        assert [f.name for f in dataclasses.fields(spec)] == ["base", "alpha", "beta"]
        assert dataclasses.asdict(spec) == {"base": BASE, "alpha": 31, "beta": 3}


class TestGluedApery:
    def test_golden(self, augmented_spec):
        values = glued_apery(augmented_spec)
        T = glue(augmented_spec)
        assert values == T.apery_set(12)
        # class 1 holds 85 = 2*31 + 23*... check two spot values
        by_class = {v % 12: v for v in values}
        assert by_class[1] == 85
        assert by_class[9] == 93

    def test_b0_slice_is_scaled_base_apery(self, augmented_spec):
        # the multiples of beta inside the glued Apery set are exactly
        # beta times the base Apery set
        values = glued_apery(augmented_spec)
        multiples = sorted(v for v in values if v % 3 == 0)
        assert multiples == [3 * a for a in BASE.apery_set(4)]

    def test_against_dp_oracle(self):
        rng = random.Random(97)
        done = 0
        while done < 25:
            gens = random_gens(rng, 2, 9)
            if gens is None:
                continue
            S = NumericalSemigroup(gens)
            beta = rng.randint(2, 5)
            bound = S.frobenius() + 3 * S.multiplicity if S.multiplicity > 1 else 8
            alphas = [
                a for a in range(1, bound + 1)
                if S.contains(a) and a not in S.generators
                and gcd(a, beta) == 1
            ]
            if not alphas:
                continue
            done += 1
            spec = GluingSpec(S, rng.choice(alphas), beta)
            T = glue(spec)
            n = beta * S.multiplicity
            assert glued_apery(spec) == sorted(dp_apery(list(T.generators), n))

    def test_oracle_check_survives_optimize(self):
        # python -O strips assert statements; the oracle check must still fire
        script = """
import sys
import kunzcone.gluing as gluing
from kunzcone import CheckFailed, GluingSpec, NumericalSemigroup

assert False, "asserts are live"
real = gluing._glued_values

def corrupted(spec):
    table = dict(real(spec))
    table[1] += spec.beta * spec.base.multiplicity
    return table

gluing._glued_values = corrupted
try:
    gluing.glued_apery(GluingSpec(NumericalSemigroup([4, 13, 18]), 31, 3))
except CheckFailed as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""
        run = run_optimized(script)
        assert run.returncode == 0, run.stderr
        assert run.stdout == (
            "closed-form Apery set of GluingSpec(base=NumericalSemigroup([4, 13, 18]), "
            "alpha=31, beta=3) disagrees with the oracle\n"
        )

    @pytest.mark.parametrize("value", [85 - 12, 85 + 12, 62, None])
    def test_value_off_its_class_minimum_fails(self, monkeypatch, augmented_spec, value):
        # class 1 holds 85; moved down or up by n = 12 it stays in its class
        # but is not the class minimum of T, 62 is the minimum of class 2,
        # and None leaves class 1 out
        real = gluing._glued_values

        def corrupted(spec):
            table = dict(real(spec))
            if value is None:
                del table[1]
            else:
                table[1] = value
            return table

        monkeypatch.setattr(gluing, "_glued_values", corrupted)
        with pytest.raises(CheckFailed) as info:
            glued_apery(augmented_spec)
        assert str(info.value) == (
            "closed-form Apery set of GluingSpec(base=NumericalSemigroup([4, 13, 18]), "
            "alpha=31, beta=3) disagrees with the oracle"
        )

    def test_no_apery_closure_of_the_glued_semigroup(self, monkeypatch):
        # alpha < beta*m, so T's multiplicity is not n and a table of T mod n
        # would need its own closure; membership in T decides the check instead
        specs = [GluingSpec(BASE, 8, 3), GluingSpec(BASE, 17, 5), GluingSpec(BASE, 16, 5)]
        assert all(glue(spec).multiplicity < spec.beta * 4 for spec in specs)
        real, calls = semigroup.apery_by_class, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(semigroup, "apery_by_class", counting)
        for spec in specs:
            assert glued_apery(spec) == sorted(dp_apery(list(glue(spec).generators), spec.beta * 4))
        assert calls == []


class TestTrivialBase:
    """S = <1>, alpha = 2, beta = 3: the factor of T = <2, 3>."""

    def test_factor_monoscopic_reaches_it(self):
        assert factor_monoscopic(NumericalSemigroup([2, 3])) == (NumericalSemigroup([1]), 2, 3)

    def test_goldens(self):
        spec = GluingSpec(NumericalSemigroup([1]), 2, 3)
        assert glued_apery(spec) == [0, 2, 4]
        out = glued_poset(spec).to_json_dict()
        assert out["relations"] == [[0, 1], [0, 2], [2, 1]]
        assert out["labels"] == {"0": 0, "1": 4, "2": 2}


class TestGluedPoset:
    def test_equals_oracle(self, plain_spec, augmented_spec):
        for spec in (plain_spec, augmented_spec):
            T = glue(spec)
            assert glued_poset(spec) == kunz_poset_of(T, 12)

    def test_oracle_missing_one_relation_fails(self, monkeypatch, augmented_spec):
        real = gluing._apery_order

        def dropped(S, n):
            # clear the lowest set bit of the last non-empty strict row
            values, rows = real(S, n)
            rows = list(rows)
            c = max(c for c, row in enumerate(rows) if row)
            rows[c] &= rows[c] - 1
            return values, rows

        monkeypatch.setattr(gluing, "_apery_order", dropped)
        with pytest.raises(CheckFailed, match="closed-form poset of .* disagrees"):
            glued_poset(augmented_spec)

    def test_oracle_check_survives_optimize(self):
        script = """
import sys
import kunzcone.gluing as gluing
from kunzcone import CheckFailed, GluingSpec, NumericalSemigroup

assert False, "asserts are live"
real = gluing._apery_order

def dropped(S, n):
    values, rows = real(S, n)
    rows = list(rows)
    c = max(c for c, row in enumerate(rows) if row)
    rows[c] &= rows[c] - 1
    return values, rows

gluing._apery_order = dropped
try:
    gluing.glued_poset(GluingSpec(NumericalSemigroup([4, 13, 18]), 31, 3))
except CheckFailed as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""
        run = run_optimized(script)
        assert run.returncode == 0, run.stderr
        assert run.stdout == (
            "closed-form poset of GluingSpec(base=NumericalSemigroup([4, 13, 18]), "
            "alpha=31, beta=3) disagrees with the oracle\n"
        )

    def test_wrong_label_fails(self, monkeypatch, plain_spec, augmented_spec):
        # the order ignores the labels; they are checked class by class
        real = gluing._glued_values

        def corrupted(spec):
            table = dict(real(spec))
            table[1] += spec.beta * spec.base.multiplicity
            return table

        monkeypatch.setattr(gluing, "_glued_values", corrupted)
        for spec in (plain_spec, augmented_spec):
            with pytest.raises(CheckFailed, match="closed-form Apery labels of .* disagree"):
                glued_poset(spec)

    def test_label_check_survives_optimize(self):
        script = """
import sys
import kunzcone.gluing as gluing
from kunzcone import CheckFailed, GluingSpec, NumericalSemigroup

assert False, "asserts are live"
real = gluing._glued_values

def corrupted(spec):
    table = dict(real(spec))
    table[1] += spec.beta * spec.base.multiplicity
    return table

gluing._glued_values = corrupted
try:
    gluing.glued_poset(GluingSpec(NumericalSemigroup([4, 13, 18]), 31, 3))
except CheckFailed as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""
        run = run_optimized(script)
        assert run.returncode == 0, run.stderr
        assert run.stdout == (
            "closed-form Apery labels of GluingSpec(base=NumericalSemigroup([4, 13, 18]), "
            "alpha=31, beta=3) disagree with the oracle\n"
        )

    @pytest.mark.parametrize("alpha", [31, 43])
    def test_closed_form_rows_corrupted_by_one_bit(self, monkeypatch, alpha):
        # flip each bit of each precomputed mask in turn: the oracle
        # comparison must refuse every flip that changes the order, so a
        # poset that comes out is always the true one
        spec = GluingSpec(BASE, alpha, 3)
        true = glued_poset(spec)
        real = gluing._class_grid
        flips = [(a, b, bit) for a in range(4) for b in range(3) for bit in range(12)]
        refused = 0
        for a, b, bit in flips:
            def corrupted(*args):
                classes, suffix = real(*args)
                suffix[a][b] ^= 1 << bit
                return classes, suffix

            monkeypatch.setattr(gluing, "_class_grid", corrupted)
            try:
                P = glued_poset(spec)
            except CheckFailed as exc:
                assert "disagrees with the oracle" in str(exc)
                refused += 1
            else:
                assert P == true and P.labels == true.labels, (a, b, bit)
        assert refused > len(flips) // 2

    def test_augmented_extras_golden(self, plain_spec, augmented_spec):
        P1 = glued_poset(plain_spec)
        P2 = glued_poset(augmented_spec)
        extras = set(P2.relations()) - set(P1.relations())
        assert extras == {(2, 4), (2, 9), (7, 9)}
        assert set(P1.relations()) < set(P2.relations())

    def test_labels_are_values(self, augmented_spec):
        P = glued_poset(augmented_spec)
        values = glued_apery(augmented_spec)
        assert sorted(P.labels) == values

    def test_wrap_cover_present_iff_alpha_in_apery(self, plain_spec, augmented_spec):
        # the cover type stepping b from beta-1 back to 0 (the a-part
        # growing by alpha) appears exactly when alpha is an Apery element
        for spec, expected in ((plain_spec, False), (augmented_spec, True)):
            P = glued_poset(spec)
            label = dict(zip(P.ground, P.labels))
            alpha_inv = pow(spec.alpha, -1, spec.beta)

            def split(v):
                b = v * alpha_inv % spec.beta
                return b, (v - b * spec.alpha) // spec.beta

            found = False
            for g1, g2 in P.covers():
                b1, a1 = split(label[g1])
                b2, a2 = split(label[g2])
                if b1 == spec.beta - 1 and b2 == 0 and a2 - a1 == spec.alpha:
                    found = True
            assert found == expected, spec.alpha


class TestEmbeddingSpec:
    def test_fig_instance(self):
        spec = EmbeddingSpec(12, 3, 7)
        assert spec.beta == 3
        assert spec.sub_modulus == 4
        assert spec.subgroup == (0, 3, 6, 9)
        assert spec.rho == 7
        assert spec.brho_sub == 3

    def test_decompose(self):
        spec = EmbeddingSpec(12, 3, 7)
        for g in range(12):
            ai, b = spec.decompose(g)
            assert 0 <= b < 3
            assert (ai * 3 + b * 7) % 12 == g
        assert spec.decompose(7) == (0, 1)

    def test_rejects_trivial_subgroup(self):
        with pytest.raises(InvalidParams):
            EmbeddingSpec(12, 5, 7)     # gcd(12,5)=1: H is everything
        with pytest.raises(InvalidParams):
            EmbeddingSpec(12, 0, 7)     # H = {0}: quotient is everything
        with pytest.raises(InvalidParams):
            EmbeddingSpec(3, 1, 1)

    def test_rejects_non_generating_rho(self):
        with pytest.raises(InvalidParams):
            EmbeddingSpec(12, 3, 3)     # rho in H

    def test_json_dict(self):
        d = EmbeddingSpec(12, 3, 7).to_json_dict()
        assert d["beta"] == 3
        assert d["subgroup"] == [0, 3, 6, 9]
        assert d["decomposition"]["7"] == [0, 1]
        assert len(d["decomposition"]) == 12


class TestPhi:
    def test_golden(self):
        spec = EmbeddingSpec(12, 3, 7)
        w = BASE.coordinates(4, APERY)
        x = phi(spec, w)
        assert x.entries == (0, 85, 62, 39, 124, 101, 54, 31, 116, 93, 70, 155)

    def test_zero_maps_to_zero(self):
        spec = EmbeddingSpec(12, 3, 7)
        z = CoordTuple(4, APERY, (0, 0, 0, 0))
        assert phi(spec, z).entries == (0,) * 12

    def test_linear(self):
        spec = EmbeddingSpec(12, 3, 7)
        rng = random.Random(5)
        w1 = BASE.coordinates(4, APERY)
        w2 = NumericalSemigroup([4, 5, 6]).coordinates(4, APERY)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert phi(spec, w1.scale(c) + w2) == phi(spec, w1).scale(c) + phi(spec, w2)

    def test_modulus_mismatch(self):
        spec = EmbeddingSpec(12, 3, 7)
        with pytest.raises(InvalidQuotient):
            phi(spec, NumericalSemigroup([5, 7, 9]).coordinates(5, APERY))

    def test_kind_checked(self):
        spec = EmbeddingSpec(12, 3, 7)
        with pytest.raises(ValueError):
            phi(spec, BASE.coordinates(4, KUNZ))

    def test_membership_checked(self):
        spec = EmbeddingSpec(12, 3, 7)
        with pytest.raises(NotInCone):
            phi(spec, CoordTuple(4, APERY, (0, 1, 1, 3)))


class TestBetaRay:
    def test_golden(self):
        spec = EmbeddingSpec(12, 3, 7)
        s = beta_ray(spec)
        assert s.entries == tuple(g % 3 for g in range(12))

    def test_zero_exactly_on_subgroup(self):
        for spec in (EmbeddingSpec(12, 3, 7), EmbeddingSpec(15, 5, 2), EmbeddingSpec(8, 2, 3)):
            s = beta_ray(spec)
            zeros = tuple(g for g in range(spec.n) if s[g] == 0)
            assert zeros == spec.subgroup

    def test_face_subgroup(self):
        spec = EmbeddingSpec(12, 3, 7)
        assert face_of(beta_ray(spec)).kunz_subgroup == (0, 3, 6, 9)


class TestExtendPoset:
    def test_bridges_to_gluing(self, plain_spec, augmented_spec):
        P = kunz_poset_of(BASE, 4)
        spec = EmbeddingSpec(12, 3, 7)
        assert extend_poset(P, spec, augmented=False) == glued_poset(plain_spec)
        assert extend_poset(P, spec, augmented=True) == glued_poset(augmented_spec)

    def test_plain_is_product_with_chain(self):
        P = kunz_poset_of(BASE, 4)
        spec = EmbeddingSpec(12, 3, 7)
        Q = extend_poset(P, spec, augmented=False)
        for g1 in range(12):
            for g2 in range(12):
                a1, b1 = spec.decompose(g1)
                a2, b2 = spec.decompose(g2)
                want = P.leq(a1, a2) and b1 <= b2
                assert Q.leq(g1, g2) == want, (g1, g2)

    def test_degenerate_collapse(self):
        # beta*rho = 12 = 0: the augmented order identifies rho with 0
        spec = EmbeddingSpec(12, 3, 4)
        P = kunz_poset_of(BASE, 4)
        Q = extend_poset(P, spec, augmented=True)
        assert Q.subgroup == (0, 4, 8)
        assert Q.ground == (0, 1, 2, 3)
        # relabelled copy of P along a -> class of 3a
        rep = {a: min((3 * a + s) % 12 for s in Q.subgroup) for a in P.ground}
        for x in P.ground:
            for y in P.ground:
                assert P.leq(x, y) == Q.leq(rep[x], rep[y])
        # the plain extension does not collapse
        R = extend_poset(P, spec, augmented=False)
        assert R.subgroup == (0,)

    def test_against_definition(self):
        # random Kunz orders on Z_m / d*Z_m, every beta <= 4, random rho
        rng = random.Random(83)
        checked = collapsed = 0
        for _ in range(120):
            m = rng.randint(2, 12)
            if rng.random() < 0.5:
                P = kunz_poset_of(random_semigroup_with_multiplicity(rng, m), m)
            else:
                d = rng.choice([d for d in range(1, m + 1) if m % d == 0])
                while True:
                    pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randint(0, m))]
                    try:
                        P = KunzPoset(m, pairs, subgroup=range(0, m, d))
                        break
                    except ValueError:
                        continue
            beta = rng.randint(2, 4)
            n = beta * m
            rho = rng.choice([r for r in range(n) if gcd(r % beta, beta) == 1])
            spec = EmbeddingSpec(n, beta, rho)
            for augmented in (False, True):
                E = extend_poset(P, spec, augmented)
                subgroup, rel = extend_relation(P, n, beta, spec.rho, augmented)
                assert E.subgroup == subgroup
                assert {(c, c) for c in E.ground} | set(E.relations()) == rel
                checked += 1
                collapsed += len(E.subgroup) > len(P.subgroup)
        assert checked == 240 and collapsed > 10

    def test_modulus_mismatch(self):
        spec = EmbeddingSpec(12, 3, 7)
        with pytest.raises(InvalidQuotient):
            extend_poset(kunz_poset_of(NumericalSemigroup([5, 7, 9]), 5), spec, True)


class TestVerifyFaceImage:
    def test_fig_instance_passes(self):
        spec = EmbeddingSpec(12, 3, 7)
        w = BASE.coordinates(4, APERY)
        report = verify_face_image(spec, [w, w.scale(2)], rng=random.Random(1))
        assert report["passed"]
        assert report["samples"] == 2
        assert report["augmented_poset"]
        assert report["plain_poset"]
        assert report["image_dimension"]
        assert report["ray_dimension"]

    def test_rejects_mixed_faces(self):
        spec = EmbeddingSpec(12, 3, 7)
        w1 = BASE.coordinates(4, APERY)
        w2 = NumericalSemigroup([4, 5, 7]).coordinates(4, APERY)
        with pytest.raises(SampleNotInterior):
            verify_face_image(spec, [w1, w2])

    def test_empty_samples(self):
        spec = EmbeddingSpec(12, 3, 7)
        with pytest.raises(ValueError):
            verify_face_image(spec, [])

    def test_gluing_shifts_dimension_by_alpha_membership(self):
        # dim(face of T) = dim(face of S), plus one when alpha is
        # not an Apery element of the base
        rng = random.Random(31337)
        checked = 0
        while checked < 300:
            gens = random_gens(rng, 2, 5)
            if gens is None:
                continue
            S = NumericalSemigroup(gens)
            m = S.multiplicity
            dim_s = face_of(S.coordinates(m, APERY)).dimension
            beta = rng.randint(2, 3)
            bound = S.frobenius() + 3 * m
            for alpha in range(1, bound + 1):
                try:
                    spec = GluingSpec(S, alpha, beta)
                except (AlphaIsGenerator, AlphaNotInS, NotCoprime):
                    continue
                T = glue(spec)
                dim_t = face_of(T.coordinates(beta * m, APERY)).dimension
                shift = 0 if alpha in S.apery_set(m) else 1
                assert dim_t == dim_s + shift, (gens, alpha, beta)
                checked += 1

    def test_image_face_points_factor_back(self):
        # integer points of the image face (pushed along the beta ray by
        # congruence-preserving multiples of n) are gluings over the same
        # base face, with alpha congruent to rho mod n
        spec = EmbeddingSpec(12, 3, 7)
        w = BASE.coordinates(4, APERY)
        F = face_of(w)
        ray = beta_ray(spec)
        for c in (0, 12, 24, 36):
            x = phi(spec, w) + ray.scale(c)
            T = NumericalSemigroup([12] + list(x.entries[1:]))
            assert list(T.apery_set(12)) == sorted(x.entries)
            out = factor_monoscopic(T)
            assert out is not None
            S2, alpha2, beta2 = out
            assert beta2 == 3
            assert alpha2 % 12 == spec.rho
            assert face_of(S2.coordinates(4, APERY)).tight == F.tight
            in_ap = alpha2 in S2.apery_set(S2.multiplicity)
            assert in_ap == (c == 0)


class TestFactor:
    def test_goldens(self):
        S, alpha, beta = factor_monoscopic(NumericalSemigroup([12, 31, 39, 54]))
        assert (S, alpha, beta) == (BASE, 31, 3)
        S2, a2, b2 = factor_monoscopic(BASE)
        assert (S2, a2, b2) == (NumericalSemigroup([2, 9]), 13, 2)

    def test_degenerate_base(self):
        # <2,3> = <2> + 3*<1>: the whole-number base is legitimate
        assert factor_monoscopic(NumericalSemigroup([2, 3])) == (
            NumericalSemigroup([1]), 2, 3,
        )

    def test_none(self):
        assert factor_monoscopic(NumericalSemigroup([3, 5, 7])) is None

    def test_glue_factor_round_trip(self):
        rng = random.Random(103)
        done = 0
        while done < 40:
            gens = random_gens(rng, 2, 9)
            if gens is None:
                continue
            S = NumericalSemigroup(gens)
            beta = rng.randint(2, 5)
            bound = S.frobenius() + 3 * S.multiplicity
            alphas = [
                a for a in range(1, bound + 1)
                if S.contains(a) and a not in S.generators
                and gcd(a, beta) == 1
            ]
            if not alphas:
                continue
            done += 1
            T = glue(GluingSpec(S, rng.choice(alphas), beta))
            out = factor_monoscopic(T)
            assert out is not None
            S2, alpha2, beta2 = out
            assert glue(GluingSpec(S2, alpha2, beta2)) == T
