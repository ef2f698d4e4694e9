import random

import pytest

from kunzcone import (
    APERY,
    EgaParams,
    GridCoord,
    InvalidParams,
    NumericalSemigroup,
    OutOfRegime,
    apery_poset,
    ega_apery_grid,
    ega_contains,
    ega_detect,
    ega_face_dimension,
    ega_frobenius,
    ega_is_minimal,
    ega_kunz_poset,
    ega_new,
    ega_rays,
    face_of,
    kunz_poset_of,
)
from oracles import dp_frobenius, dp_members, is_chain


class TestParams:
    def test_generators(self):
        p = EgaParams(13, 1, 4, 1)
        assert p.generators == (13, 14, 15, 16, 17)
        p = EgaParams(11, 2, 5, -2)
        assert p.generators == (11, 20, 18, 16, 14, 12)

    def test_ega_new(self):
        p, S = ega_new(11, 2, 5, -2)
        assert S.generators == (11, 12, 14, 16, 18, 20)

    def test_minimality_guard(self):
        # ah + kd = 1 <= a: the run would drop below the multiplicity
        with pytest.raises(InvalidParams):
            EgaParams(11, 1, 5, -2)

    def test_coprimality_guard(self):
        with pytest.raises(InvalidParams):
            EgaParams(4, 1, 2, 2)
        with pytest.raises(InvalidParams):
            EgaParams(4, 1, 2, 0)

    def test_accepted_params_have_positive_generators(self):
        # ah + id is linear in i, so ah + kd > a > 0 and ah + d > 0 (or
        # d > 0) cover every generator; no separate positivity check exists
        accepted = 0
        for a in range(2, 31):
            for h in range(1, 5):
                for k in range(1, a):
                    for d in range(-3 * a, 3 * a + 1):
                        try:
                            p = EgaParams(a, h, k, d)
                        except InvalidParams:
                            continue
                        accepted += 1
                        assert min(p.generators) > 0, p
        assert accepted == 69674

    def test_range_guards(self):
        with pytest.raises(InvalidParams):
            EgaParams(4, 1, 4, 1)   # k >= a
        with pytest.raises(InvalidParams):
            EgaParams(4, 0, 2, 1)   # h < 1
        with pytest.raises(InvalidParams):
            EgaParams(1, 1, 1, 1)   # a < 2


class TestMembership:
    def test_golden_values(self):
        p, _ = ega_new(11, 2, 5, -2)
        assert ega_contains(p, 12)
        assert not ega_contains(p, 21)
        assert ega_contains(p, 22)
        q, _ = ega_new(13, 1, 4, 1)
        assert not ega_contains(q, 38)
        assert ega_contains(q, 39)

    def test_negative(self):
        p, _ = ega_new(13, 1, 4, 1)
        assert not ega_contains(p, -13)

    def test_against_dp_table(self):
        for args in [(13, 1, 4, 1), (11, 2, 5, -2), (7, 3, 2, -3), (2, 1, 1, 1)]:
            p, S = ega_new(*args)
            limit = ega_frobenius(p) + 2 * p.a + 1
            table = dp_members(sorted(p.generators), limit)
            for n in range(limit + 1):
                assert ega_contains(p, n) == table[n], (args, n)


class TestAperyGrid:
    def test_golden_13(self):
        p, S = ega_new(13, 1, 4, 1)
        grid = dict(ega_apery_grid(p))
        assert grid[GridCoord(1, 1)] == 14
        assert grid[GridCoord(1, 4)] == 17
        assert grid[GridCoord(2, 1)] == 31
        assert grid[GridCoord(3, 4)] == 51
        assert sorted(grid.values()) == S.apery_set(13)[1:]

    def test_golden_11(self):
        p, S = ega_new(11, 2, 5, -2)
        grid = dict(ega_apery_grid(p))
        assert grid[GridCoord(1, 1)] == 20
        assert grid[GridCoord(2, 5)] == 24
        assert sorted(grid.values()) == S.apery_set(11)[1:]

    def test_smallest_case(self):
        p, _ = ega_new(2, 1, 1, 1)
        assert ega_apery_grid(p) == [(GridCoord(1, 1), 3)]

    def test_partial_last_row(self):
        # a - 1 = 10 = 3*3 + 1: three full rows and one extra cell
        p, S = ega_new(11, 1, 3, 1)
        spots = [s for s, _ in ega_apery_grid(p)]
        assert spots.count(GridCoord(4, 1)) == 1
        assert GridCoord(4, 2) not in spots
        assert sorted(v for _, v in ega_apery_grid(p)) == S.apery_set(11)[1:]


class TestKunzPoset:
    def test_matches_semigroup_poset(self):
        for args in [(13, 1, 4, 1), (11, 2, 5, -2), (7, 3, 2, -3), (9, 1, 5, 2)]:
            p, S = ega_new(*args)
            assert ega_kunz_poset(p.a, p.k, p.d) == kunz_poset_of(S, p.a), args

    def test_h_invariance(self):
        # the poset never sees h
        _, S1 = ega_new(13, 1, 4, 1)
        _, S3 = ega_new(13, 3, 4, 1)
        assert kunz_poset_of(S1, 13) == kunz_poset_of(S3, 13)

    def test_d_mod_a_invariance(self):
        assert ega_kunz_poset(11, 5, -2) == ega_kunz_poset(11, 5, 9)

    def test_shared_poset_across_family(self):
        # <11,12,14,16,18,20> (descending run) and <11,20,29,38,47,56>
        # (ascending run, same residue of d) share their poset
        _, S1 = ega_new(11, 2, 5, -2)
        _, S2 = ega_new(11, 1, 5, 9)
        assert S2.generators == (11, 20, 29, 38, 47, 56)
        assert kunz_poset_of(S1, 11) == kunz_poset_of(S2, 11)
        # labelled posets also compare equal: labels are cosmetic
        assert apery_poset(S1, 11) == apery_poset(S2, 11)
        assert apery_poset(S1, 11).labels != apery_poset(S2, 11).labels

    def test_chain_for_k1(self):
        P = ega_kunz_poset(7, 1, 1)
        assert is_chain(P)
        assert P.atoms() == [1]

    def test_param_guards(self):
        with pytest.raises(InvalidParams):
            ega_kunz_poset(6, 2, 3)
        with pytest.raises(InvalidParams):
            ega_kunz_poset(4, 4, 1)


class TestFrobenius:
    def test_goldens(self):
        assert ega_frobenius(EgaParams(13, 1, 4, 1)) == 38
        assert ega_frobenius(EgaParams(11, 2, 5, -2)) == 21
        assert ega_frobenius(EgaParams(2, 1, 1, 1)) == 1

    def test_against_dp(self):
        for args in [(13, 1, 4, 1), (11, 2, 5, -2), (7, 3, 2, -3), (9, 1, 5, 2)]:
            p = EgaParams(*args)
            assert ega_frobenius(p) == dp_frobenius(sorted(p.generators)), args


class TestFaceDimension:
    def test_branch_goldens(self):
        assert ega_face_dimension(13, 4) == 2    # generic
        assert ega_face_dimension(6, 4) == 3     # k = a - 2
        assert ega_face_dimension(5, 4) == 4     # k = a - 1
        assert ega_face_dimension(7, 1) == 1

    def test_matches_located_face(self):
        for args in [(13, 1, 4, 1), (6, 1, 4, 1), (5, 1, 4, 1), (7, 2, 1, 3),
                     (11, 2, 5, -2), (4, 2, 2, 5)]:
            p, S = ega_new(*args)
            F = face_of(S.coordinates(p.a, APERY))
            assert F.dimension == ega_face_dimension(p.a, p.k), args

    def test_guards(self):
        with pytest.raises(InvalidParams):
            ega_face_dimension(4, 0)


class TestRays:
    def test_golden_13_4_1(self):
        p, _ = ega_new(13, 1, 4, 1)
        r, t = ega_rays(p)
        assert r.entries == tuple(range(13))
        assert t.entries == (0, 10, 7, 4, 1, 11, 8, 5, 2, 12, 9, 6, 3)

    def test_apery_tuple_is_positive_combination(self):
        p, S = ega_new(13, 1, 4, 1)
        r, t = ega_rays(p)
        assert (r.scale(4) + t).entries == S.coordinates(13, APERY).entries
        p2, S2 = ega_new(13, 2, 4, 1)
        r2, t2 = ega_rays(p2)
        assert (r2.scale(7) + t2.scale(2)).entries == S2.coordinates(13, APERY).entries

    def test_r_is_chain_with_atom_d(self):
        for args in [(13, 1, 4, 1), (13, 1, 4, 5), (11, 2, 5, -2), (9, 1, 5, 2)]:
            p, _ = ega_new(*args)
            r, _ = ega_rays(p)
            P = face_of(r).kunz_poset
            assert is_chain(P), args
            assert P.atoms() == [p.d % p.a], args

    def test_t_chain_when_k_divides_a_minus_1(self):
        p, _ = ega_new(13, 1, 4, 1)
        _, t = ega_rays(p)
        P = face_of(t).kunz_poset
        assert is_chain(P)
        assert P.atoms() == [4]   # k*d

    def test_t_not_chain_in_general(self):
        p, _ = ega_new(16, 1, 6, 7)
        _, t = ega_rays(p)
        P = face_of(t).kunz_poset
        assert not is_chain(P)
        assert P.atoms() == [3, 5, 10, 12]

    def test_t_degenerates_when_k_divides_a(self):
        p, _ = ega_new(12, 1, 4, 1)
        _, t = ega_rays(p)
        assert t.entries == (0, 3, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1)
        assert face_of(t).kunz_subgroup == (0, 4, 8)

    def test_rays_sharpen_the_face(self):
        for args in [(13, 1, 4, 1), (16, 1, 6, 7), (11, 2, 5, -2)]:
            p, S = ega_new(*args)
            F = face_of(S.coordinates(p.a, APERY))
            for ray in ega_rays(p):
                assert F.tight < face_of(ray).tight, args

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegime):
            ega_rays(EgaParams(7, 2, 1, 3))    # k = 1
        with pytest.raises(OutOfRegime):
            ega_rays(EgaParams(5, 1, 3, 1))    # k = a - 2
        with pytest.raises(OutOfRegime):
            ega_rays(EgaParams(5, 1, 4, 1))    # k = a - 1


class TestNonMinimalPresentation:
    """Valid parameters whose k+1 generators are not all minimal.

    a=5, h=3, k=3, d=-3 yields <5,6,9,12> where 12 = 6+6.  Membership
    and Frobenius still follow the closed forms; the grid poset does not
    (the semigroup sits on a smaller face with extra relations).
    """

    def test_accepted_but_flagged(self):
        p, S = ega_new(5, 3, 3, -3)
        assert S.generators == (5, 6, 9)
        assert not ega_is_minimal(p)
        assert ega_is_minimal(EgaParams(5, 4, 3, -3))

    def test_membership_and_frobenius_still_exact(self):
        p, S = ega_new(5, 3, 3, -3)
        assert ega_frobenius(p) == S.frobenius() == dp_frobenius([5, 6, 9])
        limit = S.frobenius() + 11
        table = dp_members([5, 6, 9], limit)
        assert all(ega_contains(p, n) == table[n] for n in range(limit))
        grid = ega_apery_grid(p)
        assert sorted(v for _, v in grid) == list(S.apery_set(5))[1:]

    def test_grid_poset_diverges(self):
        p, S = ega_new(5, 3, 3, -3)
        formula = ega_kunz_poset(5, 3, -3)
        actual = kunz_poset_of(S, 5)
        assert formula != actual
        assert set(formula.relations()) < set(actual.relations())

    def test_rays_refuse(self):
        # 1 < k < a - 2, so only the minimality test can refuse
        with pytest.raises(OutOfRegime, match="presented generators are not minimal"):
            ega_rays(EgaParams(10, 3, 6, -3))

    def test_cached_inverse_is_not_a_field(self):
        p = EgaParams(5, 3, 3, -3)
        assert repr(p) == "EgaParams(a=5, h=3, k=3, d=-3)"
        assert p == EgaParams(5, 3, 3, -3)
        assert hash(p) == hash((5, 3, 3, -3))
        assert p != EgaParams(5, 4, 3, -3)


class TestDetect:
    def test_goldens(self):
        assert ega_detect(NumericalSemigroup([11, 12, 14, 16, 18, 20])) == EgaParams(11, 2, 5, -2)
        assert ega_detect(NumericalSemigroup([13, 14, 15, 16, 17])) == EgaParams(13, 1, 4, 1)
        assert ega_detect(NumericalSemigroup([4, 7])) == EgaParams(4, 1, 1, 3)
        # 13 = 4*2 + 5 and 18 = 4*2 + 2*5: a two-step ascending run
        assert ega_detect(NumericalSemigroup([4, 13, 18])) == EgaParams(4, 2, 2, 5)

    def test_none_cases(self):
        assert ega_detect(NumericalSemigroup([5, 6, 9])) is None
        assert ega_detect(NumericalSemigroup([6, 7, 9, 10, 11])) is None
        assert ega_detect(NumericalSemigroup([1])) is None

    def test_detect_round_trip(self):
        rng = random.Random(89)
        done = 0
        while done < 120:
            a = rng.randint(2, 15)
            h = rng.randint(1, 3)
            k = rng.randint(1, a - 1) if a > 2 else 1
            d = rng.randint(-2 * a, 2 * a)
            try:
                p, S = ega_new(a, h, k, d)
            except InvalidParams:
                continue
            done += 1
            q = ega_detect(S)
            assert q is not None, (a, h, k, d)
            assert sorted(q.generators) == list(S.generators)
            assert ega_frobenius(q) == S.frobenius()

    def test_ascending_preferred(self):
        # <5,7,9>: both d=2 (h=1) and d=-2 (h=... does not divide) fit;
        # ascending wins
        assert ega_detect(NumericalSemigroup([5, 7, 9])) == EgaParams(5, 1, 2, 2)
