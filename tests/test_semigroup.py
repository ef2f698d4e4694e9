import random
from fractions import Fraction

import pytest

from kunzcone import (
    APERY,
    KUNZ,
    CoordTuple,
    EmptyGenerators,
    NoGaps,
    NotAnElement,
    NotCofinite,
    NotInPolyhedron,
    NumericalSemigroup,
    apery_by_class,
    from_kunz_tuple,
)
from oracles import (
    dp_apery,
    dp_frobenius,
    dp_members,
    dp_minimal_generators,
    random_gens,
)


class TestConstruction:
    def test_minimal_generators_kept(self):
        S = NumericalSemigroup([4, 13, 18])
        assert S.generators == (4, 13, 18)

    def test_redundant_generator_dropped(self):
        # 31 = 13 + 18
        S = NumericalSemigroup([4, 13, 18, 31])
        assert S.generators == (4, 13, 18)

    def test_minimalization_23(self):
        S = NumericalSemigroup([2, 3, 4])
        assert S.generators == (2, 3)

    def test_minimalization_matches_oracle(self):
        rng = random.Random(11)
        for _ in range(120):
            gens = random_gens(rng, 2, 15, spread=4, extra_hi=5)
            if gens is None:
                continue
            m = gens[0]
            S = NumericalSemigroup(gens)
            assert list(S.generators) == dp_minimal_generators(gens)

    def test_duplicates_and_order_ignored(self):
        assert NumericalSemigroup([18, 4, 13, 4]) == NumericalSemigroup([4, 13, 18])

    def test_common_divisor_rejected(self):
        with pytest.raises(NotCofinite):
            NumericalSemigroup([4, 6])

    def test_empty_rejected(self):
        with pytest.raises(EmptyGenerators):
            NumericalSemigroup([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            NumericalSemigroup([0, 3])
        with pytest.raises(ValueError):
            NumericalSemigroup([-2, 3])

    def test_immutable(self):
        S = NumericalSemigroup([4, 13, 18])
        with pytest.raises(AttributeError):
            S.generators = (2, 3)

    def test_basic_properties(self):
        S = NumericalSemigroup([4, 13, 18])
        assert S.multiplicity == 4
        assert S.embedding_dimension == 3


class TestMembership:
    def test_contains_matches_dp_table(self):
        rng = random.Random(7)
        for _ in range(60):
            gens = random_gens(rng, 2, 14, spread=4, extra_hi=4)
            if gens is None:
                continue
            m = gens[0]
            S = NumericalSemigroup(gens)
            limit = 4 * m * max(gens) // m + 40
            table = dp_members(sorted(set(gens)), limit)
            for n in range(limit + 1):
                assert S.contains(n) == table[n], (gens, n)

    def test_negative_not_member(self):
        S = NumericalSemigroup([4, 13, 18])
        assert not S.contains(-4)
        assert S.contains(0)


class TestApery:
    def test_golden_4_13_18(self):
        S = NumericalSemigroup([4, 13, 18])
        assert S.apery_set(4) == [0, 13, 18, 31]

    def test_golden_2_3(self):
        S = NumericalSemigroup([2, 3])
        assert S.apery_set(2) == [0, 3]

    def test_matches_dp_oracle(self):
        rng = random.Random(23)
        for _ in range(80):
            gens = random_gens(rng, 2, 12, spread=3, extra_hi=4)
            if gens is None:
                continue
            m = gens[0]
            S = NumericalSemigroup(gens)
            oracle = dp_apery(sorted(set(gens)), m)
            assert S.apery_set(m) == sorted(oracle)

    def test_nonmultiplicity_member(self):
        # Apery set with respect to an element that is not the multiplicity
        S = NumericalSemigroup([4, 13, 18])
        oracle = dp_apery([4, 13, 18], 13)
        assert S.apery_set(13) == sorted(oracle)

    def test_nonmember_rejected(self):
        S = NumericalSemigroup([4, 13, 18])
        with pytest.raises(NotAnElement):
            S.apery_set(7)
        with pytest.raises(NotAnElement):
            S.apery_set(0)
        with pytest.raises(NotAnElement):
            S.apery_set(-4)

    def test_apery_by_class_low_level(self):
        assert apery_by_class([4, 13, 18], 4) == [0, 13, 18, 31]
        with pytest.raises(ValueError):
            apery_by_class([4, 6], 4)


class TestFrobenius:
    def test_golden(self):
        assert NumericalSemigroup([4, 13, 18]).frobenius() == 27

    def test_matches_dp_oracle(self):
        rng = random.Random(31)
        for _ in range(60):
            gens = random_gens(rng, 2, 12, spread=3, extra_hi=4)
            if gens is None:
                continue
            m = gens[0]
            S = NumericalSemigroup(gens)
            assert S.frobenius() == dp_frobenius(sorted(set(gens)))

    def test_no_gaps(self):
        with pytest.raises(NoGaps):
            NumericalSemigroup([1]).frobenius()
        for kind in (APERY, KUNZ):
            with pytest.raises(NoGaps):
                NumericalSemigroup([1]).coordinates(1, kind)


class TestCoordTuple:
    def test_kinds(self):
        S = NumericalSemigroup([4, 13, 18])
        ap = S.coordinates(4, APERY)
        kz = S.coordinates(4, KUNZ)
        assert ap.entries == (0, 13, 18, 31)
        assert kz.entries == (0, 3, 4, 7)
        # a_i = m * z_i + i entrywise
        for i in range(4):
            assert ap[i] == 4 * kz[i] + i

    def test_default_kind_is_apery(self):
        S = NumericalSemigroup([4, 13, 18])
        assert S.coordinates(4).kind == APERY

    def test_indexing_wraps_by_class(self):
        x = CoordTuple(4, APERY, (0, 13, 18, 31))
        assert x[5] == 13
        assert x[-1] == 31

    def test_add_and_scale(self):
        x = CoordTuple(4, APERY, (0, 13, 18, 31))
        y = x + x
        assert y.entries == (0, 26, 36, 62)
        z = x.scale(Fraction(1, 2))
        assert z.entries == (0, Fraction(13, 2), 9, Fraction(31, 2))
        assert isinstance(z.entries[2], int)

    def test_add_requires_same_shape(self):
        x = CoordTuple(4, APERY, (0, 13, 18, 31))
        with pytest.raises(ValueError):
            x + CoordTuple(4, KUNZ, (0, 3, 4, 7))
        with pytest.raises(ValueError):
            x + CoordTuple(5, APERY, (0, 1, 2, 3, 4))

    def test_entry_zero_pinned(self):
        with pytest.raises(ValueError):
            CoordTuple(4, APERY, (1, 13, 18, 31))

    def test_length_checked(self):
        with pytest.raises(ValueError):
            CoordTuple(4, APERY, (0, 13, 18))

    def test_json_dict(self):
        x = CoordTuple(3, KUNZ, (0, 1, Fraction(1, 2)))
        d = x.to_json_dict()
        assert d["modulus"] == 3
        assert d["kind"] == "kunz"
        assert d["entries"] == [0, 1, "1/2"]


class TestKunzRoundTrip:
    def test_golden(self):
        S = NumericalSemigroup([4, 13, 18])
        assert from_kunz_tuple(4, (3, 4, 7)) == S

    def test_accepts_coord_tuple(self):
        S = NumericalSemigroup([5, 7, 9])
        assert from_kunz_tuple(5, S.coordinates(5, KUNZ)) == S

    def test_round_trip_random(self):
        rng = random.Random(101)
        for _ in range(300):
            gens = random_gens(rng, 2, 15, spread=3, extra_hi=5)
            if gens is None:
                continue
            m = gens[0]
            S = NumericalSemigroup(gens)
            assert from_kunz_tuple(m, S.coordinates(m, KUNZ)) == S

    def test_round_trip_modulus_above_multiplicity(self):
        # m in S but not its multiplicity: the Kunz tuple has zero entries
        # (z_i = 0 exactly for the classes i < m that lie in S), and the
        # generators found by the facet scan must still be the minimal ones
        rng = random.Random(404)
        cases = 0
        while cases < 300:
            gens = random_gens(rng, 2, 9, spread=3, extra_hi=4)
            if gens is None:
                continue
            table = dp_members(gens, 4 * gens[0])
            m = rng.choice([n for n in range(gens[0] + 1, len(table)) if table[n]])
            S = NumericalSemigroup(gens)
            z = S.coordinates(m, KUNZ)
            assert z[gens[0]] == 0
            assert from_kunz_tuple(m, z).generators == tuple(dp_minimal_generators(gens))
            cases += 1

    @pytest.mark.parametrize(
        "m, z, message",
        [
            (3, (1, 3), "z_1 + z_1 >= z_2 fails: 1 + 1 < 3"),
            (3, (4, 1), "z_2 + z_2 + 1 >= z_1 fails: 1 + 1 + 1 < 4"),
            (5, (2, 1, 9, 9), "z_1 + z_2 >= z_3 fails: 2 + 1 < 9"),
            (5, (3, 1, 1, 9), "z_1 + z_3 >= z_4 fails: 3 + 1 < 9"),
            (5, (4, 3, 2, 0), "z_4 + z_4 + 1 >= z_3 fails: 0 + 0 + 1 < 2"),
            (6, (1, 1, 1, -1, 5), "z_4 = -1 is negative"),
        ],
    )
    def test_violation_messages(self, m, z, message):
        # the first violated facet in scan order is the one named
        with pytest.raises(NotInPolyhedron) as exc:
            from_kunz_tuple(m, z)
        assert str(exc.value) == message

    def test_inequality_violation_rejected(self):
        # z_1 + z_1 >= z_2 fails: 1 + 1 < 3
        with pytest.raises(NotInPolyhedron):
            from_kunz_tuple(3, (1, 3))

    def test_wraparound_violation_rejected(self):
        # z_2 + z_2 + 1 >= z_1 fails: 1 + 1 + 1 < 4
        with pytest.raises(NotInPolyhedron):
            from_kunz_tuple(3, (4, 1))

    def test_negative_entry_rejected(self):
        with pytest.raises(NotInPolyhedron):
            from_kunz_tuple(2, (-1,))

    def test_m2_floor(self):
        assert from_kunz_tuple(2, (1,)) == NumericalSemigroup([2, 3])
        assert from_kunz_tuple(2, (0,)) == NumericalSemigroup([1])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            from_kunz_tuple(4, (0, 3, 4, 7))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            from_kunz_tuple(3, (Fraction(1, 2), 1))

    def test_wrong_kind_rejected(self):
        S = NumericalSemigroup([4, 13, 18])
        with pytest.raises(ValueError):
            from_kunz_tuple(4, S.coordinates(4, APERY))
