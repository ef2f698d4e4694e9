import copy
import pickle
import random
import time
from fractions import Fraction
from math import gcd

import pytest

import kunzcone.semigroup as semigroup
from kunzcone import (
    APERY,
    KUNZ,
    CoordTuple,
    DomainError,
    EgaParams,
    EmptyGenerators,
    GluingSpec,
    NoGaps,
    NotAnElement,
    NotCofinite,
    NotInPolyhedron,
    NumericalSemigroup,
    apery_by_class,
    from_kunz_tuple,
    semigroup,
)
from oracles import (
    dp_apery,
    dp_frobenius,
    dp_members,
    dp_minimal_generators,
    kunz_violation,
    random_gens,
)


class TestConstruction:
    def test_minimal_generators_kept(self):
        S = NumericalSemigroup([4, 13, 18])
        assert S.generators == (4, 13, 18)

    def test_json_dict(self):
        assert NumericalSemigroup([4, 13, 18]).to_json_dict() == {"generators": [4, 13, 18]}

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

    def test_non_integral_generators_rejected(self):
        # read with operator.index: no float is truncated, no string parsed
        with pytest.raises(TypeError, match="float"):
            NumericalSemigroup([4.7, 13, 18])
        with pytest.raises(TypeError, match="str"):
            NumericalSemigroup(["4", "13", "18"])
        with pytest.raises(TypeError):
            NumericalSemigroup([Fraction(4), 13, 18])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            NumericalSemigroup([0, 3])
        with pytest.raises(ValueError):
            NumericalSemigroup([-2, 3])

    def test_immutable(self):
        S = NumericalSemigroup([4, 13, 18])
        with pytest.raises(AttributeError):
            S.generators = (2, 3)
        for name in ("generators", "_apery_mult"):
            with pytest.raises(AttributeError, match="^NumericalSemigroup is immutable$"):
                delattr(S, name)
        assert S.generators == (4, 13, 18)
        assert S.contains(31) and not S.contains(27)

    def test_copies_and_pickles(self):
        # immutable, so copies rebuild from the generators rather than
        # setting attributes one by one
        S = NumericalSemigroup([4, 13, 18])
        for T in (copy.copy(S), copy.deepcopy(S), pickle.loads(pickle.dumps(S))):
            assert T == S
            assert T.apery_set(4) == [0, 13, 18, 31]
            assert T.contains(31) and not T.contains(27)

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
        # a negative n fails the table lookup itself: every entry is at least 0
        assert not any(S.contains(n) for n in (-1, -2, -3, -13, -10**30, -10**30 - 1))
        N = NumericalSemigroup([1])
        assert not any(N.contains(n) for n in (-1, -2, -10**30))
        assert N.contains(0) and N.contains(10**30)


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
        with pytest.raises(ValueError, match="^generators do not reach every residue class$"):
            apery_by_class([4, 6], 4)
        with pytest.raises(ValueError, match="^generators do not reach every residue class$"):
            apery_by_class([0, 6, 9], 3)
        with pytest.raises(ValueError, match="^modulus must be positive$"):
            apery_by_class([1], 0)

    def test_non_integral_modulus_rejected(self):
        # each entry point reads its modulus with operator.index, so the
        # TypeError is its own, not one from deeper in the code
        S = NumericalSemigroup([4, 13, 18])
        for call in (lambda: apery_by_class([4, 13, 18], 4.0), lambda: S.apery_set(8.0),
                     lambda: S.coordinates(4.0), lambda: S.coordinates(Fraction(4), KUNZ)):
            with pytest.raises(TypeError, match="object cannot be interpreted as an integer$"):
                call()

    def test_negative_generator_rejected(self):
        # a negative arc once made the old heap walk cycle for ever
        with pytest.raises(ValueError, match="^generators must be non-negative, got -1$"):
            apery_by_class([-1, 3], 3)


def _count_calls(monkeypatch, name, record):
    """Patch semigroup.<name> to append record(args) per call; return the list."""
    calls = []
    real = getattr(semigroup, name)

    def counted(*args):
        calls.append(record(args))
        return real(*args)

    monkeypatch.setattr(semigroup, name, counted)
    return calls


@pytest.fixture
def walks(monkeypatch):
    """Moduli of the round-robin walks taken past the bitset cap."""
    return _count_calls(monkeypatch, "_walk", lambda args: args[1])


@pytest.fixture
def scans(monkeypatch):
    """Lengths of the points handed to the facet scan."""
    return _count_calls(monkeypatch, "_facet_scan", lambda args: len(args[0]))


class TestBitsetKernel:
    """The bitset closure below its cap, the round robin past it."""

    def test_matches_oracles_below_cap(self, walks):
        rng = random.Random(5)
        for _ in range(300):
            gens = [rng.randint(1, 40) for _ in range(rng.randint(1, 5))]
            modulus = rng.randint(1, 30)
            gens += rng.sample([0, modulus, 2 * modulus], rng.randint(0, 2))
            if gcd(modulus, *gens) != 1:
                with pytest.raises(ValueError, match="do not reach every residue class"):
                    apery_by_class(gens, modulus)
                continue
            positive = sorted({g for g in gens if g > 0})
            assert apery_by_class(gens, modulus) == dp_apery(positive, modulus)
            if gcd(*positive) == 1:
                S = NumericalSemigroup(positive)
                assert list(S.generators) == dp_minimal_generators(positive)
                assert S.apery_set(S.multiplicity) == sorted(
                    dp_apery(positive, S.multiplicity)
                )
        assert walks == []

    def test_modulus_outside_the_monoid(self, walks):
        # the closure adds the modulus, which leaves every class minimum alone
        assert apery_by_class([4, 13, 18], 7) == dp_apery([4, 13, 18], 7)
        assert apery_by_class([3, 5], 7) == [0, 8, 9, 3, 11, 5, 6]
        assert apery_by_class([5, 7], 1) == [0]
        assert walks == []

    @pytest.mark.parametrize("a, b", [(1000, 1999), (9999, 10000)])
    def test_two_generators_past_cap(self, walks, a, b):
        # the Apery set of <a, b> mod a is {0, b, ..., (a - 1) b}
        S = NumericalSemigroup([b, a, 2 * b])
        assert S.generators == (a, b)
        assert S.apery_set(a) == [i * b for i in range(a)]
        assert S.frobenius() == a * b - a - b
        assert walks == [a]

    def test_several_generators_past_cap(self, walks):
        # every extra generator is past the cap, so each input takes one
        # walk; some fold a generator with gcd(g, m) > 1 along several
        # cycles, and some drop a generator that the smaller ones reach
        rng = random.Random(6)
        multi_cycle = dropped = 0
        for _ in range(200):
            m = rng.randint(2, 12)
            while True:
                extra = [rng.randint(128 * m, 140 * m) for _ in range(rng.randint(1, 4))]
                if gcd(m, *extra) == 1:
                    break
            gens = [m] + extra
            walks.clear()
            S = NumericalSemigroup(gens)
            assert walks == [m]
            assert list(S.generators) == dp_minimal_generators(gens)
            assert S.apery_set(m) == sorted(dp_apery(gens, m))
            multi_cycle += any(gcd(g, m) > 1 for g in S.generators[1:])
            dropped += len(S.generators) < len(set(gens))
        assert multi_cycle >= 40
        assert dropped >= 40

    def test_generator_past_cap_is_fast(self, walks):
        b = 10**12 + 1
        start = time.perf_counter()
        S = NumericalSemigroup([3, b])
        assert S.frobenius() == 3 * b - 3 - b
        assert apery_by_class([3, b], 3) == [0, 2 * b, b]  # b = 2 mod 3
        assert time.perf_counter() - start < 0.5
        assert walks == [3, 3]


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
        with pytest.raises(TypeError):
            x + 1

    def test_entry_zero_pinned(self):
        with pytest.raises(ValueError):
            CoordTuple(4, APERY, (1, 13, 18, 31))

    def test_length_checked(self):
        with pytest.raises(ValueError):
            CoordTuple(4, APERY, (0, 13, 18))

    def test_float_entry_rejected(self):
        with pytest.raises(TypeError, match="float"):
            CoordTuple(3, APERY, (0, 1.5, 2))

    def test_modulus_floor(self):
        with pytest.raises(ValueError, match="^modulus must be at least 2$"):
            CoordTuple(1, APERY, (0,))

    def test_non_integral_modulus_rejected(self):
        for modulus in (4.0, Fraction(4), "4"):
            with pytest.raises(TypeError, match="object cannot be interpreted as an integer$"):
                CoordTuple(modulus, APERY, (0, 13, 18, 31))

    def test_entry_intake(self):
        # all-int tuples take the one-test path; any other entry goes through _exact
        x = CoordTuple(4, APERY, iter([0, 13, 18, 31]))
        assert x.entries == (0, 13, 18, 31) and x.to_json_dict()["modulus"] == 4
        y = CoordTuple(3, KUNZ, [0, Fraction(4, 2), True])
        assert y.entries == (0, 2, True) and type(y.entries[1]) is int
        for bad, name in ((1.0, "float"), ("1", "str"), (None, "NoneType")):
            with pytest.raises(TypeError, match=f"^entries must be int or Fraction, got {name}$"):
                CoordTuple(3, APERY, (0, 1, bad))

    def test_bad_coordinates_kind(self):
        with pytest.raises(ValueError, match="^kind must be 'apery' or 'kunz'$"):
            NumericalSemigroup([4, 13, 18]).coordinates(4, "bogus")
        # the element and no-gaps checks come before the kind check
        with pytest.raises(NotAnElement):
            NumericalSemigroup([4, 13, 18]).coordinates(5, "bogus")
        with pytest.raises(NoGaps):
            NumericalSemigroup([1]).coordinates(1, "bogus")

    def test_json_dict(self):
        x = CoordTuple(3, KUNZ, (0, 1, Fraction(1, 2)))
        d = x.to_json_dict()
        assert d["modulus"] == 3
        assert d["kind"] == "kunz"
        assert d["entries"] == [0, 1, "1/2"]


def _both_intakes(m, z):
    """``from_kunz_tuple`` on the raw tuple z and on CoordTuple(m, KUNZ, (0, *z)):
    the two must give the same semigroup, or raise the same exception type
    with the same text, which is then raised again."""
    outcomes = []
    for entries in (lambda: z, lambda: CoordTuple(m, KUNZ, (0, *z))):
        try:
            outcomes.append(from_kunz_tuple(m, entries()))
        except (TypeError, ValueError, DomainError) as exc:
            outcomes.append(exc)
    raw, wrapped = outcomes
    if isinstance(raw, Exception):
        assert (type(wrapped), str(wrapped)) == (type(raw), str(raw))
        raise raw
    assert type(wrapped) is NumericalSemigroup and wrapped == raw
    return raw


class TestKunzRoundTrip:
    def test_golden(self):
        S = NumericalSemigroup([4, 13, 18])
        assert _both_intakes(4, (3, 4, 7)) == S

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
            assert _both_intakes(m, S.coordinates(m, KUNZ).entries[1:]) == S

    def test_round_trip_modulus_above_multiplicity(self):
        # m in S but not its multiplicity: the Kunz tuple has zero entries
        # (z_i = 0 exactly for the classes i < m that lie in S), and the
        # semigroup built from the tuple must still keep only the minimal
        # generators
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
            assert _both_intakes(m, z.entries[1:]).generators == tuple(dp_minimal_generators(gens))
            cases += 1

    def test_no_apery_closure_at_the_second_generator(self, monkeypatch):
        # m above the multiplicity: a_s - m outside S decides each class
        # from S's own membership table, with no Apery table mod m
        rng = random.Random(505)
        trips = []
        while len(trips) < 300:
            gens = random_gens(rng, 2, 12, spread=3, extra_hi=4)
            if gens is None:
                continue
            S = NumericalSemigroup(gens)
            if S.embedding_dimension > 1:
                m = S.generators[1]
                trips.append((S, m, S.coordinates(m, KUNZ)))
        real, calls = semigroup.apery_by_class, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(semigroup, "apery_by_class", counting)
        for S, m, z in trips:
            assert _both_intakes(m, z.entries[1:]) == S
        assert calls == []

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
            _both_intakes(m, z)
        assert str(exc.value) == message

    def test_inequality_violation_rejected(self):
        # z_1 + z_1 >= z_2 fails: 1 + 1 < 3
        with pytest.raises(NotInPolyhedron):
            _both_intakes(3, (1, 3))

    def test_wraparound_violation_rejected(self):
        # z_2 + z_2 + 1 >= z_1 fails: 1 + 1 + 1 < 4
        with pytest.raises(NotInPolyhedron):
            _both_intakes(3, (4, 1))

    def test_negative_entry_rejected(self):
        with pytest.raises(NotInPolyhedron):
            _both_intakes(2, (-1,))

    def test_m2_floor(self):
        assert _both_intakes(2, (1,)) == NumericalSemigroup([2, 3])
        assert _both_intakes(2, (0,)) == NumericalSemigroup([1])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="^need exactly one entry per residue class$"):
            _both_intakes(4, (0, 3, 4, 7))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="^Kunz coordinates must be integers, got 1/2$"):
            _both_intakes(3, (Fraction(1, 2), 1))
        # an integral Fraction is read as its int
        assert _both_intakes(3, (Fraction(2), 1)) == NumericalSemigroup([3, 7, 5])

    def test_non_integral_input_types(self):
        # a float modulus or entry is a TypeError through either intake
        for m, z in [(4, (3, 4.0, 7)), (4.0, (3, 4, 7)), (4, ("3", 4, 7))]:
            with pytest.raises(TypeError):
                _both_intakes(m, z)
        assert from_kunz_tuple(4, iter((3, 4, 7))) == NumericalSemigroup([4, 13, 18])

    def test_wrong_kind_rejected(self):
        S = NumericalSemigroup([4, 13, 18])
        with pytest.raises(ValueError):
            from_kunz_tuple(4, S.coordinates(4, APERY))

    def test_modulus_checked(self):
        with pytest.raises(ValueError, match="^modulus must be at least 2$"):
            _both_intakes(1, ())
        # the modulus is checked before the entries are
        with pytest.raises(ValueError, match="^modulus must be at least 2$"):
            _both_intakes(1, (Fraction(1, 2),))
        with pytest.raises(ValueError, match="^modulus mismatch$"):
            from_kunz_tuple(5, NumericalSemigroup([4, 13, 18]).coordinates(4, KUNZ))


def _kunz_cases(rng):
    """Seeded (m, input, z) triples for the differential test, with z the
    integer entries z_1..z_{m-1} that ``input`` stands for, and a count
    per kind.  Valid tuples come from semigroups at the multiplicity and
    at a larger element; each is sent plain, as a CoordTuple or with
    Fraction entries, and perturbed by +-1 or +-2 in one entry."""
    cases, kinds = [], dict.fromkeys(
        ["multiplicity", "above", "perturbed", "random", "past cap"], 0
    )

    def add(kind, m, z):
        shape = rng.randrange(3)
        if shape == 0:
            entry = tuple(z)
        elif shape == 1:
            entry = CoordTuple(m, KUNZ, (0,) + tuple(z))
        else:
            entry = tuple(Fraction(v) for v in z)
        cases.append((m, entry, tuple(z)))
        kinds[kind] += 1

    def add_with_perturbations(kind, m, z):
        add(kind, m, z)
        for _ in range(2):
            p = list(z)
            p[rng.randrange(m - 1)] += rng.choice([-2, -1, 1, 2])
            add("perturbed", m, p)

    while len(cases) < 20_000:
        gens = random_gens(rng, 2, 10, spread=3, extra_hi=5)
        if gens is None:
            continue
        S = NumericalSemigroup(gens)
        m = S.multiplicity
        add_with_perturbations("multiplicity", m, S.coordinates(m, KUNZ).entries[1:])
        above = [n for n in range(m + 1, 15) if S.contains(n)]
        if above:
            n = rng.choice(above)
            add_with_perturbations("above", n, S.coordinates(n, KUNZ).entries[1:])
        m = rng.randint(2, 9)
        add("random", m, [rng.randint(-1, 6) for _ in range(m - 1)])
        if rng.random() < 0.05:
            # <m, b> with b past 128 bits per class: the round robin runs
            m = rng.randint(2, 4)
            b = rng.choice([b for b in range(128 * m + 1, 140 * m) if gcd(b, m) == 1])
            z = NumericalSemigroup([m, b]).coordinates(m, KUNZ).entries[1:]
            add_with_perturbations("past cap", m, z)
    return cases, kinds


class TestKunzDifferential:
    """from_kunz_tuple against the definition of the Kunz polyhedron."""

    def test_matches_definition_oracle(self, walks):
        cases, kinds = _kunz_cases(random.Random(1111))
        assert len(cases) >= 20_000
        assert min(kinds.values()) >= 100, kinds
        walks.clear()
        accepted = 0
        for m, entry, z in cases:
            message = kunz_violation(m, z)
            if message is None:
                S = from_kunz_tuple(m, entry)
                gens = [m] + [m * v + i for i, v in enumerate(z, 1)]
                assert list(S.generators) == dp_minimal_generators(gens), (m, z)
                accepted += 1
            else:
                with pytest.raises(NotInPolyhedron) as exc:
                    from_kunz_tuple(m, entry)
                assert str(exc.value) == message
        assert 5_000 < accepted < 15_000
        assert len(walks) > 100  # the past-cap tuples took the round robin


class TestKunzValidationCost:
    """One closure decides a tuple; the facet scan only names a violation."""

    def test_scan_only_on_rejection(self, scans):
        rng = random.Random(2222)
        rejected = 0
        for _ in range(300):
            gens = random_gens(rng, 2, 12, spread=3, extra_hi=5)
            if gens is None:
                continue
            S = NumericalSemigroup(gens)
            m = S.multiplicity
            z = list(S.coordinates(m, KUNZ).entries[1:])
            assert from_kunz_tuple(m, z) == S
            assert scans == []
            z[rng.randrange(m - 1)] += rng.choice([1, 2])
            if kunz_violation(m, z) is not None:
                with pytest.raises(NotInPolyhedron):
                    from_kunz_tuple(m, z)
                assert scans == [m]
                rejected += 1
            scans.clear()
        assert rejected > 50

    def test_negative_entry_needs_no_scan(self, scans):
        with pytest.raises(NotInPolyhedron, match="z_2 = -1 is negative"):
            from_kunz_tuple(4, (1, -1, 1))
        assert scans == []

    def test_past_cap_round_trip(self, walks, scans):
        # <200, 399>: 199 * 399 is far past 128 bits per class
        S = NumericalSemigroup([200, 399])
        z = S.coordinates(200, KUNZ)
        assert walks == [200]
        assert from_kunz_tuple(200, z) == S
        assert walks == [200, 200]
        assert scans == []

    def test_past_cap_rejection(self, walks, scans):
        z = list(NumericalSemigroup([200, 399]).coordinates(200, KUNZ).entries[1:])
        z[0] += 1
        walks.clear()
        with pytest.raises(NotInPolyhedron) as exc:
            from_kunz_tuple(200, z)
        assert str(exc.value) == kunz_violation(200, z)
        assert str(exc.value) == "z_2 + z_199 + 1 >= z_1 fails: 395 + 1 + 1 < 398"
        assert walks == [200]
        assert scans == [200]


RECORDS = [
    (
        CoordTuple(4, APERY, (0, 13, 18, 31)),
        "CoordTuple(modulus=4, kind='apery', entries=(0, 13, 18, 31))",
        {"modulus": 4, "kind": APERY, "entries": (0, 13, 18, 31)},
        None,
    ),
    (
        EgaParams(5, 3, 3, -3),
        "EgaParams(a=5, h=3, k=3, d=-3)",
        {"a": 5, "h": 3, "k": 3, "d": -3},
        "_apery",
    ),
    (
        GluingSpec(NumericalSemigroup([4, 13, 18]), 31, 3),
        "GluingSpec(base=NumericalSemigroup([4, 13, 18]), alpha=31, beta=3)",
        {"base": NumericalSemigroup([4, 13, 18]), "alpha": 31, "beta": 3},
        "_glued",
    ),
]


@pytest.mark.parametrize(
    "record, text, fields, hidden", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
def test_record_contract(record, text, fields, hidden):
    values = tuple(fields.values())
    assert repr(record) == text
    assert record == type(record)(**fields) and not record != type(record)(**fields)
    assert record != values and not record == values
    for other, *_ in RECORDS:
        assert (record == other) == (other is record)
    assert hash(record) == hash(values)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record
        assert vars(clone) == vars(record)
    for name in (*fields, hidden or "extra"):
        with pytest.raises(AttributeError, match=f"^{type(record).__name__} is immutable$"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"^{type(record).__name__} is immutable$"):
            delattr(record, name)
    if hidden:
        # an attribute outside the fields takes no part in repr, == or hash
        twin = type(record)(**fields)
        vars(twin)[hidden] = object()
        assert repr(twin) == text and twin == record and hash(twin) == hash(record)
