import random

import pytest

from kunzcone import (
    KunzPoset,
    NotGraded,
    NumericalSemigroup,
    apery_poset,
    kunz_poset_of,
    subgroup_of,
)
from kunzcone.cli import main
from oracles import (
    dp_poset_relations,
    is_kunz_order,
    kunz_relation,
    random_gens,
    transitive_closure_of_covers,
)


@pytest.fixture
def diamond():
    # Ap = {0, 13, 18, 31}; 31 = 13 + 18 sits above both atoms
    return apery_poset(NumericalSemigroup([4, 13, 18]), 4)


class TestGoldenShapes:
    def test_diamond_relations(self, diamond):
        assert diamond.relations() == [
            (0, 1), (0, 2), (0, 3), (1, 3), (2, 3),
        ]

    def test_diamond_covers(self, diamond):
        assert diamond.covers() == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_diamond_atoms(self, diamond):
        assert diamond.atoms() == [1, 2]

    def test_diamond_heights(self, diamond):
        assert diamond.is_graded()
        assert diamond.heights() == {0: 0, 1: 1, 2: 1, 3: 2}

    def test_diamond_labels(self, diamond):
        assert diamond.labels == (0, 13, 18, 31)

    def test_two_class_chain(self):
        P = apery_poset(NumericalSemigroup([2, 3]), 2)
        assert P.relations() == [(0, 1)]
        assert P.covers() == [(0, 1)]
        assert P.atoms() == [1]

    def test_antichain_above_bottom(self):
        # maximal embedding dimension: no relations besides the bottom
        P = apery_poset(NumericalSemigroup([6, 7, 8, 9, 10, 11]), 6)
        assert P.atoms() == [1, 2, 3, 4, 5]
        assert P.covers() == [(0, c) for c in range(1, 6)]
        assert P.heights() == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}

    def test_interval_generators_height_ladder(self):
        # <13, 14, 15, 16, 17>: class c needs ceil(c/4) generators
        P = apery_poset(NumericalSemigroup(range(13, 18)), 13)
        assert P.is_graded()
        want = {c: -(-c // 4) for c in range(13)}
        assert P.heights() == want


class TestAgainstOracle:
    def test_relations_match_membership_definition(self):
        rng = random.Random(47)
        done = 0
        while done < 60:
            gens = random_gens(rng, 2, 14)
            if gens is None:
                continue
            done += 1
            S = NumericalSemigroup(gens)
            m = S.multiplicity
            P = apery_poset(S, m)
            strict = [(a, b) for a, b in P.relations()]
            assert strict == dp_poset_relations(sorted(set(gens)), m)

    def test_apery_and_kunz_posets_agree(self):
        rng = random.Random(53)
        done = 0
        while done < 40:
            gens = random_gens(rng, 2, 14)
            if gens is None:
                continue
            done += 1
            S = NumericalSemigroup(gens)
            A = apery_poset(S, S.multiplicity)
            K = kunz_poset_of(S, S.multiplicity)
            assert A == K          # labels are ignored by equality
            assert hash(A) == hash(K)
            assert A.labels is not None and K.labels is None

    def test_covers_regenerate_relations(self):
        rng = random.Random(59)
        done = 0
        while done < 40:
            gens = random_gens(rng, 2, 14)
            if gens is None:
                continue
            done += 1
            P = apery_poset(NumericalSemigroup(gens), gens[0])
            rebuilt = transitive_closure_of_covers(P.covers(), P.ground, P.ground[0])
            assert rebuilt == P.relations()


class TestConstructorValidation:
    def test_antisymmetry(self):
        with pytest.raises(ValueError, match="antisymmetry"):
            KunzPoset(3, [(1, 2), (2, 1)])

    def test_transitivity(self):
        with pytest.raises(ValueError, match="transitive"):
            KunzPoset(4, [(1, 2), (2, 3)])

    def test_difference_closure(self):
        with pytest.raises(ValueError, match="difference closure"):
            KunzPoset(4, [(1, 3)])

    def test_subgroup_must_be_closed(self):
        with pytest.raises(ValueError, match="subgroup"):
            KunzPoset(4, [], subgroup=(0, 3))

    def test_modulus_floor(self):
        with pytest.raises(ValueError):
            KunzPoset(1, [])

    def test_short_label_list(self):
        with pytest.raises(ValueError, match="labels give no value for class 2"):
            KunzPoset(4, [(1, 2)], labels=[0, 1])

    def test_label_dict_missing_a_class(self):
        with pytest.raises(ValueError, match="labels give no value for class 3"):
            KunzPoset(4, [(1, 2)], labels={0: 0, 1: 5, 2: 10})

    def test_pairs_reduce_mod_n(self):
        P = KunzPoset(3, [(4, 5)])
        assert P.leq(1, 2)
        assert P.relations() == [(0, 1), (0, 2), (1, 2)]


class TestConstructorAgainstOracle:
    def test_random_pair_sets(self):
        # few pairs are often Kunz orders, many rarely; both outcomes occur
        rng = random.Random(61)
        accepted = rejected = 0
        for _ in range(2000):
            n = rng.randint(2, 9)
            d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            subgroup = range(0, n, d)
            pairs = [
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))
            ]
            if is_kunz_order(n, pairs, subgroup):
                accepted += 1
                _, rel, _ = kunz_relation(n, pairs, subgroup)
                P = KunzPoset(n, pairs, subgroup=subgroup)
                assert P.relations() == sorted((a, b) for a, b in rel if a != b)
            else:
                rejected += 1
                with pytest.raises(ValueError):
                    KunzPoset(n, pairs, subgroup=subgroup)
        assert accepted > 300 and rejected > 300


    def test_row_intake_matches_pair_intake(self):
        # the same 2,000 sets as rows over Z_n: for d > 1 the rows are
        # folded onto x mod d, so every subgroup d*Z_n exercises the fold
        rng = random.Random(61)
        folded = 0
        for _ in range(2000):
            n = rng.randint(2, 9)
            d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            subgroup = range(0, n, d)
            pairs = [
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))
            ]
            rows = [0] * n
            for a, b in pairs:
                rows[a] |= 1 << b
            outcomes = []
            for build, relation in ((KunzPoset, pairs), (KunzPoset._from_rows, rows)):
                try:
                    P = build(n, relation, subgroup=subgroup)
                    outcomes.append((P.subgroup, P.ground, P.relations(), P.covers()))
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (n, d, pairs)
            folded += d < n and any(rows[d:])
        assert folded > 300


class TestLongChain:
    # <1000, 1999>: class c holds (-c mod 1000) * 1999, so the poset is the
    # chain 0 < 999 < 998 < ... < 1, deeper than the recursion limit
    def test_heights_along_chain(self):
        P = apery_poset(NumericalSemigroup([1000, 1999]), 1000)
        assert P.is_graded()
        assert P.heights() == {c: -c % 1000 for c in range(1000)}

    def test_cli_dot(self, capsys):
        assert main(["poset", "--gens", "1000,1999", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.count("rank=same") == 1000


class TestNotGraded:
    def test_skipping_cover(self):
        P = KunzPoset(5, [(1, 2), (2, 4), (1, 4), (3, 4)])
        assert P.covers() == [(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]
        assert not P.is_graded()
        with pytest.raises(NotGraded):
            P.heights()


class TestQuotientGround:
    def test_subgroup_of(self):
        assert subgroup_of(12, [8]) == (0, 4, 8)
        assert subgroup_of(4, [3]) == (0, 1, 2, 3)
        assert subgroup_of(6, []) == (0,)

    def test_coset_representatives(self):
        P = KunzPoset(12, [], subgroup=(0, 3, 6, 9))
        assert P.ground == (0, 1, 2)
        assert P.index_of(7) == 1
        assert P.leq(4, 10)      # same coset, reflexive
        assert P.leq(0, 7)       # bottom below everything
        assert not P.leq(4, 8)

    def test_ground_is_range_of_least_positive_member(self):
        for n in range(2, 25):
            for d in (d for d in range(1, n + 1) if n % d == 0):
                sub = range(0, n, d)
                P = KunzPoset(n, [], subgroup=sub)
                assert P.ground == tuple(range(d))
                for x in range(-n, 2 * n):
                    assert P.ground[P.index_of(x)] == min((x + h) % n for h in sub)

    def test_equality_distinguishes_subgroup(self):
        assert KunzPoset(12, [], subgroup=(0, 6)) != KunzPoset(12, [], subgroup=(0, 4, 8))


class TestExport:
    def test_json_dict(self, diamond):
        d = diamond.to_json_dict()
        assert d["modulus"] == 4
        assert d["subgroup"] == [0]
        assert d["relations"] == [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]]
        assert d["labels"] == {"0": 0, "1": 13, "2": 18, "3": 31}

    def test_json_dict_without_labels(self):
        d = kunz_poset_of(NumericalSemigroup([4, 13, 18]), 4).to_json_dict()
        assert "labels" not in d

    def test_dot_output(self, diamond):
        dot = diamond.to_dot()
        assert dot.startswith("digraph kunz_poset {")
        assert dot.count("->") == 4
        assert 'n3 [label="3\\n31"];' in dot
        assert dot.count("rank=same") == 3

    def test_dot_deterministic(self):
        a = apery_poset(NumericalSemigroup([4, 13, 18]), 4).to_dot()
        b = apery_poset(NumericalSemigroup([18, 13, 4, 31]), 4).to_dot()
        assert a == b
