import itertools
import random
import time
from fractions import Fraction

import pytest

from kunzcone import (
    APERY,
    KunzPoset,
    NotGraded,
    NumericalSemigroup,
    apery_poset,
    face_of,
    from_kunz_tuple,
    kunz_poset_of,
    subgroup_of,
)
from kunzcone.cli import MAX_FACE_N, main
from kunzcone.poset import _symmetric
from kunzcone.sweeps import random_semigroup_with_multiplicity
from oracles import (
    brute_covers,
    dp_poset_relations,
    is_kunz_order,
    kunz_relation,
    kunz_violation,
    longest_chain_heights,
    random_gens,
    transitive_closure_of_covers,
    walk_reference,
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

    @pytest.mark.parametrize("labels", [[0, 2.7, 5, 6], ["0", "13", "18", "31"], [0, Fraction(13), 18, 31]])
    def test_non_integral_labels_rejected(self, labels):
        # read with index(): no float is truncated and no string is parsed
        with pytest.raises(TypeError):
            KunzPoset(4, [(1, 2)], labels=labels)

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


class TestCapChains:
    """apery_poset at the CLI cap n = MAX_FACE_N on the two chains, checked
    against their closed forms.  Validation picks the lowest class left of
    each strict row, so a chain ascending in class order, <n, n + 1>, takes
    one pick per row, and one descending in class order, <n, 2n - 1>, takes
    a pick for every class of the row.  That is the worst case: n^2/2
    picks, each an OR of n-bit rows, so O(n^3) bit operations, about
    0.25 s at n = 1000 on a shared 2-core Xeon, against 0.08 s for the
    ascending chain."""

    def test_ascending_chain(self):
        n = MAX_FACE_N
        P = apery_poset(NumericalSemigroup([n, n + 1]), n)
        assert P.covers() == [(c, c + 1) for c in range(n - 1)]
        assert P.heights() == {c: c for c in range(n)}
        assert P.labels == tuple(c * (n + 1) for c in range(n))

    def test_descending_chain(self):
        n = MAX_FACE_N
        P = apery_poset(NumericalSemigroup([n, 2 * n - 1]), n)
        assert P.covers() == [(0, n - 1)] + [(c, c - 1) for c in range(2, n)]
        assert P.heights() == {c: -c % n for c in range(n)}
        assert P.labels == tuple(-c % n * (2 * n - 1) for c in range(n))


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

    def test_subgroup_accepted_iff_closed(self):
        # every S with 0 in S, against closing S under addition by hand
        for n in range(2, 11):
            for mask in range(1 << n - 1):
                given = {0, *(h for h in range(1, n) if mask >> h - 1 & 1)}
                closure = set(given)
                while grown := {(a + b) % n for a in closure for b in closure} - closure:
                    closure |= grown
                if closure == given:
                    P = KunzPoset(n, [], subgroup=given)
                    assert P.subgroup == tuple(sorted(given)), (n, given)
                    assert P.ground == tuple(range(n // len(given))), (n, given)
                else:
                    with pytest.raises(ValueError, match="subgroup not closed"):
                        KunzPoset(n, [], subgroup=given)

    def test_large_subgroup_is_read_from_its_gcd(self):
        # 4,000 members: a closure over pairs of them takes seconds
        start = time.perf_counter()
        P = KunzPoset(8000, [], subgroup=range(0, 8000, 2))
        assert time.perf_counter() - start < 0.5
        assert P.ground == (0, 1) and len(P.subgroup) == 4000


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

    def test_dot_without_labels(self):
        dot = face_of(NumericalSemigroup([4, 13, 18]).coordinates(4, APERY)).kunz_poset.to_dot()
        assert dot.splitlines()[3:7] == [f'  n{g} [label="{g}"];' for g in range(4)]

    def test_dot_deterministic(self):
        a = apery_poset(NumericalSemigroup([4, 13, 18]), 4).to_dot()
        b = apery_poset(NumericalSemigroup([18, 13, 4, 31]), 4).to_dot()
        assert a == b


def _walk_outcome(rows):
    """The library's and the reference walk's outcome on the same rows:
    the relations on acceptance, else the ValueError text."""
    try:
        P = KunzPoset._from_rows(len(rows), rows)
        ours = P.relations()
        assert P.covers() == brute_covers(ours, P.ground), rows
    except ValueError as exc:
        ours = str(exc)
    up = [r | 1 << i for i, r in enumerate(rows)]
    try:
        walk_reference(up)
        ref = sorted((i, j) for i, r in enumerate(up) for j in range(len(up)) if i != j and r >> j & 1)
    except ValueError as exc:
        ref = str(exc)
    return ours, ref


class TestValidationWalk:
    """The walk that yields the covers accepts exactly the rows the plain
    relation walk accepts, and names the same first failure otherwise."""

    def test_every_reflexive_row_set_up_to_size_5(self):
        seen = {"ok": 0, "antisymmetry": 0, "transitive": 0, "difference": 0}
        for size in range(2, 6):
            choices = [[r for r in range(1 << size) if r >> i & 1] for i in range(1, size)]
            for rest in itertools.product(*choices):
                ours, ref = _walk_outcome([1, *rest])
                assert ours == ref, (size, rest)
                key = next((k for k in seen if isinstance(ours, str) and k in ours), "ok")
                seen[key] += 1
        assert sum(seen.values()) == 2 + 16 + 512 + 65536
        assert min(seen.values()) > 40, seen

    def test_random_row_sets_of_size_6_to_9(self):
        # random rows mostly fail; Kunz orders of semigroups with one or two
        # bits flipped fail near the end of a walk or pass
        rng = random.Random(83)
        seen = {"ok": 0, "antisymmetry": 0, "transitive": 0, "difference": 0}
        for k in range(20000):
            size = rng.randint(6, 9)
            if k % 2:
                rows = [rng.getrandbits(size) & rng.getrandbits(size) for _ in range(size)]
            else:
                S = random_semigroup_with_multiplicity(rng, size)
                rows = list(kunz_poset_of(S, size)._up)
                for _ in range(k % 3):
                    i, j = rng.randrange(1, size), rng.randrange(size)
                    rows[i] ^= (i != j) << j
            ours, ref = _walk_outcome(rows)
            assert ours == ref, (size, rows)
            key = next((k for k in seen if isinstance(ours, str) and k in ours), "ok")
            seen[key] += 1
        assert min(seen.values()) > 500, seen

    @pytest.mark.parametrize("size", [7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65])
    def test_flipped_kunz_orders_across_padding_widths(self, size):
        # the symmetry check packs rows w = 8, 16, 32, 64 or 128 bits apart,
        # so each width is met from both sides.  Every third order loses
        # one cover i -> j with i != 0, which keeps it transitive but breaks
        # difference closure at (j - i, j); the others get one or two
        # random bits flipped.  The unflipped order must pass as well.
        rng = random.Random(size)
        seen = {"ok": 0, "antisymmetry": 0, "transitive": 0, "difference": 0}
        for k in range(60):
            gens = None
            while gens is None:
                gens = random_gens(rng, size, size) if k % 2 else [size]
            S = NumericalSemigroup(gens) if k % 2 else random_semigroup_with_multiplicity(rng, size)
            P = kunz_poset_of(S, size)
            rows = list(P._up)
            assert _walk_outcome(list(rows)) == (P.relations(), P.relations())
            covers = [(i, j) for i, j in P.covers() if i]
            if k % 3 == 0 and covers:
                i, j = rng.choice(covers)
                rows[i] ^= 1 << j
            for _ in range(k % 3):
                i, j = rng.randrange(1, size), rng.randrange(size)
                rows[i] ^= (i != j) << j
            ours, ref = _walk_outcome(rows)
            assert ours == ref, (size, gens, rows)
            key = next((q for q in seen if isinstance(ours, str) and q in ours), "ok")
            seen[key] += 1
        assert seen["difference"] > 10 and seen["transitive"] > 3, seen

    @pytest.mark.parametrize(
        "rows, message",
        [
            # transitivity fails at 2 (4 above 2, not above 1), difference closure at 5
            ({1: 0b100110, 2: 0b10100}, "relation is not transitive at class 1"),
            # difference closure fails at 3 (2 is not below 3), transitivity at 5
            ({1: 0b101010, 5: 0b1100000}, "difference closure fails: 1 precedes 3 but "
                                          "their difference class does not"),
            # transitivity fails at 2, antisymmetry at 3
            ({1: 0b1110, 2: 0b10100, 3: 0b1010}, "relation is not transitive at class 1"),
            # antisymmetry fails at 2, transitivity at 3
            ({1: 0b1110, 2: 0b0110, 3: 0b101000}, "antisymmetry fails between classes 1 and 2"),
        ],
    )
    def test_first_of_two_failures_in_one_row(self, rows, message):
        full = [rows.get(i, 0) | 1 << i for i in range(7)]
        ours, ref = _walk_outcome(full)
        assert ours == ref == message


def _brute_transpose(rows):
    size = len(rows)
    return [sum((rows[j] >> i & 1) << j for j in range(size)) for i in range(size)]


class TestSymmetryKernel:
    """``_symmetric`` against a plain transpose for every size 1..140, which
    meets each packing width 8, 16, ..., 256: symmetric rows, the same with
    one bit flipped (symmetric only on the diagonal), and random rows."""

    def test_against_brute_transpose(self):
        rng = random.Random(97)
        for size in range(1, 141):
            for _ in range(4):
                rows = [rng.getrandbits(size) for _ in range(size)]
                upper = [row >> i << i for i, row in enumerate(rows)]
                sym = [u | t for u, t in zip(upper, _brute_transpose(upper))]
                assert _symmetric(sym), (size, sym)
                i, j = rng.randrange(size), rng.randrange(size)
                flipped = list(sym)
                flipped[i] ^= 1 << j
                assert _symmetric(flipped) == (i == j), (size, i, j)
                assert _symmetric(rows) == (rows == _brute_transpose(rows)), (size, rows)
            if size > 1:  # the far corner, set on one side only
                assert not _symmetric([1 << size - 1] + [0] * (size - 1))


def _check_covers_and_heights(P):
    relations = P.relations()
    covers = brute_covers(relations, P.ground)
    assert P.covers() == covers
    assert P.atoms() == [b for a, b in covers if a == 0]
    h = longest_chain_heights(relations, P.ground)
    graded = all(h[b] == h[a] + 1 for a, b in covers)
    assert P.is_graded() == graded
    if graded:
        assert P.heights() == h
    else:
        with pytest.raises(NotGraded):
            P.heights()
    return graded


class TestCoversAndHeights:
    def test_semigroup_posets_up_to_multiplicity_10(self):
        # every semigroup of multiplicity m <= 10 with Kunz coordinates at most 3
        posets = set()
        for m in range(2, 11):
            for z in itertools.product(range(1, 4), repeat=m - 1):
                if kunz_violation(m, z) is None:
                    posets.add(kunz_poset_of(from_kunz_tuple(m, z), m))
        graded = [_check_covers_and_heights(P) for P in posets]
        assert len(posets) > 1000 and 0 < sum(graded) < len(graded), (len(posets), sum(graded))

    def test_readme_poset_dot(self):
        P = apery_poset(NumericalSemigroup([4, 13, 18]), 4)
        assert P.to_dot() == (
            'digraph kunz_poset {\n  rankdir=BT;\n  node [shape=box];\n'
            '  n0 [label="0\\n0"];\n  n1 [label="1\\n13"];\n'
            '  n2 [label="2\\n18"];\n  n3 [label="3\\n31"];\n'
            '  n0 -> n1;\n  n0 -> n2;\n  n1 -> n3;\n  n2 -> n3;\n'
            '  { rank=same; n0; }\n  { rank=same; n1; n2; }\n  { rank=same; n3; }\n}\n'
        )
