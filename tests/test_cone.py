import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from kunzcone import cone
from kunzcone import (
    APERY,
    KUNZ,
    ConeFace,
    CoordTuple,
    InconsistentFace,
    IntegerEchelon,
    KunzPoset,
    NotAUnit,
    NotInCone,
    NumericalSemigroup,
    apery_poset,
    apply_automorphism,
    ega_face_dimension,
    ega_rays,
    face_of,
    integer_rank,
    kunz_poset_of,
)
from kunzcone.sweeps import iter_ega_params, random_semigroup_with_multiplicity
from oracles import (
    ReferenceEchelon,
    moved_pairs_relation,
    random_gens,
    squeeze_rejects,
    tight_pairs,
)
from test_poset import _check_covers_and_heights


class TestFaceLocation:
    def test_golden_4_13_18(self):
        S = NumericalSemigroup([4, 13, 18])
        F = face_of(S.coordinates(4, APERY))
        assert F.canonical_tight() == [(1, 2)]
        assert F.dimension == 2

    def test_apery_and_kunz_tuples_share_face(self):
        S = NumericalSemigroup([4, 13, 18])
        assert face_of(S.coordinates(4, APERY)) == face_of(S.coordinates(4, KUNZ))

    def test_share_face_randomized(self):
        rng = random.Random(61)
        done = 0
        while done < 50:
            gens = random_gens(rng, 3, 14)
            if gens is None:
                continue
            done += 1
            S = NumericalSemigroup(gens)
            m = S.multiplicity
            a = face_of(S.coordinates(m, APERY))
            k = face_of(S.coordinates(m, KUNZ))
            assert a == k, gens

    def test_modulus_two_has_no_facets(self):
        F = face_of(NumericalSemigroup([2, 3]).coordinates(2, APERY))
        assert F.canonical_tight() == []
        assert F.dimension == 1

    def test_interior_point(self):
        S = NumericalSemigroup([6, 7, 8, 9, 10, 11])
        F = face_of(S.coordinates(6, APERY))
        assert F.canonical_tight() == []
        assert F.dimension == 5

    def test_not_in_cone(self):
        x = CoordTuple(4, APERY, (0, 1, 1, 3))
        with pytest.raises(NotInCone):
            face_of(x)

    @pytest.mark.parametrize(
        "kind, entries, family, message",
        [
            (APERY, (0, 1, 5, 1), None, "x_1 + x_1 >= x_2 at indices (1,1)"),
            (APERY, (0, 5, 1, 1), None, "x_2 + x_3 >= x_1 at indices (2,3)"),
            (KUNZ, (0, 1, 5, 1), None, "z_1 + z_1 >= z_2 at indices (1,1)"),
            (KUNZ, (0, 5, 1, 1), None, "z_2 + z_3 + 1 >= z_1 at indices (2,3)"),
            # tight on the polyhedron, violated without the +1 of the cone
            (KUNZ, (0, 5, 2, 2), "cone", "x_2 + x_3 >= x_1 at indices (2,3)"),
            (APERY, (0, 3, 1, 7, 2), "polyhedron", "z_1 + z_2 >= z_3 at indices (1,2)"),
            (APERY, (0, Fraction(1, 2), Fraction(3, 2), 1), None,
             "x_1 + x_1 >= x_2 at indices (1,1)"),
        ],
    )
    def test_not_in_cone_messages(self, kind, entries, family, message):
        # the first violated facet in scan order is the one named; the kind
        # picks the family, so a family given re-reads the entries as its kind
        if family is not None:
            kind = APERY if family == "cone" else KUNZ
        with pytest.raises(NotInCone) as exc:
            face_of(CoordTuple(len(entries), kind, entries))
        assert str(exc.value) == f"violated: {message}"

    def test_bad_kind(self):
        # the family is the tuple's kind, which the tuple itself checks;
        # face_of takes no family of its own
        with pytest.raises(ValueError):
            CoordTuple(4, "simplex", (0, 1, 1, 2))
        with pytest.raises(TypeError):
            face_of(CoordTuple(4, APERY, (0, 1, 1, 2)), kind="simplex")


class TestConeFace:
    def test_symmetrization(self):
        F = ConeFace(4, [(2, 1)])
        assert F.canonical_tight() == [(1, 2)]
        assert (1, 2) in F.tight and (2, 1) in F.tight

    def test_rejects_non_facet_indices(self):
        with pytest.raises(ValueError):
            ConeFace(4, [(0, 1)])
        with pytest.raises(ValueError):
            ConeFace(4, [(1, 3)])  # 1 + 3 = 0 in Z_4
        with pytest.raises(ValueError):
            ConeFace(1, [])

    def test_non_integral_modulus_rejected(self):
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            ConeFace(4.0, [(1, 2)])
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            ConeFace(6, [(1.0, 3)])

    def test_equality_and_hash(self):
        a = ConeFace(4, [(1, 2)])
        b = ConeFace(4, [(2, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != ConeFace(4, [])

    def test_json_dict(self):
        S = NumericalSemigroup([4, 13, 18])
        d = face_of(S.coordinates(4, APERY)).to_json_dict()
        assert d == {
            "modulus": 4,
            "tight": [[1, 2]],
            "dimension": 2,
            "subgroup": [0],
        }

    def test_repr(self):
        F = face_of(NumericalSemigroup([4, 13, 18]).coordinates(4, APERY))
        assert repr(F) == "ConeFace(modulus=4, tight=1 facets)"
        assert repr(F.kunz_poset) == "KunzPoset(modulus=4, ground=4 classes, relations=5)"

    @pytest.mark.parametrize(
        "x, face_text, poset_text",
        [
            (NumericalSemigroup([6, 9, 20]).coordinates(6, APERY),
             "ConeFace(modulus=6, tight=4 facets)",
             "KunzPoset(modulus=6, ground=6 classes, relations=12)"),
            (NumericalSemigroup([5, 7, 9]).coordinates(5, APERY),
             "ConeFace(modulus=5, tight=2 facets)",
             "KunzPoset(modulus=5, ground=5 classes, relations=7)"),
            (CoordTuple(6, APERY, (0, 2, 1, 0, 2, 1)),
             "ConeFace(modulus=6, tight=7 facets)",
             "KunzPoset(modulus=6, ground=3 classes, relations=3)"),
            (CoordTuple(8, APERY, (0, 3, 1, 3, 2, 3, 1, 3)),
             "ConeFace(modulus=8, tight=2 facets)",
             "KunzPoset(modulus=8, ground=8 classes, relations=9)"),
        ],
    )
    def test_repr_counts_from_the_rows(self, monkeypatch, x, face_text, poset_text):
        # neither repr builds the pair list it counts; (2,2), (4,4) and (5,5)
        # are diagonal facets, and the third poset lives on Z_6 / {0, 3}
        def refuse(self):
            raise AssertionError("pair list built")

        F = face_of(x)
        P = F.kunz_poset
        monkeypatch.setattr(ConeFace, "canonical_tight", refuse)
        monkeypatch.setattr(KunzPoset, "relations", refuse)
        assert (repr(F), repr(P)) == (face_text, poset_text)

    def test_repr_counts_match_the_pair_lists(self):
        # every tight set for n <= 6, and the poset of each one that induces one
        posets = 0
        for n in range(2, 7):
            facets = [(i, j) for i in range(1, n) for j in range(i, n) if (i + j) % n]
            for mask in range(1 << len(facets)):
                F = ConeFace(n, [f for b, f in enumerate(facets) if mask >> b & 1])
                count = len(F.canonical_tight())
                assert count == mask.bit_count()
                assert repr(F) == f"ConeFace(modulus={n}, tight={count} facets)"
                try:
                    P = F.kunz_poset
                except InconsistentFace:
                    continue
                assert repr(P) == (f"KunzPoset(modulus={n}, ground={len(P.ground)} classes, "
                                   f"relations={len(P.relations())})")
                posets += 1
        assert posets > 100


class TestKunzData:
    def test_nontrivial_subgroup(self):
        # genuine face: the ray through (t, 0, t) in C(Z_4)
        F = ConeFace(4, [(1, 2), (2, 3)])
        P = F.kunz_poset
        assert F.kunz_subgroup == (0, 2)
        assert F.dimension == 1
        assert P.ground == (0, 1)
        assert P.relations() == [(0, 1)]

    def test_matches_semigroup_poset(self):
        rng = random.Random(67)
        done = 0
        while done < 50:
            gens = random_gens(rng, 3, 14)
            if gens is None:
                continue
            done += 1
            S = NumericalSemigroup(gens)
            m = S.multiplicity
            F = face_of(S.coordinates(m, APERY))
            P = F.kunz_poset
            assert F.kunz_subgroup == (0,)
            assert P == kunz_poset_of(S, m)

    def test_inconsistent_by_rowspace(self):
        # 2x1 = x2, x1 + x2 = x3, x2 + x3 = x1 force 2x3 = x2,
        # yet facet (3,3) is recorded strict
        F = ConeFace(4, [(1, 1), (1, 2), (2, 3)])
        with pytest.raises(InconsistentFace):
            F.kunz_poset

    def test_inconsistent_by_chaining(self):
        # 2x1 = x2 and 2x2 = x4 squeeze x1 + x2 >= x3 and x1 + x3 >= x4
        # into equalities, neither recorded
        F = ConeFace(8, [(1, 1), (2, 2)])
        with pytest.raises(InconsistentFace):
            F.kunz_poset

    def test_inconsistent_short_cycle(self):
        F = ConeFace(5, [(1, 1), (2, 4)])
        with pytest.raises(InconsistentFace):
            F.kunz_poset

    def test_walk_names_the_forced_facet(self):
        # x_2 + x_1 = x_3 and x_3 + x_1 = x_4 squeeze x_2 + x_2 >= x_4 into
        # an equality; the walk meets 2 -> 3 -> 4 with 4 not above 2
        F = ConeFace(5, [(1, 2), (1, 3)])
        with pytest.raises(InconsistentFace) as exc:
            F.kunz_subgroup
        assert str(exc.value) == (
            "tight pairs (2,1) and (3,1) force facet (2,2) which is recorded strict"
        )

    def test_rowspace_names_the_forced_facet(self):
        # 2x1 = x2 lies in the span of x1 + x2 = x3, x2 + x3 = x1, 2x3 = x2
        F = ConeFace(4, [(1, 2), (2, 3), (3, 3)])
        with pytest.raises(InconsistentFace) as exc:
            F.kunz_subgroup
        assert str(exc.value) == "equalities force facet (1,1) which is recorded strict"

    def test_rejections_match_squeeze_reference(self):
        # every tight set for n <= 6, then random ones up to n = 14
        rng = random.Random(101)
        cases = []
        for n in range(2, 7):
            facets = [(i, j) for i in range(1, n) for j in range(i, n) if (i + j) % n]
            for mask in range(1 << len(facets)):
                cases.append((n, [f for b, f in enumerate(facets) if mask >> b & 1]))
        for _ in range(1000):
            n = rng.randint(7, 14)
            facets = [(i, j) for i in range(1, n) for j in range(i, n) if (i + j) % n]
            cases.append((n, rng.sample(facets, rng.randint(0, min(len(facets), 2 * n)))))
        rejected = 0
        for n, tight in cases:
            try:
                ConeFace(n, tight).kunz_subgroup
                raised = False
            except InconsistentFace:
                raised = True
            assert raised == squeeze_rejects(n, tight), (n, tight)
            rejected += raised
        assert 0 < rejected < len(cases)

    def test_poset_error_becomes_inconsistent_face(self, monkeypatch):
        # no vetted tight set is known to fail poset validation, so a poset
        # intake that refuses everything stands in for one
        def refuse(cls, *args, **kwargs):
            raise ValueError("x")

        F = face_of(NumericalSemigroup([4, 13, 18]).coordinates(4, APERY))
        rebuilt = ConeFace(F.modulus, F.tight)
        monkeypatch.setattr(KunzPoset, "_from_rows", classmethod(refuse))
        with pytest.raises(InconsistentFace) as exc:
            rebuilt.kunz_poset
        assert str(exc.value) == "tight set does not induce a partial order: x"
        assert type(exc.value.__cause__) is ValueError

    def test_trusted_faces_skip_vetting(self):
        # trusted rows are for faces located from an actual point; they
        # come in only through _from_rows and skip the consistency scan
        rows = ConeFace(8, [(1, 1), (2, 2)])._up
        assert isinstance(ConeFace._from_rows(8, rows, True).kunz_subgroup, tuple)


class TestUntrustedRebuild:
    """Faces located by face_of, rebuilt from their tight set alone, pass
    the consistency check and give the same subgroup and poset."""

    @staticmethod
    def _rebuilt_matches(x):
        face = face_of(x)
        rebuilt = ConeFace(face.modulus, face.tight)
        assert rebuilt.kunz_subgroup == face.kunz_subgroup
        assert rebuilt.kunz_poset == face.kunz_poset
        return face

    def test_semigroup_tuples(self):
        rng = random.Random(71)
        done = 0
        while done < 60:
            gens = random_gens(rng, 3, 14)
            if gens is None:
                continue
            done += 1
            S = NumericalSemigroup(gens)
            m = rng.choice([g for g in range(S.multiplicity, 2 * S.multiplicity) if S.contains(g)])
            for kind in (APERY, KUNZ):
                self._rebuilt_matches(S.coordinates(m, kind))

    def test_ega_rays(self):
        count = 0
        for p in iter_ega_params(11, 1):
            if 1 < p.k < p.a - 2:
                r, t = ega_rays(p)
                for x in (r, t, r + t):
                    self._rebuilt_matches(x)
                count += 1
        assert count > 50

    def test_pinned_zero_class(self):
        # x_i = a_{i mod d} + b_{i mod d} for Apery tuples a, b over Z_d is a
        # cone point over Z_n that vanishes exactly on the multiples of d
        rng = random.Random(73)
        for _ in range(60):
            n = rng.randint(4, 14)
            divisors = [d for d in range(2, n) if n % d == 0]
            if not divisors:
                continue
            d = rng.choice(divisors)
            a, b = (
                random_semigroup_with_multiplicity(rng, d).coordinates(d, APERY).entries
                for _ in range(2)
            )
            x = CoordTuple(n, APERY, tuple(a[i % d] + b[i % d] for i in range(n)))
            face = self._rebuilt_matches(x)
            assert face.kunz_subgroup == tuple(range(0, n, d))


def _pinned_point(rng, n, d):
    """x_i = a_{i mod d} + b_{i mod d} for Apery tuples a, b over Z_d: a cone
    point over Z_n that vanishes exactly on the multiples of d."""
    a, b = (
        random_semigroup_with_multiplicity(rng, d).coordinates(d, APERY).entries
        for _ in range(2)
    )
    return CoordTuple(n, APERY, tuple(a[i % d] + b[i % d] for i in range(n)))


def _random_points():
    """The random cone points above: semigroup tuples of both kinds at an
    m in S below twice the multiplicity, then pinned points."""
    rng = random.Random(71)
    done = 0
    while done < 60:
        gens = random_gens(rng, 3, 14)
        if gens is None:
            continue
        done += 1
        S = NumericalSemigroup(gens)
        m = rng.choice([g for g in range(S.multiplicity, 2 * S.multiplicity) if S.contains(g)])
        for kind in (APERY, KUNZ):
            yield S.coordinates(m, kind)
    rng = random.Random(73)
    for _ in range(60):
        n = rng.randint(4, 14)
        divisors = [d for d in range(2, n) if n % d == 0]
        if divisors:
            yield _pinned_point(rng, n, rng.choice(divisors))


def _symmetric(pairs):
    return frozenset(p for i, j in pairs for p in ((i, j), (j, i)))


class TestFaceRows:
    """A face is held as its Z_n bit rows: ``tight`` is read back from
    them, and equality and hashing compare the rows."""

    @staticmethod
    def _tight_is(F, expected):
        assert type(F.tight) is frozenset
        assert F.tight == _symmetric(F.canonical_tight()) == expected
        rebuilt = ConeFace(F.modulus, F.tight)
        assert rebuilt == F and hash(rebuilt) == hash(F)

    def test_located_faces(self):
        for x in _random_points():
            self._tight_is(face_of(x), tight_pairs(x.entries, 0 if x.kind == APERY else 1))

    def test_pair_constructor(self):
        rng = random.Random(151)
        for _ in range(300):
            n = rng.randint(2, 14)
            facets = [(i, j) for i in range(1, n) for j in range(1, n) if (i + j) % n]
            pairs = [
                (i + n * rng.randint(-1, 1), j)
                for i, j in rng.sample(facets, rng.randint(0, len(facets)))
            ]
            self._tight_is(ConeFace(n, pairs), _symmetric((i % n, j) for i, j in pairs))

    def test_automorphism_images(self):
        for x in _random_points():
            F, n = face_of(x), x.modulus
            for u in range(2, n):
                if gcd(u, n) == 1:
                    moved = ((u * i % n, u * j % n) for i, j in F.canonical_tight())
                    self._tight_is(apply_automorphism(F, u), _symmetric(moved))

    def test_kunz_poset_of_is_the_face_rows(self):
        # the first 120 points are semigroup tuples; Ap(S; m) and m generate S
        for x in itertools.islice(_random_points(), 120):
            if x.kind == APERY:
                m = x.modulus
                S = NumericalSemigroup([m, *x.entries[1:]])
                assert S.coordinates(m, APERY) == x
                P = kunz_poset_of(S, m)
                assert [row & ~(1 << a) for a, row in enumerate(P._up)][1:] == face_of(x)._up[1:]
                pairs = [(i, (i + j) % m) for i, j in tight_pairs(x.entries, 0)]
                assert P == KunzPoset(m, pairs)

    def test_canonical_tight_is_the_sorted_half(self):
        for n, tight in TestSpanningRows._tight_sets():
            F, half = ConeFace(n, tight), sorted(p for p in _symmetric(tight) if p[0] <= p[1])
            assert F.canonical_tight() == half == sorted(p for p in F.tight if p[0] <= p[1]), (n, tight)

    def test_face_posets_covers_and_heights(self):
        graded = [_check_covers_and_heights(face_of(x).kunz_poset) for x in _random_points()]
        assert 0 < sum(graded) < len(graded)


def _matches_full_echelon(n, tight, facet_row=None):
    """The face span of ``tight`` against the reference echelon fed every
    tight row: rank, the Kunz subgroup (read from trusted rows, unvetted),
    and the packed span test y_i + y_j == y_{i+j} of every facet row (dense
    rows unless another ``facet_row`` is given)."""
    facet_row = facet_row or _facet_row
    F = ConeFace(n, tight)
    full = ReferenceEchelon(n - 1)
    for i, j in F.canonical_tight():
        full.add(facet_row(n, i, j))
    ech = F._span
    assert ech.rank == full.rank, (n, tight)
    subgroup = ConeFace._from_rows(n, F._up, True).kunz_subgroup
    assert subgroup == (0, *(col + 1 for col in full.unit_columns())), (n, tight)
    y = ech._kernel_values
    for i in range(1, n):
        for j in range(i, n):
            if (i + j) % n:
                in_span = y[i] + y[j] == y[(i + j) % n]
                assert in_span == full.contains(facet_row(n, i, j)), (n, tight, i, j)
    return F, full


def _on_cycles(n, up):
    """The classes t that reach themselves along a -> a+u, by a plain search."""
    succ = [[t for t in range(n) if up[a] >> t & 1] for a in range(n)]
    on = set()
    for t in range(1, n):
        stack, seen = list(succ[t]), set()
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(succ[b])
        if t in seen:
            on.add(t)
    return on


class TestSpanningRows:
    """The face span substitutes in pin order and sends only the rows the
    substitution fails to an echelon; its answers must be those of an
    echelon fed every tight row."""

    @staticmethod
    def _tight_sets():
        for n in range(2, 7):
            facets = [(i, j) for i in range(1, n) for j in range(i, n) if (i + j) % n]
            for mask in range(1 << len(facets)):
                yield n, [f for b, f in enumerate(facets) if mask >> b & 1]
        rng = random.Random(131)
        for k in range(2000):
            n = rng.randint(7, 14)
            divisors = [d for d in range(2, n) if n % d == 0]
            if k % 4 == 0:
                # random sets: mostly neither transitive nor consistent
                facets = [(i, j) for i in range(1, n) for j in range(i, n) if (i + j) % n]
                yield n, rng.sample(facets, rng.randint(0, len(facets)))
            elif k % 4 == 1 or not divisors:
                S = random_semigroup_with_multiplicity(rng, n)
                yield n, face_of(S.coordinates(n, rng.choice([APERY, KUNZ]))).tight
            else:
                # cyclic relations: the classes of d*Z_n are pinned to zero
                yield n, face_of(_pinned_point(rng, n, rng.choice(divisors))).tight

    def test_face_echelon_matches_full_echelon(self):
        kinds = {"pinned": 0, "rejected": 0}
        for n, tight in self._tight_sets():
            F, full = _matches_full_echelon(n, tight)
            kinds["pinned"] += bool(full.unit_columns())
            try:
                F.kunz_subgroup
            except InconsistentFace:
                kinds["rejected"] += 1
        assert kinds["pinned"] > 500 and kinds["rejected"] > 500, kinds

    def test_pin_order(self):
        # each pinned class comes after both halves of its first pair; a
        # class on a cycle may be pinned, when one of its pairs is known,
        # and when the walk is stuck the least class left is freed, so
        # every class ends free or pinned
        on_cycle = 0
        for n, tight in self._tight_sets():
            F = ConeFace(n, tight)
            span = F._span
            assert sorted(span._free + span._pinned) == list(range(1, n)), (n, tight)
            before = set(span._free)
            for t in span._pinned:
                a = span._first[t]
                assert {a, (t - a) % n} <= before and F._up[a] >> t & 1, (n, tight, t)
                before.add(t)
            on_cycle += bool(_on_cycles(n, F._up) & set(span._pinned))
        assert on_cycle > 500, on_cycle

    def test_pinned_points_free_at_most_d_classes(self):
        # most of these faces leave no class unreached, so the walk starts
        # stuck; freeing one class per stuck cycle keeps the free columns
        # at d or fewer, where freeing every class the walk never pins gives n - 1
        rng = random.Random(139)
        composite = [n for n in range(4, 61) if any(n % d == 0 for d in range(2, n))]
        stuck = 0
        for _ in range(150):
            n = rng.choice(composite)
            d = rng.choice([d for d in range(2, n) if n % d == 0])
            F, _ = _matches_full_echelon(n, face_of(_pinned_point(rng, n, d)).tight, _sparse_row)
            assert len(F._span._free) <= d, (n, d, F._span._free)
            stuck += all(any(row >> t & 1 for row in F._up) for t in range(1, n))
        assert stuck > 75, stuck

    def test_pinned_on_a_cycle(self):
        # 2 -> 3 -> 2 is a cycle, yet (1, 1) pins 2 and then (1, 2) pins 3
        F = ConeFace(4, [(1, 1), (1, 2), (3, 3)])
        span = F._span
        assert _on_cycles(4, F._up) == {2, 3}
        assert (span._free, span._pinned, span.rank, F.dimension) == ([1], [2, 3], 3, 0)

    def test_arithmetic_faces(self):
        # wide faces: many atoms, many trades between them
        rng = random.Random(137)
        params = [p for p in iter_ega_params(40, 3) if abs(p.d) <= 3]
        for p in [p for p in params if p.h == 1 and p.a in (12, 40)] + rng.sample(params, 60):
            S = NumericalSemigroup(p.generators)
            _matches_full_echelon(p.a, face_of(S.coordinates(p.a, APERY)).tight, _sparse_row)

    def test_long_interval(self):
        S = NumericalSemigroup(range(300, 450))
        F, _ = _matches_full_echelon(300, face_of(S.coordinates(300, APERY)).tight, _sparse_row)
        assert F.dimension == ega_face_dimension(300, 149)

    def test_fibonacci_chain_fields_never_carry(self):
        # 44 is a root of x^2 = x + 1 and generates the units mod 61, so
        # s_k = 44**k meets every nonzero class and s_{k-2} + s_{k-1} = s_k:
        # the chain pins s_k to c = (F_{k-1}, F_k), entries up to F_59 > 2**40,
        # and s_i + s_{i+2} = s_{i+14} adds rows of that size
        n, s = 61, [pow(44, k, 61) for k in range(60)]
        chain = [(s[k - 2], s[k - 1]) for k in range(2, 60)]
        fib = [0, 1]
        while len(fib) < 60:
            fib.append(fib[-1] + fib[-2])
        c, field = ConeFace(n, chain)._span._values()  # R = 0: y is c
        fields = [(c[s[k]] & (1 << field) - 1, c[s[k]] >> field) for k in range(2, 60)]
        assert fields == [(fib[k - 1], fib[k]) for k in range(2, 60)]
        for extra in ([], [(s[0], s[2])], [(s[i], s[i + 2]) for i in range(46)]):
            _matches_full_echelon(n, chain + extra)

    def test_fields_hold_a_sum_of_three_at_the_bound(self):
        # Free classes p, l, q, h = l + 1 mod 211 with 5p + 7l = 5q + 6h = 0
        # and 511l = 1.  Chains pin classes up to size 31 (5 bits), and the
        # rows (5, 7) on (p, l) and (5, 6) on (q, h) give kernel entries up
        # to 7 (3 bits).  The tight pair (30l + q, 29l + h) -> 31p then has
        # row (-31, 59, 1, 1), which puts 512 and -1 in the adjacent fields
        # of l and h: packed 9 bits wide (5 + 3 + 1) that sum is zero, so
        # the row would pass for one already in R.
        n, l = 211, pow(511, -1, 211)
        x = {"p": -7 * l * pow(5, -1, n), "l": l, "q": -(6 * l + 6) * pow(5, -1, n), "h": l + 1}

        def pair(left, right):
            return tuple(sum(k * x[v] for v, k in side.items()) % n for side in (left, right))

        pins = {
            "p": [(1, 1), (2, 2), (4, 4), (8, 8), (16, 8), (24, 4), (28, 2), (30, 1), (4, 2)],
            "l": [(1, 1), (2, 2), (4, 4), (8, 8), (16, 8), (24, 4), (28, 1), (28, 2)],
            "q": [(1, 1), (2, 2), (4, 2)],
            "h": [(1, 1), (2, 2), (4, 2), (6, 1)],
        }
        tight = [pair({v: i}, {v: j}) for v, chain in pins.items() for i, j in chain]
        tight += [pair({"l": 30}, {"q": 1}), pair({"l": 29}, {"h": 1})]
        tight += [pair({"p": 1}, {"l": 1}), pair({"q": 1}, {"h": 1})]
        tight += [pair({"p": 6}, {"l": 8}), pair({"q": 6}, {"h": 7})]  # R's rows
        tight.append(pair({"l": 30, "q": 1}, {"l": 29, "h": 1}))
        F, full = _matches_full_echelon(n, tight, _sparse_row)
        assert (F._span._size_bits, F._span.rank, full.rank) == (5, 31, 31)

    def test_every_echelon_add_raises_the_rank(self, monkeypatch):
        # y is refreshed after each add, so a row it fails is never in R yet
        added = []

        class Recording(IntegerEchelon):
            def add(self, row):
                added.append(super().add(row))
                return added[-1]

        monkeypatch.setattr(cone, "IntegerEchelon", Recording)
        for n, tight in self._tight_sets():
            ConeFace(n, tight)._span
        rng = random.Random(149)
        for m in range(30, 71, 4):  # few generators at a large multiplicity
            for k in (1, 2, 3):
                gens = {m, *rng.sample(range(m + 1, 3 * m), k)}
                if gcd(*gens) == 1:
                    S = NumericalSemigroup(gens)
                    face_of(S.coordinates(S.multiplicity, APERY))._span
        assert len(added) > 8000 and all(added), (len(added), added.count(False))

    def test_large_faces_send_few_rows(self, monkeypatch):
        sent = []

        class Counting(IntegerEchelon):
            def add(self, row):
                sent[-1] += 1
                return super().add(row)

        monkeypatch.setattr(cone, "IntegerEchelon", Counting)
        gens = [[40, g] for g in range(41, 120) if gcd(40, g) == 1]
        gens += [[40, 41, 42], [40, 53, 107], [64, 65, 66]]
        for g in gens:
            S = NumericalSemigroup(g)
            F = face_of(S.coordinates(S.multiplicity, APERY))
            sent.append(0)
            assert F.dimension == (S.multiplicity - 1) - integer_rank(
                [_facet_row(S.multiplicity, i, j) for i, j in F.canonical_tight()],
                S.multiplicity - 1,
            )
            assert sent[-1] <= len(F.canonical_tight()) // 4, (g, sent[-1])


class TestTightIntersection:
    def test_positive_combinations(self):
        rng = random.Random(71)
        done = 0
        while done < 30:
            g1 = random_gens(rng, 3, 12)
            g2 = random_gens(rng, 3, 12)
            if g1 is None or g2 is None or g1[0] != g2[0]:
                continue
            done += 1
            m = g1[0]
            x = NumericalSemigroup(g1).coordinates(m, APERY)
            y = NumericalSemigroup(g2).coordinates(m, APERY)
            c1 = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            c2 = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            z = x.scale(c1) + y.scale(c2)
            assert face_of(z).tight == face_of(x).tight & face_of(y).tight


class TestAutomorphisms:
    def test_identity(self):
        S = NumericalSemigroup([4, 13, 18])
        x = S.coordinates(4, APERY)
        assert apply_automorphism(x, 1) == x
        F = face_of(x)
        assert apply_automorphism(F, 1) == F

    def test_round_trip(self):
        rng = random.Random(73)
        done = 0
        while done < 40:
            gens = random_gens(rng, 3, 14)
            if gens is None:
                continue
            m = gens[0]
            units = [u for u in range(2, m) if gcd(u, m) == 1]
            if not units:
                continue
            done += 1
            u = rng.choice(units)
            inv = pow(u, -1, m)
            S = NumericalSemigroup(gens)
            x = S.coordinates(m, APERY)
            assert apply_automorphism(apply_automorphism(x, u), inv) == x
            F = face_of(x)
            assert apply_automorphism(apply_automorphism(F, u), inv) == F

    def test_face_transport_commutes(self):
        S = NumericalSemigroup([5, 7, 9])
        x = S.coordinates(5, APERY)
        for u in (2, 3, 4):
            assert face_of(apply_automorphism(x, u)) == apply_automorphism(face_of(x), u)
            assert apply_automorphism(face_of(x), u).dimension == face_of(x).dimension

    def test_images_keep_vetting(self):
        # a rejected pair set stays rejected after a unit moves its rows;
        # the same rows given as trusted stay trusted
        bad = ConeFace(8, [(1, 1), (2, 2)])
        trusted = ConeFace._from_rows(8, list(bad._up), True)
        for u in (3, 5, 7):
            with pytest.raises(InconsistentFace):
                apply_automorphism(bad, u).kunz_subgroup
            assert isinstance(apply_automorphism(trusted, u).kunz_subgroup, tuple)

    def test_transport_with_pinned_classes(self):
        # cone faces whose Kunz subgroup is nontrivial, under every unit
        # (a unit does not permute the facets of the polyhedron, whose
        # +1 depends on whether i + j wraps)
        nontrivial = 0
        for x in (x for x in _random_points() if x.kind == APERY):
            F, n = face_of(x), x.modulus
            nontrivial += len(F.kunz_subgroup) > 1
            for u in (u for u in range(1, n) if gcd(u, n) == 1):
                G = apply_automorphism(F, u)
                assert G == face_of(apply_automorphism(x, u)), (x, u)
                assert G.dimension == F.dimension
                assert len(G.kunz_subgroup) == len(F.kunz_subgroup)
                assert G.kunz_poset == apply_automorphism(F.kunz_poset, u), (x, u)
        assert nontrivial > 30

    def test_poset_transport_commutes(self):
        S = NumericalSemigroup([5, 7, 9])
        F = face_of(S.coordinates(5, APERY))
        for u in (2, 3, 4):
            moved = apply_automorphism(F, u)
            assert apply_automorphism(F.kunz_poset, u) == moved.kunz_poset

    def test_posets_match_the_pair_route(self):
        # face posets (pinned classes included) and labelled Apery posets,
        # under every unit, against the pairs moved one by one
        posets = [face_of(x).kunz_poset for x in _random_points()]
        for gens in ([4, 13, 18], [7, 9, 11], [9, 10, 23]):
            posets.append(apery_poset(NumericalSemigroup(gens), gens[0]))
        for P in posets:
            n, g = P.modulus, len(P.ground)
            for u in (u for u in range(1, n) if gcd(u, n) == 1):
                Q = apply_automorphism(P, u)
                assert Q.subgroup == P.subgroup
                rel = {(c, c) for c in Q.ground} | set(Q.relations())
                assert rel == moved_pairs_relation(n, g, P.relations(), u), (P, u)
                if P.labels is not None:
                    assert all(Q.labels[u * c % g] == v for c, v in enumerate(P.labels))

    def test_kunz_tuples_are_refused(self):
        # a unit does not permute the facets of the Kunz polyhedron
        for gens in ([5, 7, 9], [7, 9, 11], [8, 11, 13], [6, 13, 17], [9, 10, 23]):
            m = gens[0]
            z = NumericalSemigroup(gens).coordinates(m, KUNZ)
            for u in (u for u in range(1, m) if gcd(u, m) == 1):
                with pytest.raises(ValueError) as exc:
                    apply_automorphism(z, u)
                assert str(exc.value) == (
                    "apply_automorphism expects homogeneous (apery-kind) coordinates"
                )

    def test_label_transport(self):
        P = apery_poset(NumericalSemigroup([4, 13, 18]), 4)
        Q = apply_automorphism(P, 3)
        # class i moves to 3i; its Apery value rides along
        assert Q.labels[Q.index_of(3)] == P.labels[P.index_of(1)]
        assert sorted(Q.labels) == sorted(P.labels)

    def test_not_a_unit(self):
        S = NumericalSemigroup([4, 13, 18])
        with pytest.raises(NotAUnit):
            apply_automorphism(S.coordinates(4, APERY), 2)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            apply_automorphism("x", 1)


class TestIntegerEchelon:
    def test_rank_and_membership(self):
        ech = IntegerEchelon(3)
        assert ech.add([1, 0, 0])
        assert ech.add([0, 1, 0])
        assert not ech.add([1, 1, 0])
        assert ech.rank == 2
        assert ech.kernel() == [{}, {}, {2: 1}]
        assert _annihilates([5, -7, 0], _kernel_vectors(ech))
        assert not _annihilates([0, 0, 1], _kernel_vectors(ech))

    def test_gcd_normalization(self):
        assert integer_rank([[2, 4], [3, 6]], 2) == 1

    def test_pivot_entries_positive(self):
        # a residue with one entry, negative, is stored as the unit row (1, {})
        ech = IntegerEchelon(3)
        ech.add([0, -5, 0])
        assert ech._rows == {1: (1, {})}
        rng = random.Random(211)
        for _ in range(300):
            width = rng.randint(1, 8)
            ech, ref = IntegerEchelon(width), ReferenceEchelon(width)
            for _ in range(rng.randint(1, 10)):
                row = {c: rng.randint(-6, 6) for c in rng.sample(range(width), rng.randint(1, width))}
                assert ech.add(row) == ref.add(row)
                assert all(d > 0 for d, _ in ech._rows.values())
                assert ech.rank == ref.rank
                assert ech.kernel() == _reference_kernel(ref)

    def test_rows_match_reference(self):
        # clearing one pivot at a time stores the rows that the reference's
        # single pass, scaled once by an lcm, stores; pivots d > 1 are the
        # case that scaling exists for, so they must be hit
        rng = random.Random(227)
        hits_past_one = 0
        for _ in range(300):
            width = rng.randint(1, 14)
            density = rng.choice([0.2, 0.5, 1.0])
            ech, ref = IntegerEchelon(width), ReferenceEchelon(width)
            for _ in range(rng.randint(1, width + 3)):
                row = [rng.randint(-30, 30) if rng.random() < density else 0 for _ in range(width)]
                if rng.random() < 0.5:
                    row = {c: v for c, v in enumerate(row) if v or rng.random() < 0.2}
                entries = row.items() if isinstance(row, dict) else enumerate(row)
                hits_past_one += any(v % ech._rows[c][0] for c, v in entries if c in ech._rows)
                assert ech.add(row) == ref.add(row)
                assert ech._rows == ref.rows
        assert hits_past_one > 500

    def test_width_checked(self):
        ech = IntegerEchelon(2)
        with pytest.raises(ValueError):
            ech.add([1, 2, 3])
        with pytest.raises(ValueError):
            IntegerEchelon(0)

    @pytest.mark.parametrize("width", [2.0, "3", Fraction(2)])
    def test_non_integral_width_rejected(self, width):
        # the width is read with index() where it enters, not later in kernel()
        with pytest.raises(TypeError):
            IntegerEchelon(width)
        with pytest.raises(TypeError):
            integer_rank([[1, 0], [0, 1]], width)

    def test_rank_matches_numpy(self):
        numpy = pytest.importorskip("numpy")
        rng = random.Random(79)
        for _ in range(50):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            assert integer_rank(mat, cols) == numpy.linalg.matrix_rank(
                numpy.array(mat, dtype=float)
            )

    def test_face_rank_matches_numpy(self):
        numpy = pytest.importorskip("numpy")
        rng = random.Random(83)
        done = 0
        while done < 30:
            gens = random_gens(rng, 3, 14)
            if gens is None:
                continue
            done += 1
            S = NumericalSemigroup(gens)
            m = S.multiplicity
            F = face_of(S.coordinates(m, APERY))
            rows = [_facet_row(m, i, j) for i, j in F.canonical_tight()]
            if not rows:
                assert F.dimension == m - 1
                continue
            got = (m - 1) - F.dimension
            assert got == numpy.linalg.matrix_rank(numpy.array(rows, dtype=float))

def _reference_kernel(ref):
    """IntegerEchelon.kernel's formula applied to a ReferenceEchelon's rows."""
    s = lcm(*(d for d, _ in ref.rows.values()))
    return [
        {j: -(s // ref.rows[c][0]) * v for j, v in ref.rows[c][1].items()} if c in ref.rows else {c: s}
        for c in range(ref.width)
    ]


def _facet_row(n, i, j):
    """Dense row of x_i + x_j - x_{i+j} over x_1..x_{n-1}."""
    row = [0] * n
    row[i] += 1
    row[j] += 1
    row[(i + j) % n] -= 1
    return row[1:]


def _sparse_row(n, i, j):
    """_facet_row as {column: coefficient}, zeros left out."""
    row = {}
    for c, v in ((i, 1), (j, 1), ((i + j) % n, -1)):
        row[c - 1] = row.get(c - 1, 0) + v
    return {c: v for c, v in row.items() if v}


def _numpy_rank(numpy, rows, width):
    if not rows:
        return 0
    return int(numpy.linalg.matrix_rank(numpy.array(rows, dtype=float).reshape(-1, width)))


def _kernel_vectors(ech):
    """ech.kernel() as dense vectors, one per non-pivot column."""
    K = ech.kernel()
    return [[K[c].get(j, 0) for c in range(ech.width)] for j in sorted({j for k in K for j in k})]


def _annihilates(row, vectors):
    """Whether a dense or sparse row is orthogonal to every vector: for a
    kernel basis, whether the row lies in the span."""
    items = list(row.items() if isinstance(row, dict) else enumerate(row))
    return all(sum(v * vec[c] for c, v in items) == 0 for vec in vectors)


def _check_kernel(numpy, ech, rows):
    """width - rank kernel vectors, annihilated by every inserted row and
    of full rank by numpy."""
    vectors = _kernel_vectors(ech)
    assert len(vectors) == ech.width - ech.rank
    assert all(_annihilates(row, vectors) for row in rows)
    assert _numpy_rank(numpy, vectors, ech.width) == len(vectors)
    return vectors


class TestSparseEchelon:
    def test_add_and_contains_match_numpy(self):
        numpy = pytest.importorskip("numpy")
        rng = random.Random(89)
        redundant = 0
        for _ in range(300):
            nrows, width = rng.randint(1, 12), rng.randint(1, 14)
            density = rng.choice([0.2, 0.5, 1.0])
            mat = [
                [rng.randint(-30, 30) if rng.random() < density else 0 for _ in range(width)]
                for _ in range(nrows)
            ]
            ech = IntegerEchelon(width)
            for k, row in enumerate(mat):
                grew = _numpy_rank(numpy, mat[: k + 1], width) > _numpy_rank(numpy, mat[:k], width)
                assert ech.add(row) == grew, mat
                redundant += not grew
            rank = _numpy_rank(numpy, mat, width)
            assert ech.rank == rank
            kernel = _check_kernel(numpy, ech, mat)
            for _ in range(4):
                coef = [rng.randint(-5, 5) for _ in mat]
                comb = [sum(c * row[col] for c, row in zip(coef, mat)) for col in range(width)]
                assert _annihilates(comb, kernel)
                probe = [rng.randint(-30, 30) for _ in range(width)]
                in_span = _numpy_rank(numpy, mat + [probe], width) == rank
                assert _annihilates(probe, kernel) == in_span
        assert redundant > 100

    def test_sparse_rows(self):
        numpy = pytest.importorskip("numpy")
        ech = IntegerEchelon(4)
        assert ech.add({0: 2, 3: -1})
        assert not ech.add([4, 0, 0, -2])
        assert _annihilates({0: -6, 3: 3, 1: 0}, _check_kernel(numpy, ech, [{0: 2, 3: -1}]))
        assert ech.add({3: 5})
        _check_kernel(numpy, ech, [{0: 2, 3: -1}, {3: 5}])
        # e_0 and e_3 are in the span: every kernel vector vanishes there
        assert ech.kernel() == [{}, {1: 1}, {2: 1}, {}]
        with pytest.raises(ValueError):
            ech.add({4: 1})
        with pytest.raises(ValueError):
            ech.add({-1: 1})

    @pytest.mark.parametrize("trusted", [True, False])
    def test_hand_built_faces_match_numpy(self, trusted):
        numpy = pytest.importorskip("numpy")
        rng = random.Random(97 + trusted)
        checked = nontrivial = 0
        for _ in range(400):
            n = rng.randint(2, 14)
            pairs = [(i, j) for i in range(1, n) for j in range(i, n) if (i + j) % n]
            tight = rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n)))
            F = ConeFace(n, tight)
            if trusted:
                F = ConeFace._from_rows(n, F._up, True)
            rows = [_facet_row(n, i, j) for i, j in F.canonical_tight()]
            rank = _numpy_rank(numpy, rows, n - 1)
            assert F.dimension == (n - 1) - rank
            try:
                sub = F.kunz_subgroup
            except InconsistentFace:
                assert not trusted
                continue
            unit = numpy.eye(n - 1, dtype=int).tolist()
            expected = (0,) + tuple(
                h for h in range(1, n) if _numpy_rank(numpy, rows + [unit[h - 1]], n - 1) == rank
            )
            assert sub == expected, (n, tight)
            checked += 1
            nontrivial += len(sub) > 1
        assert checked > 100 and nontrivial > 10

    def test_large_modulus_regression(self):
        for gens, dim in (([200, 201], 1), ([200, 203, 417], 2)):
            F = face_of(NumericalSemigroup(gens).coordinates(200, APERY))
            assert F.dimension == dim
            assert F.kunz_subgroup == (0,)
