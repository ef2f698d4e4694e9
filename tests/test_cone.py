import random
from fractions import Fraction
from math import gcd

import pytest

from kunzcone import cone
from kunzcone import (
    APERY,
    CONE,
    KUNZ,
    POLYHEDRON,
    ConeFace,
    CoordTuple,
    InconsistentFace,
    IntegerEchelon,
    NotAUnit,
    NotInCone,
    NumericalSemigroup,
    apery_poset,
    apply_automorphism,
    ega_rays,
    face_of,
    integer_rank,
    kunz_poset_of,
)
from kunzcone.sweeps import iter_ega_params, random_semigroup_with_multiplicity
from oracles import random_gens, squeeze_rejects


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

    def test_explicit_kind_override(self):
        S = NumericalSemigroup([4, 13, 18])
        z = S.coordinates(4, KUNZ)
        ap = S.coordinates(4, APERY)
        assert face_of(z, kind=POLYHEDRON) == face_of(z)
        assert face_of(ap, kind=CONE) == face_of(ap)

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
            (KUNZ, (0, 5, 2, 2), CONE, "x_2 + x_3 >= x_1 at indices (2,3)"),
            (APERY, (0, 3, 1, 7, 2), POLYHEDRON, "z_1 + z_2 >= z_3 at indices (1,2)"),
            (APERY, (0, Fraction(1, 2), Fraction(3, 2), 1), None,
             "x_1 + x_1 >= x_2 at indices (1,1)"),
        ],
    )
    def test_not_in_cone_messages(self, kind, entries, family, message):
        # the first violated facet in scan order is the one named
        with pytest.raises(NotInCone) as exc:
            face_of(CoordTuple(len(entries), kind, entries), family)
        assert str(exc.value) == f"violated: {message}"

    def test_bad_kind(self):
        x = CoordTuple(4, APERY, (0, 1, 1, 2))
        with pytest.raises(ValueError):
            face_of(x, kind="simplex")


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

    def test_trusted_faces_skip_vetting(self):
        # the trusted flag is for faces located from an actual point;
        # it disables the consistency scan entirely
        F = ConeFace(8, [(1, 1), (2, 2)], trusted=True)
        assert isinstance(F.kunz_subgroup, tuple)


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


class TestSpanningRows:
    """The face echelon sees only a spanning subset of the tight rows; its
    answers must be those of an echelon fed every tight row."""

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
            F = ConeFace(n, tight)
            full = IntegerEchelon(n - 1)
            for i, j in F.canonical_tight():
                full.add(_facet_row(n, i, j))
            ech = F._tight_echelon()
            assert ech.rank == full.rank, (n, tight)
            assert ech.unit_columns() == full.unit_columns(), (n, tight)
            for i in range(1, n):
                for j in range(i, n):
                    if (i + j) % n:
                        row = _facet_row(n, i, j)
                        assert ech.contains(row) == full.contains(row), (n, tight, i, j)
            kinds["pinned"] += bool(full.unit_columns())
            try:
                F.kunz_subgroup
            except InconsistentFace:
                kinds["rejected"] += 1
        assert kinds["pinned"] > 500 and kinds["rejected"] > 500, kinds

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

    def test_poset_transport_commutes(self):
        S = NumericalSemigroup([5, 7, 9])
        F = face_of(S.coordinates(5, APERY))
        for u in (2, 3, 4):
            moved = apply_automorphism(F, u)
            assert apply_automorphism(F.kunz_poset, u) == moved.kunz_poset

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
        assert ech.contains([5, -7, 0])
        assert not ech.contains([0, 0, 1])

    def test_gcd_normalization(self):
        assert integer_rank([[2, 4], [3, 6]], 2) == 1

    def test_width_checked(self):
        ech = IntegerEchelon(2)
        with pytest.raises(ValueError):
            ech.add([1, 2, 3])
        with pytest.raises(ValueError):
            IntegerEchelon(0)

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

def _facet_row(n, i, j):
    """Dense row of x_i + x_j - x_{i+j} over x_1..x_{n-1}."""
    row = [0] * n
    row[i] += 1
    row[j] += 1
    row[(i + j) % n] -= 1
    return row[1:]


def _numpy_rank(numpy, rows, width):
    if not rows:
        return 0
    return int(numpy.linalg.matrix_rank(numpy.array(rows, dtype=float).reshape(-1, width)))


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
            for _ in range(4):
                coef = [rng.randint(-5, 5) for _ in mat]
                comb = [sum(c * row[col] for c, row in zip(coef, mat)) for col in range(width)]
                assert ech.contains(comb)
                probe = [rng.randint(-30, 30) for _ in range(width)]
                assert ech.contains(probe) == (_numpy_rank(numpy, mat + [probe], width) == rank)
        assert redundant > 100

    def test_sparse_rows(self):
        ech = IntegerEchelon(4)
        assert ech.add({0: 2, 3: -1})
        assert not ech.add([4, 0, 0, -2])
        assert ech.contains({0: -6, 3: 3, 1: 0})
        assert ech.add({3: 5})
        assert ech.unit_columns() == [0, 3]
        with pytest.raises(ValueError):
            ech.add({4: 1})
        with pytest.raises(ValueError):
            ech.contains({-1: 1})

    @pytest.mark.parametrize("trusted", [True, False])
    def test_hand_built_faces_match_numpy(self, trusted):
        numpy = pytest.importorskip("numpy")
        rng = random.Random(97 + trusted)
        checked = nontrivial = 0
        for _ in range(400):
            n = rng.randint(2, 14)
            pairs = [(i, j) for i in range(1, n) for j in range(i, n) if (i + j) % n]
            tight = rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n)))
            F = ConeFace(n, tight, trusted=trusted)
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
