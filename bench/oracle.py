"""Reference answers that do not go through kunzcone.

Membership comes from the bitmask fold in ``tests/oracles.py``
(``bit_members``), not from the package's Dijkstra Apery kernel.  Every
other expected value (Apery sets, Frobenius numbers, minimal generators,
posets, covers, face dimensions, extremal rays) is derived from that
membership table here.  Ranks are computed modulo large primes with
numpy, unlike the package's fraction-free integer echelon.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_ORACLES = ROOT / "tests" / "oracles.py"


class OracleError(Exception):
    """The reference computation itself found an inconsistency."""


def _load_test_oracles():
    spec = importlib.util.spec_from_file_location("kunzcone_test_oracles", TEST_ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dp = _load_test_oracles()


class Members:
    """Membership table of <gens>, complete up to a certified limit.

    The table is grown until its last min(gens) entries are all members;
    from there on every integer is a member (add multiples of min(gens)).
    """

    def __init__(self, gens):
        gens = sorted(set(gens))
        if gens[0] < 1:
            raise OracleError(f"generators must be positive: {gens}")
        self.gens = gens
        step = gens[0]
        limit = max(64, 4 * gens[-1])
        while True:
            table = dp.bit_table(dp.bit_members(gens, limit), limit)
            if all(table[limit - step + 1:]):
                break
            limit *= 2
            if limit > 1 << 22:
                raise OracleError(f"{gens} do not generate a cofinite set")
        self.limit = limit
        self.table = table

    def __contains__(self, n: int) -> bool:
        return n >= 0 and (n > self.limit or self.table[n])

    def bits(self, top: int) -> str:
        """'1'/'0' membership string for 0..top."""
        return "".join("1" if n in self else "0" for n in range(top + 1))

    def frobenius(self) -> int:
        for n in range(self.limit, -1, -1):
            if not self.table[n]:
                return n
        return -1

    def apery(self, e: int) -> list[int]:
        """Least member in each class mod e, indexed by class."""
        found: list[int | None] = [None] * e
        left = e
        for n in range(self.limit + 1):
            if self.table[n] and found[n % e] is None:
                found[n % e] = n
                left -= 1
                if not left:
                    return found
        for c in range(e):
            if found[c] is None:
                n = self.limit + 1
                found[c] = n + (c - n) % e
        return found

    def minimal_generators(self) -> list[int]:
        """Members of gens that are not a sum of two nonzero members."""
        return [
            g for g in self.gens
            if not any(s in self and (g - s) in self for s in range(1, g // 2 + 1))
        ]

    def poset_relations(self, e: int) -> list[list[int]]:
        """Strict pairs (i, j) of the Apery order mod e: a_j - a_i in S."""
        ap, table, limit = self.apery(e), self.table, self.limit
        return [
            [i, j] for i in range(e) for j in range(e)
            if (diff := ap[j] - ap[i]) > 0 and (diff > limit or table[diff])
        ]

    def covers(self, e: int) -> list[list[int]]:
        """Cover pairs of the Apery order mod the multiplicity e.

        j covers i exactly when a_j - a_i is a minimal generator: any
        other difference splits off a generator g, and a_i + g is then an
        Apery element strictly between the two.
        """
        ap = self.apery(e)
        atoms = set(self.minimal_generators())
        return [
            [i, j] for i in range(e) for j in range(e)
            if i != j and (ap[j] - ap[i]) in atoms
        ]


def tight_pairs(x) -> list[tuple[int, int]]:
    """Facets x_i + x_j >= x_{i+j} (1 <= i <= j < n, i+j != 0 mod n) at equality."""
    n = len(x)
    return [
        (i, j) for i in range(1, n) for j in range(i, n)
        if (i + j) % n and x[i] + x[j] == x[(i + j) % n]
    ]


_PRIMES = (67108859, 67108837)  # below 2**26, so float64 products stay exact


def rank(pairs, n: int) -> int:
    """Rank over Q of the rows e_i + e_j - e_{i+j} (coordinates 1..n-1).

    The rows are compressed by a seeded random matrix mod p and the
    small product is eliminated mod p.  Either step can only lose rank,
    and only with probability about n/p, so the larger of two
    independent trials is the rank over Q.
    """
    import numpy as np

    width = n - 1
    if not pairs or width == 0:
        return 0
    A = np.zeros((len(pairs), width))
    for r, (i, j) in enumerate(pairs):
        A[r, i - 1] += 1
        A[r, j - 1] += 1
        A[r, (i + j) % n - 1] -= 1
    best = 0
    for trial, p in enumerate(_PRIMES):
        rng = np.random.default_rng(trial)
        G = rng.integers(0, p, size=(width + 8, len(pairs))).astype(np.float64)
        M = np.mod(G @ A, p).astype(np.int64)
        best = max(best, _rank_mod(M, p))
    return best


def _rank_mod(M, p: int) -> int:
    import numpy as np

    M = M.copy()
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        M[r] = M[r] * pow(int(M[r, c]), p - 2, p) % p
        below = M[r + 1:, c]
        hit = np.nonzero(below)[0]
        if hit.size:
            idx = hit + r + 1
            M[idx] = (M[idx] - np.outer(M[idx, c], M[r]) % p) % p
        r += 1
        if r == rows:
            break
    return r


def face_dimension(x) -> int:
    n = len(x)
    return (n - 1) - rank(tight_pairs(x), n)


def ega_generators(a: int, h: int, k: int, d: int) -> list[int]:
    return sorted([a] + [a * h + i * d for i in range(1, k + 1)])


def _primitive(v):
    g = 0
    for c in v:
        g = gcd(g, c)
    v = [c // g for c in v]
    for c in v:
        if c:
            return v if c > 0 else [-u for u in v]
    return v


def ega_rays(a: int, h: int, k: int, d: int) -> tuple[list[int], list[int]]:
    """The two extremal rays of the 2-dimensional face of an EGA semigroup.

    The Apery tuples for h and h+1 lie on one face (checked), and its
    linear hull is 2-dimensional (checked), so the face is the cone over
    the plane they span cut by the strict facets.  Walking from the
    interior directions x1 and x2 to the first facet on either side gives
    the two rays.  Listed first is the image of (0, 1, ..., a-1) under
    i -> d*i, the ray that permutes 0..a-1 and is 1 at class d.
    """
    x1 = Members(ega_generators(a, h, k, d)).apery(a)
    x2 = Members(ega_generators(a, h + 1, k, d)).apery(a)
    tight = tight_pairs(x1)
    if tight != tight_pairs(x2):
        raise OracleError(f"EGA tuples for h={h}, h+1 lie on different faces")
    if face_dimension(x1) != 2:
        raise OracleError("EGA face is not 2-dimensional")
    tight_set = set(tight)
    beyond_x2 = beyond_x1 = None  # (value, facet slacks) of the nearest facet
    for i in range(1, a):
        for j in range(i, a):
            if (i + j) % a == 0 or (i, j) in tight_set:
                continue
            fu = x1[i] + x1[j] - x1[(i + j) % a]
            fw = x2[i] + x2[j] - x2[(i + j) % a]
            # direction -s*x1 + x2 stays feasible while s <= fw/fu
            if beyond_x2 is None or Fraction(fw, fu) < beyond_x2[0]:
                beyond_x2 = (Fraction(fw, fu), fu, fw)
            if beyond_x1 is None or Fraction(fu, fw) < beyond_x1[0]:
                beyond_x1 = (Fraction(fu, fw), fu, fw)
    if beyond_x2 is None:
        raise OracleError("no strict facet bounds the face")
    _, fu, fw = beyond_x2
    ray1 = _primitive([fu * q - fw * p for p, q in zip(x1, x2)])
    _, fu, fw = beyond_x1
    ray2 = _primitive([fw * p - fu * q for p, q in zip(x1, x2)])
    def is_identity_image(ray):
        return sorted(ray) == list(range(a)) and ray[d % a] == 1

    if is_identity_image(ray2):
        ray1, ray2 = ray2, ray1
    if not is_identity_image(ray1) or is_identity_image(ray2):
        raise OracleError("cannot tell the rays apart")
    return ray1, ray2
