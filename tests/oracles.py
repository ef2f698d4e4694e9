"""Brute-force reference implementations used to check the library.

Everything here works by dynamic programming over an explicit membership
table, deliberately avoiding the package's Apery kernel (its bitset closure
and round robin), so agreement between the two is meaningful.  The linear
algebra references (``squeeze_rejects``, ``ReferenceEchelon``) import nothing
from the package either.
"""

from collections.abc import Mapping
from functools import reduce
from math import gcd, lcm


def random_gens(rng, m_lo, m_hi, spread=3, extra_hi=4):
    """Random generator list led by its multiplicity, or None when gcd > 1."""
    m = rng.randint(m_lo, m_hi)
    gens = [m] + [rng.randint(m + 1, spread * m) for _ in range(rng.randint(1, extra_hi))]
    return gens if reduce(gcd, gens) == 1 else None


def dp_members(generators, limit):
    """Boolean table t with t[n] true iff n is a sum of generators, n <= limit."""
    table = [False] * (limit + 1)
    table[0] = True
    for n in range(1, limit + 1):
        for g in generators:
            if g <= n and table[n - g]:
                table[n] = True
                break
    return table


_BYTE_BITS = [tuple(bool(b >> j & 1) for j in range(8)) for b in range(256)]


def bit_members(generators, limit):
    """Same table as dp_members, computed on a bitmask for large sweeps.

    Bit n of the result marks membership.  Starting from {0}, each
    generator g is folded in by or-ing shifted copies at g, 2g, 4g, ...
    which closes the set under adding arbitrary multiples of g; applying
    this for every generator in turn yields all generator sums.
    """
    mask = (1 << (limit + 1)) - 1
    bits = 1
    for g in generators:
        shift = g
        while shift <= limit:
            bits |= (bits << shift) & mask
            shift <<= 1
    return bits


def bit_table(bits, limit):
    """Expand a bit_members mask into a boolean list of length limit + 1."""
    expanded = [
        v for byte in bits.to_bytes(limit // 8 + 1, "little") for v in _BYTE_BITS[byte]
    ]
    return expanded[: limit + 1]


def dp_apery(generators, modulus):
    """Smallest member in each residue class mod modulus, by exhaustive scan."""
    # every class minimum is reachable within (modulus) * max(gen) steps
    limit = modulus * max(generators) + 1
    table = dp_members(generators, limit)
    found = {}
    for n in range(limit + 1):
        if table[n] and (n % modulus) not in found:
            found[n % modulus] = n
            if len(found) == modulus:
                break
    if len(found) != modulus:
        raise ValueError("gcd of generators must be 1")
    return [found[c] for c in range(modulus)]


def dp_frobenius(generators):
    """Largest non-member, via the membership table."""
    limit = max(dp_apery(generators, max(generators)))
    table = dp_members(generators, limit)
    gaps = [n for n in range(limit + 1) if not table[n]]
    if not gaps:
        raise ValueError("semigroup has no gaps")
    return max(gaps)


def dp_poset_relations(generators, modulus):
    """Strict order pairs (i, j) on residue classes: a_j - a_i is a member.

    Uses the membership-table definition of the divisibility order rather
    than the Apery-value equality the library exploits.
    """
    apery = dp_apery(generators, modulus)
    limit = max(apery) + 1
    table = dp_members(generators, limit)
    pairs = []
    for i in range(modulus):
        for j in range(modulus):
            diff = apery[j] - apery[i]
            if i != j and diff > 0 and table[diff]:
                pairs.append((i, j))
    return sorted(pairs)


def dp_minimal_generators(generators):
    """Minimal generating set by direct removal testing."""
    gens = sorted(set(generators))
    limit = 2 * max(gens)
    table = dp_members(gens, limit)
    kept = []
    for g in gens:
        others = [x for x in gens if x != g]
        if not others:
            kept.append(g)
            continue
        sub = dp_members(others, g)
        if not sub[g]:
            kept.append(g)
    return kept


def kunz_violation(m, z):
    """Text of the first Kunz inequality that z = (z_1, ..., z_{m-1})
    breaks, or None when z is an integer point of the Kunz polyhedron.

    Straight from the definition: first z_i >= 0 for every i, then for
    i = 1, ..., m-1 and j = i, ..., m-1 with i + j != m the inequality
    z_i + z_j >= z_{i+j mod m}, with 1 added on the left when i + j > m.
    """
    full = [0] + list(z)
    for i in range(1, m):
        if full[i] < 0:
            return f"z_{i} = {full[i]} is negative"
    for i in range(1, m):
        for j in range(i, m):
            if i + j == m:
                continue
            wrap = 1 if i + j > m else 0
            plus = " + 1" if wrap else ""
            s = (i + j) % m
            if full[i] + full[j] + wrap < full[s]:
                return f"z_{i} + z_{j}{plus} >= z_{s} fails: {full[i]} + {full[j]}{plus} < {full[s]}"
    return None


def is_chain(poset):
    """True when the poset is totally ordered."""
    g = poset.ground
    return all(poset.leq(x, y) or poset.leq(y, x) for x in g for y in g)


def transitive_closure_of_covers(covers, ground, bottom):
    """Rebuild all strict pairs from cover pairs by path closure."""
    above = {x: set() for x in ground}
    for a, b in covers:
        above[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in ground:
            extra = set()
            for b in above[a]:
                extra |= above[b]
            if not extra <= above[a]:
                above[a] |= extra
                changed = True
    return sorted((a, b) for a in ground for b in above[a])


def kunz_relation(n, pairs, subgroup):
    """Reflexive-bottom closure of ``pairs`` on Z_n / H as a set of class pairs.

    Each class is named by its least member; every class gets the pairs
    (c, c) and (0, c).  No transitive closure is taken.
    """
    members = {h % n for h in subgroup} | {0}

    def cls(x):
        return min((x + h) % n for h in members)

    ground = sorted({cls(x) for x in range(n)})
    rel = {(c, c) for c in ground} | {(0, c) for c in ground}
    rel |= {(cls(a), cls(b)) for a, b in pairs}
    return ground, rel, cls


def is_kunz_order(n, pairs, subgroup):
    """True when the reflexive-bottom closure of ``pairs`` on Z_n / H is
    antisymmetric, transitive and difference-closed (a before b forces
    b - a before b), each tested by exhaustive loops over classes."""
    ground, rel, cls = kunz_relation(n, pairs, subgroup)
    for a, b in rel:
        if a != b and (b, a) in rel:
            return False
    for a, b in rel:
        for c in ground:
            if (b, c) in rel and (a, c) not in rel:
                return False
    for a, b in rel:
        if (cls(b - a), b) not in rel:
            return False
    return True


def extend_relation(P, n, beta, rho, augmented):
    """Extension of the Kunz poset P on Z_{n/beta} to Z_n, by definition.

    Every g in Z_n is beta*a + b*rho for one a in Z_{n/beta} and one
    0 <= b < beta, found by listing all of them.  g1 precedes g2 when a1
    precedes a2 in P and either b1 <= b2 or (augmented) the a-part of
    beta*rho precedes a2 - a1 in P, tested over all n^2 pairs.  The
    classes equivalent to 0 form the subgroup of the result (larger than
    beta*H' exactly when the augmented order collapses along rho), and
    the relation is returned on its coset minima: (subgroup, pair set).
    """
    m = n // beta
    p_sub = {h % m for h in P.subgroup} | {0}
    p_rel = {(c, c) for c in P.ground} | set(P.relations())

    def p_leq(x, y):
        return (min((x + h) % m for h in p_sub), min((y + h) % m for h in p_sub)) in p_rel

    parts = {(beta * a + b * rho) % n: (a, b) for a in range(m) for b in range(beta)}
    if len(parts) != n:
        raise ValueError("rho must generate Z_n modulo the multiples of beta")
    brho = parts[beta * rho % n][0]
    rel = set()
    for g1 in range(n):
        a1, b1 = parts[g1]
        for g2 in range(n):
            a2, b2 = parts[g2]
            if p_leq(a1, a2) and (b1 <= b2 or (augmented and p_leq(brho, a2 - a1))):
                rel.add((g1, g2))
    kernel = tuple(g for g in range(n) if (0, g) in rel and (g, 0) in rel)

    def cls(x):
        return min((x + h) % n for h in kernel)

    return kernel, {(cls(a), cls(b)) for a, b in rel}


def glued_grid_relation(ap, alpha, beta):
    """The order of the gluing <alpha> + beta*S on Z_{beta*m}, by the grid
    loop glued_poset ran before its rows came from one extension walk, kept
    as a reference.  ``ap`` lists Ap(S; m) by class; a value x is in S iff
    x >= ap[x % m].  Over all m^2 pairs of Apery values a, a' with a' - a
    in Ap(S; m), b*alpha + a*beta precedes b'*alpha + a'*beta when b <= b',
    or for every b' when alpha is an Apery element below a' - a.  Returns
    the reflexive relation as a set of class pairs."""
    m = len(ap)
    n = beta * m
    rel = set()
    for a1 in ap:
        for a2 in ap:
            diff = a2 - a1
            if diff < 0 or ap[diff % m] != diff:
                continue
            wrap = alpha in ap and diff - alpha >= ap[(diff - alpha) % m]
            for b1 in range(beta):
                for b2 in range(beta):
                    if b1 <= b2 or wrap:
                        rel.add(((b1 * alpha + a1 * beta) % n, (b2 * alpha + a2 * beta) % n))
    return rel


def collapsed_pairs_relation(n, beta, rho, subgroup, relations):
    """The pair route extend_poset took when the augmented order collapses
    along rho (beta*rho in the base subgroup), kept as a reference: the
    strict pairs (a, b) of the base order on Z_{n/beta}, given with its
    ``subgroup``, map to (beta*a, beta*b) on Z_n modulo the subgroup
    generated by beta*subgroup and rho.  Returns (that subgroup, the
    reflexive relation on its coset minima, the bottom's pairs included)."""
    g = gcd(n, rho, *(beta * h for h in subgroup))
    rel = {(c, c) for c in range(g)} | {(0, c) for c in range(g)}
    rel |= {(beta * a % g, beta * b % g) for a, b in relations}
    return tuple(range(0, n, g)), rel


def moved_pairs_relation(n, g, relations, u):
    """The pair route apply_automorphism took for a poset on Z_n / gZ_n
    before it permuted rows, kept as a reference: each strict pair (a, b)
    moves to (u*a, u*b), reduced to coset minima mod g.  Returns the
    reflexive relation, the bottom's pairs included."""
    rel = {(c, c) for c in range(g)} | {(0, c) for c in range(g)}
    return rel | {(u * a % n % g, u * b % n % g) for a, b in relations}


def squeeze_rejects(n, tight):
    """Whether a hand-built tight set over Z_n fails the span-and-squeeze rule.

    Reference for the consistency check of hand-built cone faces, kept
    apart from the library's echelon and bit rows.  With the tight set
    made symmetric, it rejects when
    - the equality row x_i + x_j - x_{i+j} of a strict facet lies in the
      span of the tight rows (fraction-free integer elimination), or
    - tight pairs (a, u) and (a+u, v) with u + v != 0 in Z_n force a
      facet (u, v) or (a, u+v) that is not tight (the squeeze).
    """
    sym = {(i % n, j % n) for i, j in tight}
    sym |= {(j, i) for i, j in sym}
    for a, u in sym:
        for b, v in sym:
            w = (u + v) % n
            if b == (a + u) % n and w and ((u, v) not in sym or (a, w) not in sym):
                return True

    def row(i, j):
        r = [0] * n
        r[i] += 1
        r[j] += 1
        r[(i + j) % n] -= 1
        return r[1:]

    def reduce(r):
        # each basis row is zero at the pivots of the rows before it
        for p, b in basis:
            if r[p]:
                r = [b[p] * x - r[p] * y for x, y in zip(r, b)]
        return r

    basis = []
    for i, j in sym:
        r = reduce(row(i, j))
        pivot = next((c for c, v in enumerate(r) if v), None)
        if pivot is not None:
            basis.append((pivot, r))
    return any(
        (i, j) not in sym and not any(reduce(row(i, j)))
        for i in range(1, n)
        for j in range(i, n)
        if (i + j) % n
    )


def walk_reference(up):
    """The relation walk with which KunzPoset validated its rows before the
    walk also yielded the covers, kept unchanged as a reference for the
    accept-or-raise outcome: every strict relation i -> j of the reflexive
    rows ``up`` (row 0 made the bottom's, in place) is checked in
    ascending i, then j, for antisymmetry and transitivity, then for
    difference closure, and the first failure raises ValueError.  Returns
    the down-set rows it fills."""
    size = len(up)
    up[0] = (1 << size) - 1
    down = [1 << i for i in range(size)]
    for i, row in enumerate(up):
        bit = 1 << i
        outside = ~row | bit
        rest = row ^ bit
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            down[j] |= bit
            if up[j] & outside:
                if up[j] & bit:
                    raise ValueError(f"antisymmetry fails between classes {i} and {j}")
                raise ValueError(f"relation is not transitive at class {i}")
            if not up[j - i] & low:  # j - i wraps mod size as a negative index
                raise ValueError(
                    f"difference closure fails: {i} precedes "
                    f"{j} but their difference class does not"
                )
    return down


def brute_covers(relations, ground):
    """Transitive reduction of the strict pairs ``relations``: (a, b) with
    no c strictly between them, by a scan over every c."""
    rel = set(relations)
    return sorted(
        (a, b) for a, b in rel if not any((a, c) in rel and (c, b) in rel for c in ground)
    )


def longest_chain_heights(relations, ground):
    """Length of the longest chain from a minimal element up to each class,
    by repeated relaxation over all strict pairs until nothing changes."""
    h = dict.fromkeys(ground, 0)
    changed = True
    while changed:
        changed = False
        for a, b in relations:
            if h[b] < h[a] + 1:
                h[b] = h[a] + 1
                changed = True
    return h


def tight_pairs(entries, wrap):
    """Ordered pairs (i, j) whose facet holds with equality at the point
    ``entries`` over Z_n: x_i + x_j = x_{i+j}, with ``wrap`` added on the
    left when i + j > n; pairs with i + j = n index no facet."""
    n = len(entries)
    return {
        (i, j)
        for i in range(1, n)
        for j in range(1, n)
        if i + j != n and entries[i] + entries[j] + (wrap if i + j > n else 0) == entries[(i + j) % n]
    }


class ReferenceEchelon:
    """Incremental reduced echelon basis of an integer row space, with the
    queries the face span answers by substitution: rank, span membership
    and the unit vectors in the span.

    A pivot column maps to ``(d, tail)``: the row d*x_p + tail . x with
    d > 0, the gcd of d and the tail entries 1, and the tail only on
    non-pivot columns.  Rows are accepted dense (a sequence of ``width``
    integers) or sparse (a mapping column -> coefficient).  A row is
    reduced in one pass, scaled once by the least multiplier that makes
    each pivot entry it hits a multiple of that pivot's d; the package
    clears one pivot at a time instead, so the two share no reduction.
    """

    def __init__(self, width):
        if width < 1:
            raise ValueError("width must be positive")
        self.width = width
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def _entries(self, row):
        if isinstance(row, Mapping):
            for col in row:
                if not 0 <= col < self.width:
                    raise ValueError(f"column {col} outside width {self.width}")
            return {col: v for col, v in row.items() if v}
        row = list(row)
        if len(row) != self.width:
            raise ValueError(f"expected width {self.width}, got {len(row)}")
        return {col: v for col, v in enumerate(row) if v}

    def _reduce(self, row):
        """Residue of ``row`` on the non-pivot columns; empty iff in the span."""
        rows, residue, hits = self.rows, {}, []
        for col, v in self._entries(row).items():
            if col in rows:
                hits.append((col, v))
            else:
                residue[col] = v
        scale = 1
        for col, v in hits:
            d = rows[col][0]
            if v % d:
                scale = lcm(scale, d // gcd(d, v))
        residue = {col: scale * v for col, v in residue.items()}
        for col, v in hits:
            d, tail = rows[col]
            k = scale * v // d
            for j, w in tail.items():
                residue[j] = residue.get(j, 0) - k * w
        return {col: v for col, v in residue.items() if v}

    def add(self, row):
        """Insert a row; True if it enlarged the span."""
        residue = self._reduce(row)
        if not residue:
            return False
        q = min(residue, key=lambda col: (abs(residue[col]), col))
        d, tail = _normalized_row(residue.pop(q), residue)
        for p, (dp, tp) in list(self.rows.items()):
            c = tp.get(q)
            if c is None:
                continue
            g = gcd(d, c)
            a, b = d // g, c // g
            merged = {j: a * w for j, w in tp.items() if j != q}
            for j, w in tail.items():
                merged[j] = merged.get(j, 0) - b * w
            self.rows[p] = _normalized_row(a * dp, {j: w for j, w in merged.items() if w})
        self.rows[q] = (d, tail)
        return True

    def contains(self, row):
        """Whether ``row`` lies in the rational span of the inserted rows."""
        return not self._reduce(row)

    def unit_columns(self):
        """Columns c whose unit vector e_c lies in the span, ascending: the
        pivots whose row has no other entry."""
        return sorted(col for col, (_, tail) in self.rows.items() if not tail)


def _normalized_row(d, tail):
    """Scale (d, tail) so that d > 0 and the gcd of all entries is 1."""
    g = abs(d)  # not d: with an empty tail, a negative d would be divided by -d, to -1
    for v in tail.values():
        g = gcd(g, v)
    if d < 0:
        g = -g
    return d // g, {col: v // g for col, v in tail.items()}
