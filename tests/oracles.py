"""Brute-force reference implementations used to check the library.

Everything here works by dynamic programming over an explicit membership
table, deliberately avoiding the package's Apery kernel (its bitset closure
and round robin), so agreement between the two is meaningful.
"""

from functools import reduce
from math import gcd


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
