"""A fixed reference loop that tracks the speed of the shared host.

The benchmark runs on a few virtual cores of a shared host, whose speed
drifts by 20% to 2x within minutes with the load of its other tenants.  A
run times this loop between its ops; dividing each op's time by the
loop's time nearby removes that drift, and multiplying by ``NOMINAL_NS``
expresses the result in ms on a host where the loop takes that long.

The loop does the kind of work kunzcone does and depends on nothing in
the repository, so a change to the library cannot move it.  It has two
halves because the host's load does not slow all code alike: small-int
row reduction with gcds, which tracks the poset-heavy ops, and a
Dijkstra Apery set, its poset relations and a membership sweep over a
few semigroups, which tracks the semigroup ops (alone, either half
missed the other kind's slowdowns by 20-35%).
"""

from __future__ import annotations

import heapq
from math import gcd
from time import perf_counter_ns

# a round figure above the loop's time on the 2-vCPU container the
# benchmark was tuned on (5-9 ms, Python 3.11); only scales the times
NOMINAL_NS = 10_000_000

_N = 41


def _row(i: int) -> list[int]:
    return [(i * j * 7919 + j) % 97 - 48 for j in range(_N)]


def _reduce(row: list[int], base: list[int], col: int) -> list[int]:
    a, b = base[col], row[col]
    out = [a * r - b * s for r, s in zip(row, base)]
    g = 0
    for v in out:
        g = gcd(g, v)
    return [v // g for v in out] if g else out


def _apery(gens: tuple[int, ...], m: int) -> list[int]:
    dist: list[int | None] = [None] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d != dist[r]:
            continue
        for g in gens:
            nd = d + g
            if dist[nd % m] is None or nd < dist[nd % m]:
                dist[nd % m] = nd
                heapq.heappush(heap, (nd, nd % m))
    return dist


def _semigroup_half() -> int:
    total = 0
    for m, gens in ((53, (53, 71, 88, 97)), (61, (61, 74, 95, 131, 140)), (47, (47, 52, 118))):
        w = _apery(gens, m)
        rel = set()
        for i in range(1, m):
            for j in range(1, m):
                k = (i + j) % m
                if k and w[i] + w[j] == w[k]:
                    rel.add((i, k))
                    rel.add((j, k))
        below = {k: sorted(r for r in rel if r[1] == k) for k in range(1, m, 7)}
        member = [v >= w[v % m] for v in range(20 * m)]
        total += sum(map(len, below.values())) + sum(member)
    return total


def _rows_half() -> int:
    acc = 0
    seen: set[int] = set()
    table: dict[int, int] = {}
    base = _row(1)
    for i in range(2, 250):
        row = _reduce(_row(i), base, 3)
        acc = (acc * 31 + sum(row)) % 1_000_003
        seen.add(acc % 4099)
        table[i % 257] = len(seen)
    return acc + sum(table.values())


def loop() -> int:
    """The reference work; returns a checksum so nothing is skipped."""
    return _rows_half() + _semigroup_half()


def sample_ns() -> int:
    """Wall time of one run of the reference loop."""
    t0 = perf_counter_ns()
    loop()
    return perf_counter_ns() - t0

