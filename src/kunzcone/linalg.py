"""Exact linear algebra over the rationals in a sparse, reduced integer form.

A row space is kept as a fully reduced echelon basis: each pivot column
p owns one row d*x_p + sum(c_j * x_j) whose other entries sit only in
non-pivot columns, with d > 0 and the gcd of d and the c_j equal to 1.
Rows are stored as {column: coefficient} dicts, so a query touches only
its own nonzero entries and the non-pivot part of the rows they hit.
Every step is fraction-free integer arithmetic, so the rank and the
kernel basis are exact.  The face spans give it little work: one seed-1
pass of the benchmark makes 29 adds over 246 ``face_large`` ops (width
<= 3, rank <= 2) and 668 over 1,392 ``cli_main`` ops (width <= 8, rank
<= 6, rows of at most 4 entries).
"""

from __future__ import annotations

from collections.abc import Mapping
from math import gcd, lcm
from operator import index


class IntegerEchelon:
    """Incremental reduced echelon basis of an integer row space.

    A pivot column maps to ``(d, tail)`` with ``tail`` a dict over the
    non-pivot columns; when a new pivot appears it is eliminated from
    every stored row.  A row is reduced by clearing the pivots it hits one
    at a time: scale the row by that pivot's d, subtract the entry times
    the pivot's tail.  A tail has no pivot entries, so a row costs
    O(hits * (nnz + width - rank)), and its residue may carry a positive
    factor, which ``add``'s gcd normalization divides out.  Rows are
    accepted dense (a sequence of ``width`` integers) or sparse (a mapping
    column -> coefficient).
    """

    def __init__(self, width: int):
        if (width := index(width)) < 1:
            raise ValueError("width must be positive")
        self.width = width
        # pivot column -> (positive pivot entry, {non-pivot column: entry})
        self._rows: dict[int, tuple[int, dict[int, int]]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _entries(self, row) -> dict[int, int]:
        """The nonzero entries of a dense or sparse row, checked against the width."""
        if isinstance(row, Mapping):
            for col in row:
                if not 0 <= col < self.width:
                    raise ValueError(f"column {col} outside width {self.width}")
            return {col: v for col, v in row.items() if v}
        row = list(row)
        if len(row) != self.width:
            raise ValueError(f"expected width {self.width}, got {len(row)}")
        return {col: v for col, v in enumerate(row) if v}

    def _reduce(self, row) -> dict[int, int]:
        """Residue of ``row`` on the non-pivot columns; empty iff in the span."""
        rows, residue = self._rows, self._entries(row)
        for p in rows.keys() & residue.keys():
            d, tail = rows[p]
            v = residue.pop(p)
            residue = {col: d * w for col, w in residue.items()}
            for j, w in tail.items():
                residue[j] = residue.get(j, 0) - v * w
        return {col: v for col, v in residue.items() if v}

    def add(self, row) -> bool:
        """Insert a row; True if it enlarged the span."""
        residue = self._reduce(row)
        if not residue:
            return False
        # the smallest entry as pivot keeps d (and later scale factors) small
        q = min(residue, key=lambda col: (abs(residue[col]), col))
        d, tail = _normalized(residue.pop(q), residue)
        rows = self._rows
        for p, (dp, tp) in list(rows.items()):
            if c := tp.get(q):
                merged = {j: d * w for j, w in tp.items() if j != q}
                for j, w in tail.items():
                    merged[j] = merged.get(j, 0) - c * w
                rows[p] = _normalized(d * dp, {j: w for j, w in merged.items() if w})
        rows[q] = (d, tail)
        return True

    def kernel(self) -> list[dict[int, int]]:
        """An integer basis K of the null space, one vector per non-pivot
        column j, given per column c as {j: K[c][j]}.  With s the lcm of the
        pivot entries, a non-pivot c holds s at c and a pivot c holds
        -(s/d) * tail: its row d*x_c + tail . x then vanishes on each vector.
        """
        rows = self._rows
        s = lcm(*(d for d, _ in rows.values()))
        return [
            {j: -(s // rows[c][0]) * v for j, v in rows[c][1].items()} if c in rows else {c: s}
            for c in range(self.width)
        ]


def _normalized(d: int, tail: dict[int, int]) -> tuple[int, dict[int, int]]:
    """Scale (d, tail) so that d > 0 and the gcd of all entries is 1."""
    g = gcd(d, *tail.values())
    if d < 0:
        g = -g
    return d // g, {col: v // g for col, v in tail.items()}


def integer_rank(rows, width: int) -> int:
    """Rank over Q of a collection of integer rows of the given width."""
    ech = IntegerEchelon(width)
    for row in rows:
        ech.add(row)
    return ech.rank
