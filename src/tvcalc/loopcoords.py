"""Loop coordinates for coloured tetrahedra.

The six doubled edge colours of a tetrahedron are arranged as a 2x3
matrix (the intersection symbol) whose columns pair opposite edges.
Every admissible symbol splits uniquely into loops encircling the four
vertices plus parallel copies of one further curve type; the weight of
the tetrahedron has a short alternating-sum expression in these
coordinates, cross-checked exactly against the edge-colour formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .colourings import admissible_triple
from .cyclotomic import Cyc, FieldContext
from .triangulation import Skeleton, Triangulation, build_skeleton

__all__ = [
    "IntersectionSymbol",
    "LoopDecomposition",
    "normal_arc_counts",
    "intersection_symbol",
    "decompose_symbol",
    "symbol_of",
    "tet_weight_loop",
    "iter_admissible_symbols",
]


def normal_arc_counts(colours) -> tuple:
    """Corner arc counts of a triangle from its doubled edge colours.

    Entry k is the number of arcs cutting off the corner opposite edge
    k, i.e. the corner shared by the other two edges.  The counts are
    the unique non-negative solution of the matching equations, which
    is what the parity and triangle-inequality conditions guarantee.
    """
    a, b, c = colours
    s = a + b + c
    if s & 1 or a > b + c or b > a + c or c > a + b:
        raise ValueError(f"triangle colours {(a, b, c)} are not admissible")
    h = s // 2
    return (h - a, h - b, h - c)


# Row 1 holds the colours of the edges of one face in cyclic order,
# row 2 the colours of the respective opposite edges.  In the local
# edge numbering 0..5 = (01, 02, 03, 12, 13, 23) that reads:
_ROW1_EDGES = (0, 3, 1)
_ROW2_EDGES = (5, 2, 4)

# Per face of the tetrahedron, the symbol positions (row, col) of its
# three edge colours.  Face f is opposite vertex f.
_FACE_CELLS = (
    ((0, 1), (1, 0), (1, 2)),  # face 123: edges 12, 23, 13
    ((0, 2), (1, 0), (1, 1)),  # face 023: edges 02, 23, 03
    ((0, 0), (1, 1), (1, 2)),  # face 013: edges 01, 03, 13
    ((0, 0), (0, 1), (0, 2)),  # face 012: edges 01, 12, 02
)


@dataclass(frozen=True)
class IntersectionSymbol:
    """2x3 matrix of doubled edge colours with opposite edges aligned."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != 2 or any(len(row) != 3 for row in rows):
            raise ValueError("intersection symbol must be a 2x3 matrix")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("intersection symbol entries must be >= 0")
        for cells in _FACE_CELLS:
            tri = tuple(rows[i][j] for i, j in cells)
            s = sum(tri)
            if s & 1 or any(2 * x > s for x in tri):
                raise ValueError(
                    f"face colours {tri} violate parity or the triangle "
                    f"inequalities")

    def doubled_colours(self) -> tuple:
        """The six doubled edge colours in local edge order 0..5."""
        flat = self.rows[0] + self.rows[1]
        pos = {e: k for k, e in enumerate(_ROW1_EDGES + _ROW2_EDGES)}
        return tuple(flat[pos[e]] for e in range(6))

    def admissible(self, r: int) -> bool:
        """All four face triples admissible at level r."""
        for cells in _FACE_CELLS:
            tri = tuple(self.rows[i][j] for i, j in cells)
            if not admissible_triple(r, *tri):
                return False
        return True

    def __str__(self) -> str:
        return "[[{},{},{}],[{},{},{}]]".format(*self.rows[0], *self.rows[1])


def intersection_symbol(source, colouring, tet: int) -> IntersectionSymbol:
    """Symbol of one tetrahedron under a colouring of the edge classes."""
    skel = source if isinstance(source, Skeleton) else build_skeleton(source)
    if not (0 <= tet < len(skel.triangulation.gluings)):
        raise ValueError(f"no tetrahedron {tet}")
    local = [colouring[c] for c in skel.tet_edge_classes[tet]]
    return IntersectionSymbol((
        tuple(local[e] for e in _ROW1_EDGES),
        tuple(local[e] for e in _ROW2_EDGES),
    ))


# Symbols of a single loop around each local vertex.  A vertex loop
# crosses exactly the three edges at that vertex.
_VERTEX_LOOPS = (
    ((1, 0, 1), (0, 1, 0)),
    ((1, 1, 0), (0, 0, 1)),
    ((0, 1, 1), (1, 0, 0)),
    ((0, 0, 0), (1, 1, 1)),
)

# Row contribution per vertex-loop count, precomputed columnwise:
# row 1 of a*A + b*B + c*C + d*D is (a+b, b+c, a+c), row 2 (c+d, a+d, b+d).
_ROW1_PAIRS = ((0, 1), (1, 2), (0, 2))
_ROW2_PAIRS = ((2, 3), (0, 3), (1, 3))


def _rotation_pattern(i: int, j: int, rotation: int) -> tuple:
    if rotation == 0:
        return (i, j, i + j)
    if rotation == 1:
        return (i + j, i, j)
    return (j, i + j, i)


@dataclass(frozen=True)
class LoopDecomposition:
    """Loop-system coordinates: vertex-loop counts plus a balanced part.

    a, b, c, d count loops around the four local vertices.  p copies of
    one further curve crossing the columns in the pattern (i, j, i+j),
    rotated so that the i+j entry sits in column `rotation + 2 mod 3`.
    p = 0 forces the sentinel (i, j, rotation) = (0, 0, 0).
    """

    a: int
    b: int
    c: int
    d: int
    p: int
    i: int
    j: int
    rotation: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "p", "i", "j"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        if self.rotation not in (0, 1, 2):
            raise ValueError("rotation must be 0, 1 or 2")
        if self.p == 0:
            if (self.i, self.j, self.rotation) != (0, 0, 0):
                raise ValueError("p = 0 requires (i, j, rotation) = 0")
        else:
            if (self.i, self.j) == (0, 0):
                raise ValueError("p > 0 requires (i, j) != (0, 0)")
            if math.gcd(self.i, self.j) != 1:
                raise ValueError(f"(i, j) = {(self.i, self.j)} not coprime")

    @property
    def vertex_counts(self) -> tuple:
        return (self.a, self.b, self.c, self.d)


def symbol_of(dec: LoopDecomposition) -> IntersectionSymbol:
    """Reassemble the intersection symbol of a loop system."""
    v = dec.vertex_counts
    pat = _rotation_pattern(dec.i, dec.j, dec.rotation)
    row1 = tuple(v[x] + v[y] + dec.p * pat[k]
                 for k, (x, y) in enumerate(_ROW1_PAIRS))
    row2 = tuple(v[x] + v[y] + dec.p * pat[k]
                 for k, (x, y) in enumerate(_ROW2_PAIRS))
    return IntersectionSymbol((row1, row2))


# Which residual column must equal the sum of the other two, per
# rotation, and which two columns then carry (p*i, p*j).
_SUM_COLUMN = (2, 0, 1)
_PART_COLUMNS = ((0, 1), (1, 2), (2, 0))


def decompose_symbol(symbol: IntersectionSymbol) -> LoopDecomposition:
    """Split a symbol into vertex loops and a balanced remainder.

    The row differences fix the vertex counts up to a common shift; for
    each rotation the balance condition pins the shift, and the
    remainder must be a non-negative multiple of a coprime pattern.
    All rotations that succeed must describe the same loop system; the
    smallest rotation index is returned.
    """
    r1, r2 = symbol.rows
    diff = tuple(r1[k] - r2[k] for k in range(3))
    # diff = (a+b-c-d, b+c-a-d, a+c-b-d), so pairwise sums are even.
    twice = (diff[0] + diff[2], diff[0] + diff[1], diff[1] + diff[2])
    if any(t & 1 for t in twice):
        raise ValueError("symbol admits no decomposition")
    rel = tuple(t // 2 for t in twice)  # (a-d, b-d, c-d)

    candidates = []
    for rot in (0, 1, 2):
        sc = _SUM_COLUMN[rot]
        # In rotation rot, the pattern entry in column sc is the sum of
        # the other two, so that column drops out of row 1:
        # r1[x] + r1[y] - r1[sc] = twice the vertex count shared by
        # columns x and y.
        x, y = _PART_COLUMNS[rot]
        pivot2 = r1[x] + r1[y] - r1[sc]
        if pivot2 < 0 or pivot2 & 1:
            continue
        # Column pairs (0,1), (1,2), (2,0) of row 1 share vertex counts
        # b, c, a respectively; express d through the pivot.
        pivot_index = (1, 2, 0)[rot]
        d = pivot2 // 2 - rel[pivot_index]
        if d < 0:
            continue
        counts = tuple(rel[k] + d for k in range(3)) + (d,)
        if any(v < 0 for v in counts):
            continue
        res1 = tuple(r1[k] - counts[px] - counts[py]
                     for k, (px, py) in enumerate(_ROW1_PAIRS))
        res2 = tuple(r2[k] - counts[px] - counts[py]
                     for k, (px, py) in enumerate(_ROW2_PAIRS))
        assert res1 == res2, "vertex part must cancel the row difference"
        if any(e < 0 for e in res1):
            continue
        if res1[sc] != res1[x] + res1[y]:
            continue
        if res1 == (0, 0, 0):
            candidates.append(LoopDecomposition(*counts, 0, 0, 0, 0))
            continue
        p = math.gcd(res1[x], res1[y])
        candidates.append(
            LoopDecomposition(*counts, p, res1[x] // p, res1[y] // p, rot))

    if not candidates:
        raise ValueError("symbol admits no decomposition")
    for cand in candidates:
        assert symbol_of(cand).rows == symbol.rows, \
            "candidate fails to reconstruct the symbol"
    first = candidates[0]
    assert all(c.vertex_counts == first.vertex_counts and c.p == first.p
               for c in candidates), \
        "decomposition not unique under canonical form"
    return first


_WEIGHT_CACHE: dict = {}


def tet_weight_loop(ctx: FieldContext, dec: LoopDecomposition) -> Cyc:
    """Tetrahedron weight straight from loop coordinates.

    An alternating sum over z up to the smallest vertex-loop count.
    Agrees exactly with the edge-colour formula on the six colours of
    symbol_of(dec).
    """
    pool = _WEIGHT_CACHE.setdefault((ctx.r, ctx.q), {})
    pi, pj = dec.p * dec.i, dec.p * dec.j
    key = (tuple(sorted(dec.vertex_counts)), min(pi, pj), max(pi, pj))
    got = pool.get(key)
    if got is not None:
        return got

    # Smallest quad half-sum of the symbol; its parity fixes the sign.
    min_quad = pi + pj + sum(dec.vertex_counts)
    y = min(dec.vertex_counts)
    total = ctx.zero
    for z in range(y + 1):
        if min_quad - z + 1 >= ctx.r:
            continue  # zero numerator
        term = ctx.bracket_factorial(min_quad - z + 1)
        for v in dec.vertex_counts:
            term = term * ctx.inverse_bracket_factorial(v - z)
        term = term * ctx.inverse_bracket_factorial(pi + z)
        term = term * ctx.inverse_bracket_factorial(pj + z)
        term = term * ctx.inverse_bracket_factorial(z)
        total = total - term if z & 1 else total + term
    if min_quad & 1:
        total = -total
    pool[key] = total
    return total


def iter_admissible_symbols(max_entry: int, r: int | None = None):
    """Yield every intersection symbol with entries <= max_entry.

    Symbols must satisfy the parity and triangle conditions on all four
    faces; with r given, each face triple must additionally be
    admissible at level r (and entries are capped at r - 2).
    """
    if r is not None:
        max_entry = min(max_entry, r - 2)
    domain = range(max_entry + 1)
    for flat in product(domain, repeat=6):
        rows = (flat[:3], flat[3:])
        ok = True
        for cells in _FACE_CELLS:
            tri = tuple(rows[i][j] for i, j in cells)
            s = sum(tri)
            if s & 1 or any(2 * x > s for x in tri):
                ok = False
                break
            if r is not None and s > 2 * (r - 2):
                ok = False
                break
        if ok:
            yield IntersectionSymbol(rows)
