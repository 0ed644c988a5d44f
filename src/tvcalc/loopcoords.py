"""Loop coordinates for coloured tetrahedra.

The six doubled edge colours of a tetrahedron are arranged as a 2x3
matrix (the intersection symbol) whose columns pair opposite edges.
Every admissible symbol splits uniquely into loops encircling the four
vertices plus p parallel copies of one further curve, which crosses the
three columns as (i, j, i+j) up to rotation.  The split is read off in
closed form: the row differences give the vertex counts up to a common
shift d, and the column of row 1 that holds the largest remainder is
the sum column, which fixes d.  The symbol's tables all derive from
`EDGE_VERTICES` and `FACE_EDGES`.  The weight of the tetrahedron is a
short alternating sum in these coordinates whose terms are quantum
integers times quantum multinomials, as in the edge-colour formula: one
``FieldContext.multinomial_sum`` over the context's packed table, no
factorial or inverse, cross-checked exactly against that formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .colourings import admissible_triple
from .cyclotomic import Cyc, FieldContext
from .triangulation import (
    EDGE_VERTICES,
    FACE_EDGES,
    Skeleton,
    Triangulation,
    build_skeleton,
)

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


# The local edge (an index into EDGE_VERTICES) at each cell of the
# symbol: row 1 holds the edges 01, 12, 02 of face 012 in cyclic order,
# row 2 their opposite edges 23, 03, 13.
_CELL_EDGES = ((0, 3, 1), (5, 2, 4))
# Position in the flattened symbol of each local edge 0..5.
_EDGE_SLOT = tuple((_CELL_EDGES[0] + _CELL_EDGES[1]).index(k)
                   for k in range(6))
# The vertex pair behind each cell; a loop round vertex v crosses the
# edges at v, so it adds 1 to each cell whose pair holds v.
_CELL_VERTICES = tuple(tuple(EDGE_VERTICES[k] for k in row)
                       for row in _CELL_EDGES)


def _unbalanced_face(colours):
    """The first face triple of six doubled colours (local edge order)
    with an odd sum or a broken triangle inequality, else None."""
    for face in FACE_EDGES:
        tri = tuple(colours[k] for k in face)
        s = sum(tri)
        if s & 1 or 2 * max(tri) > s:
            return tri
    return None


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
        tri = _unbalanced_face(self.doubled_colours())
        if tri is not None:
            raise ValueError(
                f"face colours {tri} violate parity or the triangle "
                f"inequalities")

    def doubled_colours(self) -> tuple:
        """The six doubled edge colours in local edge order 0..5."""
        flat = self.rows[0] + self.rows[1]
        return tuple(flat[k] for k in _EDGE_SLOT)

    def admissible(self, r: int) -> bool:
        """All four face triples admissible at level r."""
        colours = self.doubled_colours()
        return all(admissible_triple(r, *(colours[k] for k in face))
                   for face in FACE_EDGES)

    def __str__(self) -> str:
        return "[[{},{},{}],[{},{},{}]]".format(*self.rows[0], *self.rows[1])


def intersection_symbol(source, colouring, tet: int) -> IntersectionSymbol:
    """Symbol of one tetrahedron under a colouring of the edge classes."""
    skel = source if isinstance(source, Skeleton) else build_skeleton(source)
    if not (0 <= tet < len(skel.triangulation.gluings)):
        raise ValueError(f"no tetrahedron {tet}")
    local = [colouring[c] for c in skel.tet_edge_classes[tet]]
    return IntersectionSymbol(
        tuple(tuple(local[k] for k in row) for row in _CELL_EDGES))


# Per rotation, the column holding i+j and the two columns holding
# (i, j), in that order.
_SUM_COLUMN = (2, 0, 1)
_PART_COLUMNS = ((0, 1), (1, 2), (2, 0))


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
    pat = [0, 0, 0]
    pat[_SUM_COLUMN[dec.rotation]] = dec.i + dec.j
    x, y = _PART_COLUMNS[dec.rotation]
    pat[x], pat[y] = dec.i, dec.j
    return IntersectionSymbol(
        tuple(tuple(v[u] + v[w] + dec.p * pat[k]
                    for k, (u, w) in enumerate(pairs))
              for pairs in _CELL_VERTICES))


def decompose_symbol(symbol: IntersectionSymbol) -> LoopDecomposition:
    """Split a symbol into vertex loops and a balanced remainder.

    Row 1 minus row 2 gives the vertex counts up to a common shift d.
    Row 1 less those relative counts is s = P + 2d, with P the balanced
    remainder.  One column of P is the sum of the other two, so it holds
    P's maximum; the first rotation whose sum column holds max(s) fixes
    2d = s[x] + s[y] - max(s).  Tied rotations give the same d, so this
    is the smallest rotation that describes the symbol.
    """
    r1, r2 = symbol.rows
    diff = tuple(r1[k] - r2[k] for k in range(3))
    # Vertices 0, 1, 2 each lie on two cells of row 1 and vertex 3 on
    # none, so the sum of diff over the columns at a vertex is twice its
    # count less d; face parity makes every half here exact.
    rel = tuple(sum(diff[k] for k, pair in enumerate(_CELL_VERTICES[0])
                    if v in pair) // 2 for v in range(4))
    s = tuple(r1[k] - rel[u] - rel[w]
              for k, (u, w) in enumerate(_CELL_VERTICES[0]))
    top = max(s)
    rot = [s[k] for k in _SUM_COLUMN].index(top)
    x, y = _PART_COLUMNS[rot]
    twice_d = s[x] + s[y] - top
    counts = tuple(v + twice_d // 2 for v in rel)
    part = tuple(e - twice_d for e in s)
    if twice_d & 1 or min(counts) < 0 or min(part) < 0:
        raise ValueError("symbol admits no decomposition")
    if top == twice_d:
        return LoopDecomposition(*counts, 0, 0, 0, 0)
    p = math.gcd(part[x], part[y])
    return LoopDecomposition(*counts, p, part[x] // p, part[y] // p, rot)


def tet_weight_loop(ctx: FieldContext, dec: LoopDecomposition) -> Cyc:
    """Tetrahedron weight straight from loop coordinates.

    With m = pi + pj + (the sum of the vertex-loop counts v), the
    smallest quad half-sum of the symbol, term z, for z up to the
    smallest v, is (-1)^(z+m) [m-z+1] times the quantum multinomial of
    m - z over the seven parts v - z, pi + z, pj + z and z; terms with
    m - z + 1 >= r vanish.  One ``FieldContext.multinomial_sum`` over
    the context's packed table, as in the edge-colour formula, which it
    agrees with exactly on the six colours of symbol_of(dec).
    """
    pi, pj = dec.p * dec.i, dec.p * dec.j
    m = pi + pj + sum(dec.vertex_counts)
    terms = []
    for z in range(max(0, m + 2 - ctx.r), min(dec.vertex_counts) + 1):
        parts = [v - z for v in dec.vertex_counts] + [pi + z, pj + z, z]
        terms.append(((z + m) & 1, parts))
    return ctx.multinomial_sum(terms)


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
        if _unbalanced_face(tuple(flat[k] for k in _EDGE_SLOT)) is None:
            sym = IntersectionSymbol((flat[:3], flat[3:]))
            if r is None or sym.admissible(r):
                yield sym
