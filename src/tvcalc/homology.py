"""Z/2 chain complexes of triangulation skeletons, plus integral H1.

Chain groups are generated by the vertex, edge, triangle and tetrahedron
classes of a skeleton.  Boundary entries count incidences with
multiplicity, so a triangle whose edges are identified in pairs can have a
column of weight one or three.  A matrix over GF(2) is a list of rows,
one bitmask per row.  One elimination, ``_reduce``, serves every Z/2
question: its rows give the ranks behind the Betti numbers, and its
relations among the rows of d2 are the kernel of delta^1 = d2^T, from
which ``cocycle_space_1`` builds the cocycle basis.  Integral H1 needs
one Smith normal form, of d2 (naive pivoting, plenty for desk-scale
inputs), as the rank of d1, the incidence matrix of the 1-skeleton, is
v minus the number of components over any field.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .triangulation import EDGE_INDEX, Skeleton

__all__ = [
    "boundary_matrix_z2",
    "betti_z2",
    "CocycleBasis",
    "cocycle_space_1",
    "reduce_colouring",
    "cohomology_class",
    "H1Summary",
    "h1_integral",
]


def _eliminate(rows, mask: int, combo: int = 0):
    """(residue, combination) of ``mask`` against reduced ``rows``, with
    ``combo`` the combination ``mask`` stands for.

    Each row is (reduced vector, combination, pivot bit), and its vector
    is clear at the pivots of the rows before it; so one pass in order
    clears every pivot, and the residue is zero exactly when ``mask``
    lies in the span of the rows.
    """
    acc = mask
    for rvec, rcombo, pivot in rows:
        if (acc >> pivot) & 1:
            acc ^= rvec
            combo ^= rcombo
    return acc, combo


def _reduce(vectors):
    """Row reduce bitmask ``vectors`` in order: (rows, relations).

    A vector independent of the ones before it becomes a row (reduced
    vector, combination of inputs, lowest set bit as pivot), so
    ``len(rows)`` is the rank.  A dependent vector gives its relation:
    the combination of inputs, its own bit and those of earlier
    independent vectors, that sums to zero.  The relations are a basis
    of the relations among the inputs, in input order.
    """
    rows, relations = [], []
    for i, vec in enumerate(vectors):
        acc, combo = _eliminate(rows, vec, 1 << i)
        if acc:
            rows.append((acc, combo, (acc & -acc).bit_length() - 1))
        else:
            relations.append(combo)
    return rows, relations


# ---------------------------------------------------------------------------
# boundary matrices


def _triangle_rep_local(skel: Skeleton):
    reps = [-1] * skel.f
    for local, c in enumerate(skel.triangle_class):
        if reps[c] < 0:
            reps[c] = local
    return reps


def boundary_matrix_z2(skel: Skeleton, p: int) -> list:
    """The GF(2) boundary map from p-chains to (p-1)-chains, one bitmask
    per row: bit j of row i is the entry in column j."""
    if p == 1:
        nrows, columns = skel.v, skel.edge_endpoints
    elif p == 2:
        nrows, columns = skel.e, skel.triangle_edge_classes
    elif p == 3:
        nrows = skel.f
        columns = [skel.triangle_class[4 * t:4 * t + 4]
                   for t in range(skel.n)]
    else:
        raise ValueError(f"p must be 1, 2 or 3, got {p}")
    rows = [0] * nrows
    for c, faces in enumerate(columns):
        for i in faces:
            rows[i] ^= 1 << c
    return rows


def _rank_z2(skel: Skeleton, p: int) -> int:
    return len(_reduce(boundary_matrix_z2(skel, p))[0])


def betti_z2(skel: Skeleton, p: int) -> int:
    """dim H_p(.; Z/2) = dim ker d_p - rank d_{p+1}."""
    dims = {0: skel.v, 1: skel.e, 2: skel.f, 3: skel.n}
    if p not in dims:
        raise ValueError(f"p must be 0..3, got {p}")
    ker = dims[p] - (_rank_z2(skel, p) if p > 0 else 0)
    img = _rank_z2(skel, p + 1) if p < 3 else 0
    return ker - img


# ---------------------------------------------------------------------------
# 1-cocycles and cohomology classes


@dataclass
class CocycleBasis:
    """Basis of the Z/2 1-cocycles, coboundaries listed first.

    A cocycle is a bitmask with bit j for edge class j.  The trailing
    ``beta1`` basis vectors represent the cohomology classes; expressing a
    cocycle over the basis and keeping the trailing coordinates gives its
    class.  ``rows`` is the basis row reduced in order, one (reduced
    mask, combination of basis vectors, pivot bit) per vector.
    """

    n_edges: int
    coboundary_dim: int
    beta1: int
    vectors: tuple
    rows: tuple = field(repr=False)

    def _eliminate(self, mask: int):
        """(residue, combination) of mask against the reduced basis.

        Both are linear in mask: the rows are triangular, so each row
        test reads a bit that is itself linear in the input.
        """
        return _eliminate(self.rows, mask)

    def is_cocycle(self, mask: int) -> bool:
        return self._eliminate(mask)[0] == 0

    def coordinates(self, mask: int):
        acc, combo = self._eliminate(mask)
        if acc:
            raise ValueError("not a cocycle")
        return tuple((combo >> i) & 1 for i in range(len(self.vectors)))

    def class_bits(self, mask: int) -> int:
        """Class coordinates of any edge mask packed into an int (bit k
        for coordinate k).

        Linear in mask, so the value of a colouring's reduction is the
        XOR of the values of its single edges; on cocycles it agrees
        with ``class_of``.
        """
        return self._eliminate(mask)[1] >> self.coboundary_dim

    def class_of(self, mask: int):
        coords = self.coordinates(mask)
        return tuple(coords[self.coboundary_dim:])

    def span(self):
        """All 2^dim cocycles, in binary counting order over the basis."""
        dim = len(self.vectors)
        for bits in range(1 << dim):
            acc = 0
            b = bits
            i = 0
            while b:
                if b & 1:
                    acc ^= self.vectors[i]
                b >>= 1
                i += 1
            yield acc


def cocycle_space_1(skel: Skeleton) -> CocycleBasis:
    """Basis of ker(delta^1 -> C^2), coboundaries first.

    For a connected skeleton the dimension is v - 1 + beta1, so beta1 is
    read off the basis.
    """
    if betti_z2(skel, 0) != 1:
        raise ValueError("skeleton is not connected")
    # delta^1 is the transpose of d2, so its kernel is the relations
    # among the rows of d2: one per row in the span of the rows before
    # it, in increasing order, on that edge class and earlier ones
    kernel = _reduce(boundary_matrix_z2(skel, 2))[1]

    # Coboundaries of single vertex classes, the rows of d1; any v-1 of
    # them are a basis of the coboundary subspace (the full sum is zero on
    # a closed complex).
    cob = boundary_matrix_z2(skel, 1)[:skel.v - 1]

    # Greedily extend the coboundaries by kernel vectors independent of the
    # span so far; every coboundary must be independent.  Each reduced row
    # remembers the combination of basis vectors that produced it.
    vectors = []
    rows = []
    for i, vec in enumerate(cob + kernel):
        acc, combo = _eliminate(rows, vec, 1 << len(vectors))
        if acc:
            rows.append((acc, combo, (acc & -acc).bit_length() - 1))
            vectors.append(vec)
        elif i < len(cob):
            raise ValueError("coboundary vectors are dependent")
    return CocycleBasis(
        n_edges=skel.e,
        coboundary_dim=skel.v - 1,
        beta1=len(vectors) - (skel.v - 1),
        vectors=tuple(vectors),
        rows=tuple(rows),
    )


def reduce_colouring(doubled) -> int:
    """Fractional-part bitmask of a colouring: bit j set when the colour on
    edge class j is a half-integer (odd doubled value)."""
    mask = 0
    for j, a in enumerate(doubled):
        if a & 1:
            mask |= 1 << j
    return mask


def cohomology_class(basis: CocycleBasis, doubled):
    """Class coordinates (length beta1) of a colouring's reduction."""
    return basis.class_of(reduce_colouring(doubled))


# ---------------------------------------------------------------------------
# integral H1


def _boundary_int(skel: Skeleton):
    """The signed 2-boundary matrix (list-of-list ints)."""
    m = [[0] * skel.f for _ in range(skel.e)]
    for c, local in enumerate(_triangle_rep_local(skel)):
        t, face = divmod(local, 4)
        verts = [u for u in range(4) if u != face]
        # boundary of the oriented 2-simplex (x, y, z)
        x, y, z = verts
        for simplex_sign, (a, b) in ((1, (y, z)), (-1, (x, z)),
                                     (1, (x, y))):
            k = EDGE_INDEX[(a, b)]
            local_edge = 6 * t + k
            sign = simplex_sign * skel.edge_sign[local_edge]
            m[skel.edge_class[local_edge]][c] += sign
    return m


def smith_normal_form(matrix):
    """Diagonal of the Smith normal form, in divisibility order.

    Naive pivoting with exact integers; suitable for the handful of rows
    and columns a small skeleton produces.
    """
    m = [row.copy() for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    diag = []
    top = 0
    while top < min(nrows, ncols):
        # locate the smallest nonzero entry in the remaining block
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] and (best is None
                                or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        pivot = m[top][top]
        dirty = False
        for i in range(top + 1, nrows):
            if m[i][top] % pivot:
                dirty = True
            q = m[i][top] // pivot
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[top])]
        for j in range(top + 1, ncols):
            if m[top][j] % pivot:
                dirty = True
            q = m[top][j] // pivot
            if q:
                for row in m:
                    row[j] -= q * row[top]
        if dirty or any(m[i][top] for i in range(top + 1, nrows)) \
                or any(m[top][j] for j in range(top + 1, ncols)):
            continue
        # pivot must divide the rest of the block; if not, absorb a row
        offender = None
        for i in range(top + 1, nrows):
            for j in range(top + 1, ncols):
                if m[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[top] = [a + b for a, b in zip(m[top], m[offender])]
            continue
        diag.append(abs(pivot))
        top += 1
    return diag


@dataclass(frozen=True)
class H1Summary:
    """Integral first homology: free rank and torsion coefficients."""

    rank: int
    torsion: tuple

    def __str__(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def h1_integral(skel: Skeleton) -> H1Summary:
    """H1 over the integers, from the Smith normal form of the 2-boundary.

    The torsion of H1 equals the torsion of coker(d2) because chains modulo
    cycles are free; the free rank comes from the usual rank count.  d1 is
    the oriented incidence matrix of the 1-skeleton, whose rank over any
    field is v minus the number of components.
    """
    rank_d1 = skel.v - betti_z2(skel, 0)
    # the Smith diagonal holds only nonzero pivots, so its length is the rank
    diag = smith_normal_form(_boundary_int(skel))
    rank_d2 = len(diag)
    rank = skel.e - rank_d1 - rank_d2
    torsion = tuple(d for d in diag if d > 1)
    return H1Summary(rank=rank, torsion=torsion)
