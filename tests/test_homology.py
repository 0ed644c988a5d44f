import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tvcalc import (
    betti_z2,
    boundary_matrix_z2,
    build_skeleton,
    cocycle_space_1,
    cohomology_class,
    enumerate_census,
    h1_integral,
    pachner_23,
    parse_triangulation,
    reduce_colouring,
)
from tvcalc.homology import _boundary_int, _reduce, smith_normal_form

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"


def _mat_rows(rows, ncols):
    return [[(row >> j) & 1 for j in range(ncols)] for row in rows]


def test_boundary_squared_is_zero(census1, census2):
    for tri in census1 + census2:
        skel = build_skeleton(tri)
        d1 = _mat_rows(boundary_matrix_z2(skel, 1), skel.e)
        d2 = _mat_rows(boundary_matrix_z2(skel, 2), skel.f)
        d3 = _mat_rows(boundary_matrix_z2(skel, 3), skel.n)
        # d1 . d2 = 0 and d2 . d3 = 0 over GF(2)
        for a, b in ((d1, d2), (d2, d3)):
            rows, mid, cols = len(a), len(b), len(b[0]) if b else 0
            for i in range(rows):
                for j in range(cols):
                    assert sum(a[i][k] * b[k][j] for k in range(mid)) % 2 == 0


def test_betti_numbers_of_closed_manifolds(census1, census2):
    for tri in census1 + census2:
        skel = build_skeleton(tri)
        b = [betti_z2(skel, p) for p in range(4)]
        assert b[0] == b[3] == 1       # connected, Z/2-orientable
        assert b[1] == b[2]            # Poincare duality over Z/2
        assert sum(b[p] * (-1) ** p for p in range(4)) == 0


def test_one_tet_census_homology(census1):
    # the four one-tetrahedron closed manifolds: S3 twice, then the
    # quotients with H1 = Z/4 and Z/5
    names = sorted(str(h1_integral(build_skeleton(t))) for t in census1)
    assert names == ["0", "0", "Z/4", "Z/5"]


def test_h1_of_z2hs_has_even_torsion_absent(z2hs1, z2hs2):
    # beta1(Z/2) = 0 means no Z summand and only odd torsion
    for tri in z2hs1 + z2hs2:
        summary = h1_integral(build_skeleton(tri))
        assert summary.rank == 0
        assert all(d % 2 == 1 for d in summary.torsion)


def test_smith_normal_form_known_matrices():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == []  # zero block dropped
    assert smith_normal_form([[4]]) == [4]
    # divisibility chain
    diag = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    nonzero = [d for d in diag if d]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_cocycle_space_dimension(census1, census2):
    for tri in census1 + census2:
        skel = build_skeleton(tri)
        basis = cocycle_space_1(skel)
        assert len(basis.vectors) == skel.v - 1 + basis.beta1
        assert basis.beta1 == betti_z2(skel, 1)


def test_cocycle_span_members_are_cocycles(census2):
    for tri in census2[:6]:
        skel = build_skeleton(tri)
        basis = cocycle_space_1(skel)
        seen = set()
        for mask in basis.span():
            assert basis.is_cocycle(mask)
            seen.add(mask)
        assert len(seen) == 1 << len(basis.vectors)


def test_cocycle_condition_is_triangle_parity(census2):
    # a bitmask is a cocycle exactly when every triangle meets it evenly
    for tri in census2[:6]:
        skel = build_skeleton(tri)
        basis = cocycle_space_1(skel)
        for mask in range(1 << skel.e):
            direct = all(
                sum((mask >> c) & 1 for c in triple) % 2 == 0
                for triple in skel.triangle_edge_classes)
            assert basis.is_cocycle(mask) == direct


def test_reduce_colouring_bitmask():
    assert reduce_colouring((0, 2, 4)) == 0
    assert reduce_colouring((1, 2, 3)) == 0b101
    assert reduce_colouring(()) == 0


def test_class_of_coboundary_is_zero(census2):
    for tri in census2[:6]:
        skel = build_skeleton(tri)
        basis = cocycle_space_1(skel)
        for k in range(basis.coboundary_dim):
            assert basis.class_of(basis.vectors[k]) == (0,) * basis.beta1


def test_cohomology_class_additive(census2):
    skel = build_skeleton(census2[0])
    basis = cocycle_space_1(skel)
    masks = list(basis.span())
    for a in masks:
        for b in masks:
            ca = basis.class_of(a)
            cb = basis.class_of(b)
            cab = basis.class_of(a ^ b)
            assert cab == tuple((x + y) % 2 for x, y in zip(ca, cb))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cohomology_class_of_doubled_matches_mask(data):
    corpus = list(enumerate_census(2, limit=8))
    tri = data.draw(st.sampled_from(corpus))
    skel = build_skeleton(tri)
    basis = cocycle_space_1(skel)
    mask = data.draw(st.sampled_from(list(basis.span())))
    # lift the mask to a doubled colouring with random even offsets
    doubled = tuple(
        ((mask >> j) & 1) + 2 * data.draw(st.integers(0, 2))
        for j in range(skel.e))
    assert cohomology_class(basis, doubled) == basis.class_of(mask)


def test_non_cocycle_raises(census2):
    skel = build_skeleton(census2[0])
    basis = cocycle_space_1(skel)
    non = next((m for m in range(1, 1 << skel.e)
                if not basis.is_cocycle(m)), None)
    if non is None:
        pytest.skip("every mask is a cocycle here")
    with pytest.raises(ValueError):
        basis.coordinates(non)


def _span(vectors):
    span = {0}
    for vec in vectors:
        span |= {x ^ vec for x in span}
    return span


def _combine(vectors, combo):
    acc = 0
    for i, vec in enumerate(vectors):
        if (combo >> i) & 1:
            acc ^= vec
    return acc


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**6 - 1), max_size=9))
def test_reduce_rows_and_relations(vectors):
    rows, relations = _reduce(vectors)
    assert 1 << len(rows) == len(_span(vectors))
    assert len(relations) == len(vectors) - len(rows)
    for rvec, combo, pivot in rows:
        assert (rvec >> pivot) & 1
        assert rvec == _combine(vectors, combo)
    for combo in relations:
        assert combo and _combine(vectors, combo) == 0
    assert len(_span(relations)) == 1 << len(relations)


def _echelon(rows, ncols):
    """Row reduced echelon form in place, pivots first-nonzero in column
    order: ([(pivot column, row index)...], rows)."""
    pivots = []
    next_row = 0
    for col in range(ncols):
        pivot = next((i for i in range(next_row, len(rows))
                      if (rows[i] >> col) & 1), None)
        if pivot is None:
            continue
        rows[next_row], rows[pivot] = rows[pivot], rows[next_row]
        for i in range(len(rows)):
            if i != next_row and (rows[i] >> col) & 1:
                rows[i] ^= rows[next_row]
        pivots.append((col, next_row))
        next_row += 1
    return pivots, rows


def _kernel_basis(rows, ncols):
    """{x : M x = 0} from the echelon form: one vector per free column,
    in increasing order, with its entries on the pivot columns."""
    pivots, reduced = _echelon(rows.copy(), ncols)
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for j in range(ncols):
        if j not in pivot_cols:
            vec = 1 << j
            for col, row in pivots:
                if (reduced[row] >> j) & 1:
                    vec |= 1 << col
            basis.append(vec)
    return basis


def _reference_homology(skel):
    """(vectors, rows, beta1, Betti numbers, H1 rank and torsion) by
    echelon forms over GF(2) and Smith normal forms of d1 and d2."""
    dims = (skel.v, skel.e, skel.f, skel.n)
    ranks = [0] + [len(_echelon(boundary_matrix_z2(skel, p), dims[p])[0])
                   for p in (1, 2, 3)] + [0]
    betti = [dims[p] - ranks[p] - ranks[p + 1] for p in range(4)]
    delta1 = [(1 << a) ^ (1 << b) ^ (1 << c)
              for a, b, c in skel.triangle_edge_classes]
    kernel = _kernel_basis(delta1, skel.e)
    cob = boundary_matrix_z2(skel, 1)[:skel.v - 1]
    vectors, rows = [], []
    for vec in cob + kernel:
        acc, combo = vec, 1 << len(vectors)
        for rvec, rcombo, pivot in rows:
            if (acc >> pivot) & 1:
                acc ^= rvec
                combo ^= rcombo
        if acc:
            rows.append((acc, combo, (acc & -acc).bit_length() - 1))
            vectors.append(vec)
    d1 = [[0] * skel.e for _ in range(skel.v)]
    for c, (tail, head) in enumerate(skel.edge_endpoints):
        d1[head][c] += 1
        d1[tail][c] -= 1
    diag = smith_normal_form(_boundary_int(skel))
    rank = skel.e - len(smith_normal_form(d1)) - len(diag)
    return (tuple(vectors), tuple(rows), len(vectors) - (skel.v - 1),
            betti, rank, tuple(d for d in diag if d > 1))


def test_homology_matches_echelon_reference(census2):
    # the corpus (n <= 3) and 2-3 walks from three n = 2 members to 16
    # tetrahedra
    tris = [parse_triangulation(path.read_text())
            for path in sorted(CORPUS.glob("*.tri"))]
    assert len(tris) == 102
    for seed, start in enumerate(census2[:3]):
        rng = random.Random(seed)
        tri = start
        while tri.n < 16:
            skel = build_skeleton(tri)
            internal = [c for c in range(skel.f)
                        if len({loc // 4 for loc, cls
                                in enumerate(skel.triangle_class)
                                if cls == c}) == 2]
            tri = pachner_23(tri, rng.choice(internal))
            tris.append(tri)
    for tri in tris:
        skel = build_skeleton(tri)
        basis = cocycle_space_1(skel)
        h1 = h1_integral(skel)
        got = (basis.vectors, basis.rows, basis.beta1,
               [betti_z2(skel, p) for p in range(4)], h1.rank, h1.torsion)
        assert got == _reference_homology(skel), tri
