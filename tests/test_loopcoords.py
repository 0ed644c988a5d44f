import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tvcalc import (
    IntersectionSymbol,
    LoopDecomposition,
    build_skeleton,
    decompose_symbol,
    enumerate_admissible,
    field_init,
    intersection_symbol,
    normal_arc_counts,
    symbol_of,
    tet_weight_loop,
    tetrahedron_weight,
)
from tvcalc.loopcoords import iter_admissible_symbols

_SUM_COLUMN = (2, 0, 1)
_PART_COLUMNS = ((0, 1), (1, 2), (2, 0))


def _oracle_decompositions(rows):
    """Every (a,b,c,d,p,i,j,rotation) whose loops rebuild the symbol."""
    r1, r2 = rows
    sols = []
    for a in range(min(r1[0], r1[2], r2[1]) + 1):
        for b in range(min(r1[0] - a, r1[1], r2[2]) + 1):
            for c in range(min(r1[1] - b, r1[2] - a, r2[0]) + 1):
                dmax = min(r2[0] - c, r2[1] - a, r2[2] - b)
                for d in range(dmax + 1):
                    res1 = (r1[0] - a - b, r1[1] - b - c, r1[2] - a - c)
                    res2 = (r2[0] - c - d, r2[1] - a - d, r2[2] - b - d)
                    if res1 != res2 or any(x < 0 for x in res1):
                        continue
                    if res1 == (0, 0, 0):
                        sols.append((a, b, c, d, 0, 0, 0, 0))
                        continue
                    for rot in (0, 1, 2):
                        sc = _SUM_COLUMN[rot]
                        x, y = _PART_COLUMNS[rot]
                        if res1[sc] != res1[x] + res1[y]:
                            continue
                        p = math.gcd(res1[x], res1[y])
                        sols.append(
                            (a, b, c, d, p, res1[x] // p, res1[y] // p, rot))
    return sols


def _as_tuple(dec):
    return (dec.a, dec.b, dec.c, dec.d, dec.p, dec.i, dec.j, dec.rotation)


def test_normal_arc_counts_examples():
    assert normal_arc_counts((0, 0, 0)) == (0, 0, 0)
    # one arc cutting off the corner shared by the two colour-1 edges
    assert normal_arc_counts((1, 1, 0)) == (0, 0, 1)
    assert normal_arc_counts((2, 2, 2)) == (1, 1, 1)
    assert normal_arc_counts((0, 2, 2)) == (2, 0, 0)


def test_normal_arc_counts_rejects_bad_triples():
    with pytest.raises(ValueError):
        normal_arc_counts((1, 0, 0))    # odd sum
    with pytest.raises(ValueError):
        normal_arc_counts((4, 1, 1))    # violates triangle inequality


def test_symbol_validation():
    with pytest.raises(ValueError):
        IntersectionSymbol(((1, 0, 0), (0, 0, 0)))   # face parity broken
    with pytest.raises(ValueError):
        IntersectionSymbol(((0, 0, 0), (2, 0, 0)))   # lone colour-2 edge
    with pytest.raises(ValueError):
        IntersectionSymbol(((0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        IntersectionSymbol(((0, 0, -2), (0, 0, 0)))


def test_symbol_str_and_doubled_colours():
    sym = IntersectionSymbol(((1, 1, 2), (1, 1, 2)))
    assert str(sym) == "[[1,1,2],[1,1,2]]"
    # edge order 01,02,03,12,13,23 from rows (ab,bc,ca)/(cd,ad,bd)
    assert sym.doubled_colours() == (1, 2, 1, 1, 2, 1)


def test_vertex_loop_symbols_decompose_to_unit_counts():
    expected = (((1, 0, 1), (0, 1, 0)),
                ((1, 1, 0), (0, 0, 1)),
                ((0, 1, 1), (1, 0, 0)),
                ((0, 0, 0), (1, 1, 1)))
    for k, rows in enumerate(expected):
        dec = decompose_symbol(IntersectionSymbol(rows))
        assert dec.vertex_counts == tuple(
            1 if m == k else 0 for m in range(4))
        assert dec.p == 0


def test_decompose_examples():
    dec = decompose_symbol(IntersectionSymbol(((0, 0, 0), (1, 1, 1))))
    assert _as_tuple(dec) == (0, 0, 0, 1, 0, 0, 0, 0)
    dec = decompose_symbol(IntersectionSymbol(((1, 1, 2), (1, 1, 2))))
    assert _as_tuple(dec) == (0, 0, 0, 0, 1, 1, 1, 0)
    dec = decompose_symbol(IntersectionSymbol(((2, 1, 1), (0, 1, 1))))
    assert _as_tuple(dec) == (1, 1, 0, 0, 0, 0, 0, 0)
    dec = decompose_symbol(IntersectionSymbol(((0, 1, 1), (0, 1, 1))))
    assert (dec.p, dec.i, dec.j, dec.rotation) == (1, 0, 1, 0)


def test_loop_decomposition_validation():
    with pytest.raises(ValueError):
        LoopDecomposition(0, 0, 0, 0, 0, 1, 0, 0)   # sentinel broken
    with pytest.raises(ValueError):
        LoopDecomposition(0, 0, 0, 0, 1, 0, 0, 0)   # p > 0 needs (i,j) != 0
    with pytest.raises(ValueError):
        LoopDecomposition(0, 0, 0, 0, 1, 2, 4, 0)   # not coprime
    with pytest.raises(ValueError):
        LoopDecomposition(-1, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        LoopDecomposition(0, 0, 0, 0, 1, 1, 1, 3)


def test_decompose_agrees_with_oracle_small():
    for sym in iter_admissible_symbols(6):
        sols = _oracle_decompositions(sym.rows)
        assert sols, f"{sym} has no decomposition"
        dec = decompose_symbol(sym)
        assert _as_tuple(dec) in sols
        assert symbol_of(dec).rows == sym.rows
        # the loop system is unique; only rotation labels may differ
        assert len({s[:5] for s in sols}) == 1
        assert dec.rotation == min(s[7] for s in sols)


@st.composite
def _decompositions(draw):
    a, b, c, d = (draw(st.integers(0, 4)) for _ in range(4))
    p = draw(st.integers(0, 3))
    if p == 0:
        return LoopDecomposition(a, b, c, d, 0, 0, 0, 0)
    i = draw(st.integers(0, 4))
    j = draw(st.integers(0, 4))
    g = math.gcd(i, j)
    i, j = (0, 1) if g == 0 else (i // g, j // g)
    return LoopDecomposition(a, b, c, d, p, i, j, draw(st.integers(0, 2)))


@settings(max_examples=200, deadline=None)
@given(_decompositions())
def test_decompose_round_trip(dec):
    sym = symbol_of(dec)
    back = decompose_symbol(sym)
    assert symbol_of(back).rows == sym.rows
    assert back.vertex_counts == dec.vertex_counts
    assert back.p == dec.p
    assert {back.p * back.i, back.p * back.j} == {dec.p * dec.i,
                                                  dec.p * dec.j}


def test_weight_of_zero_decomposition_is_one():
    for r, q in ((4, 1), (5, 3), (7, 1)):
        ctx = field_init(r, q)
        dec = LoopDecomposition(0, 0, 0, 0, 0, 0, 0, 0)
        assert tet_weight_loop(ctx, dec) == ctx.one


def test_weight_equivalence_spot():
    for r, q in ((4, 1), (5, 3), (6, 1), (7, 5)):
        ctx = field_init(r, q)
        for sym in iter_admissible_symbols(r - 2, r=r):
            dec = decompose_symbol(sym)
            assert tet_weight_loop(ctx, dec) == tetrahedron_weight(
                ctx, sym.doubled_colours())


@pytest.mark.parametrize("r", [9, 13, 23, 31, 47])
def test_weight_equivalence_at_large_levels(r):
    # seeded symbols plus every symbol with entries <= 2, among them
    # (2, 2, 2, 2, 2, 0), whose weight a slot width sized from the
    # binomial coefficients C(n, k) gets wrong at r = 31 and 47; the
    # loop weight is integral, like the edge-colour one
    symbols = list(iter_admissible_symbols(2, r=r))
    assert (2, 2, 2, 2, 2, 0) in {s.doubled_colours() for s in symbols}
    rng = random.Random(r)
    wanted = len(symbols) + 40
    while len(symbols) < wanted:
        flat = [rng.randrange(r - 1) for _ in range(6)]
        try:
            sym = IntersectionSymbol((flat[:3], flat[3:]))
        except ValueError:
            continue            # a face with odd sum or a broken inequality
        if sym.admissible(r):
            symbols.append(sym)
    for q in (1, 2 * r - 1):
        ctx = field_init(r, q)
        for sym in symbols:
            got = tet_weight_loop(ctx, decompose_symbol(sym))
            want = tetrahedron_weight(ctx, sym.doubled_colours())
            assert got.den == 1 and (got.num, got.den) == \
                (want.num, want.den), (q, sym)


def test_single_term_form_matches_general_sum(factorials):
    # with no vertex loops the sum collapses to its first term
    ctx = field_init(7, 1)
    fact, inv_fact = factorials(ctx)
    for (i, j) in ((0, 1), (1, 1), (1, 2)):
        for p in (1, 2):
            if p * (i + j) > ctx.r - 2:
                continue
            dec = LoopDecomposition(0, 0, 0, 0, p, i, j, 0)
            top = p * (i + j)
            want = fact[top + 1] * inv_fact[p * i] * inv_fact[p * j]
            if top % 2:
                want = -want
            assert tet_weight_loop(ctx, dec) == want


def test_census_colourings_have_decomposable_symbols(census1, census2):
    for tri in census1 + census2[:8]:
        skel = build_skeleton(tri)
        found, _ = enumerate_admissible(skel, 6)
        for col in found:
            for tet in range(tri.n):
                sym = intersection_symbol(skel, col, tet)
                dec = decompose_symbol(sym)
                assert symbol_of(dec).rows == sym.rows


def test_arc_totals_within_level(census1):
    # each triangle of an admissible colouring carries at most r-2 arcs
    for tri in census1:
        skel = build_skeleton(tri)
        for r in (4, 5, 6, 7):
            found, _ = enumerate_admissible(skel, r)
            for col in found:
                for triple in skel.triangle_edge_classes:
                    counts = normal_arc_counts(
                        tuple(col[c] for c in triple))
                    assert all(x >= 0 for x in counts)
                    assert sum(counts) <= r - 2


def test_intersection_symbol_bad_tet(census1):
    skel = build_skeleton(census1[0])
    found, _ = enumerate_admissible(skel, 5)
    with pytest.raises(ValueError):
        intersection_symbol(skel, found[0], 99)
