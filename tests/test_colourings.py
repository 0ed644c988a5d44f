import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, \
    permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tvcalc import (
    EnumerationStats,
    admissible_colouring,
    admissible_triple,
    build_skeleton,
    cocycle_space_1,
    colouring_weight,
    count_admissible,
    enumerate_admissible,
    enumerate_census,
    field_init,
    numeric_eval,
    pachner_23,
    parse_triangulation,
    sweep_sum,
    tetrahedron_weight,
    tv,
    tv_at_class,
)
from tvcalc.colourings import WeightSystem, _backtrack, _cache, \
    _search_plan, _tet_weight_sum, _third_colours, edge_weight, \
    triangle_weight, vertex_weight
from tvcalc.cyclotomic import MAX_LEVEL, Cyc, FieldContext, \
    negacyclic_fold, negacyclic_pack, negacyclic_unpack
from tvcalc.fastalgo import adm4_structured
from tvcalc.loopcoords import IntersectionSymbol, decompose_symbol, \
    tet_weight_loop
from tvcalc.triangulation import ALL_PERMS, EDGE_INDEX, EDGE_VERTICES, \
    make_triangulation

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"

# a three-tetrahedron census member whose elimination plan adds new
# edges at unsorted local positions (no input with n <= 2 does)
UNSORTED_NEW_EDGES = """tri 1
tet 0: 0:1023 0:1023 1:0123 1:0123
tet 1: 2:0123 2:1203 0:0123 0:0123
tet 2: 1:0123 2:0321 1:2013 2:0321
"""


def _oracle_triple(r, a, b, c):
    # re-derived from the definition: even sum, capped sum, each colour
    # at most the sum of the other two
    if (a + b + c) % 2 or a + b + c > 2 * (r - 2):
        return False
    return a <= b + c and b <= a + c and c <= a + b


def _oracle_count(skel, r, integer_only=False):
    domain = range(0, r - 1, 2) if integer_only else range(r - 1)
    hits = 0
    for cand in product(domain, repeat=skel.e):
        if all(_oracle_triple(r, *(cand[x] for x in tri))
               for tri in skel.triangle_edge_classes):
            hits += 1
    return hits


def test_admissible_triple_table():
    assert admissible_triple(5, 0, 0, 0)
    assert admissible_triple(5, 1, 1, 0)
    assert admissible_triple(5, 2, 2, 2)
    assert not admissible_triple(5, 1, 0, 0)      # odd sum
    assert not admissible_triple(5, 3, 1, 0)      # 3 > 1 + 0
    assert not admissible_triple(5, 3, 3, 2)      # sum 8 > 2(r-2) = 6
    assert admissible_triple(6, 3, 3, 2)


@given(st.integers(3, 12), st.integers(0, 10), st.integers(0, 10),
       st.integers(0, 10))
def test_admissible_triple_is_symmetric(r, a, b, c):
    values = [admissible_triple(r, *p) for p in permutations((a, b, c))]
    assert all(values) or not any(values)


@given(st.integers(3, 12), st.integers(0, 10), st.integers(0, 10),
       st.integers(0, 10))
def test_admissible_triple_matches_oracle(r, a, b, c):
    assert admissible_triple(r, a, b, c) == _oracle_triple(r, a, b, c)


@pytest.mark.parametrize("r", [*range(3, 13), 61])
def test_third_colour_lookup_matches_admissible_triple(r):
    # the walker's per-level lookup, on every triple of colours 0..r-2
    ranges = _third_colours(r)
    assert len(ranges) == r - 1
    for a, b, c in product(range(r - 1), repeat=3):
        assert (c in ranges[a][b]) == admissible_triple(r, a, b, c), \
            (a, b, c)


def test_enumeration_matches_product_filter(census1, census2):
    for tri in census1 + census2:
        skel = build_skeleton(tri)
        for r in (3, 4, 5, 6):
            found, stats = enumerate_admissible(skel, r)
            assert len(found) == _oracle_count(skel, r)
            assert stats.admissible_count == len(found)
            assert len(set(found)) == len(found)
            for col in found:
                assert admissible_colouring(skel, col, r)


def test_integer_only_is_the_even_subset(census2):
    for tri in census2[:8]:
        skel = build_skeleton(tri)
        full, _ = enumerate_admissible(skel, 6)
        even, _ = enumerate_admissible(skel, 6, integer_only=True)
        want = {c for c in full if all(a % 2 == 0 for a in c)}
        assert set(even) == want


def test_class_filter_partitions_colourings(census1):
    # the counting search gives the statistics of the listing one
    for tri in census1:
        skel = build_skeleton(tri)
        basis = cocycle_space_1(skel)
        full, stats = enumerate_admissible(skel, 5)
        assert count_admissible(skel, 5) == stats
        seen = set()
        for bits in range(1 << basis.beta1):
            coords = tuple((bits >> k) & 1 for k in range(basis.beta1))
            part, stats = enumerate_admissible(skel, 5, class_coords=coords)
            assert stats.admissible_count == len(part)
            assert count_admissible(skel, 5, class_coords=coords) == stats
            part_set = set(part)
            assert not part_set & seen
            seen |= part_set
        assert seen == set(full)


def test_class_filter_length_checked(census1):
    skel = build_skeleton(census1[0])
    with pytest.raises(ValueError):
        enumerate_admissible(skel, 5, class_coords=(0, 1, 0))


def test_small_r_rejected(census1):
    with pytest.raises(ValueError):
        enumerate_admissible(census1[0], 2)


def test_r_above_the_level_cap_rejected(census1):
    # rejected before the per-level lookup of (r - 1)^2 ranges is built
    before = _third_colours.cache_info().currsize
    for r in (MAX_LEVEL + 1, 5001, 10 ** 9):
        with pytest.raises(ValueError):
            enumerate_admissible(census1[0], r)
        with pytest.raises(ValueError):
            count_admissible(census1[0], r)
    assert _third_colours.cache_info().currsize == before


def _oracle_prefix_count(skel, r, fixed, prefix, domain):
    """Assignments from domain to the edges in prefix (the other entries
    as in fixed) under which every triangle whose edges all have colours
    is admissible."""
    coloured = set(prefix) | {j for j, a in enumerate(fixed) if a is not None}
    covered = [tri for tri in skel.triangle_edge_classes
               if all(x in coloured for x in tri)]
    hits = 0
    for values in product(domain, repeat=len(prefix)):
        colours = list(fixed)
        for j, a in zip(prefix, values):
            colours[j] = a
        if all(_oracle_triple(r, *(colours[x] for x in tri))
               for tri in covered):
            hits += 1
    return hits


def test_node_counts_match_prefix_oracle(census1, census2):
    # the search tries every value at the last edge of each admissible
    # assignment of the others, so nodes = |domain| x that count
    for tri in census1 + census2:
        skel = build_skeleton(tri)
        order, _ = _search_plan(skel)
        for r in range(3, 8):
            for integer_only in (False, True):
                domain = range(0, r - 1, 2) if integer_only \
                    else range(r - 1)
                _, stats = enumerate_admissible(
                    skel, r, integer_only=integer_only)
                want = len(domain) * _oracle_prefix_count(
                    skel, r, [None] * skel.e, order[:-1], domain)
                assert stats.nodes_visited == want, (tri, r, integer_only)
                assert count_admissible(
                    skel, r, integer_only=integer_only) == stats


def _quadratic_search_plan(skel):
    """The greedy search plan as first written: rescore every unplaced
    class against every triangle before each pick."""
    triangles = skel.triangle_edge_classes
    undecided = set(range(skel.e))
    order = []
    placed = set()
    while undecided:
        best, best_score = None, -1
        for e in sorted(undecided):
            score = 0
            for tri in triangles:
                if e in tri and all(x == e or x in placed for x in tri):
                    score += 1
            if score > best_score:
                best, best_score = e, score
        order.append(best)
        placed.add(best)
        undecided.discard(best)
    checks = [[] for _ in range(len(order) + 1)]
    level = {e: k for k, e in enumerate(order)}
    for tri in triangles:
        checks[1 + max(level[x] for x in tri)].append(tri)
    return order, checks


def test_search_plan_matches_quadratic_reference(census2):
    # the corpus (n <= 3) and 2-3 walks from three n = 2 members to 16
    # tetrahedra; some of them have a triangle with a repeated class
    corpus = sorted(CORPUS.glob("*.tri"))
    assert len(corpus) == 102
    tris = [parse_triangulation(path.read_text()) for path in corpus]
    tris.append(parse_triangulation(UNSORTED_NEW_EDGES))
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
    repeated = 0
    for tri in tris:
        skel = build_skeleton(tri)
        repeated += any(len(set(t)) < 3 for t in skel.triangle_edge_classes)
        assert _search_plan(skel) == _quadratic_search_plan(skel), tri
    assert repeated


@st.composite
def _walker_cases(draw):
    """A level, a domain, a colour list with fixed entries, slots and
    triangle checks placed at the depth that decides them; triangles may
    repeat a position, and fixed colours may lie outside the domain."""
    r = draw(st.integers(3, 8))
    integer_only = draw(st.booleans())
    size = draw(st.integers(1, 7))
    colours = draw(st.lists(st.integers(0, r - 2), min_size=size,
                            max_size=size))
    slots = draw(st.permutations(range(size)))[:draw(st.integers(0, 4))]
    triangles = draw(st.lists(
        st.tuples(*[st.integers(0, size - 1)] * 3), max_size=6))
    return r, integer_only, colours, slots, triangles


@settings(max_examples=300, deadline=None)
@given(_walker_cases(), st.booleans())
def test_backtrack_matches_brute_force_filter(case, filtered):
    r, integer_only, colours, slots, triangles = case
    domain = tuple(range(0, r - 1, 2) if integer_only else range(r - 1))
    depth = {slot: k for k, slot in enumerate(slots)}
    checks = [[] for _ in range(len(slots) + 1)]
    for tri in triangles:
        checks[max((depth[p] + 1 for p in tri if p in depth), default=0)] \
            .append(tri)

    def accept(cols):
        return sum(cols) % 3 != 0

    def passes(cols, k):
        # every triangle decided once the first k slots have colours
        return all(_oracle_triple(r, *(cols[p] for p in tri))
                   for tri in triangles
                   if all(p not in depth or depth[p] < k for p in tri))

    want = []
    prefixes = set()
    for values in product(domain, repeat=len(slots)):
        cols = list(colours)
        for slot, value in zip(slots, values):
            cols[slot] = value
        if slots and passes(cols, len(slots) - 1):
            prefixes.add(values[:-1])
        if passes(cols, len(slots)) and (not filtered or accept(cols)):
            want.append(tuple(cols))
    nodes = len(domain) * len(prefixes) if slots else 1

    for keep in (True, False):
        stats = EnumerationStats()
        got = _backtrack(r, domain, colours, slots, checks, stats, keep,
                         accept if filtered else None)
        assert got == (want if keep else [])
        assert stats == EnumerationStats(nodes, len(want))


def test_level4_node_counts_match_prefix_oracle(census1, census2):
    # per nonzero cocycle: two values at the last kernel edge of each
    # admissible assignment of the earlier ones (1 for an empty kernel),
    # plus one node per doubled cocycle
    for tri in census1 + census2:
        skel = build_skeleton(tri)
        cocycles = [cand for cand in product((0, 1), repeat=skel.e)
                    if all(_oracle_triple(3, *(cand[x] for x in t))
                           for t in skel.triangle_edge_classes)]
        want = len(cocycles)
        for theta in cocycles:
            if not any(theta):
                continue
            kernel = [j for j, a in enumerate(theta) if a == 0]
            if not kernel:
                want += 1
                continue
            fixed = [None if a == 0 else a for a in theta]
            want += 2 * _oracle_prefix_count(
                skel, 4, fixed, kernel[:-1], (0, 2))
        _, stats = adm4_structured(skel)
        assert stats.nodes_visited == want, tri


def test_integer_only_never_visits_more_nodes(one_vertex_corpus):
    for tri in one_vertex_corpus:
        for r in (5, 7):
            _, full = enumerate_admissible(tri, r)
            _, even = enumerate_admissible(tri, r, integer_only=True)
            assert even.nodes_visited < full.nodes_visited


def test_vertex_weight_numeric():
    for r, q in ((4, 1), (5, 1), (7, 3)):
        ctx = field_init(r, q)
        got = complex(numeric_eval(vertex_weight(ctx), 15))
        want = 2 * math.sin(math.pi * q / r) ** 2 / r
        assert abs(got - want) < 1e-12


def test_edge_weight_values():
    ctx = field_init(5, 1)
    assert edge_weight(ctx, 0) == ctx.one
    assert edge_weight(ctx, 1) == -ctx.quantum_integer(2)
    assert edge_weight(ctx, 2) == ctx.quantum_integer(3)


def test_triangle_weight_zero_is_one():
    ctx = field_init(6, 1)
    assert triangle_weight(ctx, 0, 0, 0) == ctx.one


def test_triangle_weight_formula_spot(factorials):
    # (1,1,2): half-sum 2, parts (1,1,0) -> +[0]![1]![1]! / [3]!
    ctx = field_init(6, 1)
    fact, inv_fact = factorials(ctx)
    assert triangle_weight(ctx, 1, 1, 2) == inv_fact[3]
    # (1,1,0): half-sum 1, sign (-1)^1, parts (0,0,1) -> -[1]!/[2]!
    assert triangle_weight(ctx, 1, 1, 0) == -(fact[1] * inv_fact[2])


def test_triangle_weight_symmetric():
    ctx = field_init(7, 1)
    for a, b, c in ((1, 1, 2), (2, 2, 2), (0, 3, 3)):
        base = triangle_weight(ctx, a, b, c)
        for p in permutations((a, b, c)):
            assert triangle_weight(ctx, *p) == base


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 8, 9, 12, 16, 23, 31, 36,
                               47])
def test_triangle_weights_match_factorial_oracle(r, factorials):
    # every admissible sorted triple, bit for bit, against
    # (-1)^h [h-a]! [h-b]! [h-c]! / [h+1]! with h the half-sum, from
    # factorials built by plain products (pairs shared).  The
    # recurrence reads its neighbour (a, b, c - 2) from the pool, so the
    # first pass starts from a fresh context and the second runs in
    # reverse order over the warm pool
    ctx = FieldContext(r, 1)
    fact, inv_fact = factorials(ctx)
    triples = [(a, b, c) for a in range(r - 1) for b in range(a, r - 1)
               for c in range(b, r - 1) if _oracle_triple(r, a, b, c)]
    heads, tails, want = {}, {}, {}
    for a, b, c in triples:
        h = (a + b + c) // 2
        head = heads.get((h - c, h - b))
        if head is None:
            head = heads[h - c, h - b] = fact[h - c] * fact[h - b]
        tail = tails.get((h - a, h))
        if tail is None:
            tail = tails[h - a, h] = fact[h - a] * inv_fact[h + 1]
        value = head * tail
        if h & 1:
            value = -value
        want[a, b, c] = (value.num, value.den)

    ctx = FieldContext(r, 1)
    for order in (triples, triples[::-1]):
        for key in order:
            got = triangle_weight(ctx, *key)
            assert (got.num, got.den) == want[key], key
    assert len(_cache(ctx)["triangle"]) == len(triples)


def test_tetrahedron_weight_zero_colouring():
    for r in (4, 5, 7):
        ctx = field_init(r, 1)
        assert tetrahedron_weight(ctx, (0,) * 6) == ctx.one


def test_tetrahedron_weight_rejects_inadmissible():
    ctx = field_init(5, 1)
    with pytest.raises(ValueError):
        tetrahedron_weight(ctx, (1, 0, 0, 0, 0, 0))


def _relabelled(colours, perm):
    """The six edge colours after the corners are relabelled by perm."""
    mapped = [0] * 6
    for k, (u, v) in enumerate(EDGE_VERTICES):
        mapped[EDGE_INDEX[tuple(sorted((perm[u], perm[v])))]] = colours[k]
    return tuple(mapped)


def test_tetrahedron_weight_relabelling_invariance():
    # relabelling the four corners permutes the six edge colours
    ctx = field_init(7, 1)
    colours = (2, 4, 2, 2, 2, 4)
    base = tetrahedron_weight(ctx, colours)
    for perm in ALL_PERMS:
        assert tetrahedron_weight(ctx, _relabelled(colours, perm)) == base


# faces as the edges among three corners; quads as the complement of a
# pair of opposite edges (no shared corner)
_ORACLE_FACES = [[k for k, e in enumerate(EDGE_VERTICES) if set(e) <= set(f)]
                 for f in combinations(range(4), 3)]
_ORACLE_OPPOSITE = [(k, m) for k, m in combinations(range(6), 2)
                    if not set(EDGE_VERTICES[k]) & set(EDGE_VERTICES[m])]


def _oracle_tet_weight(ctx, colours, fact, inv_fact):
    """The Kirby-Melvin alternating sum, uncached: plain products of
    factorials built here from the quantum integers."""
    tri = [sum(colours[k] for k in face) // 2 for face in _ORACLE_FACES]
    quad = [(sum(colours) - colours[k] - colours[m]) // 2
            for k, m in _ORACLE_OPPOSITE]
    total = ctx.zero
    for z in range(max(tri), min(quad) + 1):
        if z + 1 >= ctx.r:
            break               # [z+1]! = 0 from here on
        term = fact[z + 1]
        for t in tri:
            term = term * inv_fact[z - t]
        for quad_sum in quad:
            term = term * inv_fact[quad_sum - z]
        total = total - term if z % 2 else total + term
    return total


def _admissible_tet_colours(r, rng, count):
    """``count`` seeded colourings of one tetrahedron, all four faces
    admissible, the zero colouring first."""
    found = [(0,) * 6]
    while len(found) < count:
        colours = tuple(rng.randrange(r - 1) for _ in range(6))
        if colours not in found and all(
                _oracle_triple(r, *(colours[k] for k in face))
                for face in _ORACLE_FACES):
            found.append(colours)
    return found


def _tet_samples(r, rng):
    """24 seeded admissible colourings of one tetrahedron, then every
    admissible colouring with colours <= 2."""
    samples = _admissible_tet_colours(r, rng, 24)
    samples += [colours for colours in product(range(3), repeat=6)
                if colours not in samples and all(
                    _oracle_triple(r, *(colours[k] for k in face))
                    for face in _ORACLE_FACES)]
    return samples


def _tet_key(colours):
    """The sorted triangle and quad half-sums, which a tetrahedron
    weight depends on alone."""
    tri = sorted(sum(colours[k] for k in face) // 2 for face in _ORACLE_FACES)
    quad = sorted((sum(colours) - colours[k] - colours[m]) // 2
                  for k, m in _ORACLE_OPPOSITE)
    return tuple(tri), tuple(quad)


def _tet_keys(r):
    """Every key of an admissible colouring at level r.

    Edge k has colour t_f + t_g - Q for the two triangles f, g at k and
    the quad half-sum Q that leaves out k and its opposite edge.  Each
    triangle inequality reads Q >= t for one triangle and one quad, so a
    key (t1 <= .. <= t4, Q1 <= Q2 <= Q3) is admissible when
    sum(t) = sum(Q), t4 <= min(Q1, r - 2), and the colours are
    non-negative for some matching of the quads to the three pairings
    of the triangles: the sorted Q against the pairings' smaller sums
    t1 + t2, t1 + t3 and min(t1 + t4, t2 + t3).
    """
    keys = []
    for tri in combinations_with_replacement(range(r - 1), 4):
        t1, t2, t3, t4 = tri
        for q1 in range(t4, t1 + t2 + 1):
            for q2 in range(q1, t1 + t3 + 1):
                q3 = sum(tri) - q1 - q2
                if q2 <= q3 <= min(t1 + t4, t2 + t3):
                    keys.append((tri, (q1, q2, q3)))
    return keys


def _key_colours(key):
    """Six colours with the key ``key``: triangle i of _ORACLE_FACES
    gets t_i, and the pairing that puts triangle 0 with triangle j gets
    Q_j."""
    tri, quad = key
    colours = []
    for k in range(6):
        f, g = (i for i, face in enumerate(_ORACLE_FACES) if k in face)
        j = g if f == 0 else ({1, 2, 3} - {f, g}).pop()
        colours.append(tri[f] + tri[g] - quad[j - 1])
    return tuple(colours)


def test_tet_keys_are_those_of_the_admissible_colourings():
    for r in range(3, 8):
        keys = _tet_keys(r)
        assert len(set(keys)) == len(keys)
        assert set(keys) == {
            _tet_key(colours) for colours in product(range(r - 1), repeat=6)
            if all(_oracle_triple(r, *(colours[k] for k in face))
                   for face in _ORACLE_FACES)}
        for key in keys:
            assert _tet_key(_key_colours(key)) == key


@pytest.mark.parametrize("r, q", [(r, q) for r in range(3, 14)
                                  for q in (1, r + 1)] + [(47, 48)])
def test_tet_weights_match_factorial_oracle_on_every_key(r, q, factorials):
    # the edge-colour sum and the loop-coordinate sum against the
    # factorial form, which reads no packed table: one colouring per
    # admissible key at r <= 13, and at r = 47 the samples of
    # test_cached_tet_weights_match_uncached_oracle, (2, 2, 2, 2, 2, 0)
    # among them, at the second base q (that test runs q = 1)
    ctx = FieldContext(r, q)
    fact, inv_fact = factorials(ctx)
    if r <= 13:
        samples = [_key_colours(key) for key in _tet_keys(r)]
    else:
        samples = _tet_samples(r, random.Random(r))
        assert (2, 2, 2, 2, 2, 0) in samples
    for c in samples:
        want = _oracle_tet_weight(ctx, c, fact, inv_fact)
        got = tetrahedron_weight(ctx, c)
        assert (got.num, got.den) == (want.num, want.den), c
        symbol = IntersectionSymbol(((c[0], c[3], c[1]), (c[5], c[2], c[4])))
        loop = tet_weight_loop(ctx, decompose_symbol(symbol))
        assert (loop.num, loop.den) == (want.num, want.den), c


@pytest.mark.parametrize("r", range(3, 65))
def test_packed_table_width_holds_every_tetrahedron_sum(r, monkeypatch):
    # at both base contexts, q = 1 and at odd r q = r + 1: for every
    # admissible key at r <= 23, and a seeded sample above, the terms
    # that _tet_weight_sum hands to multinomial_sum have
    # S = sum_terms prod |factor|_1 < 2^(W-1), and their sum, packed
    # unreduced at 1024 bits a slot and read back, has every coefficient
    # below that bound.  At r = 6 the largest S needs every bit of W - 1
    if r <= 23:
        keys = _tet_keys(r)
    else:
        keys = [_tet_key(c)
                for c in _admissible_tet_colours(r, random.Random(r), 5)]
    seen = []
    monkeypatch.setattr(FieldContext, "multinomial_sum",
                        lambda ctx, terms: seen.extend(terms))
    wide = 1024
    for q in (1, r + 1) if r % 2 else (1,):
        ctx = FieldContext(r, q)
        width = ctx._packed_table()[0]
        bound = 1 << (width - 1)
        # [n+1] at (n, None) and [n k] at (n, k): the l1 norm, and the
        # vector packed at 1024 bits a slot
        factors = {(n, None): ctx.quantum_integer(n + 1).num
                   for n in range(r - 1)}
        factors.update(((n, k), ctx.quantum_binomial(n, k).num)
                       for n in range(r - 1) for k in range(n // 2 + 1))
        factors = {at: (sum(map(abs, vec)), negacyclic_pack(vec, wide))
                   for at, vec in factors.items()}

        @cache
        def multinomial(parts):
            # [n k] for each of the sorted nonzero parts k but the
            # largest, n = sum(parts) falling by k after each: the
            # product of their l1 norms, and their product at 1024 bits
            # a slot
            if len(parts) < 2:
                return 1, 1
            norm, value = multinomial(parts[1:])
            more, packed = factors[sum(parts), parts[0]]
            return norm * more, negacyclic_fold(value * packed, r * wide)

        @cache
        def term(parts):
            # [n+1] times the multinomial, as a pair like the above
            norm, value = multinomial(parts)
            more, packed = factors[sum(parts), None]
            return norm * more, negacyclic_fold(value * packed, r * wide)

        largest = 0
        for key in keys:
            seen.clear()
            _tet_weight_sum(ctx, *key)
            size = total = 0
            for negative, parts in seen:
                norm, value = term(tuple(sorted(p for p in parts if p)))
                size += norm
                total = total - value if negative else total + value
            assert size < bound, (q, key)
            coeffs = negacyclic_unpack(total, r, wide)
            assert max(map(abs, coeffs)) < bound, (q, key)
            largest = max(largest, size)
        if r == 6:
            assert largest.bit_length() == width - 1


@pytest.mark.parametrize("r", [5, 6, 9, 12, 23, 31, 36, 47])
def test_cached_tet_weights_match_uncached_oracle(r, factorials):
    # prime, odd composite and even levels (the inverse factorials have
    # denominators at composite r), at degrees from 4 to 46.
    # The samples hold every admissible colouring with colours <= 2: a
    # slot width sized from the binomial coefficients C(n, k) in place
    # of the l1 norms of the reduced binomials gets (2, 2, 2, 2, 2, 0)
    # wrong at r = 31 and 47.  Each pass starts from a fresh context, so
    # fresh weight pools and binomial table; the second warms them with
    # relabelled colourings in reverse order first, so a cache key that
    # drops what the value depends on fails.
    rng = random.Random(r)
    samples = _tet_samples(r, rng)
    assert (2, 2, 2, 2, 2, 0) in samples
    ctx = FieldContext(r, 1)
    fact, inv_fact = factorials(ctx)
    want = []
    for colours in samples:
        value = _oracle_tet_weight(ctx, colours, fact, inv_fact)
        want.append((value.num, value.den))
    assert any(f.den > 1 for f in inv_fact) == (r in (6, 9, 12, 36))
    # the weights are integral even where the inverse factorials are not
    assert all(den == 1 for _, den in want)

    for warm in (False, True):
        ctx = FieldContext(r, 1)
        if warm:
            for colours in reversed(samples):
                tetrahedron_weight(
                    ctx, _relabelled(colours, rng.choice(ALL_PERMS)))
            # the packed table holds every row n <= r - 2
            assert len(ctx._packed[2]) == r - 1
        for colours, (num, den) in zip(samples, want):
            got = tetrahedron_weight(ctx, colours)
            assert (got.num, got.den) == (num, den), colours
            c = colours
            symbol = IntersectionSymbol(((c[0], c[3], c[1]),
                                         (c[5], c[2], c[4])))
            assert symbol.doubled_colours() == colours
            loop = tet_weight_loop(ctx, decompose_symbol(symbol))
            assert (loop.num, loop.den) == (num, den), colours


def _gaussian_binomial(n, k):
    """Coefficients of the Gaussian binomial in Q = q^2, ascending, by the
    Pascal rule G(n, k) = G(n-1, k-1) + Q^k G(n-1, k) over the integers."""
    rows = [[[1]]]
    for m in range(1, n + 1):
        row = [[1]]
        for j in range(1, m):
            left, right = rows[-1][j - 1], [0] * j + rows[-1][j]
            size = max(len(left), len(right))
            row.append([(left[i] if i < len(left) else 0)
                        + (right[i] if i < len(right) else 0)
                        for i in range(size)])
        rows.append(row + [[1]])
    return rows[n][k]


def test_weight_caches_stay_bounded(census1, census2, factorials):
    # after a one-tetrahedron invariant at r = 23 the context keeps its
    # quantum integer tables and one packed table (W, heads, rows):
    # [n+1] and [n k] for k <= n/2, rows stopping at n = r - 2, each
    # packed at the context's one width W.
    # Each binomial [n k] read back from it equals, bit for bit,
    # zeta^(-k(n-k)) times the Gaussian binomial in zeta^2, summed from
    # powers of zeta, and so does [n n-k]
    r = 23
    tri = next(t for t in census1 if build_skeleton(t).v == 1)
    value = tv(tri, r)
    ctx = value.ctx
    assert set(vars(ctx)) == {
        "r", "q", "order", "modulus", "degree", "_mod_terms", "zero",
        "one", "zeta", "_qint", "_inv_qint", "_packed", "weight_pools"}
    width, heads, rows = ctx._packed
    assert width == 42
    assert len(heads) == len(rows) == r - 1
    for n, head in enumerate(heads):
        assert head == negacyclic_pack(ctx.quantum_integer(n + 1).num, width)
    for n, row in enumerate(rows):
        assert len(row) == n // 2 + 1
        for k in range(n + 1):
            want = ctx.zero
            for j, c in enumerate(_gaussian_binomial(n, k)):
                want = want + ctx.zeta_power(2 * j - k * (n - k)) * c
            assert row[min(k, n - k)] == negacyclic_pack(want.num, width)
            entry = ctx.quantum_binomial(n, k)
            assert (entry.num, entry.den) == (want.num, want.den)
    # a product with a factorial operand keeps no value
    factorial = factorials(ctx)[0][r - 2]
    tables = [dict(ctx._qint), dict(ctx._inv_qint), list(heads),
              [list(row) for row in rows]]
    dense = Cyc(ctx, tuple(range(1, ctx.degree + 1)))
    assert (dense * dense) * factorial != ctx.zero
    width, heads, rows = ctx._packed
    assert [dict(ctx._qint), dict(ctx._inv_qint), list(heads),
            [list(row) for row in rows]] == tables

    # the documented pools only: edge weights are the context's quantum
    # integers and "tet_raw" keeps the one key tuple per six colours
    pool = _cache(ctx)
    assert set(pool) == {"triangle", "tet", "tet_raw", "local", "local_raw",
                         "ext", "vertex"}
    for colours, (kept, tet_key, value) in pool["tet_raw"].items():
        assert kept is colours and pool["tet"][tet_key] is value
    assert pool["local"]
    tet_keys = {tet_key for tet_key, _ in pool["local"]}
    rest_keys = {rest_key for _, rest_key in pool["local"]}
    assert tet_keys <= set(pool["tet"])
    assert len(pool["local"]) <= len(pool["tet"]) * len(rest_keys)

    # the raw-colour memo in front of it: one memo per step kind (sorted
    # new edge positions, new faces), keyed by six colours that are all
    # in "tet_raw", each the one tuple "tet_raw" keeps for them, and
    # holding only values of "local" or zero tetrahedron weights of
    # "tet_raw", so it adds no values of its own; at r = 7 on inputs
    # with several tetrahedra too
    three = parse_triangulation(UNSORTED_NEW_EDGES)
    for t in census2[:8] + [three]:
        tv(t, 7)
    for pool in (_cache(ctx), _cache(field_init(7, 1))):
        assert pool["local_raw"]
        local_values = {id(value) for value in pool["local"].values()}
        for (edges, faces), memo in pool["local_raw"].items():
            assert edges == tuple(sorted(set(edges)))
            assert set(edges) <= set(range(6))
            assert faces == tuple(sorted(set(faces)))
            assert set(faces) <= set(range(4))
            assert set(memo) <= set(pool["tet_raw"])
            for colours, value in memo.items():
                assert pool["tet_raw"][colours][0] is colours
                if value.is_zero():
                    assert value is pool["tet_raw"][colours][2]
                else:
                    assert id(value) in local_values

    # the extension lists: one memo per (whole colours only, step kind),
    # the kind being (new faces, new slot of each local edge or -1, kept
    # new slots), keyed by colours of the level, each value a flat run
    # of (tail of kept new colours, odd-mask of the new colours, and
    # numerator and denominator of a nonzero "local" value), so it adds
    # no values of its own either
    for pool, r in ((_cache(ctx), 23), (_cache(field_init(7, 1)), 7)):
        assert pool["ext"]
        local_values = {id(value.num): value
                        for value in pool["local"].values()}
        for (integer_only, kind), memo in pool["ext"].items():
            faces, where, kept = kind
            new = max(where) + 1
            assert faces == tuple(sorted(set(faces)))
            assert set(faces) <= set(range(4))
            assert len(where) == 6 and set(where) <= set(range(-1, 6))
            assert set(range(new)) <= set(where)
            assert kept == tuple(sorted(set(kept)))
            assert set(kept) <= set(range(new))
            for sig, exts in memo.items():
                assert len(sig) == where.count(-1)
                assert all(0 <= a <= r - 2 for a in sig)
                assert len(exts) % 4 == 0
                for tail, mask, num, den in zip(exts[::4], exts[1::4],
                                                exts[2::4], exts[3::4]):
                    assert len(tail) == len(kept)
                    assert all(0 <= a <= r - 2 for a in tail)
                    assert 0 <= mask < 1 << new
                    assert not integer_only or mask == 0
                    value = local_values[id(num)]
                    assert not value.is_zero() and den == value.den


def test_colouring_weight_rejects_inadmissible(census1):
    skel = build_skeleton(census1[0])
    bad = (1,) + (0,) * (skel.e - 1)
    if admissible_colouring(skel, bad, 5):
        pytest.skip("unexpectedly admissible")
    with pytest.raises(ValueError):
        colouring_weight(skel, bad, 5)


def test_weight_system_matches_colouring_weight(census1):
    skel = build_skeleton(census1[0])
    ws = WeightSystem(skel, 5, 1)
    found, _ = enumerate_admissible(skel, 5)
    for col in found:
        assert ws.colouring_weight(col) == colouring_weight(skel, col, 5)


def test_state_sum_matches_sweep(z2hs2):
    # the value comes from the engine, the stats from the search; the
    # sweep over the searched colourings must agree
    tri = z2hs2[0]
    skel = build_skeleton(tri)
    found, found_stats = enumerate_admissible(skel, 5)
    for q in (1, 3):
        value, stats = tv(tri, 5, q), count_admissible(tri, 5)
        assert value == sweep_sum(skel, found, 5, q)
        assert stats == found_stats


def test_tv_rejects_open_triangulation():
    open_tri = make_triangulation([[None, None, None, None]])
    with pytest.raises(ValueError):
        tv(open_tri, 5, 1)


def test_sphere_values_exact(z2hs1):
    for tri in z2hs1:
        value = tv(tri, 4, 1)
        assert value.is_rational() and value.as_rational() == Fraction(1, 4)


def test_sphere_values_numeric(z2hs1):
    # the corpus holds one 3-sphere (trivial H1); at q = 1 its value is
    # (2/r) sin^2(pi/r)
    from tvcalc import h1_integral
    spheres = [t for t in z2hs1
               if str(h1_integral(build_skeleton(t))) == "0"]
    assert len(spheres) == 1
    for r in (3, 5, 7):
        got = complex(numeric_eval(tv(spheres[0], r, 1), 15))
        want = 2 * math.sin(math.pi / r) ** 2 / r
        assert abs(got - want) < 1e-12


def test_level_three_value_of_z2hs(z2hs1, z2hs2):
    # only the zero colouring contributes: the vertex factor alone
    for tri in z2hs1 + z2hs2:
        value = tv(tri, 3, 1)
        assert value.is_rational() and value.as_rational() == Fraction(1, 2)


def test_tv_at_class_partitions_the_sum(census1):
    for tri in census1:
        skel = build_skeleton(tri)
        basis = cocycle_space_1(skel)
        for r, q in ((4, 1), (5, 1), (5, 3)):
            total = tv(skel, r, q)
            acc = None
            for bits in range(1 << basis.beta1):
                coords = tuple((bits >> k) & 1 for k in range(basis.beta1))
                part = tv_at_class(skel, r, q, coords)
                acc = part if acc is None else acc + part
            assert acc == total
