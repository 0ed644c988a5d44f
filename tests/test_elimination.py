"""The elimination engine against the colouring sweep, exactly.

``_elimination_sum`` computes every invariant value, by one walk at its
base q and a Galois map; ``sweep_sum`` over the enumerated colourings,
which computes at (r, q) directly, is the independent oracle.  Every
case below must agree as exact field elements, for the full sum and
each cohomology class.  On one-vertex skeletons the engine sums only whole
colours in the zero class, so that class must also match the
integer-only search.
"""
import math
import random

import pytest

from tvcalc import (
    build_skeleton,
    cocycle_space_1,
    enumerate_admissible,
    pachner_23,
    sweep_sum,
)
from tvcalc.colourings import (
    _backtrack,
    _cache,
    _elimination_plan,
    _elimination_sum,
    _elimination_walk,
    _packed_walk,
    edge_weight,
    tetrahedron_weight,
    triangle_weight,
)
from tvcalc.cyclotomic import (
    Cyc,
    FieldContext,
    field_init,
    negacyclic_fold,
    negacyclic_pack,
    negacyclic_unpack,
    slot_width,
)
from tvcalc.fastalgo import tv_odd_fast
from tvcalc.triangulation import FACE_EDGES


def _valid_q(r):
    return [q for q in range(1, 2 * r) if math.gcd(q, r) == 1]


def _classes(skel):
    beta1 = cocycle_space_1(skel).beta1
    return [tuple((bits >> k) & 1 for k in range(beta1))
            for bits in range(1 << beta1)]


def _assert_engine_matches_sweep(skel, r, qs, label):
    cases = [{}] + [{"class_coords": coords} for coords in _classes(skel)]
    for kwargs in cases:
        found, _ = enumerate_admissible(skel, r, **kwargs)
        for q in qs:
            got = _elimination_sum(skel, r, q, **kwargs)
            assert got == sweep_sum(skel, found, r, q), (label, r, q, kwargs)
    if skel.v == 1:
        zero = (0,) * cocycle_space_1(skel).beta1
        whole, _ = enumerate_admissible(skel, r, integer_only=True)
        for q in qs:
            got = _elimination_sum(skel, r, q, class_coords=zero)
            assert got == sweep_sum(skel, whole, r, q), (label, r, q)


@pytest.fixture(scope="module")
def census_skeletons(census1, census2):
    return [build_skeleton(tri) for tri in census1 + census2]


def test_census_every_q_up_to_level_6(census_skeletons):
    for index, skel in enumerate(census_skeletons):
        for r in range(3, 7):
            _assert_engine_matches_sweep(skel, r, _valid_q(r), index)


def test_census_levels_7_and_8(census1, census2):
    # every q on one tetrahedron; on two, q = 1 and its complex conjugate
    # 2r - 1 (all q there would take some 15 s of cold weight caches)
    def conjugate_pair(r):
        return (1, 2 * r - 1)

    for tris, pick in ((census1, _valid_q), (census2, conjugate_pair)):
        for index, tri in enumerate(tris):
            skel = build_skeleton(tri)
            for r in (7, 8):
                _assert_engine_matches_sweep(skel, r, pick(r), index)


def test_walk_at_every_q_matches_its_galois_image(census1, census2):
    # the engine runs at q = 1, or r + 1 for even q, and maps the value;
    # the walk run directly at (r, q) must give the same element of the
    # context (r, q), for the full sum and for every class
    cases = [(tri, r) for tri in census1 + census2 for r in range(3, 8)]
    cases += [(tri, r) for tri in census1 for r in (8, 9)]
    for index, (tri, r) in enumerate(cases):
        skel = build_skeleton(tri)
        for q in _valid_q(r):
            for coords in [None] + _classes(skel):
                image = _elimination_sum(skel, r, q, coords)
                assert image.ctx is field_init(r, q)
                assert image == _elimination_walk(
                    skel, field_init(r, q), coords), (index, r, q, coords)


def _internal_triangles(tri):
    skel = build_skeleton(tri)
    return [c for c in range(skel.f)
            if len({loc // 4 for loc, cls in enumerate(skel.triangle_class)
                    if cls == c}) == 2]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pachner_walks_up_to_seven_tetrahedra(census2, seed):
    rng = random.Random(seed)
    bases = [tri for tri in census2 if build_skeleton(tri).v == 1]
    tri = rng.choice(bases)
    while tri.n < 7:
        tri = pachner_23(tri, rng.choice(_internal_triangles(tri)))
        skel = build_skeleton(tri)
        for r in (5, 6, 7):
            found, _ = enumerate_admissible(skel, r)
            assert _elimination_sum(skel, r, 1) == sweep_sum(
                skel, found, r, 1), (seed, tri.n, r)


def _seed_walk(tri, seed, sizes):
    """The members of sizes on a 2-3 walk from tri, moving on a random
    internal triangle with random.Random(seed)."""
    rng = random.Random(seed)
    members = {}
    while tri.n < max(sizes):
        tri = pachner_23(tri, rng.choice(_internal_triangles(tri)))
        if tri.n in sizes:
            members[tri.n] = tri
    return [members[n] for n in sorted(sizes)]


def test_odd_fast_at_size_matches_the_sweep_of_its_base(census2):
    # the seed-7 walk from census_t2_0001 at 12 to 16 tetrahedra: packed
    # widths above 100 bits at r = 9, one vertex throughout, so every
    # member's odd-fast value is the swept invariant of the base
    base = census2[1]
    found, _ = enumerate_admissible(base, 9)
    want = sweep_sum(build_skeleton(base), found, 9, 1)
    for tri in _seed_walk(base, 7, (12, 14, 16)):
        assert tv_odd_fast(tri, 9) == want, tri.n


def test_width_bound_holds_every_coefficient(census_skeletons):
    # read at a width far above its bound, the unreduced result of a
    # walk has no coefficient of 2^bound or more, at both base contexts
    # of a level, for the full sum and every class
    width = 1024
    for index, skel in enumerate(census_skeletons):
        for r in range(3, 9):
            for base in (1, r + 1) if r & 1 else (1,):
                ctx = field_init(r, base)
                for coords in [None] + _classes(skel):
                    value, _, bound, used = _packed_walk(skel, ctx, coords,
                                                         width)
                    assert used == width and slot_width(bound) <= width
                    top = max(map(abs, negacyclic_unpack(value, r, width)))
                    assert top < 1 << bound, (index, r, base, coords)


@pytest.mark.parametrize("r", [3, 4, 6, 9])
def test_extreme_coefficients_round_trip_at_the_slot_width(r):
    # coefficients of 2^bound - 1 in absolute value, packed at the width
    # the rule gives for that bound, from any representative modulo
    # 2^(r w) + 1, come back exactly; products folded once stay exact
    ctx = field_init(r, 1)
    rng = random.Random(r)
    for bound in (1, 2, 7, 30, 64, 200):
        width = slot_width(bound)
        modulus = (1 << (r * width)) + 1
        top = (1 << bound) - 1
        for _ in range(10):
            coeffs = [rng.choice((top, -top, rng.randint(-top, top)))
                      for _ in range(r)]
            packed = negacyclic_pack(coeffs, width)
            for shift in range(-2, 3):
                assert negacyclic_unpack(packed + shift * modulus, r,
                                         width) == coeffs
        # f g modulo x^r + 1 with every coefficient at most r a b
        a, b = 1 << (bound // 2), (1 << (bound - bound // 2)) // r
        f = [rng.randint(-a, a) for _ in range(r)]
        g = [rng.randint(-b, b) for _ in range(r)]
        conv = [0] * r
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                k = i + j
                if k < r:
                    conv[k] += x * y
                else:
                    conv[k - r] -= x * y
        folded = negacyclic_fold(
            negacyclic_pack(f, width) * negacyclic_pack(g, width),
            r * width)
        assert negacyclic_unpack(folded, r, width) == conv
    # the read-back's reduction by Phi_2r: x^k for every k < r
    for k in range(r):
        conv = [0] * r
        conv[k] = 1
        assert Cyc(ctx, ctx.reduce_negacyclic(conv)) == Cyc(ctx,
                                                           ctx._xpow[k])


def test_any_first_width_gives_the_exact_walk(census2):
    # a walk handed a first width too narrow for its bound, at any step,
    # widens its table in place and ends with the same packed value
    tris = [tri for tri in census2 if cocycle_space_1(
        build_skeleton(tri)).beta1][:2] + census2[1:2]
    for tri in tris:
        skel = build_skeleton(tri)
        for r in (5, 6, 9):
            ctx = field_init(r, 1)
            for coords in [None] + _classes(skel):
                value, den, bound, _ = _packed_walk(skel, ctx, coords, 1024)
                want = negacyclic_unpack(value, r, 1024)
                for width in range(2, slot_width(bound) + 1):
                    got, got_den, _, used = _packed_walk(skel, ctx, coords,
                                                         width)
                    assert used >= slot_width(bound) and got_den == den
                    assert negacyclic_unpack(got, r, used) == want, (
                        r, coords, width)


def test_cold_level_widens_and_stays_exact(census2, monkeypatch):
    # the first width gives every step the bits of the first step's
    # factors; on these walks a later step's factors are larger, so the
    # table is repacked at a wider width mid-walk, and the value is
    # still the swept one
    unpacked = []

    def counting_unpack(value, r, width):
        unpacked.append(width)
        return negacyclic_unpack(value, r, width)

    monkeypatch.setattr("tvcalc.colourings.negacyclic_unpack",
                        counting_unpack)
    widened = 0
    for tri in _seed_walk(census2[1], 2, (5, 6)):
        skel = build_skeleton(tri)
        for r in (7, 9):
            unpacked.clear()
            got = _elimination_walk(skel, FieldContext(r, 1))
            widened += len(unpacked) > 1     # one read-back, then repacks
            found, _ = enumerate_admissible(skel, r)
            want = sweep_sum(skel, found, r, 1)
            assert (got.num, got.den) == (want.num, want.den), (tri.n, r)
    assert widened == 4


def _mixed_walks(census2, census_skeletons):
    """(skeleton, class) cases that share step kinds and signatures:
    every other census member with the full sum and every class (the
    nonzero ones, and on one vertex the whole-colour zero class), and
    seed-7 members at n = 5 and 8 with the full sum and the zero class."""
    grown = [build_skeleton(tri) for tri in _seed_walk(census2[1], 7, (5, 8))]
    cases = []
    for skel in census_skeletons[::2] + grown:
        cases += [(skel, None)] + [(skel, coords)
                                   for coords in _classes(skel)]
    assert any(coords and any(coords) for _, coords in cases)
    return cases


def test_walk_width_does_not_depend_on_earlier_walks(census2,
                                                      census_skeletons):
    # census_t2_0012 at r = 7 packs at the same width on a fresh context
    # as after a larger walk (seed 7, n = 10) has run at that context
    skel = build_skeleton(census2[12])
    fresh = _packed_walk(skel, FieldContext(7, 1), None)
    ctx = FieldContext(7, 1)
    big = build_skeleton(_seed_walk(census2[1], 7, (10,))[0])
    _packed_walk(big, ctx, None)
    after = _packed_walk(skel, ctx, None)
    assert after[2:] == fresh[2:] == (24, 25)
    assert after == fresh
    # after a mixed sequence of walks at one context per level, sharing
    # its extension lists, each walk gives what it gives on a fresh one
    cases = _mixed_walks(census2, census_skeletons)
    for r in range(3, 8):
        ctx = FieldContext(r, 1)
        shared = [_packed_walk(skel, ctx, coords) for skel, coords in cases]
        assert len(_cache(ctx)["ext"]) > 1
        for (skel, coords), got in zip(cases, shared):
            assert got == _packed_walk(skel, FieldContext(r, 1), coords), (
                r, coords)


def _rebuilt_extensions(ctx, integer_only, kind, sig):
    """An "ext" list from its key alone: a fresh ``_backtrack`` over the
    new slots with every face checked at the last one, and each weight
    multiplied out from ``tetrahedron_weight``, ``edge_weight`` and
    ``triangle_weight``, as (tail, odd-mask, (num, den)) triples."""
    r = ctx.r
    faces, where, kept = kind
    new = max(where) + 1
    old = [k for k, j in enumerate(where) if j < 0]
    position = [old.index(k) if j < 0 else len(old) + j
                for k, j in enumerate(where)]
    domain = tuple(range(0, r - 1, 2) if integer_only else range(r - 1))
    checks = [[] for _ in range(new + 1)]
    checks[new] = [tuple(position[k] for k in FACE_EDGES[face])
                   for face in faces]
    out = []
    for colours in _backtrack(r, domain, list(sig) + [0] * new,
                              list(range(len(old), len(old) + new)), checks):
        six = [colours[position[k]] for k in range(6)]
        weight = tetrahedron_weight(ctx, six)
        for j in range(new):
            weight = weight * edge_weight(ctx, six[where.index(j)])
        for face in faces:
            weight = weight * triangle_weight(
                ctx, *(six[k] for k in FACE_EDGES[face]))
        if not weight.is_zero():
            new_colours = colours[len(old):]
            out.append((tuple(new_colours[j] for j in kept),
                        sum(1 << j for j, a in enumerate(new_colours)
                            if a & 1),
                        (weight.num, weight.den)))
    return out


def test_cached_extensions_match_a_fresh_search(census2, census_skeletons):
    # every list the walks leave in the "ext" pool, at both base
    # contexts of an odd level and at an even level with denominators
    cases = _mixed_walks(census2, census_skeletons)
    checked = 0
    for r, q in ((5, 1), (5, 6), (6, 1)):
        ctx = FieldContext(r, q)
        for skel, coords in cases:
            _packed_walk(skel, ctx, coords)
        for (integer_only, kind), memo in _cache(ctx)["ext"].items():
            for sig, exts in memo.items():
                got = [(tail, mask, (num, den))
                       for tail, mask, num, den in zip(
                           exts[::4], exts[1::4], exts[2::4], exts[3::4])]
                assert got == _rebuilt_extensions(
                    ctx, integer_only, kind, sig), (r, q, kind, sig)
                checked += 1
    assert checked > 1000


def test_plan_visits_each_tetrahedron_and_finishes_every_edge(
        census_skeletons):
    for skel in census_skeletons:
        steps = _elimination_plan(skel)
        assert sorted(t for t, *_ in steps) == list(range(skel.n))
        assert sorted(e for _, new, _, _ in steps for e in new) \
            == list(range(skel.e))
        assert sorted(e for *_, finished in steps for e in finished) \
            == list(range(skel.e))
        assert sum(len(faces) for _, _, faces, _ in steps) == skel.f


def test_class_bits_are_linear_and_match_class_of(census_skeletons):
    for skel in census_skeletons:
        basis = cocycle_space_1(skel)
        single = [basis.class_bits(1 << j) for j in range(skel.e)]
        for mask in basis.span():
            packed = 0
            for j in range(skel.e):
                if (mask >> j) & 1:
                    packed ^= single[j]
            coords = basis.class_of(mask)
            assert packed == sum(b << k for k, b in enumerate(coords))


def test_class_coords_checked(census_skeletons):
    skel = next(s for s in census_skeletons
                if cocycle_space_1(s).beta1 == 1)
    for bad in ((0, 1, 0), (), (2,)):
        with pytest.raises(ValueError):
            _elimination_sum(skel, 5, 1, class_coords=bad)
