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
    _elimination_plan,
    _elimination_sum,
    _elimination_walk,
)
from tvcalc.cyclotomic import field_init


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
