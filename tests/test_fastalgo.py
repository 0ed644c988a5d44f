import json

import pytest

from tvcalc import (
    BoundReport,
    adm4_structured,
    bounds,
    build_skeleton,
    cocycle_space_1,
    enumerate_admissible,
    state_sum,
    sweep_sum,
    tv,
    tv4_structured,
    tv_odd_fast,
)


def test_level3_colourings_are_the_cocycle_span(census1, census2):
    for tri in census1 + census2:
        skel = build_skeleton(tri)
        basis = cocycle_space_1(skel)
        span = [tuple((mask >> j) & 1 for j in range(skel.e))
                for mask in basis.span()]
        assert len(span) == 2 ** (skel.v - 1 + basis.beta1)
        naive, _ = enumerate_admissible(skel, 3)
        assert len(naive) == len(span)
        assert set(naive) == set(span)


def test_level4_bounds_follow_the_level3_colourings(census1, census2):
    # oracle from the level-3 search: one node per cocycle, plus a walk
    # over {0, 2} on the zero entries of each nonzero one
    for tri in census1 + census2:
        skel = build_skeleton(tri)
        level3, _ = enumerate_admissible(skel, 3)
        report = bounds(skel, 4)
        assert report.kernel_sum_bound == len(level3) + sum(
            1 << sum(a == 0 for a in col) for col in level3 if any(col))
        assert report.coarse_cocycle_bound == (
            (len(level3) - 1) * ((1 << (skel.e - 1)) + 1) + 1)


def test_adm4_matches_naive_enumeration(census1, census2):
    for tri in census1 + census2:
        skel = build_skeleton(tri)
        fast, fast_stats = adm4_structured(skel)
        naive, naive_stats = enumerate_admissible(skel, 4)
        assert set(fast) == set(naive)
        assert fast_stats.admissible_count == len(fast)
        assert fast == sorted(fast)
        report = bounds(skel, 4)
        assert fast_stats.nodes_visited <= report.kernel_sum_bound


def test_adm4_sweep_matches_elimination(census2):
    skel = build_skeleton(census2[5])
    structured, _ = adm4_structured(skel)
    for q in (1, 3):
        assert sweep_sum(skel, structured, 4, q) == tv(skel, 4, q)


def test_tv4_structured_matches_plain_sum(census1, census2):
    for tri in census1 + census2[:6]:
        for q in (1, 3):
            assert tv4_structured(tri, q=q) == tv(tri, 4, q)


def test_tv_odd_fast_matches_plain_sum(one_vertex_corpus):
    for tri in one_vertex_corpus:
        for r in (3, 5):
            assert tv_odd_fast(tri, r) == tv(tri, r, 1)


def test_tv_odd_fast_rejects_bad_input(census1, census2):
    one_vertex = census1[1]
    assert build_skeleton(one_vertex).v == 1
    with pytest.raises(ValueError, match="odd level"):
        tv_odd_fast(one_vertex, 4)
    with pytest.raises(ValueError, match="odd level"):
        tv_odd_fast(one_vertex, 1)
    two_vertex = next(
        t for t in census1 + census2 if build_skeleton(t).v > 1)
    with pytest.raises(ValueError, match="one-vertex"):
        tv_odd_fast(two_vertex, 5)


def test_bounds_report_fields(z2hs1):
    for tri in z2hs1:
        skel = build_skeleton(tri)
        report = bounds(skel, 4)
        assert isinstance(report, BoundReport)
        assert report.naive == 3 ** skel.e
        assert report.kernel_sum_bound is not None
        assert report.coarse_cocycle_bound is not None
        assert report.kernel_sum_bound <= report.coarse_cocycle_bound
        assert report.actual <= report.kernel_sum_bound
        assert report.integer_colour_bound == 2 ** (tri.n + 1)

        report5 = bounds(skel, 5)
        assert report5.kernel_sum_bound is None
        assert report5.coarse_cocycle_bound is None
        assert report5.small_level_bound == 2 ** tri.n + 1
        assert report5.actual <= report5.small_level_bound
        assert report5.actual <= report5.integer_colour_bound


def test_bounds_not_applicable_off_domain(census1):
    multi = next(t for t in census1 if build_skeleton(t).v > 1)
    report = bounds(multi, 5)
    assert report.integer_colour_bound is None
    assert report.small_level_bound is None
    assert report.naive == 4 ** build_skeleton(multi).e

    torsion = next(t for t in census1
                   if build_skeleton(t).v == 1
                   and cocycle_space_1(build_skeleton(t)).beta1 > 0)
    assert bounds(torsion, 5).integer_colour_bound is None


def test_bounds_sharp_names(census1, census2):
    names = {"naive", "kernel_sum", "coarse_cocycle",
             "integer_colour", "small_level"}
    for tri in census1 + census2[:5]:
        for r in (4, 5):
            report = bounds(tri, r)
            assert set(report.sharp) <= names
            for name in report.sharp:
                value = report.to_json_dict()["bounds"].get(
                    name, report.naive)
                assert value == report.actual


def test_bounds_json_round_trip(census1):
    report = bounds(census1[0], 4)
    doc = json.loads(report.to_json())
    assert doc["actual"] == report.actual
    assert doc["bounds"]["naive"] == report.naive
    assert doc == report.to_json_dict()


def test_integer_only_node_savings(one_vertex_corpus):
    # restricting to whole colours must shrink the search tree whenever
    # it shrinks the result set, and never grow it
    for tri in one_vertex_corpus[:6]:
        for r in (5, 7):
            skel = build_skeleton(tri)
            full, full_stats = enumerate_admissible(skel, r)
            part, part_stats = enumerate_admissible(
                skel, r, integer_only=True)
            assert part_stats.nodes_visited <= full_stats.nodes_visited
            if len(full) < (r - 1) ** skel.e:
                assert part_stats.nodes_visited < full_stats.nodes_visited


def test_state_sum_exposes_stats(census1):
    value, stats = state_sum(census1[1], 5, 1, class_coords=())
    direct = tv_odd_fast(census1[1], 5)
    assert stats.admissible_count >= 1
    assert value.ctx is direct.ctx
