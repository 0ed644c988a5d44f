import gc
import json
import weakref

import pytest

from tvcalc import (
    BoundReport,
    adm4_structured,
    bounds,
    build_skeleton,
    cli,
    cocycle_space_1,
    colouring_weight,
    colourings,
    enumerate_admissible,
    fastalgo,
    field_init,
    serialise_triangulation,
    state_sum,
    sweep_sum,
    tv,
    tv4_structured,
    tv_odd_fast,
)
from tvcalc.colourings import vertex_weight


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


def test_zero_colouring_weight_is_the_vertex_factor(census1, census2):
    # tv_odd_fast divides by the level-3 weight of the zero colouring,
    # whose every edge, triangle and tetrahedron factor is 1
    ctx = field_init(3, 1)
    for tri in census1 + census2:
        skel = build_skeleton(tri)
        assert vertex_weight(ctx) ** skel.v == colouring_weight(
            skel, (0,) * skel.e, 3)


def _count_builds(monkeypatch, **facts):
    """Counts, from an empty memo, of the builds of the cocycle basis
    ("basis") and of the ``colourings`` skeleton facts named by the
    values of ``facts`` (count name -> function name)."""
    calls = {}

    def counted(name, build):
        def wrapper(skel):
            calls[name] += 1
            return build(skel)
        return wrapper

    basis = counted("basis", cocycle_space_1)
    for module in (cli, colourings, fastalgo):
        monkeypatch.setattr(module, "cocycle_space_1", basis)
    for name, function in facts.items():
        monkeypatch.setattr(colourings, function,
                            counted(name, getattr(colourings, function)))
    monkeypatch.setattr(colourings, "_DERIVED", weakref.WeakKeyDictionary())
    return calls


def test_one_compute_builds_basis_and_plan_once(
        census1, monkeypatch, tmp_path):
    # tv4 sums and walks the cocycles, tv_odd_fast sums at levels 3 and
    # r and reads beta1, and compute --class checks the class, searches
    # and sums; each builds the skeleton's cocycle basis and elimination
    # plan once
    calls = _count_builds(monkeypatch, plan="_elimination_plan")
    tri = next(t for t in census1 if build_skeleton(t).v == 1
               and cocycle_space_1(build_skeleton(t)).beta1 > 0)
    path = tmp_path / "input.tri"
    path.write_text(serialise_triangulation(tri))
    common = ["compute", "--file", str(path), "--json"]
    for argv in (common + ["--r", "4"],
                 common + ["--r", "5", "--algorithm", "odd-fast"],
                 common + ["--r", "7"],
                 common + ["--r", "5", "--class", "1"],
                 common + ["--r", "6", "--class", "0"]):
        gc.collect()
        calls.update(basis=0, plan=0)
        assert cli.main(argv) == 0
        assert calls == {"basis": 1, "plan": 1}, argv
    gc.collect()
    calls.update(basis=0, plan=0)
    tv_odd_fast(build_skeleton(tri), 9)
    assert calls == {"basis": 1, "plan": 1}


def test_one_verify_builds_each_skeleton_fact_once(
        census1, monkeypatch, tmp_path, capsys):
    # verify searches at levels 3 and r, whole colours only and inside
    # bounds, sums every class and, at r = 4, walks the cocycles; the
    # cocycle basis, search plan and elimination plan are each built once
    calls = _count_builds(monkeypatch, search="_search_plan",
                          plan="_elimination_plan")
    tri = next(t for t in census1 if build_skeleton(t).v == 1
               and cocycle_space_1(build_skeleton(t)).beta1 > 0)
    path = tmp_path / "input.tri"
    path.write_text(serialise_triangulation(tri))
    for r in (4, 5, 6):
        gc.collect()
        calls.update(basis=0, search=0, plan=0)
        assert cli.main(["verify", "--file", str(path), "--r", str(r)]) == 0
        assert "all checks passed" in capsys.readouterr().out
        assert calls == {"basis": 1, "search": 1, "plan": 1}, r


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
