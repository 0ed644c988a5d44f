import math

import pytest

import inputs
import workloads
from tvcalc import (
    build_skeleton,
    enumerate_admissible,
    parse_triangulation,
    tv,
    validate_closed_3manifold,
)


def test_corpus_has_the_census_counts():
    for tets, count in inputs.CENSUS_COUNTS.items():
        texts = inputs.census_texts(tets)
        assert len(texts) == count == len(set(texts))
    assert sum(inputs.one_vertex(t) for t in inputs.census_texts(1)) == 3


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.NAMES:
        first, second = tmp_path / f"{name}1", tmp_path / f"{name}2"
        first.mkdir()
        second.mkdir()
        calls = workloads.build(name, 7, first).calls
        assert len(calls) == len(workloads.build(name, 7, second).calls)
        for path in first.iterdir():
            assert path.read_bytes() == (second / path.name).read_bytes()


def test_seeds_change_the_seeded_inputs():
    assert inputs.grown_family(1) != inputs.grown_family(2)
    choices = {tuple(inputs.invariant_q_choices(s).items())
               for s in range(6)}
    assert len(choices) > 1
    for seed in range(6):
        for r, q in inputs.invariant_q_choices(seed).items():
            assert q != 1 and math.gcd(q, 2 * r) == 1 and 0 < q < 2 * r


def test_grown_members_are_closed_one_vertex_and_sized():
    walks = inputs.grown_family(3)
    assert len(walks) == inputs.GROWN_WALKS
    assert len({base for base, _, _ in walks}) == inputs.GROWN_WALKS
    for _, base_text, members in walks:
        assert [tets for tets, _ in members] == list(
            range(inputs.GROWN_MIN_TETS, inputs.GROWN_MAX_TETS + 1))
        for tets, text in members:
            rows = inputs.parse(text)
            inputs.check_closed_one_vertex(rows, tets)
            assert (inputs.deviation(inputs.walk_work(rows),
                                     inputs.GROWN_WORK[tets])
                    <= inputs.GROWN_SPREAD)
            skel = build_skeleton(parse_triangulation(text))
            assert validate_closed_3manifold(skel).is_closed_3manifold
            assert skel.v == 1 and skel.n == tets


def test_move_23_keeps_the_invariant():
    text = inputs.census_texts(2)[1]
    rows = inputs.parse(text)
    for face in inputs.internal_faces(rows):
        moved = inputs.move_23(rows, *face)
        inputs.check_closed_one_vertex(moved, 3)
        assert (tv(parse_triangulation(inputs.serialise(moved)), 5)
                == tv(parse_triangulation(text), 5))


def test_move_23_rejects_a_self_glued_face():
    rows = inputs.parse(inputs.census_texts(1)[1])
    with pytest.raises(ValueError):
        inputs.move_23(rows, 0, 0)


def test_colouring_count_matches_the_program():
    for text in inputs.census_texts(2)[:6]:
        rows = inputs.parse(text)
        skel = build_skeleton(parse_triangulation(text))
        for r, integer_only in ((4, False), (5, True), (6, False)):
            found, _ = enumerate_admissible(skel, r,
                                            integer_only=integer_only)
            assert inputs.colouring_count(rows, r, integer_only) == len(found)
