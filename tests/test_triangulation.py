import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tvcalc import (
    Triangulation,
    build_skeleton,
    enumerate_census,
    pachner_23,
    parse_triangulation,
    serialise_triangulation,
    validate_closed_3manifold,
)
from tvcalc.triangulation import (
    ALL_PERMS,
    EDGE_INDEX,
    EDGE_VERTICES,
    FACE_EDGE_MAPS,
    ParseError,
    _UnionFind,
    make_triangulation,
    perm_compose,
    perm_invert,
)

TWO_TET_TEXT = """\
# two tetrahedra glued along all faces
tri 1
tet 0: 1:0123 1:0123 1:0123 1:0123
tet 1: 0:0123 0:0123 0:0123 0:0123
"""


def test_parse_basic():
    tri = parse_triangulation(TWO_TET_TEXT)
    assert tri.n == 2
    assert tri.gluings[0][2] == (1, (0, 1, 2, 3))


def test_parse_ignores_comments_and_blank_lines():
    noisy = "\n\n# leading comment\n" + TWO_TET_TEXT + "\n   \n# trailing\n"
    assert parse_triangulation(noisy) == parse_triangulation(TWO_TET_TEXT)


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError):
        parse_triangulation("tri 2\ntet 0: - - - -\n")


def test_parse_rejects_bad_permutation():
    with pytest.raises(ParseError):
        parse_triangulation("tri 1\ntet 0: 0:0113 - - -\n")


def test_parse_rejects_mismatched_back_gluing():
    text = "tri 1\ntet 0: 1:0123 - - -\ntet 1: - 0:0123 - -\n"
    with pytest.raises(ValueError):
        parse_triangulation(text)


def test_face_self_gluing_rejected():
    with pytest.raises(ValueError):
        make_triangulation([[(0, (0, 1, 2, 3)), None, None, None]])


def test_serialise_round_trip_on_census(census1, census2):
    for tri in census1 + census2:
        assert parse_triangulation(serialise_triangulation(tri)) == tri


def test_perm_algebra():
    for p in ALL_PERMS:
        assert perm_compose(p, perm_invert(p)) == (0, 1, 2, 3)
        assert perm_invert(perm_invert(p)) == p


def test_edge_tables_are_consistent():
    assert len(EDGE_VERTICES) == 6
    for k, (u, v) in enumerate(EDGE_VERTICES):
        assert EDGE_INDEX[(u, v)] == k
        # the opposite edge, the only one sharing no vertex, is 5 - k
        disjoint = [j for j, pair in enumerate(EDGE_VERTICES)
                    if {u, v}.isdisjoint(pair)]
        assert disjoint == [5 - k]


def test_skeleton_counts_closed(census1, census2):
    # closed: f = 2n and e = n + v
    for tri in census1 + census2:
        skel = build_skeleton(tri)
        assert skel.f == 2 * tri.n
        assert skel.e == tri.n + skel.v


def test_skeleton_triangle_edge_classes(census2):
    for tri in census2:
        skel = build_skeleton(tri)
        assert len(skel.triangle_edge_classes) == skel.f
        for triple in skel.triangle_edge_classes:
            assert len(triple) == 3
            assert all(0 <= c < skel.e for c in triple)


def test_validate_reports_open_triangulation():
    tri = make_triangulation([[None, None, None, None]])
    report = validate_closed_3manifold(build_skeleton(tri))
    assert not report.closed
    assert not report.is_closed_3manifold
    assert report.messages


def test_validate_accepts_census(census1, census2):
    for tri in census1 + census2:
        report = validate_closed_3manifold(build_skeleton(tri))
        assert report.is_closed_3manifold, report.messages


def _glue(n, pairs):
    """The gluing table of ((t, f), (t2, f2), p) face pairs."""
    glu = [[None] * 4 for _ in range(n)]
    for (t, f), (t2, f2), p in pairs:
        glu[t][f] = (t2, p)
        glu[t2][f2] = (t, perm_invert(p))
    return make_triangulation(glu)


def _closed_one_tet_tables():
    """All 108 closed one-tetrahedron tables: 3 face pairings, 6 x 6 maps."""
    return [_glue(1, [((0, a), (0, b), p), ((0, c), (0, d), q)])
            for (a, b), (c, d) in (((0, 1), (2, 3)), ((0, 2), (1, 3)),
                                   ((0, 3), (1, 2)))
            for p in ALL_PERMS if p[a] == b
            for q in ALL_PERMS if q[c] == d]


def _seeded_closed_tables(n, count, seed):
    """Random closed tables: a random face pairing, a random map per pair."""
    rng = random.Random(seed)
    tables = []
    for _ in range(count):
        faces = [(t, f) for t in range(n) for f in range(4)]
        rng.shuffle(faces)
        tables.append(_glue(n, [
            (a, b, rng.choice([p for p in ALL_PERMS if p[a[1]] == b[1]]))
            for a, b in zip(faces[::2], faces[1::2])]))
    return tables


def test_validate_closed_one_tetrahedron_tables():
    tables = _closed_one_tet_tables()
    assert len(set(tables)) == 108
    reports = [validate_closed_3manifold(build_skeleton(tri))
               for tri in tables]
    assert all(report.closed for report in reports)
    counts = Counter((report.valid_edges, report.vertex_links_are_spheres)
                     for report in reports)
    assert counts == {(True, True): 27, (False, False): 66,
                      (False, True): 3, (True, False): 12}


def test_sphere_links_match_euler_characteristic():
    # On a closed table with valid edges, chi = v - e + f - n = v - e + n
    # (f = 2n) is the sum over vertices of 1 - chi(link)/2, and every link
    # that is not a sphere adds at least 1/2: links are spheres iff chi = 0.
    checked = Counter()
    for tri in _closed_one_tet_tables() + _seeded_closed_tables(2, 2000, 5):
        skel = build_skeleton(tri)
        report = validate_closed_3manifold(skel)
        if not report.valid_edges:
            continue
        spheres = skel.v - skel.e + tri.n == 0
        assert report.vertex_links_are_spheres == spheres, \
            serialise_triangulation(tri)
        checked[tri.n, spheres] += 1
    assert min(checked.values()) >= 10 and len(checked) == 4


def test_face_edge_table_detects_reversed_edges():
    # the census prunes on the rule build_skeleton uses: some edge union
    # of some gluing fails exactly when an edge class is reversed
    tables = (_closed_one_tet_tables() + _seeded_closed_tables(2, 500, 11)
              + _seeded_closed_tables(3, 500, 12))
    outcomes = Counter()
    for tri in tables:
        edges = _UnionFind(6 * tri.n)
        failed = False
        for t, row in enumerate(tri.gluings):
            for face, (t2, p) in enumerate(row):
                for k, k2, flipped in FACE_EDGE_MAPS[face, p]:
                    if not edges.union(6 * t + k, 6 * t2 + k2, flipped):
                        failed = True
        reversed_edges = build_skeleton(tri).reversed_edges
        assert failed == bool(reversed_edges), serialise_triangulation(tri)
        outcomes[tri.n, failed] += 1
    assert len(outcomes) == 6 and min(outcomes.values()) >= 10


@pytest.mark.parametrize("text, messages", [
    # one vertex whose link is a torus or Klein bottle
    ("tri 1\ntet 0: 0:1203 0:2013 0:0231 0:0312\n",
     ("vertex 0: link has euler characteristic 0 in 1 component(s)",)),
    # two vertices, each with a projective plane as its link
    ("tri 1\ntet 0: 0:2103 1:0321 0:2103 1:1320\n"
     "tet 1: 0:3021 1:1203 1:2013 0:0321\n",
     ("vertex 0: link has euler characteristic 1 in 1 component(s)",
      "vertex 1: link has euler characteristic 1 in 1 component(s)")),
])
def test_validate_bad_link_messages(text, messages):
    report = validate_closed_3manifold(
        build_skeleton(parse_triangulation(text)))
    assert (report.closed, report.valid_edges,
            report.vertex_links_are_spheres) == (True, True, False)
    assert report.messages == messages


def _internal_triangle(tri):
    skel = build_skeleton(tri)
    for cls in range(skel.f):
        locs = [i for i, c in enumerate(skel.triangle_class) if c == cls]
        if len({loc // 4 for loc in locs}) == 2:
            return cls
    return None


def test_pachner_23_adds_one_tetrahedron(census2):
    moved = 0
    for tri in census2:
        cls = _internal_triangle(tri)
        if cls is None:
            continue
        bigger = pachner_23(tri, cls)
        assert bigger.n == tri.n + 1
        skel0, skel1 = build_skeleton(tri), build_skeleton(bigger)
        assert validate_closed_3manifold(skel1).is_closed_3manifold
        # one new edge, two new triangles, no new vertices
        assert skel1.e == skel0.e + 1
        assert skel1.f == skel0.f + 2
        assert skel1.v == skel0.v
        moved += 1
    assert moved >= 5


def test_pachner_23_rejects_self_glued_triangle(census1):
    for tri in census1:
        cls = _internal_triangle(tri)
        assert cls is None  # one tetrahedron: every triangle is self-glued
        with pytest.raises(ValueError):
            pachner_23(tri, 0)


def test_census_counts_match_reference():
    # closed triangulation counts 4, 17 are the published reference values
    assert len(list(enumerate_census(1))) == 4
    assert len(list(enumerate_census(2))) == 17


def test_census_is_deterministic():
    first = [serialise_triangulation(t) for t in enumerate_census(2)]
    second = [serialise_triangulation(t) for t in enumerate_census(2)]
    assert first == second


def test_census_limit():
    assert len(list(enumerate_census(2, limit=5))) == 5


def test_census_one_vertex_filter(census1):
    one_vertex = list(enumerate_census(1, one_vertex=True))
    assert [t for t in census1 if build_skeleton(t).v == 1] == one_vertex


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parse_serialise_identity_under_relabelling(data):
    # census inputs with whitespace noise keep parsing to the same table
    corpus = list(enumerate_census(1)) + list(enumerate_census(2, limit=6))
    tri = data.draw(st.sampled_from(corpus))
    text = serialise_triangulation(tri)
    pad = data.draw(st.sampled_from(["", "  ", "\t"]))
    noisy = "\n".join(pad + line + pad for line in text.splitlines())
    assert parse_triangulation(noisy) == tri
