"""The census search: its leaves, its leaf test, its canonical form, its
output against the corpus and its call counts; the union-find's undo."""
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvcalc import census
from tvcalc.census import canonical_form, enumerate_census
from tvcalc.homology import betti_z2
from tvcalc.triangulation import (
    ALL_PERMS,
    FACE_EDGE_MAPS,
    _UnionFind,
    build_skeleton,
    make_triangulation,
    parse_triangulation,
    perm_compose,
    perm_invert,
    serialise_triangulation,
    validate_closed_3manifold,
)

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"


def _bfs_relabelling(tri, start, start_perm):
    """Reference: the relabelled table from one seed, None if disconnected."""
    order = [start]
    perms = {start: start_perm}
    new_index = {start: 0}
    table = []
    k = 0
    while k < len(order):
        old_t = order[k]
        rho = perms[old_t]
        rho_inv = perm_invert(rho)
        for new_face in range(4):
            g = tri.gluings[old_t][rho_inv[new_face]]
            if g is None:
                table.append((-1, -1))
                continue
            t2, p = g
            if t2 not in new_index:
                new_index[t2] = len(order)
                order.append(t2)
                perms[t2] = perm_compose(rho, perm_invert(p))
            sig = perm_compose(perms[t2], perm_compose(p, rho_inv))
            table.append((new_index[t2], ALL_PERMS.index(sig)))
        k += 1
    return tuple(table) if len(order) == tri.n else None


def _reference_form(tri):
    """Reference: the minimum over every full relabelling, none pruned."""
    return min(_bfs_relabelling(tri, start, perm)
               for start in range(tri.n) for perm in ALL_PERMS)


def _relabel(tri, rng):
    """An isomorphic copy: tetrahedra permuted, vertices per tetrahedron."""
    n = tri.n
    moved = list(range(n))
    rng.shuffle(moved)
    phi = [rng.choice(ALL_PERMS) for _ in range(n)]
    rows = [[None] * 4 for _ in range(n)]
    for t, row in enumerate(tri.gluings):
        for f, g in enumerate(row):
            if g is not None:
                t2, p = g
                rows[moved[t]][phi[t][f]] = (moved[t2], perm_compose(
                    phi[t2], perm_compose(p, perm_invert(phi[t]))))
    return make_triangulation(rows)


def _corpus():
    paths = sorted(CORPUS.glob("census_t*.tri"))
    assert len(paths) == 102
    return [parse_triangulation(path.read_text()) for path in paths]


def _copied(classes):
    dup = _UnionFind(0)
    dup.parent = classes.parent.copy()
    dup.parity = classes.parity.copy()
    return dup


def _reference_leaves(n):
    """Reference: the recursive search with a union-find copied per branch.

    Yields (gluings, classes) at every closed, edge-valid table, with
    edges 6t + k and corners 6n + 4t + u in one union-find.
    """
    gluings = [[None] * 4 for _ in range(n)]
    corners = 6 * n

    def candidates(used):
        spot = next(((t, f) for t in range(used) for f in range(4)
                     if gluings[t][f] is None), None)
        if spot is None:
            return None, ()
        t, f = spot
        opts = []
        for t2 in range(t, used):
            for f2 in range(4):
                if gluings[t2][f2] is not None or (t2, f2) <= (t, f):
                    continue
                for p in census._face_gluing_perms(f, f2):
                    opts.append((t2, p))
        if used < n:
            opts.append((used, (0, 1, 2, 3)))
        return spot, opts

    def search(state, used):
        spot, opts = candidates(used)
        if spot is None:
            if used == n:
                yield gluings, state
            return
        t, f = spot
        for t2, p in opts:
            f2 = p[f]
            branch = _copied(state)
            if not all(branch.union(6 * t + k, 6 * t2 + k2, flipped)
                       for k, k2, flipped in FACE_EDGE_MAPS[f, p]):
                continue
            for u in range(4):
                if u != f:
                    branch.union(corners + 4 * t + u, corners + 4 * t2 + p[u])
            gluings[t][f] = (t2, p)
            gluings[t2][f2] = (t, perm_invert(p))
            yield from search(branch, max(used, t2 + 1))
            gluings[t][f] = None
            gluings[t2][f2] = None

    yield from search(_UnionFind(10 * n), 1)


@pytest.mark.parametrize("n, leaves", [(1, 39), (2, 1482)])
def test_leaves_match_copying_reference(n, leaves):
    expected = []
    for gluings, classes in _reference_leaves(n):
        table = tuple(24 * t2 + ALL_PERMS.index(p)
                      for row in gluings for t2, p in row)
        roots = [x for x in range(10 * n) if classes.parent[x] == x]
        e = sum(1 for x in roots if x < 6 * n)
        expected.append((table, e, len(roots) - e))
    got = [(tuple(table), e, v) for table, e, v in census._leaves(n)]
    assert len(got) == leaves
    assert got == expected


@pytest.mark.parametrize("n, leaves", [(1, 39), (2, 1482)])
def test_leaf_count_test_matches_validation(n, leaves):
    seen = 0
    kept = 0
    for table, e, v in census._leaves(n):
        skel = build_skeleton(census._from_form(table))
        report = validate_closed_3manifold(skel)
        assert report.closed and report.valid_edges
        # the links' Euler characteristics sum to at most 2V
        assert skel.v - skel.e + n >= 0
        assert (e, v) == (skel.e, skel.v)
        # enumerate_census's leaf rule
        closed = v - e + n == 0
        assert closed == report.is_closed_3manifold, table
        if closed:
            assert v == skel.v
            kept += 1
        seen += 1
    assert seen == leaves
    assert 0 < kept < leaves


_UNDO_OPS = st.lists(st.one_of(
    st.tuples(st.just("union"), st.integers(0, 11), st.integers(0, 11),
              st.integers(0, 1)),
    st.tuples(st.just("mark")),
    st.tuples(st.just("undo"), st.integers(0, 7))), max_size=60)


@settings(max_examples=300, deadline=None)
@given(_UNDO_OPS)
def test_undo_restores_the_marked_state(ops):
    classes = _UnionFind(12)
    kept = []        # unions in effect, in order
    marks = []       # (trail length, parent, parity, len(kept)) per mark
    for op in ops:
        if op[0] == "union":
            _, x, y, parity = op
            fresh = _UnionFind(12)
            for args in kept:
                fresh.union(*args)
            assert classes.union(x, y, parity) == fresh.union(x, y, parity)
            kept.append((x, y, parity))
        elif op[0] == "mark":
            marks.append((len(classes.trail), classes.parent.copy(),
                          classes.parity.copy(), len(kept)))
        elif marks:
            mark, parent, parity, count = marks[op[1] % len(marks)]
            del marks[op[1] % len(marks) + 1:]
            classes.undo(mark)
            assert (classes.parent, classes.parity) == (parent, parity)
            del kept[count:]
        fresh = _UnionFind(12)
        for args in kept:
            fresh.union(*args)
        assert (classes.parent, classes.parity) == (fresh.parent,
                                                    fresh.parity)
        assert [classes.find(x) for x in range(12)] == [
            fresh.find(x) for x in range(12)]
        assert len(classes.trail) == len(fresh.trail)


def test_canonical_form_matches_reference_under_relabelling():
    rng = random.Random(11)
    for tri in _corpus():
        form = _reference_form(tri)
        assert canonical_form(tri) == form
        for _ in range(3):
            moved = _relabel(tri, rng)
            assert canonical_form(moved) == form == _reference_form(moved)


def test_canonical_form_of_open_and_disconnected_tables():
    tri = parse_triangulation(
        "tri 1\ntet 0: 1:0123 1:0213 - -\ntet 1: 0:0123 - 0:0213 -\n")
    assert canonical_form(tri) == _reference_form(tri)
    assert (-1, -1) in canonical_form(tri)
    apart = parse_triangulation(
        "tri 1\ntet 0: 0:1023 0:1023 0:0132 0:0132\n"
        "tet 1: 1:1023 1:1023 1:0132 1:0132\n")
    with pytest.raises(ValueError):
        canonical_form(apart)


@pytest.mark.parametrize("n, one_vertex, forms", [
    (1, False, 27), (2, False, 224), (1, True, 24), (2, True, 182)])
def test_census_call_counts(monkeypatch, n, one_vertex, forms):
    calls = {"build_skeleton": 0, "_canonical_entries": 0}

    def counted(name):
        original = getattr(census, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(census, name, counted(name))
    list(enumerate_census(n, one_vertex=one_vertex))
    assert calls == {"build_skeleton": 0, "_canonical_entries": forms}
    list(enumerate_census(n, one_vertex=one_vertex, z2_homology_sphere=True))
    assert calls["build_skeleton"] > 0


def _members(n, one_vertex=False, sphere=False, limit=None):
    return [serialise_triangulation(tri) for tri in enumerate_census(
        n, one_vertex=one_vertex, z2_homology_sphere=sphere, limit=limit)]


def test_census_reproduces_the_corpus_and_its_filters():
    texts = {n: [path.read_text() for path in
                 sorted(CORPUS.glob(f"census_t{n}_*.tri"))]
             for n in (1, 2, 3)}
    for n, expected in texts.items():
        assert _members(n) == expected
        skeletons = [build_skeleton(parse_triangulation(t)) for t in expected]
        one_vertex = [t for t, skel in zip(expected, skeletons)
                      if skel.v == 1]
        assert _members(n, one_vertex=True) == one_vertex
        if n == 3:
            continue
        for only_one in (False, True):
            spheres = [t for t, skel in zip(expected, skeletons)
                       if betti_z2(skel, 1) == 0
                       and (skel.v == 1 or not only_one)]
            assert _members(n, only_one, True) == spheres
    for only_one in (False, True):
        for sphere in (False, True):
            full = _members(2, only_one, sphere)
            for k in range(18):
                assert _members(2, only_one, sphere, limit=k) == full[:k]
