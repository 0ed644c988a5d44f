"""The census search: its leaves, its leaf test, its canonical form, its
output against the corpus and its call counts; the union-find's union and
undo, and the skeleton loop that shares it."""
import functools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvcalc import census, triangulation
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


def _random_tables(count, seed):
    """Random tables on 1..3 tetrahedra, each a random set of face pairs
    glued by random maps: open, disconnected and edge-reversed ones."""
    rng = random.Random(seed)
    tables = []
    for _ in range(count):
        n = rng.randint(1, 3)
        faces = [(t, f) for t in range(n) for f in range(4)]
        rng.shuffle(faces)
        glued = faces[:2 * rng.randint(0, 2 * n)]
        rows = [[None] * 4 for _ in range(n)]
        for (t, f), (t2, f2) in zip(glued[::2], glued[1::2]):
            p = rng.choice([p for p in ALL_PERMS if p[f] == f2])
            rows[t][f] = (t2, p)
            rows[t2][f2] = (t, perm_invert(p))
        tables.append(make_triangulation(rows))
    return tables


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


def _find_union(classes, x, y, parity=0):
    """Reference: ``_UnionFind.union`` through two ``find`` calls."""
    rx, px = classes.find(x)
    ry, py = classes.find(y)
    if rx == ry:
        return (px ^ py) == parity
    classes.parent[ry] = rx
    classes.parity[ry] = parity ^ px ^ py
    classes.trail.append(ry)
    return True


@settings(max_examples=300, deadline=None)
@given(_UNDO_OPS)
def test_union_matches_find_based_reference(ops):
    classes, reference = _UnionFind(12), _UnionFind(12)
    marks = []
    for op in ops:
        if op[0] == "union":
            _, x, y, parity = op
            assert classes.union(x, y, parity) == _find_union(
                reference, x, y, parity)
        elif op[0] == "mark":
            marks.append(len(classes.trail))
        elif marks:
            mark = marks[op[1] % len(marks)]
            classes.undo(mark)
            reference.undo(mark)
        assert (classes.parent, classes.parity, classes.trail) == (
            reference.parent, reference.parity, reference.trail)


def _two_sided_skeleton(tri):
    """Reference: the unions of ``build_skeleton`` with every gluing
    visited from both of its faces.  Returns (parent, parity) of the
    vertex, edge and triangle union-finds and the reversed edge classes."""
    n = tri.n
    vertices = _UnionFind(4 * n)
    edges = _UnionFind(6 * n)
    triangles = _UnionFind(4 * n)
    reversed_locals = []
    for t, row in enumerate(tri.gluings):
        for face, g in enumerate(row):
            if g is None:
                continue
            t2, p = g
            triangles.union(4 * t + face, 4 * t2 + p[face])
            for u in range(4):
                if u != face:
                    vertices.union(4 * t + u, 4 * t2 + p[u])
            for k, k2, flipped in FACE_EDGE_MAPS[face, p]:
                if not edges.union(6 * t + k, 6 * t2 + k2, flipped):
                    reversed_locals.append(6 * t + k)
    eclass = edges.classes()[0]
    return ([(classes.parent, classes.parity)
             for classes in (vertices, edges, triangles)],
            tuple(sorted({eclass[x] for x in reversed_locals})))


def test_skeleton_matches_two_sided_reference(monkeypatch):
    made = []

    class Recorded(_UnionFind):
        __slots__ = ()

        def __init__(self, size):
            super().__init__(size)
            made.append(self)

    monkeypatch.setattr(triangulation, "_UnionFind", Recorded)
    rng = random.Random(5)
    corpus = _corpus()
    tables = (corpus + [_relabel(tri, rng) for tri in corpus]
              + _random_tables(400, 6))
    open_tables = reversed_tables = 0
    for tri in tables:
        made.clear()
        skel = build_skeleton(tri)
        states, reversed_edges = _two_sided_skeleton(tri)
        assert [(classes.parent, classes.parity)
                for classes in made] == states
        assert skel.reversed_edges == reversed_edges
        open_tables += not tri.is_closed()
        reversed_tables += bool(reversed_edges)
    assert open_tables >= 100 and reversed_tables >= 50


@functools.cache
def _leaf_tables():
    return tuple(census._from_form(tuple(table))
                 for n in (1, 2) for table, _, _ in census._leaves(n))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_entries_match_unpruned_reference(data):
    # census leaves (n <= 2) and corpus tables, relabelled, some with
    # gluings undone; tables the ungluing disconnects must be refused
    tri = data.draw(st.sampled_from(_leaf_tables() + tuple(_corpus())))
    rows = [list(row) for row in tri.gluings]
    for slot in data.draw(st.sets(st.integers(0, 4 * tri.n - 1),
                                  max_size=3)):
        t, f = divmod(slot, 4)
        if rows[t][f] is not None:
            t2, p = rows[t][f]
            rows[t][f] = rows[t2][p[f]] = None
    tri = _relabel(make_triangulation(rows),
                   random.Random(data.draw(st.integers(0, 2 ** 32))))
    if _bfs_relabelling(tri, 0, ALL_PERMS[0]) is None:
        with pytest.raises(ValueError, match="disconnected triangulation"):
            canonical_form(tri)
    else:
        assert canonical_form(tri) == _reference_form(tri)


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
    with pytest.raises(ValueError, match="disconnected triangulation"):
        canonical_form(apart)
    with pytest.raises(ValueError, match="empty triangulation"):
        canonical_form(make_triangulation([]))


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
