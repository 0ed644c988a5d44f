"""The census search: its leaf test, its canonical form and its call counts."""
import random
from pathlib import Path

import pytest

from tvcalc import census
from tvcalc.census import canonical_form, enumerate_census
from tvcalc.triangulation import (
    ALL_PERMS,
    build_skeleton,
    make_triangulation,
    parse_triangulation,
    perm_compose,
    perm_invert,
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


@pytest.mark.parametrize("n, leaves", [(1, 39), (2, 1482)])
def test_leaf_count_test_matches_validation(n, leaves):
    seen = 0
    kept = 0
    for gluings, classes in census._leaves(n):
        skel = build_skeleton(make_triangulation(gluings))
        report = validate_closed_3manifold(skel)
        assert report.closed and report.valid_edges
        # the links' Euler characteristics sum to at most 2V
        assert skel.v - skel.e + n >= 0
        v = census._leaf_vertices(classes, n)
        assert (v is not None) == report.is_closed_3manifold, gluings
        if v is not None:
            assert v == skel.v
            kept += 1
        seen += 1
    assert seen == leaves
    assert 0 < kept < leaves


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
    calls = {"build_skeleton": 0, "canonical_form": 0}

    def counted(name):
        original = getattr(census, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(census, name, counted(name))
    list(enumerate_census(n, one_vertex=one_vertex))
    assert calls == {"build_skeleton": 0, "canonical_form": forms}
    list(enumerate_census(n, one_vertex=one_vertex, z2_homology_sphere=True))
    assert calls["build_skeleton"] > 0
