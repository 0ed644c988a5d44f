"""Exhaustive census of closed 3-manifold triangulations with few tetrahedra.

Enumerates all connected gluing tables on exactly ``tets`` tetrahedra up to
combinatorial isomorphism, keeping those that triangulate a closed
3-manifold (no free faces, no edge reversed onto itself, all vertex links
spheres).  Intended for desk scale only; the search is a plain backtracking
sweep over face pairings with incremental edge-validity pruning.  That
pruning is the skeleton's own edge rule: each gluing feeds the three edge
pairs of ``FACE_EDGE_MAPS`` into a copy of the parity ``_UnionFind`` that
``build_skeleton`` uses, and a branch ends at the first failed union (an
edge glued to itself in reverse).  The same union-find holds 4n more
elements, one per tetrahedron corner, and each gluing joins the three
corner pairs of the glued face, so its roots count the edges E and the
vertices V of the quotient.

A leaf (every face glued, no edge reversed) is decided by that count
alone, with no skeleton.  It rests on two facts:

* Each vertex link is a closed connected surface, so its Euler
  characteristic is at most 2.  Its corner triangles are paired along
  their sides by the face gluings that define the vertex class, and
  around each edge end they close up into a single cycle, because no
  edge is reversed.
* The links' Euler characteristics sum to 2E - 2n.  Together the links
  have 4n triangles (one per corner), 6n edges (12n sides, paired) and
  2E vertices (the two ends of each edge class).

So the sum is at most 2V, and every link is a sphere exactly when
V - E + n = 0.
"""
from __future__ import annotations

import functools
import itertools

from .homology import betti_z2
from .triangulation import (
    ALL_PERMS,
    FACE_EDGE_MAPS,
    Triangulation,
    _UnionFind,
    build_skeleton,
    make_triangulation,
    perm_compose,
    perm_invert,
)

__all__ = ["enumerate_census", "canonical_form"]

MAX_CENSUS_TETS = 4

@functools.cache
def _perm_tables():
    """Permutations by their index in ALL_PERMS (0 is the identity).

    Returns (index, compose, inverse): index maps a permutation to its
    index, compose[a][b] indexes ALL_PERMS[a] after ALL_PERMS[b], and
    inverse[a] the inverse of ALL_PERMS[a].  Built on first use, as only
    ``canonical_form`` reads them.
    """
    index = {p: i for i, p in enumerate(ALL_PERMS)}
    compose = tuple(tuple(index[perm_compose(p, q)] for q in ALL_PERMS)
                    for p in ALL_PERMS)
    inverse = tuple(index[perm_invert(p)] for p in ALL_PERMS)
    return index, compose, inverse


def _relabelling(targets, perms, n: int, start: int, start_perm: int, best,
                 compose, inverse):
    """The gluing table relabelled from a seed, unless it is above ``best``.

    Tetrahedra are numbered in breadth-first order from ``start``, whose
    vertices are relabelled by ``start_perm``; each tetrahedron met for the
    first time is relabelled so that the gluing reaching it becomes the
    identity.  Entry 4k + f of the result is 24 t2 + (permutation index)
    for face f of new tetrahedron k, or -1 for an unglued face, so the
    entries order as the (t2, index) pairs do.  The walk gives up at the
    first entry above ``best`` and returns None.
    """
    new_index = [-1] * n
    new_index[start] = 0
    relabel = [0] * n      # old tet -> index of its relabelling old -> new
    relabel[start] = start_perm
    order = [start]        # old index of new tet k; grows while iterated
    table = []
    below = best is None
    for old in order:
        rho = relabel[old]
        rho_inv = inverse[rho]
        base = 4 * old
        for old_face in ALL_PERMS[rho_inv]:
            t2 = targets[base + old_face]
            if t2 < 0:
                entry = -1
            else:
                p = perms[base + old_face]
                k = new_index[t2]
                if k < 0:
                    k = new_index[t2] = len(order)
                    order.append(t2)
                    relabel[t2] = compose[rho][inverse[p]]
                    entry = 24 * k
                else:
                    entry = 24 * k + compose[relabel[t2]][
                        compose[p][rho_inv]]
            if not below:
                other = best[len(table)]
                if entry > other:
                    return None
                below = entry < other
            table.append(entry)
    if len(order) != n:
        raise ValueError("disconnected triangulation")
    return table


def canonical_form(tri: Triangulation):
    """Lexicographically minimal relabelled gluing table.

    Minimises over all choices of starting tetrahedron and starting vertex
    permutation; two triangulations are combinatorially isomorphic exactly
    when their canonical forms agree (connected case).  The form is a
    tuple of (t2, index in ALL_PERMS) pairs, (-1, -1) for an unglued face.
    """
    index, compose, inverse = _perm_tables()
    targets = [-1 if g is None else g[0] for row in tri.gluings for g in row]
    perms = [0 if g is None else index[g[1]]
             for row in tri.gluings for g in row]
    best = None
    for start in range(tri.n):
        for start_perm in range(len(ALL_PERMS)):
            table = _relabelling(targets, perms, tri.n, start, start_perm,
                                 best, compose, inverse)
            if table is not None:
                best = table
    if best is None:
        raise ValueError("empty triangulation")
    return tuple((-1, -1) if e < 0 else divmod(e, 24) for e in best)


def _from_form(sig) -> Triangulation:
    """The gluing table a canonical form describes."""
    return make_triangulation(
        [[None if t2 < 0 else (t2, ALL_PERMS[pidx])
          for t2, pidx in sig[4 * t:4 * t + 4]]
         for t in range(len(sig) // 4)])


# Permutations gluing face f onto face f2: the three vertices of face f in
# ascending order map onto the vertices of face f2 in each of six orders.
def _face_gluing_perms(f: int, f2: int):
    src = [u for u in range(4) if u != f]
    for image in itertools.permutations([u for u in range(4) if u != f2]):
        p = [0, 0, 0, 0]
        p[f] = f2
        for u, iu in zip(src, image):
            p[u] = iu
        yield tuple(p)


_PERMS_BY_FACES = {
    (f, f2): tuple(_face_gluing_perms(f, f2))
    for f in range(4) for f2 in range(4)
}


def _leaves(n: int):
    """Yield (gluings, classes) at every closed, edge-valid gluing table.

    ``gluings`` is the search's own table and ``classes`` its union-find:
    edges 6t + k, then corners 6n + 4t + u.  Both change once the search
    resumes, so read them before asking for the next leaf.
    """
    gluings = [[None] * 4 for _ in range(n)]
    corners = 6 * n

    def candidates(used):
        # first unglued face
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
                for p in _PERMS_BY_FACES[(f, f2)]:
                    opts.append((t2, p))
        if used < n:
            # a brand new tetrahedron: all 96 (face, permutation) choices
            # are equivalent under its relabelling, so fix the identity
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
            branch = state.copy()
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


def _leaf_vertices(classes: _UnionFind, n: int):
    """V if the leaf triangulates a closed 3-manifold, else None.

    Counts the roots of the edge and corner elements; every vertex link
    is a sphere exactly when V - E + n = 0 (see the module docstring).
    """
    parent = classes.parent
    edges = sum(1 for x in range(6 * n) if parent[x] == x)
    vertices = sum(1 for x in range(6 * n, 10 * n) if parent[x] == x)
    return vertices if vertices - edges + n == 0 else None


def enumerate_census(tets: int, one_vertex: bool = False,
                     z2_homology_sphere: bool = False,
                     limit: int | None = None):
    """Yield the closed-3-manifold census on exactly ``tets`` tetrahedra.

    Output is up to combinatorial isomorphism, each member given in its
    canonical labelling, in a deterministic discovery order.  Filters:
    ``one_vertex`` keeps single-vertex triangulations, ``z2_homology_sphere``
    keeps those with trivial first Z/2 homology.  ``limit`` stops after
    that many results, which keeps partial sweeps at the largest sizes
    affordable.
    """
    if not (1 <= tets <= MAX_CENSUS_TETS):
        raise ValueError(
            f"census supports 1..{MAX_CENSUS_TETS} tetrahedra, got {tets}")
    seen: set = set()
    for gluings, classes in _leaves(tets):
        if limit is not None and len(seen) >= limit:
            return
        # both filters test isomorphism invariants, so they run before the
        # canonical form
        v = _leaf_vertices(classes, tets)
        if v is None or (one_vertex and v != 1):
            continue
        tri = make_triangulation(gluings)
        if z2_homology_sphere and betti_z2(build_skeleton(tri), 1) != 0:
            continue
        key = canonical_form(tri)
        if key in seen:
            continue
        seen.add(key)
        yield _from_form(key)
