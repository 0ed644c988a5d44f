"""Exhaustive census of closed 3-manifold triangulations with few tetrahedra.

Enumerates all connected gluing tables on exactly ``tets`` tetrahedra up to
combinatorial isomorphism, keeping those that triangulate a closed
3-manifold (no free faces, no edge reversed onto itself, all vertex links
spheres).  Intended for desk scale only; the search is a plain backtracking
sweep over face pairings with incremental edge-validity pruning.  That
pruning is the skeleton's own edge rule: each gluing feeds the three edge
pairs of ``FACE_EDGE_MAPS`` into a copy of the parity ``_UnionFind`` that
``build_skeleton`` uses, and a branch ends at the first failed union (an
edge glued to itself in reverse).
"""
from __future__ import annotations

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
    validate_closed_3manifold,
)

__all__ = ["enumerate_census", "canonical_form"]

MAX_CENSUS_TETS = 3


def _bfs_relabelling(tri: Triangulation, start: int, start_perm):
    """Relabel tetrahedra/vertices from a seed, making met gluings identity.

    Returns the relabelled gluing table as a flat tuple signature, or None
    if the triangulation is disconnected from the seed.
    """
    n = tri.n
    order = [start]            # old index of new tet k
    perms = {start: start_perm}   # old tet -> permutation old labels -> new
    new_index = {start: 0}
    table = []
    k = 0
    while k < len(order):
        old_t = order[k]
        rho = perms[old_t]
        rho_inv = perm_invert(rho)
        for new_face in range(4):
            old_face = rho_inv[new_face]
            g = tri.gluings[old_t][old_face]
            if g is None:
                table.append((-1, -1))
                continue
            t2, p = g
            if t2 not in new_index:
                new_index[t2] = len(order)
                order.append(t2)
                # choose the target labelling that turns this gluing into
                # the identity permutation
                perms[t2] = perm_compose(rho, perm_invert(p))
            sig = perm_compose(perms[t2], perm_compose(p, rho_inv))
            table.append((new_index[t2], ALL_PERMS.index(sig)))
        k += 1
    if len(order) != n:
        return None
    return tuple(table)


def canonical_form(tri: Triangulation):
    """Lexicographically minimal relabelled gluing table.

    Minimises over all choices of starting tetrahedron and starting vertex
    permutation; two triangulations are combinatorially isomorphic exactly
    when their canonical forms agree (connected case).
    """
    best = None
    for start in range(tri.n):
        for perm in ALL_PERMS:
            sig = _bfs_relabelling(tri, start, perm)
            if sig is not None and (best is None or sig < best):
                best = sig
    if best is None:
        raise ValueError("disconnected triangulation")
    return best


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
    n = tets
    gluings = [[None] * 4 for _ in range(n)]
    seen: set = set()
    emitted = 0

    def candidates(state, used):
        # first unglued face
        spot = None
        for t in range(used):
            for f in range(4):
                if gluings[t][f] is None:
                    spot = (t, f)
                    break
            if spot:
                break
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

    def emit(tri):
        nonlocal emitted
        skel = build_skeleton(tri)
        if not validate_closed_3manifold(skel).is_closed_3manifold:
            return None
        # both filters test isomorphism invariants, so they may run first
        if one_vertex and skel.v != 1:
            return None
        if z2_homology_sphere and betti_z2(skel, 1) != 0:
            return None
        key = canonical_form(tri)
        if key in seen:
            return None
        seen.add(key)
        emitted += 1
        return _from_form(key)

    def search(state, used):
        nonlocal emitted
        if limit is not None and emitted >= limit:
            return
        spot, opts = candidates(state, used)
        if spot is None:
            if used == n:
                tri = make_triangulation(gluings)
                result = emit(tri)
                if result is not None:
                    yield result
            return
        t, f = spot
        for t2, p in opts:
            f2 = p[f]
            branch = state.copy()
            if not all(branch.union(6 * t + k, 6 * t2 + k2, flipped)
                       for k, k2, flipped in FACE_EDGE_MAPS[f, p]):
                continue
            gluings[t][f] = (t2, p)
            gluings[t2][f2] = (t, perm_invert(p))
            yield from search(branch, max(used, t2 + 1))
            gluings[t][f] = None
            gluings[t2][f2] = None
            if limit is not None and emitted >= limit:
                return

    yield from search(_UnionFind(6 * n), 1)
