"""Exhaustive census of closed 3-manifold triangulations with few tetrahedra.

Enumerates all connected gluing tables on exactly ``tets`` tetrahedra up to
combinatorial isomorphism, keeping those that triangulate a closed
3-manifold (no free faces, no edge reversed onto itself, all vertex links
spheres).  Intended for desk scale only; the search is a plain backtracking
sweep over face pairings with incremental edge-validity pruning.  That
pruning is the skeleton's own edge rule: each gluing feeds the three edge
pairs of ``FACE_EDGE_MAPS`` into the parity ``_UnionFind`` that
``build_skeleton`` uses, and a branch ends at the first failed union (an
edge glued to itself in reverse).  A second union-find holds the 4n
tetrahedron corners, and each gluing joins the three corner pairs of the
glued face.  Both are changed in place and undone to their trail marks on
backtrack, so E and V of the quotient are the element counts less the
trail lengths.

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
V - E + n = 0.  Leaves that pass are keyed by the canonical form of the
search's own table, and a ``Triangulation`` is built only for a new class.
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
    the canonical form and the census read them.
    """
    index = {p: i for i, p in enumerate(ALL_PERMS)}
    compose = tuple(tuple(index[perm_compose(p, q)] for q in ALL_PERMS)
                    for p in ALL_PERMS)
    inverse = tuple(index[perm_invert(p)] for p in ALL_PERMS)
    return index, compose, inverse


def _relabelling(table, n: int, start: int, start_perm: int, best,
                 compose, inverse):
    """The gluing table relabelled from a seed, unless it is above ``best``.

    Tetrahedra are numbered in breadth-first order from ``start``, whose
    vertices are relabelled by ``start_perm``; each tetrahedron met for the
    first time is relabelled so that the gluing reaching it becomes the
    identity.  Entry 4k + f of the result is 24 t2 + (permutation index)
    for face f of new tetrahedron k, or -1 for an unglued face, so the
    entries order as the (t2, index) pairs do; ``table`` is in the same
    encoding.  The walk gives up at the first entry above ``best`` and
    returns None.
    """
    new_index = [-1] * n
    new_index[start] = 0
    relabel = [0] * n      # old tet -> index of its relabelling old -> new
    relabel[start] = start_perm
    order = [start]        # old index of new tet k; grows while iterated
    out = []
    below = best is None
    for old in order:
        rho = relabel[old]
        rho_inv = inverse[rho]
        base = 4 * old
        for old_face in ALL_PERMS[rho_inv]:
            glued = table[base + old_face]
            if glued < 0:
                entry = -1
            else:
                t2, p = divmod(glued, 24)
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
                other = best[len(out)]
                if entry > other:
                    return None
                below = entry < other
            out.append(entry)
    if len(order) != n:
        raise ValueError("disconnected triangulation")
    return out


def _canonical_entries(table, n: int):
    """The least relabelling of a table of 24 t2 + index entries.

    Minimises over all choices of starting tetrahedron and starting vertex
    permutation; see ``_relabelling`` for the encoding.  The first entry
    of a relabelling is a table read: from start s with permutation rho,
    face rho^-1(0) of s, glued to (t2, p), gives the index of
    rho p rho^-1 when t2 = s, 24 (new tetrahedron 1) when t2 != s and
    -1 when unglued.  Tables order lexicographically, so only the starts
    with the least first entry can give the minimum, and only they are
    relabelled.
    """
    _, compose, inverse = _perm_tables()
    firsts = []
    for start in range(n):
        base = 4 * start
        for rho, rho_inv in enumerate(inverse):
            glued = table[base + ALL_PERMS[rho_inv][0]]
            if glued < 0:
                firsts.append(-1)
            elif glued // 24 == start:
                firsts.append(compose[rho][compose[glued % 24][rho_inv]])
            else:
                firsts.append(24)
    if not firsts:
        raise ValueError("empty triangulation")
    least = min(firsts)
    best = None
    for i, first in enumerate(firsts):
        if first == least:
            out = _relabelling(table, n, i // 24, i % 24, best, compose,
                               inverse)
            if out is not None:
                best = out
    return best


def canonical_form(tri: Triangulation):
    """Lexicographically minimal relabelled gluing table.

    Minimises over all choices of starting tetrahedron and starting vertex
    permutation; two triangulations are combinatorially isomorphic exactly
    when their canonical forms agree (connected case).  The form is a
    tuple of (t2, index in ALL_PERMS) pairs, (-1, -1) for an unglued face.
    """
    index = _perm_tables()[0]
    table = [-1 if g is None else 24 * g[0] + index[g[1]]
             for row in tri.gluings for g in row]
    return tuple((-1, -1) if e < 0 else divmod(e, 24)
                 for e in _canonical_entries(table, tri.n))


def _from_form(table) -> Triangulation:
    """The triangulation a table of 24 t2 + index entries describes."""
    return make_triangulation(
        [[None if e < 0 else (e // 24, ALL_PERMS[e % 24])
          for e in table[4 * t:4 * t + 4]]
         for t in range(len(table) // 4)])


# Permutations gluing face f onto face f2: the three vertices of face f in
# ascending order map onto the vertices of face f2 in each of six orders,
# the first of them the order-preserving one.
def _face_gluing_perms(f: int, f2: int):
    src = [u for u in range(4) if u != f]
    for image in itertools.permutations([u for u in range(4) if u != f2]):
        p = [0, 0, 0, 0]
        p[f] = f2
        for u, iu in zip(src, image):
            p[u] = iu
        yield tuple(p)


@functools.cache
def _moves(n: int):
    """Every gluing of face slot a = 4t + f onto a later slot b = 4t2 + f2.

    ``moves[a][b]`` lists, in the order of ``_face_gluing_perms(f, f2)``,
    (permutation index, index of its inverse, the three edge unions
    (6t + k, 6t2 + k2, flipped), the three corner unions (4t + u,
    4t2 + p[u])).  When b is face f of a later tetrahedron the first move
    is the identity.
    """
    index = _perm_tables()[0]
    moves = [[()] * (4 * n) for _ in range(4 * n)]
    for a in range(4 * n):
        t, f = divmod(a, 4)
        for b in range(a + 1, 4 * n):
            t2, f2 = divmod(b, 4)
            moves[a][b] = tuple(
                (index[p], index[perm_invert(p)],
                 tuple((6 * t + k, 6 * t2 + k2, flipped)
                       for k, k2, flipped in FACE_EDGE_MAPS[f, p]),
                 tuple((4 * t + u, 4 * t2 + p[u]) for u in range(4) if u != f))
                for p in _face_gluing_perms(f, f2))
    return moves


def _leaves(n: int):
    """Yield (table, E, V) at every closed, edge-valid gluing table.

    ``table`` is the search's own gluing table, in the encoding of
    ``_canonical_entries``; E and V count the edge and vertex classes.
    The table changes once the search resumes, so read it before asking
    for the next leaf.

    Each step glues the first unglued face a onto a later unglued face of
    a tetrahedron in use, or onto the same face of the next tetrahedron by
    the identity: all 96 (face, permutation) choices for a brand new
    tetrahedron are equivalent under its relabelling.  One frame per glued
    face sits on ``stack``: [a, tetrahedra in use, the moves left to try,
    slot b of the move being tried or -1, edge and corner trail marks].
    """
    size = 4 * n
    moves = _moves(n)
    table = [-1] * size
    edges = _UnionFind(6 * n)
    corners = _UnionFind(4 * n)
    edge_trail, corner_trail = edges.trail, corners.trail
    edge_union, corner_union = edges.union, corners.union

    def frame(a, used):
        row = moves[a]
        opts = [(b, move) for b in range(a + 1, 4 * used) if table[b] < 0
                for move in row[b]]
        if used < n:
            b = 4 * used + (a & 3)
            opts.append((b, row[b][0]))
        return [a, used, iter(opts), -1, len(edge_trail), len(corner_trail)]

    stack = [frame(0, 1)]
    while stack:
        top = stack[-1]
        a, used, opts, b, edge_mark, corner_mark = top
        if b >= 0:
            table[a] = table[b] = -1
            edges.undo(edge_mark)
            corners.undo(corner_mark)
        # take the next move whose edge unions all hold
        for b, (pidx, inverse, edge_unions, corner_unions) in opts:
            for x, y, flipped in edge_unions:
                if not edge_union(x, y, flipped):
                    break
            else:
                break
            edges.undo(edge_mark)
        else:
            stack.pop()
            continue
        top[3] = b
        for x, y in corner_unions:
            corner_union(x, y)
        t2 = b >> 2
        table[a] = 24 * t2 + pidx
        table[b] = 24 * (a >> 2) + inverse
        used = max(used, t2 + 1)
        c = a + 1
        while c < 4 * used and table[c] >= 0:
            c += 1
        if c < 4 * used:
            stack.append(frame(c, used))
        elif used == n:
            yield table, 6 * n - len(edge_trail), size - len(corner_trail)
        # else a closed piece on fewer than n tetrahedra: no connected table


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
    emitted = 0
    for table, e, v in _leaves(tets):
        if limit is not None and emitted >= limit:
            return
        # every vertex link is a sphere (see the module docstring)
        if v - e + tets != 0 or (one_vertex and v != 1):
            continue
        key = tuple(_canonical_entries(table, tets))
        if key in seen:
            continue
        # seen holds every class met, kept or not, so betti_z2 runs once
        # per class
        seen.add(key)
        tri = _from_form(key)
        if z2_homology_sphere and betti_z2(build_skeleton(tri), 1) != 0:
            continue
        emitted += 1
        yield tri
