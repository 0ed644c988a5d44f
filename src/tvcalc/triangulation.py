"""Generalised triangulations of 3-manifolds, given by face gluing tables.

A triangulation consists of n abstract tetrahedra with vertices labelled
0..3.  Face f of a tetrahedron is the face opposite vertex f.  Faces are
glued in pairs: a gluing of face f of tetrahedron t to tetrahedron t2 is
recorded as a permutation p of {0,1,2,3} mapping the vertices of t to the
vertices of t2, with p[f] naming the matching face of t2.  Gluings are
involutive, and a face is never glued to itself.

The quotient identifies tetrahedron vertices, edges and triangles into
equivalence classes; the skeleton computed here records those classes
together with edge orientations, which is everything the homology and
colouring machinery needs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

__all__ = [
    "ALL_PERMS",
    "EDGE_VERTICES",
    "EDGE_INDEX",
    "FACE_EDGES",
    "FACE_EDGE_MAPS",
    "GluingError",
    "ParseError",
    "Triangulation",
    "Skeleton",
    "ValidityReport",
    "parse_triangulation",
    "serialise_triangulation",
    "build_skeleton",
    "validate_closed_3manifold",
    "pachner_23",
    "perm_compose",
    "perm_invert",
]

Perm = tuple  # tuple of 4 ints, images of 0..3


def perm_compose(p: Perm, q: Perm) -> Perm:
    """Composition p after q: i -> p[q[i]]."""
    return (p[q[0]], p[q[1]], p[q[2]], p[q[3]])


def perm_invert(p: Perm) -> Perm:
    inv = [0, 0, 0, 0]
    for i in range(4):
        inv[p[i]] = i
    return tuple(inv)


ALL_PERMS: tuple[Perm, ...] = tuple(itertools.permutations(range(4)))

# Local edges of a tetrahedron, indexed 0..5 by their vertex pairs.
EDGE_VERTICES: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
EDGE_INDEX: dict[tuple[int, int], int] = {}
for _k, (_u, _v) in enumerate(EDGE_VERTICES):
    EDGE_INDEX[(_u, _v)] = _k
    EDGE_INDEX[(_v, _u)] = _k

# The three edges lying on face f (the edges avoiding vertex f).
FACE_EDGES: tuple[tuple[int, int, int], ...] = tuple(
    tuple(k for k, (u, v) in enumerate(EDGE_VERTICES) if f not in (u, v))
    for f in range(4))

# Gluing face f by p joins each edge k on f to edge EDGE_INDEX[(p[u], p[v])];
# flipped is 1 when p reverses the edge's ascending vertex order.  Keyed by
# (f, p), this one table is the edge rule of the skeleton and the census.
FACE_EDGE_MAPS: dict = {
    (f, p): tuple((k, EDGE_INDEX[(p[u], p[v])], int(p[u] > p[v]))
                  for k, (u, v) in enumerate(EDGE_VERTICES) if f not in (u, v))
    for f in range(4) for p in ALL_PERMS}


class ParseError(ValueError):
    """Raised for malformed gluing-table text; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GluingError(ValueError):
    """A fault in the row of tetrahedron ``tet`` of a gluing table."""

    def __init__(self, tet: int, message: str):
        super().__init__(message)
        self.tet = tet


@dataclass(frozen=True)
class Triangulation:
    """An immutable gluing table.

    gluings[t][f] is None for an unglued face, else a pair (t2, p) with p a
    vertex permutation taking face f of t to face p[f] of t2.
    """

    gluings: tuple

    def __post_init__(self):
        for t, row in enumerate(self.gluings):
            if len(row) != 4:
                raise GluingError(t, f"tetrahedron {t}: expected 4 faces")
            for f, g in enumerate(row):
                if g is None:
                    continue
                t2, p = g
                if not (0 <= t2 < len(self.gluings)):
                    raise GluingError(t, f"tetrahedron {t} face {f}: "
                                         f"target {t2} out of range")
                if sorted(p) != [0, 1, 2, 3]:
                    raise GluingError(t, f"tetrahedron {t} face {f}: "
                                         "not a permutation")
                f2 = p[f]
                if t2 == t and f2 == f:
                    raise GluingError(t, f"tetrahedron {t} face {f}: "
                                         "glued to itself")
                back = self.gluings[t2][f2]
                if back is None or back[0] != t or back[1] != perm_invert(p):
                    raise GluingError(t, f"tetrahedron {t} face {f}: "
                                         "gluing not involutive")

    @property
    def n(self) -> int:
        return len(self.gluings)

    def is_closed(self) -> bool:
        return all(g is not None for row in self.gluings for g in row)

    def unglued_faces(self) -> list:
        return [(t, f) for t, row in enumerate(self.gluings)
                for f, g in enumerate(row) if g is None]


def make_triangulation(glu_lists) -> Triangulation:
    """Build a Triangulation from nested lists, freezing them to tuples."""
    rows = []
    for row in glu_lists:
        rows.append(tuple(
            None if g is None else (g[0], tuple(g[1])) for g in row))
    return Triangulation(tuple(rows))


# ---------------------------------------------------------------------------
# gluing-table text format


def parse_triangulation(text: str) -> Triangulation:
    """Parse the plain-text gluing-table format.

    First meaningful line is the header ``tri 1``; then one line per
    tetrahedron, ``tet <i>: <g0> <g1> <g2> <g3>`` where each ``<gf>`` is
    either ``-`` (unglued) or ``<j>:<p0p1p2p3>``.  ``#`` starts a comment.
    """
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((number, stripped))
    if not lines:
        raise ParseError("empty table", 1)
    number, header = lines[0]
    if header != "tri 1":
        raise ParseError(f"expected header 'tri 1', got {header!r}", number)

    rows = []
    row_lines = []
    for expect, (number, line) in enumerate(lines[1:]):
        head, _, rest = line.partition(":")
        parts = head.split()
        if len(parts) != 2 or parts[0] != "tet":
            raise ParseError(f"expected 'tet {expect}: ...'", number)
        try:
            index = int(parts[1])
        except ValueError:
            raise ParseError(f"bad tetrahedron index {parts[1]!r}", number)
        if index != expect:
            raise ParseError(
                f"tetrahedron lines out of order: got {index}, "
                f"expected {expect}", number)
        entries = rest.split()
        if len(entries) != 4:
            raise ParseError(
                f"expected 4 face entries, got {len(entries)}", number)
        row = []
        for f, entry in enumerate(entries):
            if entry == "-":
                row.append(None)
                continue
            target, _, permtext = entry.partition(":")
            try:
                t2 = int(target)
            except ValueError:
                raise ParseError(f"bad face entry {entry!r}", number)
            if len(permtext) != 4 or not permtext.isdigit():
                raise ParseError(f"bad permutation in {entry!r}", number)
            p = tuple(int(c) for c in permtext)
            if sorted(p) != [0, 1, 2, 3]:
                raise ParseError(f"not a permutation in {entry!r}", number)
            row.append((t2, p))
        rows.append(tuple(row))
        row_lines.append(number)

    n = len(rows)
    for t, row in enumerate(rows):
        for f, g in enumerate(row):
            if g is not None and not (0 <= g[0] < n):
                raise ParseError(
                    f"tetrahedron {t} face {f}: target {g[0]} out of range",
                    row_lines[t])
    try:
        return Triangulation(tuple(rows))
    except GluingError as exc:
        raise ParseError(str(exc), row_lines[exc.tet])


def serialise_triangulation(tri: Triangulation) -> str:
    """Emit the canonical text form; parse . serialise is the identity."""
    out = ["tri 1"]
    for t, row in enumerate(tri.gluings):
        cells = []
        for g in row:
            if g is None:
                cells.append("-")
            else:
                t2, p = g
                cells.append(f"{t2}:{''.join(str(i) for i in p)}")
        out.append(f"tet {t}: " + " ".join(cells))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# union-find


class _UnionFind:
    """Union-find with a parity bit per element and an undo trail.

    An element's parity is relative to its parent, so the XOR along its
    path is its parity against the root.  Joining two elements of one
    class with a parity that disagrees fails; for edges that is an edge
    glued to itself in reverse.

    Each successful merge attaches one root to another and appends it to
    ``trail``, so the number of classes is ``len(parent) - len(trail)``.
    There is no path compression: a merge changes only the root it
    attaches, and ``undo(mark)`` detaches roots back to a trail length,
    restoring ``parent`` and ``parity`` exactly.  The census backtracks
    on that.
    """

    __slots__ = ("parent", "parity", "trail")

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.parity = [0] * size
        self.trail = []

    def find(self, x: int):
        """(root, parity of x against the root)."""
        p = 0
        while self.parent[x] != x:
            p ^= self.parity[x]
            x = self.parent[x]
        return x, p

    def union(self, x: int, y: int, parity: int = 0) -> bool:
        """Merge; False on a parity conflict.

        Root y goes under root x with parity ``parity ^ px ^ py``, px and
        py being x's and y's parities against their roots.  Both paths
        are walked here, not through ``find``: this is the census' inner
        loop.
        """
        parent, bits = self.parent, self.parity
        up = parent[x]
        while up != x:
            parity ^= bits[x]
            x = up
            up = parent[x]
        up = parent[y]
        while up != y:
            parity ^= bits[y]
            y = up
            up = parent[y]
        if x == y:
            return not parity
        parent[y] = x
        bits[y] = parity
        self.trail.append(y)
        return True

    def undo(self, mark: int) -> None:
        """Detach the roots merged after the trail had ``mark`` entries."""
        parent, parity, trail = self.parent, self.parity, self.trail
        while len(trail) > mark:
            root = trail.pop()
            parent[root] = root
            parity[root] = 0

    def classes(self):
        """Class ids in first-appearance order; returns (ids, count)."""
        ids = [-1] * len(self.parent)
        seen: dict[int, int] = {}
        for x in range(len(self.parent)):
            root = self.find(x)[0]
            if root not in seen:
                seen[root] = len(seen)
            ids[x] = seen[root]
        return ids, len(seen)


# ---------------------------------------------------------------------------
# skeleton


@dataclass(frozen=True)
class Skeleton:
    """Vertex/edge/triangle classes of a triangulation's quotient space."""

    triangulation: Triangulation
    vertex_class: tuple      # 4n entries, index 4t+u
    edge_class: tuple        # 6n entries, index 6t+e
    edge_sign: tuple         # +1/-1 vs the class orientation (valid edges)
    triangle_class: tuple    # 4n entries, index 4t+f
    v: int
    e: int
    f: int
    # Edge classes glued to themselves in reverse, ascending.  Such a class
    # has one edge end (tail = head below); every other class has two.
    reversed_edges: tuple
    tet_edge_classes: tuple        # per tet, classes of edges 01,02,03,12,13,23
    triangle_edge_classes: tuple   # per triangle class, its 3 edge classes
    edge_endpoints: tuple          # per edge class, (tail, head) vertex classes
    # facts built from the classes above (validity, cocycle basis,
    # plans), filled by ``colourings._derived``; not part of the value
    derived: dict = field(default_factory=dict, compare=False, hash=False,
                          repr=False)

    @property
    def n(self) -> int:
        return self.triangulation.n

    @property
    def valid_edges(self) -> bool:
        return not self.reversed_edges


def build_skeleton(tri: Triangulation) -> Skeleton:
    n = tri.n
    vertices = _UnionFind(4 * n)
    edges = _UnionFind(6 * n)
    triangles = _UnionFind(4 * n)
    reversed_locals = []   # local edges whose gluing union failed

    for t, row in enumerate(tri.gluings):
        for face, g in enumerate(row):
            if g is None:
                continue
            t2, p = g
            # each gluing is visited from its earlier face only: from the
            # later one every union is a no-op, and a failed edge union
            # would report an edge of a class already reported
            if 4 * t2 + p[face] < 4 * t + face:
                continue
            triangles.union(4 * t + face, 4 * t2 + p[face])
            for u in range(4):
                if u != face:
                    vertices.union(4 * t + u, 4 * t2 + p[u])
            for k, k2, flipped in FACE_EDGE_MAPS[face, p]:
                if not edges.union(6 * t + k, 6 * t2 + k2, flipped):
                    reversed_locals.append(6 * t + k)

    vclass, v = vertices.classes()
    eclass, e = edges.classes()
    fclass, f = triangles.classes()

    reversed_edges = tuple(sorted({eclass[x] for x in reversed_locals}))
    esign = tuple(-1 if edges.find(x)[1] else 1 for x in range(6 * n))

    tet_edges = tuple(
        tuple(eclass[6 * t + k] for k in range(6)) for t in range(n))

    tri_rep = [-1] * f
    for local in range(4 * n):
        c = fclass[local]
        if tri_rep[c] < 0:
            tri_rep[c] = local
    tri_edges = []
    for c in range(f):
        t, face = divmod(tri_rep[c], 4)
        tri_edges.append(tuple(eclass[6 * t + k] for k in FACE_EDGES[face]))

    # Orient each edge class by its union-find root representative.
    endpoints = [None] * e
    for t in range(n):
        for k in range(6):
            local = 6 * t + k
            if edges.parent[local] == local:
                u, w = EDGE_VERTICES[k]
                endpoints[eclass[local]] = (vclass[4 * t + u],
                                            vclass[4 * t + w])

    return Skeleton(
        triangulation=tri,
        vertex_class=tuple(vclass),
        edge_class=tuple(eclass),
        edge_sign=esign,
        triangle_class=tuple(fclass),
        v=v, e=e, f=f,
        reversed_edges=reversed_edges,
        tet_edge_classes=tet_edges,
        triangle_edge_classes=tuple(tri_edges),
        edge_endpoints=tuple(endpoints),
    )


# ---------------------------------------------------------------------------
# validity


@dataclass(frozen=True)
class ValidityReport:
    closed: bool
    valid_edges: bool
    vertex_links_are_spheres: bool
    messages: tuple

    @property
    def is_closed_3manifold(self) -> bool:
        return (self.closed and self.valid_edges
                and self.vertex_links_are_spheres)


def _vertex_link_data(skel: Skeleton):
    """Per vertex class: (faces, edges, vertices, unglued sides) of its link.

    The link of a vertex class is a surface with one corner triangle per
    tetrahedron corner in the class.  A corner triangle has three sides,
    one in each tetrahedron face at the corner; the face gluings pair up
    the glued sides, so the link has (3 faces - unglued sides) / 2 edges.
    Its vertices are the edge ends at the class: two per edge class, one
    per reversed edge class, whose ends are identified.  The link is
    connected: its corners are joined across exactly the face gluings
    that define the vertex class.
    """
    faces = [0] * skel.v
    unglued = [0] * skel.v
    verts = [0] * skel.v
    for vc in skel.vertex_class:
        faces[vc] += 1
    for t, face in skel.triangulation.unglued_faces():
        for u in range(4):
            if u != face:
                unglued[skel.vertex_class[4 * t + u]] += 1
    reversed_edges = set(skel.reversed_edges)
    for c, (tail, head) in enumerate(skel.edge_endpoints):
        verts[tail] += 1
        if c not in reversed_edges:
            verts[head] += 1
    return [(faces[vc], (3 * faces[vc] - unglued[vc]) // 2, verts[vc],
             unglued[vc]) for vc in range(skel.v)]


def validate_closed_3manifold(skel: Skeleton) -> ValidityReport:
    """Check the three conditions for underlying a closed 3-manifold."""
    tri = skel.triangulation
    messages = []
    closed = tri.is_closed()
    if not closed:
        messages.append(
            f"{len(tri.unglued_faces())} unglued face(s)")
    valid_edges = skel.valid_edges
    if not valid_edges:
        messages.append("an edge is identified with itself in reverse")

    links_ok = True
    for vc, (faces, edges, verts, unglued) in enumerate(
            _vertex_link_data(skel)):
        if unglued:
            links_ok = False
            messages.append(f"vertex {vc}: link has boundary")
            continue
        euler = verts - edges + faces
        if euler != 2:
            links_ok = False
            messages.append(
                f"vertex {vc}: link has euler characteristic {euler} "
                "in 1 component(s)")
    return ValidityReport(closed, valid_edges, links_ok, tuple(messages))


# ---------------------------------------------------------------------------
# 2-3 move


def pachner_23(tri: Triangulation, triangle_class: int) -> Triangulation:
    """Replace the two tetrahedra around an internal triangle by three.

    The given triangle class must be a face glued between two *distinct*
    tetrahedra; anything else is rejected.  The result triangulates the
    same manifold with one extra tetrahedron, one extra edge and two extra
    triangles.
    """
    skel = build_skeleton(tri)
    if not (0 <= triangle_class < skel.f):
        raise ValueError(f"no triangle class {triangle_class}")
    locs = [i for i, c in enumerate(skel.triangle_class)
            if c == triangle_class]
    if len(locs) != 2:
        raise ValueError("triangle is on the boundary")
    t0, f0 = divmod(locs[0], 4)
    t1_, f1_ = divmod(locs[1], 4)
    if t0 == t1_:
        raise ValueError("triangle has the same tetrahedron on both sides")
    g = tri.gluings[t0][f0]
    t1, sigma = g
    f1 = sigma[f0]

    eq = sorted(u for u in range(4) if u != f0)   # equatorial vertices in t0
    n = tri.n

    # New tetrahedron k (k = 0,1,2) has local vertices
    #   0 -> apex f0 of t0, 1 -> apex f1 of t1,
    #   2 -> eq[k] of t0,   3 -> eq[k+1] of t0.
    # Face 1 of new tet k replaces face eq[k+2] of t0 (map mu into t0);
    # face 0 replaces face sigma[eq[k+2]] of t1 (map nu into t1).
    mu, nu = [], []
    for k in range(3):
        a, b, c = eq[k], eq[(k + 1) % 3], eq[(k + 2) % 3]
        m = [0, 0, 0, 0]
        m[0], m[1], m[2], m[3] = f0, c, a, b
        mu.append(tuple(m))
        nn = [0, 0, 0, 0]
        nn[0], nn[1], nn[2], nn[3] = sigma[c], f1, sigma[a], sigma[b]
        nu.append(tuple(nn))

    # Old boundary faces of the bipyramid -> (new tet, new face, map into old)
    replaced = {}
    for k in range(3):
        c = eq[(k + 2) % 3]
        replaced[(t0, c)] = (k, 1, mu[k])
        replaced[(t1, sigma[c])] = (k, 0, nu[k])

    def relabel(t: int) -> int:
        # old tetrahedra keep their order with t0, t1 removed; new tets at end
        return t - sum(1 for s in (t0, t1) if s < t)

    new_n = n + 1
    glu = [[None] * 4 for _ in range(new_n)]

    for t in range(n):
        if t in (t0, t1):
            continue
        for face in range(4):
            old = tri.gluings[t][face]
            if old is None:
                continue
            t2, p = old
            if (t2, p[face]) in replaced:
                k, fnew, m = replaced[(t2, p[face])]
                minv = perm_invert(m)
                glu[relabel(t)][face] = (n - 2 + k, perm_compose(minv, p))
            else:
                glu[relabel(t)][face] = (relabel(t2), p)

    for (told, fold), (k, fnew, m) in replaced.items():
        old = tri.gluings[told][fold]
        t2, p = old   # closedness of this face is implied by the gluing g
        comp = perm_compose(p, m)
        if (t2, p[fold]) in replaced:
            k2, fnew2, m2 = replaced[(t2, p[fold])]
            glu[n - 2 + k][fnew] = (n - 2 + k2,
                                    perm_compose(perm_invert(m2), comp))
        else:
            glu[n - 2 + k][fnew] = (relabel(t2), comp)

    # Internal gluings around the new central edge: face 2 of new tet k
    # (opposite its vertex 2) meets face 3 of new tet k+1.
    swap23 = (0, 1, 3, 2)
    for k in range(3):
        k2 = (k + 1) % 3
        glu[n - 2 + k][2] = (n - 2 + k2, swap23)
        glu[n - 2 + k2][3] = (n - 2 + k, swap23)

    return make_triangulation(glu)
