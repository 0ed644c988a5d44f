"""Benchmark inputs: the checked-in census corpus and seeded generators.

Everything here is independent of the ``tvcalc`` package, so a change to
the program cannot change what the benchmark feeds it: the census texts
are read from ``corpus/``, and the grown family is made by this module's
own 2-3 move.  A triangulation is a list of rows, one per tetrahedron;
row entry ``f`` is ``None`` or ``(t2, p)``, the partner tetrahedron and
the images of vertices 0..3, exactly as in the gluing-table text format.
"""
from __future__ import annotations

import math
import random
from itertools import combinations
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
CENSUS_COUNTS = {1: 4, 2: 17, 3: 81}

INVARIANT_LEVELS = (4, 5, 6, 7)
GROWN_LEVELS = (5, 6, 7)
GROWN_WALKS = 3
GROWN_BASE_TETS = 2
GROWN_MIN_TETS = 5
GROWN_MAX_TETS = 10
# colourings per member size and level (see walk_work), in all near the
# 15th percentile of uniform walks; one pass then takes some 7 s
GROWN_WORK = {5: (9, 22, 45), 6: (13, 40, 86), 7: (18, 62, 172),
              8: (26, 116, 345), 9: (38, 188, 669), 10: (54, 320, 1317)}
GROWN_SPREAD = 0.1
GROWN_MAX_ATTEMPTS = 200
FIELD_LEVELS = (11, 17, 23, 31)


# -- gluing-table text ---------------------------------------------------------

def parse(text: str) -> list:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line == "tri 1":
            continue
        head, _, rest = line.partition(":")
        if head.split() != ["tet", str(len(rows))]:
            raise ValueError(f"unexpected line {raw!r}")
        row = []
        for cell in rest.split():
            if cell == "-":
                row.append(None)
            else:
                t2, _, perm = cell.partition(":")
                row.append((int(t2), tuple(int(c) for c in perm)))
        if len(row) != 4:
            raise ValueError(f"expected 4 faces in {raw!r}")
        rows.append(row)
    return rows


def serialise(rows) -> str:
    out = ["tri 1"]
    for t, row in enumerate(rows):
        cells = ["-" if g is None else f"{g[0]}:{''.join(map(str, g[1]))}"
                 for g in row]
        out.append(f"tet {t}: " + " ".join(cells))
    return "\n".join(out) + "\n"


# -- combinatorics -----------------------------------------------------------

def _compose(p, q):
    """p after q."""
    return tuple(p[q[i]] for i in range(4))


def _invert(p):
    inv = [0] * 4
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        self.parent[self.find(x)] = self.find(y)

    def count(self) -> int:
        return len({self.find(x) for x in range(len(self.parent))})


# local edge k of a tetrahedron joins the k-th vertex pair 01, 02, ..., 23
_EDGE_INDEX = {pair: k for k, pair in enumerate(combinations(range(4), 2))}


def _classes(rows):
    """Union-finds of the 4n local vertices and the 6n local edges."""
    n = len(rows)
    vertices = _UnionFind(4 * n)
    edges = _UnionFind(6 * n)
    for t, row in enumerate(rows):
        for f, g in enumerate(row):
            if g is None:
                continue
            t2, p = g
            face = [u for u in range(4) if u != f]
            for u in face:
                vertices.union(4 * t + u, 4 * t2 + p[u])
            for u, v in combinations(face, 2):
                edges.union(6 * t + _EDGE_INDEX[(u, v)],
                            6 * t2 + _EDGE_INDEX[tuple(sorted((p[u], p[v])))])
    return vertices, edges


def vertex_and_edge_counts(rows) -> tuple:
    """Numbers of vertex and edge classes of a gluing table."""
    vertices, edges = _classes(rows)
    return vertices.count(), edges.count()


def colouring_count(rows, r: int, integer_only: bool = False) -> int:
    """Admissible colourings at level r of a closed gluing table.

    Doubled colours 0..r-2 on edge classes (even ones only when
    ``integer_only``); every triangle needs an even sum of at most
    2(r-2) and the triangle inequalities.  Used to size grown inputs.
    """
    _, edges = _classes(rows)
    triangles = []
    for t, row in enumerate(rows):
        for f, (t2, p) in enumerate(row):
            if (t, f) <= (t2, p[f]):
                triangles.append(tuple(
                    edges.find(6 * t + _EDGE_INDEX[pair])
                    for pair in combinations([u for u in range(4) if u != f],
                                             2)))
    order = list(dict.fromkeys(e for tri in triangles for e in tri))
    level = {e: k for k, e in enumerate(order)}
    checks = [[] for _ in order]
    for tri in triangles:
        checks[max(level[e] for e in tri)].append(
            tuple(level[e] for e in tri))
    values = range(0, r - 1, 2 if integer_only else 1)
    colour = [0] * len(order)
    top = 2 * (r - 2)

    def count(k):
        if k == len(order):
            return 1
        total = 0
        for value in values:
            colour[k] = value
            for i, j, m in checks[k]:
                a, b, c = colour[i], colour[j], colour[m]
                s = a + b + c
                if s & 1 or s > top or 2 * max(a, b, c) > s:
                    break
            else:
                total += count(k + 1)
        return total

    return count(0)


def check_closed_one_vertex(rows, tets: int) -> None:
    """Raise ValueError unless ``rows`` is a closed, involutive, one-vertex
    gluing table on ``tets`` tetrahedra with Euler characteristic 0."""
    if len(rows) != tets:
        raise ValueError(f"expected {tets} tetrahedra, got {len(rows)}")
    for t, row in enumerate(rows):
        for f, g in enumerate(row):
            if g is None:
                raise ValueError(f"face {f} of tetrahedron {t} is unglued")
            t2, p = g
            if sorted(p) != [0, 1, 2, 3] or (t2, p[f]) == (t, f):
                raise ValueError(f"bad gluing at tetrahedron {t} face {f}")
            if rows[t2][p[f]] != (t, _invert(p)):
                raise ValueError(f"gluing at tetrahedron {t} face {f} "
                                 "is not involutive")
    v, e = vertex_and_edge_counts(rows)
    # closed 3-manifold: v - e + f - t = 0 with f = 2t
    if v != 1 or e != tets + 1:
        raise ValueError(f"{v} vertices and {e} edges on {tets} tetrahedra")


def internal_faces(rows) -> list:
    """(t, f) of every face glued to a different tetrahedron, once per pair."""
    out = []
    for t, row in enumerate(rows):
        for f, (t2, p) in enumerate(row):
            if t2 != t and (t, f) < (t2, p[f]):
                out.append((t, f))
    return out


def move_23(rows, t0: int, f0: int) -> list:
    """2-3 move on the triangle at face ``f0`` of tetrahedron ``t0``.

    The two tetrahedra on either side must differ.  They are removed and
    three tetrahedra around a new edge joining their apexes are appended.
    New tetrahedron k has vertices (apex of t0, apex of t1, e_k, e_k+1)
    where e_0, e_1, e_2 are the triangle's vertices in t0.
    """
    t1, sigma = rows[t0][f0]
    if t1 == t0:
        raise ValueError("the triangle has one tetrahedron on both sides")
    f1 = sigma[f0]
    eq = [u for u in range(4) if u != f0]
    # outer face (old tet, old face) -> (new index k, new face, map new->old)
    outer = {}
    for k in range(3):
        a, b, c = eq[k], eq[(k + 1) % 3], eq[(k + 2) % 3]
        outer[(t0, c)] = (k, 1, (f0, c, a, b))
        outer[(t1, sigma[c])] = (k, 0, (sigma[c], f1, sigma[a], sigma[b]))

    kept = [t for t in range(len(rows)) if t not in (t0, t1)]
    new_index = {t: i for i, t in enumerate(kept)}
    base = len(kept)
    identity = (0, 1, 2, 3)

    def place(t, f):
        """New (tet, face, map new->old) of old face (t, f)."""
        if (t, f) in outer:
            k, face, m = outer[(t, f)]
            return base + k, face, m
        return new_index[t], f, identity

    out = [[None] * 4 for _ in range(base + 3)]
    for t, row in enumerate(rows):
        for f, (t2, p) in enumerate(row):
            if {(t, f), (t2, p[f])} == {(t0, f0), (t1, f1)}:
                continue
            src, face, m = place(t, f)
            dst, _, m2 = place(t2, p[f])
            out[src][face] = (dst, _compose(_invert(m2), _compose(p, m)))
    # internal faces around the new edge: face 2 of new tet k meets
    # face 3 of new tet k+1, swapping the last two vertices
    swap = (0, 1, 3, 2)
    for k in range(3):
        k2 = (k + 1) % 3
        out[base + k][2] = (base + k2, swap)
        out[base + k2][3] = (base + k, swap)
    return out


# -- corpus ----------------------------------------------------------------------

def census_name(tets: int, index: int) -> str:
    """File name ``tv census`` gives its index-th result."""
    return f"census_t{tets}_{index:04d}.tri"


def census_texts(tets: int) -> list:
    return [(CORPUS_DIR / census_name(tets, i)).read_text()
            for i in range(CENSUS_COUNTS[tets])]


def one_vertex(text: str) -> bool:
    return vertex_and_edge_counts(parse(text))[0] == 1


# -- seeded workloads ------------------------------------------------------------

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def invariant_q_choices(seed: int) -> dict:
    """The seed's q' != 1 per level, with gcd(q', 2r) = 1."""
    rng = _rng("invariant_table", seed)
    return {r: rng.choice([q for q in range(2, 2 * r)
                           if math.gcd(q, 2 * r) == 1])
            for r in INVARIANT_LEVELS}


def walk_work(rows) -> tuple:
    """Colourings the grown workload sums for one member, per level:
    integer-only at the odd levels (the fast path) and all of them at
    r = 6."""
    return tuple(colouring_count(rows, r, integer_only=r % 2 == 1)
                 for r in GROWN_LEVELS)


def deviation(work, target) -> float:
    """Largest relative deviation of a level's colourings from the target."""
    return max(abs(w - t) / t for w, t in zip(work, target))


def grown_family(seed: int) -> list:
    """Seeded 2-3 walks from distinct one-vertex 2-tetrahedron census inputs.

    Returns one (base index, base text, [(tets, text), ...]) per walk,
    listing the members with GROWN_MIN_TETS..GROWN_MAX_TETS tetrahedra.
    The colourings a member carries vary about fivefold between uniform
    walks, so a step that makes a member moves on the internal face
    whose member's walk_work deviates least from GROWN_WORK for its
    size (the first in seeded order among equals); a walk whose best
    member deviates by more than GROWN_SPREAD at some level starts again
    from another base.  The seed picks the bases and the faces moved on
    below GROWN_MIN_TETS, but not how much work each member is.
    """
    rng = _rng("grown_family", seed)
    texts = census_texts(GROWN_BASE_TETS)
    bases = [i for i, text in enumerate(texts) if one_vertex(text)]
    walks = []
    for _ in range(GROWN_MAX_ATTEMPTS):
        if len(walks) == GROWN_WALKS:
            return walks
        index = rng.choice(bases)
        members = _sized_walk(parse(texts[index]), rng)
        if members is not None:
            walks.append((index, texts[index], members))
            bases.remove(index)
    raise RuntimeError(f"no {GROWN_WALKS} sized walks after "
                       f"{GROWN_MAX_ATTEMPTS} attempts")


def _sized_walk(rows, rng):
    members = []
    for tets in range(GROWN_BASE_TETS + 1, GROWN_MAX_TETS + 1):
        faces = internal_faces(rows)
        rng.shuffle(faces)
        target = GROWN_WORK.get(tets)
        if target is None:
            rows = move_23(rows, *faces[0])
        else:
            moves = [move_23(rows, *face) for face in faces]
            miss = [deviation(walk_work(m), target) for m in moves]
            best = min(range(len(moves)), key=miss.__getitem__)
            if miss[best] > GROWN_SPREAD:
                return None
            rows = moves[best]
        check_closed_one_vertex(rows, tets)
        if tets >= GROWN_MIN_TETS:
            members.append((tets, serialise(rows)))
    return members
