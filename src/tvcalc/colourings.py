"""Admissible edge colourings and the state-sum invariant.

Colours live on edge classes as doubled integers 0..r-2 (twice the
half-integer colour), so every admissibility test is integer arithmetic,
and a colouring is a plain tuple: entry j is the doubled colour of edge
class j.  A colouring is admissible when each triangle class satisfies
the parity condition, the triangle inequalities and the degree bound;
the invariant is the exact cyclotomic sum of per-colouring weights, one
factor per vertex, edge, triangle and tetrahedron class.

One backtracking walker, ``_backtrack``, fills given slots of a colour
list in order and tests each triangle once its last slot has a colour,
against a per-level lookup of the admissible third colours of each
pair (``_third_colours``); a slot that is the lone entry of a triangle
it decides tries only that lookup's range.  It is the search behind
``enumerate_admissible`` (all edges, in an order chosen so triangles
complete as early as possible), behind the extensions of each step of
the elimination engine (a tetrahedron's new edges) and behind the
level-4 cocycle walk of ``fastalgo``; ``count_admissible`` runs the
search of ``enumerate_admissible`` keeping no colouring.
``EnumerationStats.nodes_visited`` counts the fully assigned candidates
of a search that tries every domain value at the last slot: |domain|
per admissible assignment of the other slots, or 1 when there are no
slots, however few values the range lets the walker try.  Pruned
interior branches never build a candidate and are not counted.

Every invariant value comes from ``tv``, whose one walk
(``_packed_walk``) is dynamic programming over tetrahedra that never
lists whole colourings, restricted at most to a Z/2 cohomology class
(on a one-vertex skeleton the zero class is the whole-colour sum).  It
runs at the base q of a level, 1 or (for even q at odd r) r + 1, and
``Cyc.galois`` maps its value to any other q, as every weight is a
rational function of zeta = x^q.  A table value is one integer modulo
2^(rw) + 1 (x -> 2^w, as Phi_2r divides x^r + 1), at a slot width w
proven step by step.  ``sweep_sum`` multiplies out the weight of each
colouring of a given list, at (r, q) directly: the engine's oracle.

A tetrahedron weight is an alternating sum over z of [z+1] times a
quantum multinomial, a product of quantum binomials that the field
context keeps packed, and its terms are one
``FieldContext.multinomial_sum`` (``_tet_weight_sum``).  A triangle
weight is its neighbour times four quantum integers and their inverses
(``_triangle_entry``), and the engine's local factor the tetrahedron
weight times the new edge and triangle weights: each is one
``FieldContext.product``.

Weights are cached on the field context they belong to
(``_cache``), and die with it: triangle and tetrahedron
weights (an edge weight is a quantum integer, which the context keeps),
the engine's local factors per pair of tetrahedron key and
edge-and-triangle key ("local"), and in front of those the same
factors per new edge positions and new faces and raw six colours
("local_raw"), which holds no values of its own and is keyed by the one
tuple per distinct six colours that "tet_raw" keeps.  In front of both,
"ext" keeps the extensions of each engine step, per domain, step kind
and colours of the tetrahedron's old edges, with the numerators and
denominators of "local" values.  The
pools hold memos only, and the engine asks for at most two contexts per
level.  Every key is built from colours or half-sums below r, so each
pool is bounded by a function of the level (README, Library).  The
cocycle basis, the search and elimination plans, the engine's step
layouts and the validity of a skeleton are built once per skeleton and
kept on it (``_derived``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from types import SimpleNamespace

from .cyclotomic import (
    MAX_LEVEL,
    Cyc,
    FieldContext,
    field_init,
    negacyclic_fold,
    negacyclic_pack,
    negacyclic_unpack,
    slot_width,
)
from .homology import CocycleBasis, cocycle_space_1, reduce_colouring
from .triangulation import (
    FACE_EDGES,
    Skeleton,
    Triangulation,
    build_skeleton,
    validate_closed_3manifold,
)

__all__ = [
    "EnumerationStats",
    "admissible_triple",
    "admissible_colouring",
    "enumerate_admissible",
    "count_admissible",
    "vertex_weight",
    "edge_weight",
    "triangle_weight",
    "tetrahedron_weight",
    "WeightSystem",
    "colouring_weight",
    "sweep_sum",
    "tv",
    "tv_at_class",
]


@dataclass
class EnumerationStats:
    nodes_visited: int = 0
    admissible_count: int = 0


def admissible_triple(r: int, a: int, b: int, c: int) -> bool:
    """Test one triangle: doubled colours a, b, c against level r.

    Even sum, each colour at most the sum of the other two, and total at
    most 2(r-2).
    """
    s = a + b + c
    if s & 1:
        return False
    if s > 2 * (r - 2):
        return False
    return a <= b + c and b <= a + c and c <= a + b


def _as_skeleton(obj) -> Skeleton:
    if isinstance(obj, Skeleton):
        return obj
    if isinstance(obj, Triangulation):
        return build_skeleton(obj)
    raise TypeError(f"expected Triangulation or Skeleton, got {type(obj)!r}")


def admissible_colouring(skel: Skeleton, doubled, r: int) -> bool:
    """Check every triangle class of the skeleton against ``doubled``."""
    if len(doubled) != skel.e:
        raise ValueError(f"expected {skel.e} colours, got {len(doubled)}")
    if any(not (0 <= x <= r - 2) for x in doubled):
        return False
    for ea, eb, ec in skel.triangle_edge_classes:
        if not admissible_triple(r, doubled[ea], doubled[eb], doubled[ec]):
            return False
    return True


# ---------------------------------------------------------------------------
# backtracking enumeration


@lru_cache(maxsize=None)
def _third_colours(r: int) -> tuple:
    """Per-level lookup of ``admissible_triple``: ranges[a][b] holds the
    doubled colours c that make (a, b, c) admissible at level r, for a
    and b in 0..r-2, so a test is ``c in ranges[a][b]``."""
    top = 2 * (r - 2)
    return tuple(tuple(range(abs(a - b), min(a + b, top - a - b) + 1, 2)
                       for b in range(r - 1))
                 for a in range(r - 1))


def _backtrack(r: int, domain, colours, slots, checks, stats=None,
               keep=True, accept=None):
    """Every filling of ``colours`` at ``slots`` that passes ``checks``.

    The slots are filled in order, each with the values of ``domain`` in
    increasing order; ``domain`` holds all colours of the level or the
    even ones (``_domain``), so a triangle of two of its colours admits
    no third colour outside it.  checks[k] lists the position triples
    decided once the first k slots are filled (checks[0] reads fixed
    entries only); each triple is tested against the level's
    ``_third_colours`` lookup at that depth and a failure prunes the
    branch.  Where a slot is the lone entry of a triple it decides, the
    slot takes only the lookup's range for the other two colours (met
    with the domain if a fixed colour there lies outside it), which
    tries the same passing values in the same order.  A full filling is
    taken when ``accept`` is None or true on the colour list.  Returns
    the taken colourings as tuples, in lexicographic order along the
    slots, or [] when not ``keep``.  With ``stats``, ``admissible_count``
    grows by every filling taken and ``nodes_visited`` by |domain| at
    every visit of the last slot, or by 1 when there are no slots: the
    fully assigned candidates of a walk trying every domain value.
    """
    ranges = _third_colours(r)
    colours = list(colours)
    found = []
    count = 0
    last = len(slots) - 1

    def walk(k):
        # the last slot takes its full fillings in this loop
        nonlocal count
        leaf = k == last
        if leaf and stats is not None:
            stats.nodes_visited += len(domain)
        slot, pair, outside, tests = plan[k]
        if pair is None:
            values = domain
        else:
            values = ranges[colours[pair[0]]][colours[pair[1]]]
            if outside:
                values = [value for value in values if value in domain]
        for value in values:
            colours[slot] = value
            for a, b, c in tests:
                if colours[c] not in ranges[colours[a]][colours[b]]:
                    break
            else:
                if not leaf:
                    walk(k + 1)
                elif accept is None or accept(colours):
                    count += 1
                    if keep:
                        found.append(tuple(colours))

    if all(colours[c] in ranges[colours[a]][colours[b]]
           for a, b, c in checks[0]):
        if last >= 0:
            plan = _slot_plan(r, colours, domain, slots, checks)
            walk(0)
        elif accept is None or accept(colours):
            count += 1
            if keep:
                found.append(tuple(colours))
    if last < 0 and stats is not None:
        stats.nodes_visited += 1
    if stats is not None:
        stats.admissible_count += count
    return found


def _slot_plan(r: int, colours, domain, slots, checks) -> list:
    """Per slot of ``_backtrack``: (slot, the other two positions of the
    first triple it decides whose lone entry it is, or None, whether a
    fixed colour at those lies outside the domain, the other triples it
    decides).  Every colour lies below r - 1, so only a domain short of
    r - 1 colours has colours outside it."""
    plan = []
    partial = len(domain) < r - 1
    for k, slot in enumerate(slots):
        tests = checks[k + 1]
        for i, (a, b, c) in enumerate(tests):
            if (a == slot) + (b == slot) + (c == slot) != 1:
                continue
            pair = (b, c) if a == slot else (a, c) if b == slot else (a, b)
            outside = partial and any(p not in slots and colours[p] not in
                                      domain for p in pair)
            plan.append((slot, pair, outside, tests[:i] + tests[i + 1:]))
            break
        else:
            plan.append((slot, None, False, tests))
    return plan


def _domain(r: int, integer_only: bool) -> tuple:
    """Doubled colours 0..r-2, or only the even ones (whole colours)."""
    return tuple(range(0, r - 1, 2) if integer_only else range(r - 1))


def _class_target(basis: CocycleBasis, class_coords) -> int:
    """Class coordinates checked against ``basis`` and packed into an int
    (bit k for coordinate k), as ``CocycleBasis.class_bits`` returns."""
    coords = tuple(int(b) for b in class_coords)
    if len(coords) != basis.beta1:
        raise ValueError(
            f"class has length {len(coords)}, expected {basis.beta1}")
    if any(b not in (0, 1) for b in coords):
        raise ValueError(f"class coordinates must be 0 or 1, got {coords}")
    return sum(b << k for k, b in enumerate(coords))


def _search_plan(skel: Skeleton):
    """Static edge order plus the triangle checks that complete per depth.

    Greedy order: always pick the edge class finishing the most triangles,
    ties broken by smallest class id.  Returns (order, checks) where
    checks[k] lists the (ea, eb, ec) triangle triples fully decided once
    the first k edges are assigned and not decided earlier.

    Each triangle keeps its distinct unplaced classes, and each class
    the number of triangles it would finish (those whose only unplaced
    class it is), so placing a class touches only its own triangles and
    a pick reads the counts alone.
    """
    triangles = skel.triangle_edge_classes
    unplaced = [set(tri) for tri in triangles]
    meets = [[] for _ in range(skel.e)]
    finishes = [0] * skel.e
    for t, edges in enumerate(unplaced):
        for e in edges:
            meets[e].append(t)
        if len(edges) == 1:
            finishes[min(edges)] += 1
    order = []
    left = list(range(skel.e))
    while left:
        # max keeps the first, so the smallest class, of equal counts
        e = max(left, key=finishes.__getitem__)
        left.remove(e)
        order.append(e)
        for t in meets[e]:
            edges = unplaced[t]
            edges.discard(e)
            if len(edges) == 1:
                finishes[min(edges)] += 1

    return order, _depth_checks(order, triangles)


def _depth_checks(order, triangles) -> list:
    """The ``_backtrack`` checks of filling the edge classes ``order``
    in turn: checks[k] lists the triangles of ``triangles`` whose
    classes all lie in ``order`` and are all filled once the first k
    are, but not before."""
    depth = {e: k for k, e in enumerate(order, 1)}
    checks = [[] for _ in range(len(order) + 1)]
    for tri in triangles:
        if all(e in depth for e in tri):
            checks[max(depth[e] for e in tri)].append(tri)
    return checks


def enumerate_admissible(
    source,
    r: int,
    integer_only: bool = False,
    class_coords=None,
):
    """All admissible colourings, in increasing colour order along the
    search plan, with search statistics.

    integer_only restricts the search to whole colours (even doubled
    values).  class_coords keeps only colourings whose half-integer
    pattern represents that cohomology class; it is tested at each
    full colouring and does not shrink the search tree.  Returns (list
    of colourings, each a tuple of doubled colours per edge class,
    EnumerationStats).
    """
    return _search(source, r, integer_only, class_coords, keep=True)


def count_admissible(
    source,
    r: int,
    integer_only: bool = False,
    class_coords=None,
) -> EnumerationStats:
    """The statistics of ``enumerate_admissible`` with the same
    arguments, from the same search, keeping no colouring."""
    return _search(source, r, integer_only, class_coords, keep=False)[1]


def _search(source, r: int, integer_only: bool, class_coords, keep: bool):
    if r < 3:
        raise ValueError(f"r must be at least 3, got {r}")
    if r > MAX_LEVEL:
        raise ValueError(f"r must be at most {MAX_LEVEL}, got {r}")
    skel = _as_skeleton(source)
    accept = None
    if class_coords is not None:
        basis = _derived(skel, cocycle_space_1)
        target = _class_target(basis, class_coords)

        def accept(colours):
            return basis.class_bits(reduce_colouring(colours)) == target

    order, checks = _derived(skel, _search_plan)
    stats = EnumerationStats()
    found = _backtrack(r, _domain(r, integer_only), [0] * skel.e, order,
                       checks, stats, keep, accept)
    return found, stats


# ---------------------------------------------------------------------------
# weights

def _cache(ctx: FieldContext) -> dict:
    """The weight pools of ``ctx``, kept on it (``weight_pools``), so
    they live and die with the context.  The engine asks only for the
    base contexts (r, 1) and (r, r + 1); other contexts fill only when
    weights are asked for there directly, as ``sweep_sum`` does."""
    got = ctx.weight_pools
    if got is None:
        got = ctx.weight_pools = {
            "triangle": {}, "tet": {}, "tet_raw": {}, "local": {},
            "local_raw": {}, "ext": {}, "vertex": None}
    return got


def vertex_weight(ctx: FieldContext) -> Cyc:
    """Constant per-vertex factor |zeta - 1/zeta|^2 / (2r)."""
    pool = _cache(ctx)
    if pool["vertex"] is None:
        diff = ctx.zeta_power(1) - ctx.zeta_power(-1)
        pool["vertex"] = (diff * diff.conjugate()) / (2 * ctx.r)
    return pool["vertex"]


def edge_weight(ctx: FieldContext, a: int) -> Cyc:
    """Weight of an edge with doubled colour a: (-1)^a [a+1]."""
    got = ctx.quantum_integer(a + 1)
    return -got if a & 1 else got


def triangle_weight(ctx: FieldContext, a: int, b: int, c: int) -> Cyc:
    """Weight of a triangle with doubled colours a, b, c:
    (-1)^h [h-a]! [h-b]! [h-c]! / [h+1]!, with h = (a + b + c) / 2."""
    if not admissible_triple(ctx.r, a, b, c):
        raise ValueError(f"triple ({a}, {b}, {c}) is not admissible "
                         f"for r={ctx.r}")
    key = (a, b, c) if a <= b <= c else tuple(sorted((a, b, c)))
    return _triangle_entry(ctx, _cache(ctx)["triangle"], key)


def _triangle_entry(ctx: FieldContext, pool: dict, key: tuple) -> Cyc:
    """``triangle_weight`` of the sorted admissible triple ``key``, kept
    in ``pool``.

    The weight is a ratio of factorials, so neighbours differ by four
    quantum integers: with a <= b <= c and h = (a + b + c) / 2,
    D(a, b, c) = -D(a, b, c - 2) [h-a] [h-b] / ([h+1] [h-c+1]), down to
    D(0, b, b) = (-1)^b / [b+1].  (a, b, c - 2) is admissible unless
    a = 0 and c = b, as c = b - a mod 2 and c <= a + b.
    """
    got = pool.get(key)
    if got is None:
        a, b, c = key
        if a == 0 and b == c:
            got = ctx.inverse_quantum_integer(b + 1)
            if b & 1:
                got = -got
        else:
            half = (a + b + c) // 2
            got = -ctx.product([
                _triangle_entry(ctx, pool, tuple(sorted((a, b, c - 2)))),
                ctx.quantum_integer(half - a), ctx.quantum_integer(half - b),
                ctx.inverse_quantum_integer(half + 1),
                ctx.inverse_quantum_integer(half - c + 1)])
        pool[key] = got
    return got


# local edges are indexed by vertex pairs 01,02,03,12,13,23; the three
# quads (pairs of opposite edges) below are fixed by that numbering, and
# the four triangles are FACE_EDGES
_TET_QUADS = ((0, 1, 4, 5), (0, 2, 3, 5), (1, 2, 3, 4))


def tetrahedron_weight(ctx: FieldContext, colours) -> Cyc:
    """Weight of one tetrahedron from its six doubled edge colours.

    colours[k] is the doubled colour of local edge k.  Requires the four
    surrounding triangles to be admissible; the value is an alternating
    sum over the integers z between the largest triangle sum and the
    smallest quad sum (halved colours), empty range giving zero.
    """
    return _tet_entry(ctx, tuple(colours))[2]


def _tet_entry(ctx: FieldContext, colours: tuple):
    """(colours, key, value) of ``tetrahedron_weight``, kept per distinct
    six colours.  The colours are the one tuple kept for them, which the
    engine's raw-colour memos share as keys; the key is the sorted
    triangle and quad half-sums, which the value depends on alone."""
    pool = _cache(ctx)
    got = pool["tet_raw"].get(colours)    # checked before it was stored
    if got is not None:
        return got
    if len(colours) != 6:
        raise ValueError(f"expected 6 colours, got {len(colours)}")
    for ia, ib, ic in FACE_EDGES:
        if not admissible_triple(ctx.r, colours[ia], colours[ib],
                                 colours[ic]):
            raise ValueError(
                f"triangle colours ({colours[ia]}, {colours[ib]}, "
                f"{colours[ic]}) are not admissible for r={ctx.r}")

    # the raw tuple missed; the sum reads only the triangle and quad
    # half-sums, so share the value among all tuples with the same ones
    key = (tuple(sorted(sum(colours[k] for k in tri) // 2
                        for tri in FACE_EDGES)),
           tuple(sorted(sum(colours[k] for k in qd) // 2
                        for qd in _TET_QUADS)))
    value = pool["tet"].get(key)
    if value is None:
        value = pool["tet"][key] = _tet_weight_sum(ctx, *key)
    got = pool["tet_raw"][colours] = (colours, key, value)
    return got


def _tet_weight_sum(ctx: FieldContext, tri_sums, quad_sums) -> Cyc:
    """The alternating sum of ``tetrahedron_weight`` from the sorted
    triangle and quad half-sums.

    Term z is (-1)^z [z+1]! / (prod_t [z-t]! prod_Q [Q-z]!).  Its seven
    parts z - t and Q - z sum to z, as the triangle and the quad
    half-sums both sum to the sum of the six colours, so the term is
    (-1)^z [z+1] times the quantum multinomial of z over the parts: a
    product of at most six quantum binomials, all integral.  Terms with
    z + 1 >= r vanish.

    The terms are one ``FieldContext.multinomial_sum`` over the
    context's packed table, whose slot width comes from the l1 norms
    of the binomials as stored.  The binomial coefficients C(n, k), the
    l1 norms before the reduction by Phi_2r, do not bound the sum:
    [2 1] = zeta + 1/zeta has l1 norm 45 at r = 47, and a width sized
    from C(n, k) gets (2, 2, 2, 2, 2, 0) wrong there.
    """
    terms = []
    for z in range(max(tri_sums), min(min(quad_sums), ctx.r - 2) + 1):
        parts = [z - t for t in tri_sums] + [qd - z for qd in quad_sums]
        terms.append((z & 1, parts))
    return ctx.multinomial_sum(terms)


class WeightSystem:
    """Per-colouring weights of a fixed skeleton at level (r, q)."""

    def __init__(self, skel: Skeleton, r: int, q: int = 1):
        self.skel = skel
        self.ctx = field_init(r, q)
        self.vertex_factor = vertex_weight(self.ctx) ** skel.v

    def colouring_weight(self, colouring) -> Cyc:
        """The vertex factor times every edge, triangle and tetrahedron
        weight, as one ``FieldContext.product``."""
        doubled = tuple(colouring)
        skel, ctx = self.skel, self.ctx
        return ctx.product(
            [self.vertex_factor] + [edge_weight(ctx, a) for a in doubled]
            + [triangle_weight(ctx, doubled[ea], doubled[eb], doubled[ec])
               for ea, eb, ec in skel.triangle_edge_classes]
            + [tetrahedron_weight(ctx, tuple(doubled[c] for c in edges))
               for edges in skel.tet_edge_classes])


def colouring_weight(source, colouring, r: int, q: int = 1) -> Cyc:
    """Weight of one admissible colouring: the product over all vertex,
    edge, triangle and tetrahedron classes."""
    skel = _as_skeleton(source)
    doubled = tuple(colouring)
    if not admissible_colouring(skel, doubled, r):
        raise ValueError("colouring is not admissible")
    return WeightSystem(skel, r, q).colouring_weight(doubled)


# ---------------------------------------------------------------------------
# state sum

def _derived(skel: Skeleton, build):
    """``build(skel)``, built once per skeleton and kept on it
    (``Skeleton.derived``): within one call ``tv_odd_fast`` sums at two
    levels, ``compute --class`` needs the cocycle basis three times and
    ``verify`` searches four times."""
    facts = skel.derived
    got = facts.get(build)
    if got is None:
        got = facts[build] = build(skel)
    return got


def _closed_report(skel: Skeleton):
    """The validity report of a closed 3-manifold skeleton; raises
    ValueError for any other."""
    report = validate_closed_3manifold(skel)
    if not report.is_closed_3manifold:
        raise ValueError(
            "not a closed 3-manifold triangulation: "
            + "; ".join(report.messages))
    return report


def _checked_skeleton(source) -> Skeleton:
    """The skeleton of ``source``, validated once per skeleton."""
    skel = _as_skeleton(source)
    _derived(skel, _closed_report)
    return skel


def sweep_sum(skel: Skeleton, colourings, r: int, q: int = 1) -> Cyc:
    """Sum of ``WeightSystem.colouring_weight`` over the given colourings.

    Over all admissible colourings this is the state sum term by term,
    about 4n + 2 field products per colouring.  It is the independent
    oracle for the elimination engine and the sum behind the paper's
    structured enumerations.
    """
    system = WeightSystem(skel, r, q)
    total = system.ctx.zero
    for col in colourings:
        total = total + system.colouring_weight(col)
    return total


def _elimination_plan(skel: Skeleton):
    """Tetrahedron order and per-step bookkeeping of the elimination sum.

    Greedy: next comes the tetrahedron that introduces the fewest new
    edge classes minus the edge classes it finishes (no later tetrahedron
    contains them), ties broken by index.  Returns one step per
    tetrahedron: (tet, new edge classes, faces carrying the triangle
    classes seen for the first time, finished edge classes).
    """
    tets = [tuple(sorted(set(edges))) for edges in skel.tet_edge_classes]
    uses = [0] * skel.e
    for edges in tets:
        for e in edges:
            uses[e] += 1
    introduced = set()
    seen_triangles = set()
    left = set(range(len(tets)))

    def score(t):
        new = sum(1 for e in tets[t] if e not in introduced)
        done = sum(1 for e in tets[t] if uses[e] == 1)
        return new - done, t

    steps = []
    while left:
        t = min(left, key=score)
        left.remove(t)
        new = [e for e in tets[t] if e not in introduced]
        introduced.update(new)
        for e in tets[t]:
            uses[e] -= 1
        faces = []
        for face in range(4):
            c = skel.triangle_class[4 * t + face]
            if c not in seen_triangles:
                seen_triangles.add(c)
                faces.append(face)
        finished = {e for e in tets[t] if uses[e] == 0}
        steps.append((t, new, tuple(faces), finished))
    return steps


def _local_factor(ctx: FieldContext, entry: tuple, edges: tuple,
                  faces: tuple) -> Cyc:
    """Tetrahedron weight times the weights of the local edges ``edges``
    and of the triangles on ``faces``, all read off the six colours of
    ``entry``, a "tet_raw" entry of ``_tet_entry``.

    The edge and triangle part depends only on the multisets of edge
    colours and triangle colour triples, and the tetrahedron weight only
    on its key in the "tet" pool.  The product is cached per level under
    the pair of those two keys, so every step shares it, across calls
    too, and the memo never holds more entries than the tet pool times
    the number of edge and triangle keys.  On a miss all the weights are
    multiplied at once, by ``FieldContext.product`` over the product of
    their denominators; the edge and triangle part has no pool of its
    own, which raised peak RSS with no time gain the benchmark could
    resolve.  The engine calls this only when its raw-colour memo
    ("local_raw") misses, and keeps the value returned here.
    """
    colours, tet_key, tet = entry
    if tet.is_zero():
        return tet
    key = (tuple(sorted(colours[k] for k in edges)),
           tuple(sorted(tuple(sorted(colours[k] for k in FACE_EDGES[face]))
                        for face in faces)))
    pool = _cache(ctx)["local"]
    got = pool.get((tet_key, key))
    if got is None:
        got = pool[tet_key, key] = ctx.product(
            [tet] + [edge_weight(ctx, a) for a in key[0]]
            + [triangle_weight(ctx, a, b, c) for a, b, c in key[1]])
    return got


def _picker(indices):
    """Function taking a tuple to the tuple of its entries at indices."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        i = indices[0]
        return lambda key: (key[i],)
    return lambda key: ()


def _step_layouts(skel: Skeleton) -> list:
    """The steps of ``_elimination_plan`` laid out for ``_packed_walk``,
    each a namespace of:

    - ``kind``: (new faces, the new slot of each local edge or -1 for an
      edge already active, the kept new slots);
    - ``new``: the new edge classes, one per new slot;
    - ``sig_of``: table key -> signature, the colours of the old local
      edges in local order;
    - ``keep_old``: table key -> colours of the active classes kept;
    - ``slots``, ``checks``: the ``_backtrack`` slots and checks of the
      local search, whose colour list holds the signature and then one
      entry per new slot, and ``padding``, the zeros of those entries;
    - ``odd_bits``: (slot, bit of the slot in the odd-mask) per slot;
    - ``six``, ``tail_of``: colour list -> colours of local edges 0..5,
      and of the kept new slots;
    - ``new_edges``: the first local edge of each new slot, sorted.

    A table key's extensions depend only on the kind, the domain and
    the key's signature, so steps of one kind share them across walks,
    skeletons and classes at one context.
    """
    layouts = []
    active = []
    for t, new, faces, finished in _derived(skel, _elimination_plan):
        tet_edges = skel.tet_edge_classes[t]
        where = tuple(new.index(e) if e in new else -1 for e in tet_edges)
        old = [k for k, j in enumerate(where) if j < 0]
        position = [old.index(k) if j < 0 else len(old) + j
                    for k, j in enumerate(where)]
        kept = tuple(j for j, e in enumerate(new) if e not in finished)
        checks = [[] for _ in range(len(new) + 1)]
        for face in faces:
            tri = tuple(position[k] for k in FACE_EDGES[face])
            checks[max(0, max(tri) - len(old) + 1)].append(tri)
        layouts.append(SimpleNamespace(
            kind=(faces, where, kept),
            new=tuple(new),
            sig_of=_picker([active.index(tet_edges[k]) for k in old]),
            keep_old=_picker([i for i, e in enumerate(active)
                              if e not in finished]),
            slots=range(len(old), len(old) + len(new)),
            checks=checks,
            padding=(0,) * len(new),
            odd_bits=[(len(old) + j, 1 << j) for j in range(len(new))],
            six=itemgetter(*position),
            tail_of=_picker([len(old) + j for j in kept]),
            new_edges=tuple(sorted(where.index(j)
                                   for j in range(len(new))))))
        active = ([e for e in active if e not in finished]
                  + [new[j] for j in kept])
    return layouts


@lru_cache(maxsize=None)
def _shared(colours: tuple) -> tuple:
    """One copy of each colour tuple: the "ext" pool keeps its
    signatures and tails through this, as most of them repeat."""
    return colours


def _extensions(ctx: FieldContext, domain: tuple, step, memo: dict,
                sig: tuple) -> tuple:
    """The extensions of signature ``sig`` at ``step``, the value of the
    "ext" pool: for every admissible filling of the new slots after
    ``sig`` whose local factor is nonzero, in ``_backtrack``'s order,
    four entries of one flat tuple: the colours of the kept new slots
    (the tail), the odd-mask of the new colours (bit j for slot j), and
    the numerator and denominator of the local factor.  So the pool
    holds ints and tuples of ints only, which the cyclic garbage
    collector stops tracking; with the factors themselves in it, the
    collector's passes made a walk at size (seed-7 member, n = 16,
    r = 9) some 4% slower.

    The factor is looked up by raw colours in ``memo``, the step's
    "local_raw" memo, keyed by the one tuple "tet_raw" keeps per
    distinct six colours, and built by ``_local_factor`` on a miss.
    """
    faces = step.kind[0]
    six, tail_of, odd_bits = step.six, step.tail_of, step.odd_bits
    out = []
    for colours in _backtrack(ctx.r, domain, sig + step.padding, step.slots,
                              step.checks):
        tet_colours = six(colours)
        weight = memo.get(tet_colours)
        if weight is None:
            entry = _tet_entry(ctx, tet_colours)
            weight = memo[entry[0]] = _local_factor(
                ctx, entry, step.new_edges, faces)
        if not weight.is_zero():
            mask = 0
            for slot, bit in odd_bits:
                if colours[slot] & 1:
                    mask |= bit
            out += (_shared(tail_of(colours)), mask, weight.num, weight.den)
    return tuple(out)


def _base_q(r: int, q: int) -> tuple:
    """(base, s) with the invariant at (r, q) the image of the invariant
    at (r, base) under the automorphism x -> x^s.

    The weights are rational functions of zeta = x^q alone.  For odd q,
    zeta = x^q is the image of x under x -> x^q, so base 1 and s = q.  An
    even q (odd r only, as gcd(q, r) = 1) has no such s over base 1,
    since x^q is then a primitive r-th root; over base r + 1 it has
    s = (q + r) mod 2r, odd and coprime to r, with (r + 1) s = q mod 2r.
    """
    if q & 1:
        return 1, q
    return r + 1, (q + r) % (2 * r)


def _packed_walk(skel: Skeleton, ctx: FieldContext, class_coords,
                 width=None):
    """The fixed-parameter algorithm of Burton, Maria and Spreer
    (arXiv:1503.04099) in the context ``ctx``, with table values packed
    at ``width`` bits per slot, or at a first width sized from step 1's
    factors when None.

    Returns (packed entry of the class or 0, product of the per-step
    denominators, bound, final width): every coefficient of the
    unreduced result lies below 2^bound, and the width is at least
    ``slot_width(bound)``.

    The table maps (colours of the active edge classes, Z/2 class bits)
    to the packed sum of the products of local factors behind that key.
    Each step of ``_elimination_plan`` extends every key by colours on
    the tetrahedron's new edges, rejects extensions that make a newly
    seen triangle class inadmissible, multiplies by one cached local
    factor (new edge weights, newly seen triangle weights, the
    tetrahedron weight), and sums out the edge classes the tetrahedron
    finishes.  A key's extensions are looked up in the "ext" pool, one
    memo per domain and step kind (``_step_layouts``) keyed by the key's
    signature, and searched for by ``_extensions`` only on a miss.  The
    class bits are an XOR of per-edge contributions over the odd
    colours, as ``reduce_colouring`` is linear, so an extension keeps
    the odd-mask of its new colours and each walk maps the mask to class
    bits.  On a one-vertex skeleton the zero class holds exactly the
    whole-colour colourings, so only the even colours are tried there.

    A step packs its factors as numerator times D_t / den at x = 2^w,
    D_t the lcm of the step's denominators, and folds each new value
    once.  With L_t the largest l1 norm of step t's packed factors,
    |f g|_inf <= |f|_inf |g|_1 in Z[x]/(x^r + 1) and at most |domain|^k
    pairs land on one new key, k the classes the step finishes; so each
    table coefficient is at most |domain|^E L_1 ... L_t.  The first
    width, and each wider one when the bound outgrows it, gives every
    step still to come the bits of the current step's L_t; the table,
    still exact, is then repacked (README, State-sum engine).  So the
    width is a function of the walk's input alone.
    """
    r = ctx.r
    integer_only = False
    edge_bits = [0] * skel.e
    target = 0
    if class_coords is not None:
        basis = _derived(skel, cocycle_space_1)
        target = _class_target(basis, class_coords)
        # no coboundaries: the odd edges form a cocycle, zero only if empty
        integer_only = target == 0 and basis.coboundary_dim == 0
        if not integer_only:
            edge_bits = [basis.class_bits(1 << j) for j in range(skel.e)]
    domain = _domain(r, integer_only)

    pool = _cache(ctx)
    ext_pool, raw_pool = pool["ext"], pool["local_raw"]
    steps = _derived(skel, _step_layouts)
    limit = len(domain) ** skel.e
    den = 1
    table = {(0,): 1}           # key: active colours, then class bits
    for done, step in enumerate(steps, 1):
        sig_of = step.sig_of
        lists = ext_pool.setdefault((integer_only, step.kind), {})
        # local factors by raw colours, one memo per (new edge
        # positions, new faces), which steps of several kinds share
        raw = raw_pool.setdefault((step.new_edges, step.kind[0]), {})
        options = {}
        for key in table:
            sig = sig_of(key)
            if sig not in options:
                got = lists.get(sig)
                if got is None:
                    got = lists[_shared(sig)] = _extensions(
                        ctx, domain, step, raw, sig)
                options[sig] = got
        # each local factor has a numerator tuple of its own
        weights = {id(num): (num, fden) for opts in options.values()
                   for num, fden in zip(opts[2::4], opts[3::4])}
        step_den = math.lcm(*[fden for _, fden in weights.values()])
        norm = max((sum(map(abs, num)) * (step_den // fden)
                    for num, fden in weights.values()), default=0)
        limit *= norm
        den *= step_den
        if width is None or slot_width(limit.bit_length()) > width:
            wider = slot_width(limit.bit_length()
                               + (len(steps) - done) * norm.bit_length())
            if width is not None:
                # the table before this step is within the old width
                table = {key: negacyclic_pack(
                    negacyclic_unpack(value, r, width), wider)
                    for key, value in table.items()}
            width = wider
        scaled = {key: negacyclic_pack(num, width) * (step_den // fden)
                  for key, (num, fden) in weights.items()}
        # class bits by odd-mask of the new colours: bit j of the mask
        # moves the class by new edge j's bits, none without a class
        bits_of = [0]
        for e in step.new:
            bits_of += [bits ^ edge_bits[e] for bits in bits_of]
        for sig, opts in options.items():
            entries = iter(opts)
            options[sig] = [(tail, bits_of[mask], scaled[id(num)])
                            for tail, mask, num, _ in zip(
                                entries, entries, entries, entries)]

        nxt = {}
        get = nxt.get
        keep_old = step.keep_old
        for key, value in table.items():
            head = keep_old(key)
            bits = key[-1]
            for tail, ext_bits, weight in options[sig_of(key)]:
                new_key = head + tail + (bits ^ ext_bits,)
                nxt[new_key] = get(new_key, 0) + value * weight
        shift = r * width
        table = {key: negacyclic_fold(value, shift)
                 for key, value in nxt.items()}

    # every edge class is finished, so only the class bits remain
    return table.get((target,), 0), den, limit.bit_length(), width


def tv(source, r: int, q: int = 1, class_coords=None) -> Cyc:
    """The invariant of a closed triangulation at (r, q): the sum of the
    weights of all admissible colourings, or of those whose half-integer
    pattern lies in the Z/2 cohomology class ``class_coords``.

    One ``_packed_walk`` at the base q (``_base_q``), read back, times
    the vertex factor, mapped into (r, q) by ``Cyc.galois``; equals
    ``sweep_sum`` over ``enumerate_admissible`` with the same class.
    """
    skel = _checked_skeleton(source)
    ctx = field_init(r, q)
    base, s = _base_q(r, q)
    walk_ctx = field_init(r, base)
    value, den, _, width = _packed_walk(skel, walk_ctx, class_coords)
    value = (walk_ctx.from_packed(value, width, den)
             * vertex_weight(walk_ctx) ** skel.v)
    return value if base == q else value.galois(s, ctx)


def tv_at_class(source, r: int, q: int, class_coords) -> Cyc:
    """``tv`` restricted to the cohomology class ``class_coords``."""
    return tv(source, r, q, class_coords)
