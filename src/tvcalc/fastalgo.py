"""Structure-aware colouring enumeration and fast state sums.

At level 3 the admissible colourings are exactly the Z/2 1-cocycles,
so ``cocycle_space_1(skel).span()`` lists them as edge bitmasks (bit j
set: colour 1 on edge class j).  Each level-4 colouring reduces mod 2
to one of them, which turns the level-4 search into small independent
searches over the zero-coloured edges of each cocycle.  For odd levels
on one-vertex triangulations the state sum factors through the level-3
invariant and the zero-class part, which on one vertex is the sum over
whole colours, so only even colours need summing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .colourings import (
    EnumerationStats,
    _backtrack,
    _checked_skeleton,
    _depth_checks,
    _derived,
    count_admissible,
    sweep_sum,
    tv,
    vertex_weight,
)
from .cyclotomic import Cyc, field_init
from .homology import cocycle_space_1
from .triangulation import Skeleton

__all__ = [
    "BoundReport",
    "adm4_structured",
    "tv4_structured",
    "tv_odd_fast",
    "bounds",
]


def _extend_cocycle(skel: Skeleton, mask: int, stats):
    """All level-4 colourings reducing to the nonzero cocycle ``mask``.

    Edges outside the mask (its kernel) may be raised from colour 0 to
    colour 2; edges in it keep colour 1.  A triangle with two colour-1
    edges allows anything on its third edge, so only triangles all of
    whose edges lie in the kernel constrain the search; on colours in
    {0, 2} level-4 admissibility says they carry zero or two 2s.  The
    walk adds its candidates to ``stats.nodes_visited``.
    """
    colours = [(mask >> j) & 1 for j in range(skel.e)]
    kernel = [j for j in range(skel.e) if not colours[j]]
    checks = _depth_checks(kernel, skel.triangle_edge_classes)
    return _backtrack(4, (0, 2), colours, kernel, checks, stats)


def adm4_structured(source):
    """Level-4 admissible colourings via their mod-2 reductions.

    Returns (colourings sorted lexicographically, EnumerationStats).
    Set-equal to enumerate_admissible(source, 4); the node count is at
    most sum(2^|kernel| over nonzero cocycles) + #cocycles.
    """
    skel = _checked_skeleton(source)
    cocycles = list(_derived(skel, cocycle_space_1).span())
    stats = EnumerationStats()
    found = []
    for mask in cocycles:
        if mask:
            found.extend(_extend_cocycle(skel, mask, stats))

    # every doubled cocycle is admissible at level 4: triangle sums stay
    # even and at most 4, and a lone 2 would need an odd number of 1s
    stats.nodes_visited += len(cocycles)
    found.extend(tuple(2 * ((mask >> j) & 1) for j in range(skel.e))
                 for mask in cocycles)

    stats.admissible_count = len(found)
    found.sort()
    return found, stats


def tv4_structured(source, q: int = 1) -> Cyc:
    """Level-4 state sum swept over the structured enumeration.

    Exactly equals tv(source, 4, q).
    """
    skel = _checked_skeleton(source)
    colourings, _ = adm4_structured(skel)
    return sweep_sum(skel, colourings, 4, q)


def tv_odd_fast(source, r: int) -> Cyc:
    """Odd-level invariant of a one-vertex triangulation at q = 1.

    The state sum splits as the level-3 invariant times the
    trivial-class part, divided by the trivial-class part at level 3,
    which is the weight of the zero colouring.  With one vertex the
    trivial class holds exactly the integer colourings, so the engine
    sums only the even colours at level r, at most floor(r/2) per edge
    instead of r - 1.
    """
    if r < 3 or r % 2 == 0:
        raise ValueError("the fast algorithm needs an odd level r >= 3")
    skel = _checked_skeleton(source)
    if skel.v != 1:
        raise ValueError(
            "the fast algorithm needs a one-vertex triangulation; "
            "retriangulate or use the plain state sum")

    level3 = tv(skel, 3)
    assert level3.is_rational(), "level-3 weights are rational"

    # every edge, triangle and tetrahedron factor of the zero colouring
    # is 1, so its weight is the vertex factor alone
    zero_weight = vertex_weight(field_init(3, 1)) ** skel.v
    scale = level3.as_rational() / zero_weight.as_rational()

    beta1 = _derived(skel, cocycle_space_1).beta1
    trivial = tv(skel, r, 1, (0,) * beta1)
    return trivial * scale


@dataclass(frozen=True)
class BoundReport:
    """Size bounds for the admissible-colouring count at one level.

    Bounds that do not apply to the input (wrong level, multiple
    vertices, nonzero Z/2 first Betti number) are None.  ``sharp``
    lists the applicable bound names attained by ``actual``.
    """

    r: int
    tetrahedra: int
    vertices: int
    beta1: int
    naive: int
    kernel_sum_bound: int | None
    coarse_cocycle_bound: int | None
    integer_colour_bound: int | None
    small_level_bound: int | None
    actual: int
    nodes_visited: int
    sharp: tuple

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "tetrahedra": self.tetrahedra,
            "vertices": self.vertices,
            "beta1": self.beta1,
            "bounds": {
                "naive": self.naive,
                "kernel_sum": self.kernel_sum_bound,
                "coarse_cocycle": self.coarse_cocycle_bound,
                "integer_colour": self.integer_colour_bound,
                "small_level": self.small_level_bound,
            },
            "actual": self.actual,
            "nodes_visited": self.nodes_visited,
            "sharp": list(self.sharp),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def bounds(source, r: int) -> BoundReport:
    """Compare the admissible-colouring count against its upper bounds.

    naive: full domain size, (r-1)^edges.  At r = 4, kernel_sum sums
    2^|kernel| over nonzero cocycles plus one per cocycle, and
    coarse_cocycle replaces each kernel by the worst case.  On
    one-vertex triangulations with trivial Z/2 homology the integer
    bound floor(r/2)^(n+1) always applies, and for r in {5, 6, 7} the
    count is further capped by 2^n + 1 or 3^n + 1.
    """
    skel = _checked_skeleton(source)
    n = len(skel.triangulation.gluings)
    basis = _derived(skel, cocycle_space_1)
    beta1 = basis.beta1

    naive = (r - 1) ** skel.e
    kernel_sum = coarse = None
    if r == 4:
        cocycles = list(basis.span())
        kernel_sum = len(cocycles) + sum(
            1 << (skel.e - mask.bit_count()) for mask in cocycles if mask)
        coarse = (len(cocycles) - 1) * ((1 << (skel.e - 1)) + 1) + 1

    integer_bound = small_level = None
    if skel.v == 1 and beta1 == 0:
        integer_bound = (r // 2) ** (n + 1)
        if r == 5:
            small_level = 2 ** n + 1
        elif r in (6, 7):
            small_level = 3 ** n + 1

    stats = count_admissible(skel, r)
    actual = stats.admissible_count

    sharp = tuple(sorted(
        name for name, value in (
            ("naive", naive),
            ("kernel_sum", kernel_sum),
            ("coarse_cocycle", coarse),
            ("integer_colour", integer_bound),
            ("small_level", small_level),
        ) if value is not None and actual == value))

    return BoundReport(
        r=r, tetrahedra=n, vertices=skel.v, beta1=beta1, naive=naive,
        kernel_sum_bound=kernel_sum, coarse_cocycle_bound=coarse,
        integer_colour_bound=integer_bound, small_level_bound=small_level,
        actual=actual, nodes_visited=stats.nodes_visited, sharp=sharp)
