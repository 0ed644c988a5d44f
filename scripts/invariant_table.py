#!/usr/bin/env python3
"""Invariant values across the small closed census.

Prints one row per census triangulation with its first homology and the
exact invariant at the requested levels, picking the fast evaluation
path where one applies.  Useful for spotting which values separate
manifolds that homology alone does not.
"""

import argparse
import sys

import mpmath

from tvcalc import (
    build_skeleton,
    enumerate_census,
    field_init,
    numeric_eval,
    tv,
    tv_odd_fast,
)
from tvcalc.census import MAX_CENSUS_TETS
from tvcalc.cyclotomic import MAX_DIGITS
from tvcalc.homology import h1_integral


def value(skel, r: int, q: int):
    if r % 2 == 1 and q == 1 and skel.v == 1:
        return tv_odd_fast(skel, r)
    return tv(skel, r, q)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-tets", type=int, default=2)
    ap.add_argument("--levels", type=int, nargs="+", default=[3, 4, 5, 7])
    ap.add_argument("--q", type=int, default=1)
    ap.add_argument("--one-vertex", action="store_true")
    ap.add_argument("--digits", type=int, default=6,
                    help="decimal digits shown next to each exact value")
    args = ap.parse_args(argv)
    if not 1 <= args.max_tets <= MAX_CENSUS_TETS:
        ap.error(f"--max-tets must be between 1 and {MAX_CENSUS_TETS}")
    if not 1 <= args.digits <= MAX_DIGITS:
        ap.error(f"--digits must be between 1 and {MAX_DIGITS}")
    for r in args.levels:
        try:
            field_init(r, args.q)
        except ValueError as exc:
            ap.error(str(exc))

    for n in range(1, args.max_tets + 1):
        for idx, tri in enumerate(enumerate_census(
                n, one_vertex=args.one_vertex)):
            skel = build_skeleton(tri)
            h1 = str(h1_integral(skel))
            cells = []
            for r in args.levels:
                val = value(skel, r, args.q)
                approx = numeric_eval(val, args.digits + 5)
                cells.append(
                    f"r={r}: {val} ~ {mpmath.nstr(approx.real, args.digits)}")
            print(f"n={n} #{idx:03d} v={skel.v} H1={h1:<6} "
                  + " | ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
