#!/usr/bin/env python3
"""Census survey of admissible-colouring counts against their bounds.

For each tetrahedron count the script enumerates the one-vertex
triangulations with trivial Z/2 homology, compares the colouring counts
at each requested level with that level's cap (2^n + 1 at r = 5, 3^n + 1
at r = 6, 7), and reports how many inputs attain every cap.  A second
table covers the level-4 cocycle bounds on the full closed census.
Desk scale: n <= 3 finishes in under a minute.
"""

import argparse
import json
import statistics
import sys

from tvcalc import bounds, enumerate_census
from tvcalc.census import MAX_CENSUS_TETS
from tvcalc.cyclotomic import MAX_LEVEL


def survey_small_levels(args, records: list) -> None:
    print("one-vertex Z/2-homology-sphere census, counts at r = "
          + ", ".join(map(str, args.levels)))
    header = f"{'n':>2} {'#trig':>6} " + " ".join(
        f"{'mean|Adm' + str(r) + '|':>11}" for r in args.levels) + f" {'#sharp':>7}"
    print(header)
    for n in range(1, args.max_tets + 1):
        corpus = list(enumerate_census(
            n, one_vertex=True, z2_homology_sphere=True, limit=args.limit))
        if not corpus:
            print(f"{n:>2} {0:>6}")
            continue
        reports = [[bounds(tri, r) for r in args.levels] for tri in corpus]
        counts = [tuple(rep.actual for rep in row) for row in reports]
        # the cap depends on n and r alone; None where a level has none
        caps = tuple(rep.small_level_bound for rep in reports[0])
        sharp = sum(1 for row in counts if row == caps)
        means = [statistics.mean(col) for col in zip(*counts)]
        print(f"{n:>2} {len(corpus):>6} "
              + " ".join(f"{m:>11.2f}" for m in means)
              + f" {sharp:>7}")
        records.append({
            "table": "small_levels", "tets": n, "size": len(corpus),
            "means": means, "caps": list(caps), "sharp": sharp,
        })
        if args.rows:
            for i, row in enumerate(counts):
                mark = " <- attains every cap" if row == caps else ""
                print(f"     #{i:03d}: {row}{mark}")


def survey_level4(args, records: list) -> None:
    print()
    print("closed census, level-4 count against the cocycle bounds")
    print(f"{'n':>2} {'idx':>4} {'beta1':>5} {'actual':>6} "
          f"{'kernel_sum':>10} {'coarse':>7} {'naive':>8} sharp")
    for n in range(1, args.max_tets + 1):
        for idx, tri in enumerate(enumerate_census(n, limit=args.limit)):
            report = bounds(tri, 4)
            print(f"{n:>2} {idx:>4} {report.beta1:>5} {report.actual:>6} "
                  f"{report.kernel_sum_bound:>10} "
                  f"{report.coarse_cocycle_bound:>7} {report.naive:>8} "
                  + ",".join(report.sharp))
            records.append(
                {"table": "level4", "tets": n, "index": idx}
                | report.to_json_dict())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-tets", type=int, default=2)
    ap.add_argument("--levels", type=int, nargs="+", default=[5, 6, 7])
    ap.add_argument("--rows", action="store_true",
                    help="print one line per triangulation as well")
    ap.add_argument("--limit", type=int, default=None,
                    help="cap the census size per tetrahedron count")
    ap.add_argument("--json", dest="json_path", default=None,
                    help="also dump every record to this file")
    args = ap.parse_args(argv)
    if not 1 <= args.max_tets <= MAX_CENSUS_TETS:
        ap.error(f"--max-tets must be between 1 and {MAX_CENSUS_TETS}")
    if args.limit is not None and args.limit < 1:
        ap.error("--limit must be >= 1")
    if not all(3 <= r <= MAX_LEVEL for r in args.levels):
        ap.error(f"--levels must all lie in 3..{MAX_LEVEL}")

    records = []
    survey_small_levels(args, records)
    survey_level4(args, records)
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(records, handle, indent=2, sort_keys=True)
        print(f"\nwrote {len(records)} records to {args.json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
