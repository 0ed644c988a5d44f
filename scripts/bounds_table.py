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
from dataclasses import dataclass, field

from tvcalc import (
    bounds,
    build_skeleton,
    enumerate_admissible,
    enumerate_census,
)
from tvcalc.census import MAX_CENSUS_TETS


@dataclass
class SurveyConfig:
    max_tets: int = 2
    levels: tuple = (5, 6, 7)
    json_path: str | None = None
    rows: bool = False
    census_limit: int | None = None
    records: list = field(default_factory=list)


def small_level_cap(n: int, r: int) -> int | None:
    """The 2^n + 1 cap at r = 5, the 3^n + 1 cap at r = 6, 7, else None
    (no cap, so never attained)."""
    return {5: 2 ** n + 1, 6: 3 ** n + 1, 7: 3 ** n + 1}.get(r)


def survey_small_levels(cfg: SurveyConfig) -> None:
    print("one-vertex Z/2-homology-sphere census, counts at r = "
          + ", ".join(map(str, cfg.levels)))
    header = f"{'n':>2} {'#trig':>6} " + " ".join(
        f"{'mean|Adm' + str(r) + '|':>11}" for r in cfg.levels) + f" {'#sharp':>7}"
    print(header)
    for n in range(1, cfg.max_tets + 1):
        corpus = list(enumerate_census(
            n, one_vertex=True, z2_homology_sphere=True,
            limit=cfg.census_limit))
        if not corpus:
            print(f"{n:>2} {0:>6}")
            continue
        counts = [
            tuple(len(enumerate_admissible(build_skeleton(tri), r)[0])
                  for r in cfg.levels)
            for tri in corpus
        ]
        caps = tuple(small_level_cap(n, r) for r in cfg.levels)
        sharp = sum(1 for row in counts if row == caps)
        means = [statistics.mean(col) for col in zip(*counts)]
        print(f"{n:>2} {len(corpus):>6} "
              + " ".join(f"{m:>11.2f}" for m in means)
              + f" {sharp:>7}")
        cfg.records.append({
            "table": "small_levels", "tets": n, "size": len(corpus),
            "means": means, "caps": list(caps), "sharp": sharp,
        })
        if cfg.rows:
            for i, row in enumerate(counts):
                mark = " <- attains every cap" if row == caps else ""
                print(f"     #{i:03d}: {row}{mark}")


def survey_level4(cfg: SurveyConfig) -> None:
    print()
    print("closed census, level-4 count against the cocycle bounds")
    print(f"{'n':>2} {'idx':>4} {'beta1':>5} {'actual':>6} "
          f"{'kernel_sum':>10} {'coarse':>7} {'naive':>8} sharp")
    for n in range(1, cfg.max_tets + 1):
        for idx, tri in enumerate(enumerate_census(
                n, limit=cfg.census_limit)):
            report = bounds(tri, 4)
            print(f"{n:>2} {idx:>4} {report.beta1:>5} {report.actual:>6} "
                  f"{report.kernel_sum_bound:>10} "
                  f"{report.coarse_cocycle_bound:>7} {report.naive:>8} "
                  + ",".join(report.sharp))
            cfg.records.append(
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
    if min(args.levels) < 3:
        ap.error("--levels must all be >= 3")

    cfg = SurveyConfig(max_tets=args.max_tets, levels=tuple(args.levels),
                       json_path=args.json_path, rows=args.rows,
                       census_limit=args.limit)
    survey_small_levels(cfg)
    survey_level4(cfg)
    if cfg.json_path:
        with open(cfg.json_path, "w") as handle:
            json.dump(cfg.records, handle, indent=2, sort_keys=True)
        print(f"\nwrote {len(cfg.records)} records to {cfg.json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
