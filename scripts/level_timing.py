#!/usr/bin/env python3
"""Wall time and peak memory of one-tetrahedron ``tv compute`` per level.

For each requested level the script runs ``tv compute --json`` on the
second triangulation of the one-tetrahedron census (``census_t1_0001``
of the corpus, one vertex), at q = 1 with the automatic algorithm, in a
fresh Python process.  It prints the exit code, the wall seconds of that
process and its peak RSS, which the process reads from ``VmHWM`` in
/proc/self/status as it ends.  ``ru_maxrss`` would not do: Linux
carries a process's RSS high-water mark across exec, so a child's
``ru_maxrss`` is at least the RSS of its parent.  Large levels take
long: about 10 s at r = 101 and a minute at r = 128.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tvcalc
from tvcalc import enumerate_census
from tvcalc.cyclotomic import MAX_LEVEL
from tvcalc.triangulation import serialise_triangulation

# run in the child: the CLI call, then the process's own peak RSS (kB),
# or None where there is no /proc
_CHILD = """
import contextlib, io, json, sys
from tvcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
peak = None
try:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                peak = int(line.split()[1])
except OSError:
    pass
print(json.dumps({"code": code, "peak_kb": peak}))
"""


def time_level(path: Path, r: int) -> dict:
    """Exit code, wall seconds and peak RSS (MB) of one fresh process
    running ``tv compute --json`` on ``path`` at level ``r``."""
    env = dict(os.environ)
    src = str(Path(tvcalc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-c", _CHILD,
            "compute", "--file", str(path), "--r", str(r), "--json"]
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, text=True,
                          check=True)
    wall = time.perf_counter() - start
    result = json.loads(done.stdout.splitlines()[-1])
    peak = result["peak_kb"]
    return {"r": r, "code": result["code"], "wall_s": wall,
            "peak_rss_mb": None if peak is None else peak / 1024}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, nargs="+", default=[47, 61, 101])
    args = ap.parse_args(argv)
    if not all(3 <= r <= MAX_LEVEL for r in args.levels):
        ap.error(f"--levels must all lie in 3..{MAX_LEVEL}")

    tri = list(enumerate_census(1))[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "census_t1_0001.tri"
        path.write_text(serialise_triangulation(tri))
        print("census_t1_0001, q = 1, automatic algorithm, "
              "one fresh process per level")
        print(f"{'r':>4} {'exit':>4} {'wall_s':>8} {'peak_rss_mb':>11}")
        for r in args.levels:
            row = time_level(path, r)
            peak = row["peak_rss_mb"]
            print(f"{r:>4} {row['code']:>4} {row['wall_s']:>8.3f} "
                  + (f"{peak:>11.1f}" if peak is not None else f"{'-':>11}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
