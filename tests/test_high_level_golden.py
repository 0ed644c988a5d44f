"""Replay of ``compute --json`` at levels where products go through
Kronecker substitution.

``cli_golden.json`` stops at r = 6, below ``KRONECKER_DEGREE``.  This
file pins the three one-vertex one-tetrahedron census members (written as
``census_t1_{i:04d}.tri``, with i their index in the n = 1 census) at
r = 17, 23 and 31, and after those at r = 47, for the automatic
algorithm and for ``--algorithm naive``.  At r = 47 the tetrahedron sum
needs slot widths that a bound from binomial coefficients alone gets
wrong.  Exit code, stdout and stderr must match byte for byte.

A change that alters this output on purpose regenerates the file with
``python tests/test_high_level_golden.py`` (from the repository root, with
``src`` and ``tests`` on the path) and says why.
"""
import json
from pathlib import Path

from test_cli_golden import _run
from tvcalc import build_skeleton, serialise_triangulation

GOLDEN = Path(__file__).resolve().parent / "high_level_golden.json"
# groups of levels, each group a later block of the file
LEVELS = ((17, 23, 31), (47,))


def _calls(directory: Path, census1) -> list:
    names = []
    for i, tri in enumerate(census1):
        if build_skeleton(tri).v == 1:
            name = f"census_t1_{i:04d}.tri"
            (directory / name).write_text(serialise_triangulation(tri))
            names.append(name)
    return [["compute", "--file", name, "--r", str(r), "--json", *algo]
            for levels in LEVELS for name in names for r in levels
            for algo in ([], ["--algorithm", "naive"])]


def _replay(directory: Path, census1) -> list:
    return [_run(directory, argv) for argv in _calls(directory, census1)]


def test_high_level_output_matches_golden_file(tmp_path, census1):
    want = json.loads(GOLDEN.read_text())
    got = _replay(tmp_path, census1)
    assert len(got) == 24
    assert [c["argv"] for c in got] == [c["argv"] for c in want]
    for g, w in zip(got, want):
        assert g == w, g["argv"]


if __name__ == "__main__":
    import tempfile

    from tvcalc import enumerate_census

    with tempfile.TemporaryDirectory() as tmp:
        records = _replay(Path(tmp), list(enumerate_census(1)))
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(rec) for rec in records) + "\n]\n")
    print(f"wrote {len(records)} calls to {GOLDEN}")
