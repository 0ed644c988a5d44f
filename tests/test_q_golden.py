"""Replay of recorded ``compute --json`` calls at every q other than 1.

``cli_golden.json`` calls ``compute`` at the default q = 1 only.  This
file, in the same layout, pins the census for n = 1, 2 (written as
``census_t{n}_{i:04d}.tri``) at levels r = 3..7 for every valid q != 1,
even q at odd r included, with the automatic algorithm; and at one q per
level (the smallest valid q > 1) ``--algorithm naive --class`` for every
class.  Exit code, stdout and stderr must match byte for byte.

A change that alters this output on purpose regenerates the file with
``python tests/test_q_golden.py`` (from the repository root, with ``src``
and ``tests`` on the path) and says why.
"""
import json
import math
from pathlib import Path

from test_cli_golden import _run, _write_inputs

GOLDEN = Path(__file__).resolve().parent / "q_golden.json"
LEVELS = range(3, 8)


def _other_q(r):
    return [q for q in range(2, 2 * r) if math.gcd(q, r) == 1]


def _calls(named):
    for name, beta1 in named:
        for r in LEVELS:
            qs = _other_q(r)
            for q in qs:
                yield ["compute", "--file", name, "--r", str(r),
                       "--q", str(q), "--json"]
            for bits in range(1 << beta1):
                cls = "".join(str((bits >> k) & 1) for k in range(beta1))
                yield ["compute", "--file", name, "--r", str(r),
                       "--q", str(qs[0]), "--json", "--algorithm", "naive",
                       "--class", cls]


def _replay(directory: Path, censuses) -> list:
    return [_run(directory, argv)
            for argv in _calls(_write_inputs(directory, censuses))]


def test_q_output_matches_golden_file(tmp_path, census1, census2):
    want = json.loads(GOLDEN.read_text())
    got = _replay(tmp_path, [(1, census1), (2, census2)])
    assert [c["argv"] for c in got] == [c["argv"] for c in want]
    for g, w in zip(got, want):
        assert g == w, g["argv"]


if __name__ == "__main__":
    import tempfile

    from tvcalc import enumerate_census

    with tempfile.TemporaryDirectory() as tmp:
        records = _replay(Path(tmp), [(n, list(enumerate_census(n)))
                                      for n in (1, 2)])
    # one call per line, so a regenerated file diffs call by call
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(rec) for rec in records) + "\n]\n")
    print(f"wrote {len(records)} calls to {GOLDEN}")
