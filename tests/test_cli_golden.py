"""Replay of recorded CLI calls: exit code, stdout and stderr must match.

``cli_golden.json`` holds, for every call, the argument list (input named
by its file name), the exit code and both output streams.  The inputs are
the census for n = 1, 2 written as ``census_t{n}_{i:04d}.tri``, at levels
r = 3..6; the calls are ``compute --json`` (automatic, naive and every
``--class``), ``enumerate --count-only``, ``bounds`` and ``verify``.
``verify`` prints the loop coordinates of every symbol it meets, so the
file also pins ``decompose_symbol`` on the symbols of this census.
After these calls come ``compute --json --class`` for every class of
``census_t3_0071``, member 71 of the census for n = 3, which pin the
order of the Z/2 cocycle basis.

A change that alters any of this output on purpose regenerates the file
with ``python tests/test_cli_golden.py`` (from the repository root, with
``src`` on the path) and says why.
"""
import contextlib
import io
import json
from pathlib import Path

from tvcalc import (
    build_skeleton,
    cocycle_space_1,
    enumerate_census,
    serialise_triangulation,
)
from tvcalc.cli import main

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
LEVELS = range(3, 7)


# census_t3_0071 has beta1 = 2, and at r = 3 and 5 its classes 10 and 01
# take the values -1/2 and 1/2: its class calls pin the order of the Z/2
# cocycle basis, which no call on the census for n <= 2 does
ORDER_INPUT = (3, 71)


def _write_input(directory: Path, n: int, i: int, tri) -> tuple:
    """Serialise one census member; returns (file name, beta1)."""
    name = f"census_t{n}_{i:04d}.tri"
    (directory / name).write_text(serialise_triangulation(tri))
    return name, cocycle_space_1(build_skeleton(tri)).beta1


def _write_inputs(directory: Path, censuses) -> list:
    """Serialise each census member; returns (file name, beta1) pairs."""
    return [_write_input(directory, n, i, tri)
            for n, members in censuses for i, tri in enumerate(members)]


def _classes(beta1: int):
    for bits in range(1 << beta1):
        yield "".join(str((bits >> k) & 1) for k in range(beta1))


def _calls(named, order_named):
    for name, beta1 in named:
        for r in LEVELS:
            level = ["--file", name, "--r", str(r)]
            yield ["compute", *level, "--json"]
            yield ["compute", *level, "--json", "--algorithm", "naive"]
            for cls in _classes(beta1):
                yield ["compute", *level, "--json", "--class", cls]
            yield ["enumerate", *level, "--count-only"]
            yield ["bounds", *level]
            yield ["verify", *level]
    # after the census calls, so their records keep their places
    for name, beta1 in order_named:
        for r in LEVELS:
            for cls in _classes(beta1):
                yield ["compute", "--file", name, "--r", str(r), "--json",
                       "--class", cls]


def _run(directory: Path, argv) -> dict:
    """One in-process call with the input path under ``directory``; the
    directory is cut from the recorded output."""
    prefix = f"{directory}/"
    actual = [prefix + a if a.endswith(".tri") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(actual)
    return {"argv": argv, "exit": code,
            "stdout": out.getvalue().replace(prefix, ""),
            "stderr": err.getvalue().replace(prefix, "")}


def _replay(directory: Path, censuses) -> list:
    n, i = ORDER_INPUT
    order_named = [_write_input(directory, n, i,
                                list(enumerate_census(n))[i])]
    return [_run(directory, argv)
            for argv in _calls(_write_inputs(directory, censuses),
                               order_named)]


def test_cli_output_matches_golden_file(tmp_path, census1, census2):
    want = json.loads(GOLDEN.read_text())
    got = _replay(tmp_path, [(1, census1), (2, census2)])
    assert [c["argv"] for c in got] == [c["argv"] for c in want]
    for g, w in zip(got, want):
        assert g == w, g["argv"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = _replay(Path(tmp), [(n, list(enumerate_census(n)))
                                      for n in (1, 2)])
    # one call per line, so a regenerated file diffs call by call
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(rec) for rec in records) + "\n]\n")
    print(f"wrote {len(records)} calls to {GOLDEN}")
