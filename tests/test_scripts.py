"""Smoke tests of the scripts on the one-tetrahedron census."""
import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from tvcalc.census import MAX_CENSUS_TETS
from tvcalc.cli import main
from tvcalc.cyclotomic import MAX_DIGITS, MAX_LEVEL
from tvcalc.triangulation import serialise_triangulation

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bounds_table_takes_caps_per_level(tmp_path, capsys):
    dump = tmp_path / "records.json"
    assert _load("bounds_table").main(
        ["--max-tets", "1", "--levels", "5", "7", "--json", str(dump)]) == 0
    capsys.readouterr()
    records = json.loads(dump.read_text())
    small = [rec for rec in records if rec["table"] == "small_levels"]
    # n = 1: caps 2^1 + 1 at r = 5 and 3^1 + 1 at r = 7; the one-vertex
    # 3-sphere has counts (3, 4) and attains both
    assert [(rec["caps"], rec["sharp"]) for rec in small] == [([3, 4], 1)]
    assert len([rec for rec in records if rec["table"] == "level4"]) == 4


def test_invariant_table_rows(capsys):
    assert _load("invariant_table").main(
        ["--max-tets", "1", "--levels", "3", "4", "5", "6"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 4
    # the 3-sphere on two vertices, then on one
    assert rows[0].startswith("n=1 #000 v=2 H1=0 ")
    assert "r=4: 1/4 ~ 0.25" in rows[1]


def test_level_timing_runs_one_fresh_process_per_level(
        census1, tmp_path, monkeypatch, capsys):
    script = _load("level_timing")
    assert script.main(["--levels", "5"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("census_t1_0001, q = 1")
    assert len(rows) == 3
    r, code, wall, peak, digest = rows[2].split()
    assert (r, code) == ("5", "0")
    assert float(wall) > 0
    # VmHWM of the child alone; where /proc is missing it reads "-"
    assert peak == "-" or 0 < float(peak) < 1000
    # the digest is that of the same call in process, from another
    # directory
    (tmp_path / "census_t1_0001.tri").write_text(
        serialise_triangulation(census1[1]))
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["compute", "--file", "census_t1_0001.tri", "--r", "5",
                     "--json"]) == 0
    assert digest == hashlib.sha256(
        out.getvalue().encode()).hexdigest()[:script.DIGEST_CHARS]


@pytest.mark.parametrize("name, argv, needle", [
    ("bounds_table", ["--max-tets", str(MAX_CENSUS_TETS + 1)], "--max-tets"),
    ("invariant_table", ["--max-tets", str(MAX_CENSUS_TETS + 1)],
     "--max-tets"),
    ("invariant_table", ["--q", "2", "--levels", "4"], "coprime"),
    ("bounds_table", ["--levels", "2", "--max-tets", "1"], "--levels"),
    ("bounds_table", ["--levels", "5", "-1", "--max-tets", "1"], "--levels"),
    ("invariant_table", ["--digits", "0", "--max-tets", "1"], "--digits"),
    ("invariant_table", ["--digits", "-5", "--max-tets", "1"], "--digits"),
    ("bounds_table", ["--max-tets", "0"], "--max-tets"),
    ("bounds_table", ["--limit", "-1", "--max-tets", "1"], "--limit"),
    ("bounds_table", ["--limit", "0", "--max-tets", "1"], "--limit"),
    ("invariant_table", ["--max-tets", "0"], "--max-tets"),
    ("invariant_table", ["--max-tets", "-2"], "--max-tets"),
    ("invariant_table", ["--digits", str(MAX_DIGITS + 1), "--max-tets", "1"],
     "--digits"),
    ("bounds_table", ["--levels", "5", str(MAX_LEVEL + 1), "--max-tets", "1"],
     "--levels"),
    ("invariant_table", ["--levels", "5", "5001", "--max-tets", "1"],
     "at most"),
    ("level_timing", ["--levels", "2"], "--levels"),
    ("level_timing", ["--levels", "5", str(MAX_LEVEL + 1)], "--levels"),
])
def test_scripts_reject_bad_arguments_up_front(name, argv, needle, capsys):
    with pytest.raises(SystemExit) as exc:
        _load(name).main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert needle in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
