import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from tvcalc import cli, serialise_triangulation, tv
from tvcalc.census import MAX_CENSUS_TETS
from tvcalc.cli import main
from tvcalc.cyclotomic import MAX_DIGITS, MAX_LEVEL, field_init

ONE_VERTEX_SPHERE = """tri 1
tet 0: 0:1023 0:1023 0:1230 0:3012
"""

# one vertex, first homology Z/5
LENS_LIKE = """tri 1
tet 0: 0:1230 0:3012 0:2031 0:1302
"""

# one vertex, first homology Z/4, so one bit of Z/2 cohomology
TORSION_LIKE = """tri 1
tet 0: 0:1230 0:3012 0:1230 0:3012
"""

OPEN_TRI = """tri 1
tet 0: - - - -
"""

# two copies of the one-vertex sphere, not glued to each other
DISCONNECTED = """tri 1
tet 0: 0:1023 0:1023 0:1230 0:3012
tet 1: 1:1023 1:1023 1:1230 1:3012
"""


@pytest.fixture()
def sphere_file(tmp_path):
    path = tmp_path / "sphere.tri"
    path.write_text(ONE_VERTEX_SPHERE)
    return str(path)


@pytest.fixture()
def lens_file(tmp_path):
    path = tmp_path / "lens.tri"
    path.write_text(LENS_LIKE)
    return str(path)


@pytest.fixture(scope="module")
def lens_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "lens.tri"
    path.write_text(LENS_LIKE)
    return str(path)


@pytest.fixture(scope="module")
def torsion_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "torsion.tri"
    path.write_text(TORSION_LIKE)
    return str(path)


def _run(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_usage_error(code, out, err):
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tv: error:"), lines


def _valid_level(r, q):
    return r <= MAX_LEVEL and 0 < q < 2 * r and math.gcd(q, r) == 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compute_level_and_q_fuzz(lens_path, data):
    # exit 0 exactly on a valid level; otherwise a usage error on one
    # line, raised as no exception
    r = data.draw(st.integers(3, 12) | st.integers(MAX_LEVEL + 1, 10 ** 9))
    q = data.draw(st.integers(-3, 2 * r + 3))
    code, out, err = _run(["compute", "--file", lens_path, "--r", str(r),
                           "--q", str(q), "--json"])
    if _valid_level(r, q):
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert (doc["r"], doc["q"]) == (r, q)
    else:
        _assert_usage_error(code, out, err)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compute_options_fuzz(torsion_path, data):
    # --class, --digits and --algorithm crossed with r and q on a
    # one-vertex input with one bit of Z/2 cohomology: exit 0 exactly
    # when every option is valid for the level, else one usage error
    r = data.draw(st.integers(3, 8))
    q = data.draw(st.integers(0, 2 * r))
    algorithm = data.draw(st.sampled_from([None, "naive", "tv4",
                                           "odd-fast"]))
    class_bits = data.draw(st.none() | st.text("01x", max_size=3))
    # above the cap only by a little, so a missing cap fails fast
    digits = data.draw(st.integers(-3, 40) | st.sampled_from(
        [MAX_DIGITS + 1, 2 * MAX_DIGITS]))
    argv = ["compute", "--file", torsion_path, "--r", str(r), "--q", str(q),
            "--digits", str(digits), "--json"]
    if algorithm is not None:
        argv += ["--algorithm", algorithm]
    if class_bits is not None:
        argv += ["--class", class_bits]
    code, out, err = _run(argv)

    valid = (1 <= digits <= MAX_DIGITS and _valid_level(r, q)
             and class_bits in (None, "0", "1"))
    if algorithm == "tv4":
        valid = valid and r == 4 and class_bits is None
    elif algorithm == "odd-fast":
        valid = valid and r % 2 == 1 and q == 1 and class_bits is None
    if not valid:
        _assert_usage_error(code, out, err)
        return
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert (doc["r"], doc["q"], doc["class"], doc["digits"]) == (
        r, q, class_bits, digits)
    if algorithm is not None:
        assert doc["algorithm"] == algorithm


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["enumerate", "bounds"]),
       r=st.integers(-3, 9), flags=st.lists(
           st.sampled_from(["--count-only", "--integer-only"]), unique=True))
def test_enumerate_and_bounds_level_fuzz(lens_path, command, r, flags):
    argv = [command, "--file", lens_path, "--r", str(r)]
    if command == "enumerate":
        argv += flags
    code, out, err = _run(argv)
    if r < 3:
        _assert_usage_error(code, out, err)
        return
    assert code == 0 and err == ""
    if command == "bounds":
        assert json.loads(out)["r"] == r


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["compute", "enumerate", "bounds", "verify"]),
       r=st.integers(MAX_LEVEL + 1, 10 ** 9))
def test_level_above_the_cap_fuzz(lens_path, command, r):
    # refused at once, before any field context or level table is built
    contexts = field_init.cache_info().currsize
    start = time.perf_counter()
    code, out, err = _run([command, "--file", lens_path, "--r", str(r)])
    assert time.perf_counter() - start < 1
    _assert_usage_error(code, out, err)
    assert f"at most {MAX_LEVEL}" in err
    assert field_init.cache_info().currsize == contexts


@settings(max_examples=25, deadline=None)
@given(tets=st.integers(-3, 2) | st.sampled_from(
           [MAX_CENSUS_TETS + 1, 10 ** 6]),
       flags=st.lists(st.sampled_from(["--one-vertex", "--z2hs"]),
                      unique=True))
def test_census_tets_fuzz(tmp_path_factory, tets, flags):
    # valid sizes are drawn from 1..2 only: n = 4 takes minutes
    out_dir = tmp_path_factory.mktemp("census")
    code, out, err = _run(["census", "--tets", str(tets),
                           "--out", str(out_dir)] + flags)
    if not 1 <= tets <= 2:
        _assert_usage_error(code, out, err)
        assert not any(out_dir.iterdir())
        return
    assert code == 0 and err == ""
    written = sorted(out_dir.glob("*.tri"))
    assert out.splitlines()[-1] == f"wrote {len(written)} file(s) to {out_dir}"


def test_compute_human_output(sphere_file, capsys):
    assert main(["compute", "--file", sphere_file, "--r", "4"]) == 0
    out = capsys.readouterr().out
    assert "exact" in out
    assert "1/4" in out
    assert "algorithm" in out and "tv4" in out
    assert "wall" in out


def test_compute_json_deterministic(sphere_file, capsys):
    docs = []
    for _ in range(3):
        assert main(["compute", "--file", sphere_file, "--r", "5",
                     "--json"]) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1] == docs[2]
    doc = json.loads(docs[0])
    assert doc["r"] == 5 and doc["q"] == 1
    assert "wall_seconds" not in doc
    assert doc["algorithm"] == "odd-fast"
    assert list(doc) == sorted(doc)


def test_compute_algorithms_agree(lens_file, capsys):
    exacts = []
    for extra in (["--algorithm", "naive"], ["--algorithm", "odd-fast"], []):
        assert main(["compute", "--file", lens_file, "--r", "5",
                     "--json", *extra]) == 0
        exacts.append(json.loads(capsys.readouterr().out)["exact"])
    assert exacts[0] == exacts[1] == exacts[2]


def test_compute_class_restriction(tmp_path, capsys):
    path = tmp_path / "z4.tri"
    path.write_text(TORSION_LIKE)
    total = []
    for bits in ("0", "1"):
        assert main(["compute", "--file", str(path), "--r", "4",
                     "--class", bits, "--json",
                     "--algorithm", "naive"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class"] == bits
        total.append(doc["counts"]["admissible"])
    assert main(["compute", "--file", str(path), "--r", "4",
                 "--json", "--algorithm", "naive"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert sum(total) == full["counts"]["admissible"]


def test_consecutive_calls_carry_no_flags(tmp_path, monkeypatch, capsys):
    # main keeps one parser per process; nothing parsed by one call may
    # reach the next
    path = tmp_path / "z4.tri"
    path.write_text(TORSION_LIKE)
    plain = ["compute", "--file", str(path), "--r", "4", "--json"]
    monkeypatch.setattr(cli, "_parser", None)
    assert main([*plain, "--algorithm", "naive", "--class", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "1"
    assert main(["compute", "--file", str(path), "--r", "4", "--class",
                 "01"]) == 2
    assert capsys.readouterr().err.startswith("tv: error:")
    with pytest.raises(SystemExit) as info:
        main(["compute", "--r", "4"])
    assert info.value.code == 2
    capsys.readouterr()
    assert main(plain) == 0
    after = capsys.readouterr()
    monkeypatch.setattr(cli, "_parser", None)
    assert main(plain) == 0
    lone = capsys.readouterr()
    assert (after.out, after.err) == (lone.out, lone.err)
    doc = json.loads(after.out)
    assert (doc["algorithm"], doc["class"]) == ("tv4", None)


def test_compute_usage_errors(sphere_file, capsys):
    cases = (
        ["compute", "--file", sphere_file, "--r", "2"],
        ["compute", "--file", sphere_file, "--r", "6", "--q", "2"],
        ["compute", "--file", sphere_file, "--r", "6", "--q", "0"],
        ["compute", "--file", sphere_file, "--r", "5",
         "--algorithm", "tv4"],
        ["compute", "--file", sphere_file, "--r", "4",
         "--algorithm", "odd-fast"],
        ["compute", "--file", sphere_file, "--r", "5", "--q", "3",
         "--algorithm", "odd-fast"],
        ["compute", "--file", sphere_file, "--r", "4", "--class", "01"],
        ["compute", "--file", sphere_file, "--r", "4", "--class", "x",
         "--algorithm", "naive"],
        ["compute", "--file", sphere_file, "--r", "4", "--class", "0",
         "--algorithm", "tv4"],
    )
    for argv in cases:
        assert main(argv) == 2, argv
        capsys.readouterr()


def test_invalid_input_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.tri")
    assert main(["compute", "--file", missing, "--r", "4"]) == 3
    capsys.readouterr()
    bad = tmp_path / "bad.tri"
    bad.write_text("tri 1\ntet 0: junk\n")
    assert main(["compute", "--file", str(bad), "--r", "4"]) == 3
    capsys.readouterr()
    open_file = tmp_path / "open.tri"
    open_file.write_text(OPEN_TRI)
    assert main(["compute", "--file", str(open_file), "--r", "4"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("tv:") and "invalid" in err


def test_enumerate_output(sphere_file, capsys):
    assert main(["enumerate", "--file", sphere_file, "--r", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [tuple(int(x) for x in line.split()) for line in lines]
    assert (0, 0) in rows and len(rows) == len(set(rows))

    assert main(["enumerate", "--file", sphere_file, "--r", "4",
                 "--count-only"]) == 0
    count_lines = capsys.readouterr().out.splitlines()
    assert int(count_lines[0].split()[-1]) == len(rows)

    assert main(["enumerate", "--file", sphere_file, "--r", "5",
                 "--integer-only"]) == 0
    for line in capsys.readouterr().out.splitlines():
        assert all(int(x) % 2 == 0 for x in line.split())


def test_bounds_json(sphere_file, capsys):
    assert main(["bounds", "--file", sphere_file, "--r", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bounds"]["naive"] == 9
    assert doc["actual"] <= doc["bounds"]["kernel_sum"]


def test_census_command(tmp_path, capsys):
    out = str(tmp_path / "census")
    assert main(["census", "--tets", "1", "--one-vertex", "--z2hs",
                 "--out", out]) == 0
    message = capsys.readouterr().out
    assert "2 file" in message
    files = sorted((tmp_path / "census").glob("*.tri"))
    assert len(files) == 2
    # files are parseable and survive a round trip through the library
    from tvcalc import parse_triangulation
    for path in files:
        tri = parse_triangulation(path.read_text())
        assert serialise_triangulation(tri) == path.read_text()


def test_census_deterministic(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert main(["census", "--tets", "2", "--out", out]) == 0
        capsys.readouterr()
    for p1, p2 in zip(sorted((tmp_path / "a").glob("*.tri")),
                      sorted((tmp_path / "b").glob("*.tri"))):
        assert p1.name == p2.name
        assert p1.read_text() == p2.read_text()


def test_census_size_beyond_limit_is_usage_error(tmp_path, capsys):
    from tvcalc.census import MAX_CENSUS_TETS
    out = tmp_path / "census"
    assert main(["census", "--tets", str(MAX_CENSUS_TETS + 1),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--tets" in err and "Traceback" not in err
    assert not out.exists()


def test_census_unwritable_member_is_reported(tmp_path, capsys):
    out = tmp_path / "census"
    blocked = out / "census_t1_0000.tri"
    blocked.mkdir(parents=True)
    assert main(["census", "--tets", "1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"tv: cannot write {blocked}: ")
    assert "Traceback" not in err


def test_verify_passes_on_good_input(lens_file, capsys):
    assert main(["verify", "--file", lens_file, "--r", "5"]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out
    assert "FAIL" not in out
    assert "decompose" in out


def test_verify_r4_path(sphere_file, capsys):
    assert main(["verify", "--file", sphere_file, "--r", "4"]) == 0
    out = capsys.readouterr().out
    assert "structured" in out
    assert "FAIL" not in out


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    capsys.readouterr()


def test_compute_value_matches_library(lens_file, capsys):
    from tvcalc import parse_triangulation
    assert main(["compute", "--file", lens_file, "--r", "5",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    tri = parse_triangulation(LENS_LIKE)
    assert doc["exact"] == tv(tri, 5, 1).to_strings()


def test_compute_digits_must_be_positive(sphere_file, tmp_path, capsys):
    for digits in ("0", "-3", str(MAX_DIGITS + 1), "1000000"):
        assert main(["compute", "--file", sphere_file, "--r", "5",
                     "--digits", digits]) == 2
        assert "--digits" in capsys.readouterr().err
    # the bound is checked before any work, the input's parse included
    missing = str(tmp_path / "nope.tri")
    assert main(["compute", "--file", missing, "--r", "5",
                 "--digits", "1000000"]) == 2
    assert "--digits" in capsys.readouterr().err
    assert main(["compute", "--file", sphere_file, "--r", "5", "--json",
                 "--digits", str(MAX_DIGITS)]) == 0
    assert json.loads(capsys.readouterr().out)["digits"] == MAX_DIGITS


def test_disconnected_input_is_invalid(tmp_path, capsys):
    path = str(tmp_path / "two.tri")
    (tmp_path / "two.tri").write_text(DISCONNECTED)
    cases = (
        ["verify", "--file", path, "--r", "5"],
        ["bounds", "--file", path, "--r", "4"],
        ["compute", "--file", path, "--r", "4"],
        ["compute", "--file", path, "--r", "5", "--class", "",
         "--algorithm", "naive"],
    )
    for argv in cases:
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert "not connected" in err and "Traceback" not in err


def test_undecodable_input_is_unreadable(tmp_path, capsys):
    path = tmp_path / "binary.tri"
    path.write_bytes(ONE_VERTEX_SPHERE.encode() + b"# \xff\n")
    for argv in (["compute", "--r", "4"], ["enumerate", "--r", "4"],
                 ["bounds", "--r", "4"], ["verify", "--r", "4"]):
        assert main(argv + ["--file", str(path)]) == 3, argv
        err = capsys.readouterr().err
        assert "cannot read" in err and "Traceback" not in err


def test_gluing_errors_report_their_line(tmp_path, capsys):
    path = tmp_path / "bad.tri"
    for body, line in (
            ("tet 0: 0:1023 0:1023 0:1230 7:3012\n", 4),      # out of range
            ("tet 0: 0:1023 0:1023 0:1230 0:3012\n"
             "tet 1: 0:1023 1:1023 1:1230 1:3012\n", 5)):     # not involutive
        path.write_text("tri 1\n# comment\n\n" + body)
        assert main(["compute", "--file", str(path), "--r", "4"]) == 3
        assert f"line {line}:" in capsys.readouterr().err
