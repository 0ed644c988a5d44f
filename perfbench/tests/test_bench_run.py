import json
import shutil
import subprocess
import sys

import inputs
import run
import workloads
from tvcalc.cli import main as tv_main


def _fake_pass(calls, wrong_index=None):
    """Records in which every call returns the value 1, except one."""
    records = []
    for k, argv in enumerate(calls):
        value = "2/1" if k == wrong_index else "1/1"
        records.append({"argv": argv, "code": 0, "stderr": "", "error": None,
                        "stdout": json.dumps({"exact": [value]}) + "\n",
                        "seconds": 0.01 + k * 1e-4, "files": {}})
    return {"wall_s": 0.5, "raw_wall_s": 0.6, "kernel_s": [0.003, 0.004],
            "peak_rss_mb": 20.0, "calls": records}


def _run(monkeypatch, capsys, wrong_index):
    monkeypatch.setattr(run, "setup_seconds", lambda samples: [0.1, 0.2])
    monkeypatch.setattr(run, "run_pass", lambda wl, trace, directory, t:
                        _fake_pass(wl.calls, wrong_index))
    code = run.main(["--workload", "field_scale", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_correct_values_pass(monkeypatch, capsys):
    code, result = _run(monkeypatch, capsys, None)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 24
    assert set(result["metrics"]) == set(run.E2E_UNITS)


def test_injected_wrong_value_fails_the_run(monkeypatch, capsys):
    code, result = _run(monkeypatch, capsys, 4)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 24


def test_a_crashed_worker_fails_every_call_of_its_pass(tmp_path):
    wl = workloads.build("field_scale", 0, tmp_path)
    passes = [_fake_pass(wl.calls), None]
    assert run.failed_calls(wl, passes) == len(wl.calls)


def test_passes_must_agree_byte_for_byte(tmp_path):
    wl = workloads.build("field_scale", 0, tmp_path)
    first, second = _fake_pass(wl.calls), _fake_pass(wl.calls)
    second["calls"][3]["stdout"] = first["calls"][3]["stdout"] + " "
    assert run.failed_calls(wl, [first, second]) == 1


def test_tail_has_ten_calls_beyond_it():
    times = list(range(100))
    assert run.tail(times) == 89
    assert sum(1 for t in times if t > run.tail(times)) == run.TAIL_BEYOND


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_census_reproduces_the_corpus(tmp_path, capsys):
    """The corpus is the program's own n <= 3 census (about 40 s)."""
    for tets, count in inputs.CENSUS_COUNTS.items():
        out = tmp_path / str(tets)
        assert tv_main(["census", "--tets", str(tets), "--out",
                        str(out)]) == 0
        written = sorted(out.iterdir())
        assert [p.name for p in written] == [
            inputs.census_name(tets, i) for i in range(count)]
        assert [p.read_text() for p in written] == inputs.census_texts(tets)
    capsys.readouterr()
